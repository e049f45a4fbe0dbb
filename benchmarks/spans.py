"""Span tracing from outside the program, by wrapping module attributes.

Each wrapped function is replaced, for the duration of one traced op, at
the name its caller looks up: ``birdedge.preprocess.resample`` is the name
``preprocess_recording`` resolves, ``birdedge.cli.decode_wav`` the one the
``preprocess`` subcommand resolves. Nothing inside the program changes, and
untraced ops run the original functions.

A span is recorded per call: name, layer (the birdedge module), metric
group, start, end, parent span and op id. A call made while a span of the
same group is open (``select_best`` calling ``rank``) records no span of
its own, so a group's time is the inclusive time of its outermost calls.
"""

from __future__ import annotations

import json
import os
import statistics
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

import birdedge.audio_io
import birdedge.augment
import birdedge.cli
import birdedge.energy
import birdedge.nnrt
import birdedge.preprocess
import birdedge.trials

LAYERS = ("audio_io", "preprocess", "nnrt", "augment", "trials", "energy", "cli")

# Root spans the harness itself opens; their layer is "bench".
OP, SETUP, CHECK = "op", "setup", "check"


def _bytes_in(counters, args, result):
    source = args[0]
    if isinstance(source, (bytes, bytearray)):
        counters["audio_io.bytes_in"] += len(source)
    else:
        counters["audio_io.bytes_in"] += os.path.getsize(source)


def _voiced(counters, args, result):
    counters["preprocess.samples_in"] += len(args[0].samples)
    counters["preprocess.samples_voiced"] += len(result.samples)


def _windows(counters, args, result):
    clip = args[0]
    windows = len(clip.samples) // int(round(clip.sample_rate * 2.0))
    kept, noise = len(result[0]), len(result[1])
    counters["preprocess.windows"] += windows
    counters["preprocess.windows_kept"] += kept
    counters["preprocess.windows_noise"] += noise
    counters["preprocess.windows_capped"] += windows - kept - noise


def _mel_call(counters, args, result):
    counters["preprocess.mel_calls"] += 1


def _infer_call(counters, args, result):
    counters["nnrt.infer_calls"] += 1


def _augmented(counters, args, result):
    for entry in result[1]:
        key = "augment.noise_skipped" if entry.skipped else "augment.applied"
        counters[key] += 1


def _front(counters, args, result):
    counters["trials.front_size"] += len(result)
    counters["trials.front_calls"] += 1


# (module, attribute, layer, metric group, counter hook)
PATCHES = (
    (birdedge.audio_io, "decode_wav", "audio_io", "audio_io.decode", _bytes_in),
    (birdedge.cli, "decode_wav", "audio_io", "audio_io.decode", _bytes_in),
    (birdedge.preprocess, "resample", "audio_io", "audio_io.resample", None),
    (birdedge.audio_io, "read_spectrogram", "audio_io", "audio_io.read_mels", _bytes_in),
    (birdedge.cli, "read_spectrogram", "audio_io", "audio_io.read_mels", _bytes_in),
    (birdedge.cli, "write_spectrogram", "audio_io", "audio_io.write_mels", None),
    (birdedge.preprocess, "preprocess_recording", "preprocess", "preprocess.recording", None),
    (birdedge.preprocess, "remove_silence", "preprocess", "preprocess.silence", _voiced),
    (birdedge.preprocess, "split_chunks", "preprocess", "preprocess.split", _windows),
    (birdedge.preprocess, "normalize", "preprocess", "preprocess.normalize", None),
    (birdedge.preprocess, "mel_spectrogram", "preprocess", "preprocess.mel", _mel_call),
    (birdedge.nnrt, "infer", "nnrt", "nnrt.infer", _infer_call),
    (birdedge.nnrt, "float_reference_infer", "nnrt", "nnrt.float_ref", None),
    (birdedge.nnrt, "load_model", "nnrt", "nnrt.load_model", None),
    (birdedge.nnrt, "resource_report", "nnrt", "nnrt.resource_report", None),
    (birdedge.augment, "augment_chunk", "augment", "augment.chunk", _augmented),
    (birdedge.trials, "read_trials_csv", "trials", "trials.read_csv", None),
    (birdedge.trials, "read_baseline_csv", "trials", "trials.read_csv", None),
    (birdedge.trials, "select_best", "trials", "trials.rank", None),
    (birdedge.trials, "acc_score", "trials", "trials.rank", None),
    (birdedge.trials, "mem_score", "trials", "trials.rank", None),
    (birdedge.trials, "rank", "trials", "trials.rank", None),
    (birdedge.trials, "pareto_front", "trials", "trials.pareto", _front),
    (birdedge.trials, "compression_rate", "trials", "trials.compress", None),
    (birdedge.trials, "overall_compression", "trials", "trials.compress", None),
    (birdedge.trials, "avg_overall_compression", "trials", "trials.compress", None),
    (birdedge.energy, "load_profile", "energy", "energy.report", None),
    (birdedge.energy, "parse_irradiance", "energy", "energy.report", None),
    (birdedge.energy, "monthly_report", "energy", "energy.report", None),
    (birdedge.cli, "main", "cli", "cli.main", None),
)


class Tracer:
    """Holds the spans and counters of one run in memory."""

    def __init__(self):
        # span: [name, layer, group, start, end, parent, op]
        self.spans: list[list] = []
        self.counters: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._open_groups: set[str] = set()
        self._op = None
        self._originals = [getattr(module, attr) for module, attr, *_ in PATCHES]
        self._wrappers = [
            self._wrap(original, attr, layer, group, hook)
            for original, (module, attr, layer, group, hook) in zip(self._originals, PATCHES)
        ]

    def _begin(self, name, layer, group):
        parent = self._stack[-1] if self._stack else None
        index = len(self.spans)
        self.spans.append([name, layer, group, perf_counter(), None, parent, self._op])
        self._stack.append(index)
        self._open_groups.add(group)
        return index

    def _end(self, index):
        self.spans[index][4] = perf_counter()
        self._stack.pop()
        self._open_groups.discard(self.spans[index][2])

    def _wrap(self, fn, name, layer, group, hook):
        def traced(*args, **kwargs):
            if group in self._open_groups:
                return fn(*args, **kwargs)
            index = self._begin(name, layer, group)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._end(index)
            if hook is not None:
                hook(self.counters, args, result)
            return result

        return traced

    @contextmanager
    def root(self, name: str, op_id: int):
        """Open a harness span with every patch point wrapped."""
        self._op = op_id
        for (module, attr, *_), wrapper in zip(PATCHES, self._wrappers):
            setattr(module, attr, wrapper)
        index = self._begin(name, "bench", name)
        try:
            yield
        finally:
            self._end(index)
            for (module, attr, *_), original in zip(PATCHES, self._originals):
                setattr(module, attr, original)
            self._op = None

    def violations(self) -> int:
        """Spans that are unfinished or that leave their parent's interval."""
        bad = 0
        for span in self.spans:
            start, end, parent = span[3], span[4], span[5]
            if end is None or end < start:
                bad += 1
            elif parent is not None:
                p = self.spans[parent]
                if start < p[3] or p[4] is None or end > p[4]:
                    bad += 1
        return bad

    def write(self, path, t0: float) -> None:
        """Write one JSON line per span, times in seconds from t0."""
        with open(path, "w") as fh:
            for name, layer, group, start, end, parent, op in self.spans:
                record = {
                    "name": name,
                    "layer": layer,
                    "group": group,
                    "start": start - t0,
                    "end": end - t0,
                    "parent": parent,
                    "op": op,
                }
                fh.write(json.dumps(record) + "\n")

    def summary(self, traced_ops: int, flops_per_infer: int) -> dict[str, float]:
        """Per-layer metrics of the traced ops.

        ``<group>_ms`` and counts are means per op, so they add up to work
        totals and pair with call counts. ``<layer>.self_ms`` (span time
        minus child spans) is the layer's self time in the median op (the
        mean of the two middle ops for an even count), so the self times of
        all layers add up to the median traced op; ``bench.self_ms`` is the
        part of it no module span covers.
        Set-up and check calls made outside the ops (float reference, model
        load, resource report) are reported per call.
        """
        per_op = max(traced_ops, 1)
        group_ms: dict[str, float] = defaultdict(float)
        group_calls: dict[str, int] = defaultdict(int)
        self_by_op: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        op_ms: dict[int, float] = {}
        child_ms = [0.0] * len(self.spans)
        for span in self.spans:
            if span[5] is not None:
                child_ms[span[5]] += (span[4] - span[3]) * 1e3
        for i, (name, layer, group, start, end, parent, op) in enumerate(self.spans):
            duration_ms = (end - start) * 1e3
            if op is not None and op >= 0:
                self_by_op[op][layer] += duration_ms - child_ms[i]
                group_ms[group] += duration_ms
                if parent is None:
                    op_ms[op] = duration_ms
            else:
                group_calls[group] += 1
                group_ms["outside." + group] += duration_ms

        c = self.counters
        infer_s = group_ms["nnrt.infer"] / 1e3
        m = {
            "audio_io.decode_ms": group_ms["audio_io.decode"] / per_op,
            "audio_io.resample_ms": group_ms["audio_io.resample"] / per_op,
            "audio_io.read_mels_ms": group_ms["audio_io.read_mels"] / per_op,
            "audio_io.write_mels_ms": group_ms["audio_io.write_mels"] / per_op,
            "audio_io.bytes_in": c["audio_io.bytes_in"] / per_op,
            "preprocess.silence_ms": group_ms["preprocess.silence"] / per_op,
            "preprocess.voiced_ratio": (
                c["preprocess.samples_voiced"] / c["preprocess.samples_in"]
                if c["preprocess.samples_in"] else 0.0
            ),
            "preprocess.split_ms": group_ms["preprocess.split"] / per_op,
            "preprocess.windows": c["preprocess.windows"] / per_op,
            "preprocess.windows_kept": c["preprocess.windows_kept"] / per_op,
            "preprocess.windows_noise": c["preprocess.windows_noise"] / per_op,
            "preprocess.windows_capped": c["preprocess.windows_capped"] / per_op,
            "preprocess.normalize_ms": group_ms["preprocess.normalize"] / per_op,
            "preprocess.mel_ms": group_ms["preprocess.mel"] / per_op,
            "preprocess.mel_calls": c["preprocess.mel_calls"] / per_op,
            "nnrt.infer_ms": group_ms["nnrt.infer"] / per_op,
            "nnrt.infer_calls": c["nnrt.infer_calls"] / per_op,
            "nnrt.gflops": (
                flops_per_infer * c["nnrt.infer_calls"] / infer_s / 1e9 if infer_s else 0.0
            ),
            "nnrt.float_ref_ms": _per_call(group_ms, group_calls, "nnrt.float_ref"),
            "nnrt.load_model_ms": _per_call(group_ms, group_calls, "nnrt.load_model"),
            "nnrt.resource_report_ms": _per_call(group_ms, group_calls, "nnrt.resource_report"),
            "augment.chunk_ms": group_ms["augment.chunk"] / per_op,
            "augment.applied": c["augment.applied"] / per_op,
            "augment.noise_skipped": c["augment.noise_skipped"] / per_op,
            "trials.read_csv_ms": group_ms["trials.read_csv"] / per_op,
            "trials.rank_ms": group_ms["trials.rank"] / per_op,
            "trials.pareto_ms": group_ms["trials.pareto"] / per_op,
            "trials.compress_ms": group_ms["trials.compress"] / per_op,
            "trials.front_size": (
                c["trials.front_size"] / c["trials.front_calls"] if c["trials.front_calls"] else 0.0
            ),
            "energy.report_ms": group_ms["energy.report"] / per_op,
        }
        by_time = sorted(op_ms, key=op_ms.get)
        middle = by_time[(len(by_time) - 1) // 2 : len(by_time) // 2 + 1]
        for layer in ("bench",) + LAYERS:
            m[f"{layer}.self_ms"] = _mean([self_by_op[op][layer] for op in middle])
        m["trace.spans"] = sum(1 for s in self.spans if s[6] is not None and s[6] >= 0) / per_op
        m["trace.span_violations"] = float(self.violations())
        return m


def _mean(values: list[float]) -> float:
    return statistics.fmean(values) if values else 0.0


def _per_call(group_ms, group_calls, group) -> float:
    """Mean ms of the calls a run makes outside its ops (set-up, checks)."""
    calls = group_calls[group]
    return group_ms["outside." + group] / calls if calls else 0.0
