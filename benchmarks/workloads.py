"""The four benchmark workloads.

Each is a closed loop with one client: the harness calls ``op`` on one
item, waits for it, checks the output, then moves on. ``op`` looks every
program function up through its module at call time, so the span wrappers
of a traced op are the functions that run.

A workload exposes:

- ``items``: the seeded inputs, cycled in order;
- ``prepare()``: untimed clean-up before each op;
- ``op(item)``: the timed work;
- ``check(index, output)``: output checks, returning a ``Checked``;
- ``audio_seconds(item)``: input audio one op completes (0 if none);
- ``agreement()``: int8 vs float top-1 agreement, or None.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import shutil
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import birdedge.audio_io as audio_io
import birdedge.cli as cli
import birdedge.nnrt as nnrt
import birdedge.preprocess as preprocess

import inputs

CLASSES = 31
MAX_CHUNKS = 30
CHUNK_SECONDS = 2.0


@dataclass
class Checked:
    """What the checks found in one op's output, and a hash of it."""

    problems: list[str] = field(default_factory=list)
    digest: str = ""
    files_written: int = 0
    bytes_written: int = 0


def chunk_problems(values: np.ndarray, what: str) -> list[str]:
    """A chunk is 64x249, finite, and inside [-80, 0] dB."""
    if values.shape != (inputs.N_MELS, inputs.N_FRAMES):
        return [f"{what}: shape {values.shape}"]
    if not np.isfinite(values).all():
        return [f"{what}: non-finite values"]
    if values.min() < inputs.FLOOR_DB or values.max() > 0.0:
        return [f"{what}: values outside [-80, 0] dB"]
    return []


def probability_problems(p: np.ndarray, what: str) -> list[str]:
    """Probabilities are 31 finite non-negative values summing to 1."""
    p = np.asarray(p)
    if p.shape != (CLASSES,):
        return [f"{what}: shape {p.shape}"]
    if not np.isfinite(p).all() or (p < 0).any():
        return [f"{what}: non-finite or negative probabilities"]
    if abs(float(p.sum()) - 1.0) > 1e-6:
        return [f"{what}: probabilities sum to {float(p.sum())!r}"]
    return []


class _Workload:
    """Defaults for workloads that need no clean-up, carry no audio or
    classify nothing."""

    def prepare(self) -> None:
        pass

    def audio_seconds(self, item) -> float:
        return 0.0

    def agreement(self) -> float | None:
        return None


def _top1_agreement(model, pairs) -> float | None:
    """Share of (spectrogram, int8 probabilities) pairs whose argmax the
    float reference path reproduces; None without any pairs."""
    if not pairs:
        return None
    agree = sum(
        int(np.argmax(nnrt.float_reference_infer(model, spec)) == np.argmax(probs))
        for spec, probs in pairs
    )
    return agree / len(pairs)


class Recording(_Workload):
    """WAV bytes -> decode_wav -> preprocess_recording -> infer per chunk."""

    name = "recording"

    def __init__(self, seed: int, model, work: Path, root: Path):
        self.model = model
        self.items = inputs.recording_pool(seed)
        self._first: dict[int, tuple] = {}

    def op(self, item):
        clip = audio_io.decode_wav(item.data)
        specs, _noise = preprocess.preprocess_recording(clip)
        return specs, [nnrt.infer(self.model, spec) for spec in specs]

    def check(self, index: int, output) -> Checked:
        specs, probs = output
        self._first.setdefault(index, output)
        problems = []
        if not 1 <= len(specs) <= MAX_CHUNKS or len(probs) != len(specs):
            problems.append(f"{len(specs)} chunks kept, {len(probs)} classified")
        digest = hashlib.sha256()
        for k, (spec, p) in enumerate(zip(specs, probs)):
            problems += chunk_problems(spec.values, f"chunk {k}")
            problems += probability_problems(p, f"chunk {k}")
            digest.update(np.ascontiguousarray(spec.values).tobytes())
            digest.update(np.asarray(p, dtype=np.float64).tobytes())
        return Checked(problems, digest.hexdigest())

    def audio_seconds(self, item) -> float:
        return item.seconds

    def agreement(self) -> float | None:
        pairs = [
            pair
            for index in sorted(self._first)
            for pair in zip(*self._first[index])
        ]
        return _top1_agreement(self.model, pairs)


class ChunkStream(_Workload):
    """.mels bytes -> read_spectrogram -> infer, one 2 s window at a time."""

    name = "chunk_stream"

    def __init__(self, seed: int, model, work: Path, root: Path):
        self.model = model
        self.items = inputs.chunk_pool(seed)
        self._first: dict[int, tuple] = {}

    def op(self, item):
        spec = audio_io.read_spectrogram(item)
        return spec, nnrt.infer(self.model, spec)

    def check(self, index: int, output) -> Checked:
        spec, probs = output
        self._first.setdefault(index, output)
        problems = chunk_problems(spec.values, "chunk") + probability_problems(probs, "chunk")
        digest = hashlib.sha256(np.asarray(probs, dtype=np.float64).tobytes())
        return Checked(problems, digest.hexdigest())

    def audio_seconds(self, item) -> float:
        return CHUNK_SECONDS

    def agreement(self) -> float | None:
        return _top1_agreement(self.model, [self._first[i] for i in sorted(self._first)])


def _cli(argv: list[str]) -> int:
    """Run one subcommand in process; its stderr summary is discarded."""
    with contextlib.redirect_stderr(io.StringIO()):
        return cli.main(argv)


def _written(directories) -> tuple[int, int, dict[str, bytes]]:
    """Count and read back every file under the given output directories."""
    files = {}
    for directory in directories:
        for path in sorted(directory.rglob("*")):
            if path.is_file():
                files[str(path.relative_to(directory.parent))] = path.read_bytes()
    return len(files), sum(len(b) for b in files.values()), files


def _digest(files: dict[str, bytes]) -> str:
    """Hash outputs by name and content; manifests carry paths, so skip them."""
    digest = hashlib.sha256()
    for name in sorted(files):
        if not name.endswith("manifest.json"):
            digest.update(name.encode() + b"\0" + files[name])
    return digest.hexdigest()


class CorpusPrep(_Workload):
    """`birdedge preprocess` then `birdedge augment --noise-pool` on a directory."""

    name = "corpus_prep"

    def __init__(self, seed: int, model, work: Path, root: Path):
        self.seed = seed
        self.recordings = inputs.corpus(seed)
        self.in_dir = work / "recordings"
        self.prep_dir = work / "chunks"
        self.aug_dir = work / "augmented"
        self.in_dir.mkdir()
        for rec in self.recordings:
            (self.in_dir / f"{rec.name}.wav").write_bytes(rec.data)
        self.items = [self.in_dir]

    def prepare(self) -> None:
        shutil.rmtree(self.prep_dir, ignore_errors=True)
        shutil.rmtree(self.aug_dir, ignore_errors=True)

    def op(self, item):
        code_pre = _cli(["preprocess", "--in", str(item), "--out", str(self.prep_dir)])
        code_aug = _cli([
            "augment", "--seed", str(self.seed),
            "--in", str(self.prep_dir), "--out", str(self.aug_dir),
            "--noise-pool", str(self.prep_dir / "noise"),
        ])
        return code_pre, code_aug

    def check(self, index: int, output) -> Checked:
        problems = [f"exit code {code}" for code in output if code != 0]
        count, size, files = _written([self.prep_dir, self.aug_dir])
        prep, aug = self.prep_dir.name, self.aug_dir.name
        chunk_names = sorted(n for n in files if n.startswith(prep + "/") and "_chunk" in n)
        for rec in self.recordings:
            chunks = [n for n in chunk_names if n.startswith(f"{prep}/{rec.name}_chunk")]
            noise = [n for n in files if n.startswith(f"{prep}/noise/{rec.name}_noise")]
            if rec.has_calls and not chunks:
                problems.append(f"{rec.name}: no chunks")
            if not rec.has_calls and (chunks or not noise):
                problems.append(f"{rec.name}: {len(chunks)} chunks, {len(noise)} noise windows")
        augmented = sorted(aug + n[len(prep):] for n in chunk_names)
        if sorted(n for n in files if n.startswith(aug + "/") and n.endswith(".mels")) != augmented:
            problems.append("augment did not write one chunk per input chunk")
        for required in (f"{prep}/manifest.json", f"{aug}/manifest.json", f"{aug}/augment_log.txt"):
            if required not in files:
                problems.append(f"missing {required}")
        for name, data in files.items():
            if name.endswith(".mels"):
                try:
                    problems += chunk_problems(inputs.read_mels(data), name)
                except ValueError as err:
                    problems.append(f"{name}: {err}")
        return Checked(problems, _digest(files), count, size)

    def audio_seconds(self, item) -> float:
        return sum(rec.seconds for rec in self.recordings)


class TrialSweep(_Workload):
    """`birdedge rank`, `pareto`, `compress` on a trials CSV, plus `energy`."""

    name = "trial_sweep"

    def __init__(self, seed: int, model, work: Path, root: Path):
        text, baseline = inputs.trials_csv(seed)
        self.ids = [line.split(",")[0] for line in text.splitlines()[1:]]
        self.trials = work / "trials.csv"
        self.baseline = work / "baseline.csv"
        self.trials.write_text(text)
        self.baseline.write_text(baseline)
        self.profile = root / "src" / "birdedge" / "data" / "profile_m7.cfg"
        self.out_dir = work / "reports"
        self.items = [self.trials]

    def prepare(self) -> None:
        shutil.rmtree(self.out_dir, ignore_errors=True)

    def op(self, item):
        out = self.out_dir
        trials = str(item)
        return (
            _cli(["rank", "--trials", trials, "--out", str(out / "rank.csv")]),
            _cli(["pareto", "--trials", trials, "--out", str(out / "pareto.csv")]),
            _cli([
                "compress", "--baseline", str(self.baseline), "--trials", trials,
                "--out", str(out / "compress.csv"),
            ]),
            _cli(["energy", "--profile", str(self.profile), "--out", str(out / "energy.csv")]),
        )

    def check(self, index: int, output) -> Checked:
        problems = [f"exit code {code}" for code in output if code != 0]
        count, size, files = _written([self.out_dir])

        def rows(name):
            text = files.get(f"{self.out_dir.name}/{name}", b"").decode()
            return [line.split(",") for line in text.splitlines()[1:]]

        rank, pareto = rows("rank.csv"), rows("pareto.csv")
        compress, energy = rows("compress.csv"), rows("energy.csv")
        if [r[0] for r in rank] != self.ids or sum(r[-1] == "1" for r in rank) != 1:
            problems.append(f"rank: {len(rank)} rows do not match {len(self.ids)} trials")
        if [r[0] for r in pareto] != self.ids or not any(r[-1] == "1" for r in pareto):
            problems.append(f"pareto: {len(pareto)} rows, wrong ids or an empty front")
        if [r[0] for r in compress] != self.ids + ["pareto_mean"]:
            problems.append(f"compress: {len(compress)} rows do not match the trials")
        if len(energy) != 12 or not any(r[-1] == "1" for r in energy):
            problems.append(f"energy: {len(energy)} rows")
        return Checked(problems, _digest(files), count, size)


WORKLOADS = {w.name: w for w in (Recording, ChunkStream, CorpusPrep, TrialSweep)}
