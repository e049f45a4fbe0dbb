"""Command line front end.

Subcommands mirror the pipeline stages: preprocess, augment, infer, rank,
pareto, compress, energy, bench, gen-fixture. Diagnostics go to stderr,
data goes to files or stdout, and every run that writes files also writes
a JSON manifest alongside them so the exact invocation can be replayed.
File writes are atomic: a sibling temp file is renamed into place.

Exit codes: 0 success, 1 an input error (a BirdEdgeError or an OSError,
reported on stderr as `birdedge <cmd>: <message>`), 2 usage error. Any
other exception is a bug and ends the run with a traceback.
"""

from __future__ import annotations

import argparse
import functools
import io
import json
import os
import re
import sys
import tempfile
import time
from dataclasses import astuple
from importlib import resources
from pathlib import Path

import numpy as np

from . import __version__, augment, energy, nnrt, preprocess, trials
from .audio_io import decode_wav, read_spectrogram, write_spectrogram
from .exceptions import BirdEdgeError, ConfigError, FormatError


def _atomic_write(path: Path, data: bytes) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _write_manifest(path: Path, args: argparse.Namespace, outputs: list[str]) -> None:
    arguments = {
        key: str(value)
        for key, value in sorted(vars(args).items())
        if key != "func" and value is not None
    }
    manifest = {
        "tool": "birdedge",
        "version": __version__,
        "subcommand": args.subcommand,
        "arguments": arguments,
        "outputs": sorted(outputs),
    }
    _atomic_write(path, json.dumps(manifest, indent=2).encode() + b"\n")


def _emit(data: str | bytes, args: argparse.Namespace) -> None:
    """Send a report to --out (with manifest) or stdout (without).

    Bytes, such as a model, need --out.
    """
    if args.out is None:
        sys.stdout.write(data)
        return
    path = Path(args.out)
    _atomic_write(path, data.encode() if isinstance(data, str) else data)
    _write_manifest(path.with_name(path.name + ".manifest.json"), args, [str(path)])


# The report dialect, one field template per column code: s text, g a float
# as %.10g, d an integer or a 0/1 flag, and "" an empty field.
_FIELDS = {"s": "%s", "g": "%.10g", "d": "%d", "": ""}


def _table(header: str | None, row_format: str, rows) -> str:
    """The header line (unless None), then each row, a tuple, rendered by
    one % of row_format's template: one _FIELDS code per column, comma
    separated."""
    line = ",".join(_FIELDS[code] for code in row_format.split(",")) + "\n"
    body = "".join([line % row for row in rows])
    return body if header is None else header + "\n" + body


def _write_mels(path: Path, spec) -> str:
    """Write one spectrogram atomically and return its manifest entry."""
    sink = io.BytesIO()
    write_spectrogram(spec, sink)
    _atomic_write(path, sink.getvalue())
    return str(path)


def _log_entry(entry: augment.AppliedAugmentation, pool_paths: list[Path]) -> str:
    """One augment_log.txt entry: the noise named by its file, floats to 4 places."""
    if entry.skipped:
        return f"{entry.name}(skipped: empty noise pool)"
    rendered = []
    for key, value in entry.params.items():
        if key == "noise_index":
            rendered.append(f"noise={pool_paths[value].name}")
        elif isinstance(value, float):
            rendered.append(f"{key}={value:.4f}")
        else:
            rendered.append(f"{key}={value}")
    return f"{entry.name}({', '.join(rendered)})"


def _wav_inputs(path: Path) -> list[Path]:
    if not path.is_dir():
        return [path]
    files = sorted(p for p in path.iterdir() if p.suffix.lower() == ".wav")
    if not files:
        raise BirdEdgeError(f"no .wav files in {path}")
    by_stem: dict[str, Path] = {}  # outputs are named after the stem
    for file in files:
        first = by_stem.setdefault(file.stem, file)
        if first is not file:
            raise BirdEdgeError(
                f"{first.name} and {file.name} would both write {file.stem}_*.mels"
            )
    return files


def _mels_inputs(path: Path) -> list[Path]:
    files = sorted(p for p in path.iterdir() if p.suffix == ".mels")
    if not files:
        raise BirdEdgeError(f"no .mels files in {path}")
    return files


# ----------------------------------------------------------------- commands


def cmd_preprocess(args) -> int:
    out_dir = Path(args.out)
    noise_dir = Path(args.noise_out) if args.noise_out else out_dir / "noise"
    outputs: list[str] = []
    for wav_path in _wav_inputs(Path(getattr(args, "in"))):
        clip = decode_wav(wav_path.read_bytes())
        specs, noise_chunks = preprocess.preprocess_recording(
            clip,
            silence_threshold=args.silence_threshold,
            peak_ratio=args.peak_ratio,
            max_chunks=args.max_chunks,
        )
        stem = wav_path.stem
        for directory, kind in ((out_dir, "chunk"), (noise_dir, "noise")):
            # an earlier run's outputs; \d+ keeps stem x off stem x_chunk5's files
            stale = re.compile(re.escape(f"{stem}_{kind}") + r"\d+\.mels")
            for path in directory.glob("*.mels"):
                if stale.fullmatch(path.name):
                    path.unlink()
        for i, spec in enumerate(specs):
            outputs.append(_write_mels(out_dir / f"{stem}_chunk{i:03d}.mels", spec))
        noise = [
            _write_mels(noise_dir / f"{stem}_noise{i:03d}.mels", spec)
            for i, spec in enumerate(preprocess.noise_spectrograms(noise_chunks))
        ]
        outputs += noise
        print(
            f"{wav_path.name}: {len(specs)} chunks, {len(noise)} noise windows",
            file=sys.stderr,
        )
    _write_manifest(out_dir / "manifest.json", args, outputs)
    return 0


def cmd_augment(args) -> int:
    in_dir = Path(getattr(args, "in"))
    out_dir = Path(args.out)
    pool_paths: list[Path] = []
    if args.noise_pool:
        pool_dir = Path(args.noise_pool)
        if not pool_dir.is_dir():
            raise BirdEdgeError(f"noise pool {pool_dir} is not a directory")
        pool_paths = sorted(pool_dir.glob("*.mels"))
    pool = [read_spectrogram(path) for path in pool_paths]
    cfg = augment.AugmentConfig(p_apply=args.p_apply, max_augs=args.max_augs)
    outputs: list[str] = []
    log_lines: list[str] = []
    for index, path in enumerate(_mels_inputs(in_dir)):
        spec = read_spectrogram(path)
        rng = augment.chunk_rng(args.seed, index)
        augmented, applied = augment.augment_chunk(spec, pool, cfg, rng)
        outputs.append(_write_mels(out_dir / path.name, augmented))
        entries = " ".join(_log_entry(entry, pool_paths) for entry in applied)
        log_lines.append(f"{path.name}: {entries or 'none'}")
    log_path = out_dir / "augment_log.txt"
    _atomic_write(log_path, ("\n".join(log_lines) + "\n").encode())
    outputs.append(str(log_path))
    _write_manifest(out_dir / "manifest.json", args, outputs)
    return 0


def _load_model_file(path: str):
    return nnrt.load_model(Path(path).read_bytes())


def cmd_infer(args) -> int:
    model = _load_model_file(args.model)
    spec = read_spectrogram(Path(args.spec))
    report = _table("class,probability", "d,g", enumerate(nnrt.infer(model, spec)))
    cost = astuple(nnrt.resource_report(model))
    _emit(report + "\n" + _table("flops,ram_bytes,rom_bytes", "d,d,d", [cost]), args)
    return 0


def cmd_rank(args) -> int:
    table = trials.score_table(trials.read_trials_csv(args.trials))
    rows = [(trial_id, *row) for trial_id, row in table.items()]
    _emit(_table("id,acc_score,mem_score,rank,selected", "s,g,g,g,d", rows), args)
    return 0


def cmd_pareto(args) -> int:
    records = trials.read_trials_csv(args.trials)
    front = trials.pareto_front(records, include_accuracy=not args.resources_only)
    rows = [(t.id, t.acc, t.ram, t.rom, t.flops, t.id in front) for t in records]
    _emit(_table("id,acc,ram,rom,flops,pareto", "s,g,g,g,g,d", rows), args)
    return 0


def cmd_compress(args) -> int:
    baseline = trials.read_baseline_csv(args.baseline)
    records = trials.read_trials_csv(args.trials)
    if any(t.id == "pareto_mean" for t in records):
        raise FormatError("trial id 'pareto_mean' is reserved for the summary row")
    table, mean = trials.compression_table(baseline, records, not args.resources_only)
    rows = [(trial_id, *row) for trial_id, row in table.items()]
    report = _table("id,cr_ram,cr_rom,cr_flops,cr_overall,pareto", "s,g,g,g,g,d", rows)
    _emit(report + _table(None, "s,,,,g,", [("pareto_mean", mean)]), args)
    return 0


def cmd_energy(args) -> int:
    profile = energy.load_profile(args.profile)
    if args.irradiance:
        table = energy.load_irradiance(args.irradiance)
    else:
        data = resources.files("birdedge").joinpath("data/irradiance_de.csv")
        table = energy.parse_irradiance(data.read_text())
    rows = [
        (energy.MONTH_NAMES[r.month - 1], r.s_rad_w_m2, r.average_power_w, r.battery_wh,
         r.charge_power_w, r.panel_area_m2, r.worst)
        for r in energy.monthly_report(profile, table)
    ]
    header = "month,s_rad_w_m2,average_power_w,battery_wh,charge_power_w,panel_area_m2,worst"
    _emit(_table(header, "s,g,g,g,g,g,d", rows), args)
    return 0


def cmd_bench(args) -> int:
    """Latency methodology only: wall-clock per inference, no energy figures."""
    reps = args.repetitions
    if reps < 1:
        raise ConfigError(f"repetitions must be >= 1, got {reps}")
    model = _load_model_file(args.model)
    specs = [read_spectrogram(p) for p in _mels_inputs(Path(args.spec_dir))]
    latencies = np.empty(reps, dtype=np.float64)
    nnrt.infer(model, specs[0])  # untimed: the first call builds the model's plan
    for i in range(reps):
        spec = specs[i % len(specs)]
        start = time.perf_counter()
        nnrt.infer(model, spec)
        latencies[i] = time.perf_counter() - start
    ms = latencies * 1e3
    row = (reps, ms.mean(), ms.std(), ms.min(), ms.max())
    _emit(_table("repetitions,mean_ms,std_ms,min_ms,max_ms", "d,g,g,g,g", [row]), args)
    return 0


def cmd_gen_fixture(args) -> int:
    model = nnrt.generate_fixture_model(args.classes, args.seed)
    _emit(nnrt.save_model(model), args)
    report = nnrt.resource_report(model)
    print(
        f"wrote {args.out}: {len(model.layers)} layers, {report.flops} flops, "
        f"{report.ram_bytes} B ram, {report.rom_bytes} B rom",
        file=sys.stderr,
    )
    return 0


# ------------------------------------------------------------------- parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="birdedge",
        description="Bird call monitoring pipeline tools.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("preprocess", help="WAV recordings to log-mel chunks")
    p.add_argument("--in", required=True, help="wav file or directory of wav files")
    p.add_argument("--out", required=True, help="output directory for .mels chunks")
    p.add_argument("--noise-out", help="directory for rejected windows (default OUT/noise)")
    p.add_argument(
        "--silence-threshold",
        type=float,
        default=preprocess.SILENCE_THRESHOLD,
        help="envelope fraction of the clip peak below which audio is cut",
    )
    p.add_argument(
        "--peak-ratio",
        type=float,
        default=preprocess.PEAK_RATIO,
        help="window max over neighborhood median needed to keep a chunk",
    )
    p.add_argument(
        "--max-chunks",
        type=int,
        default=preprocess.MAX_CHUNKS,
        help="cap on kept chunks per recording",
    )
    p.set_defaults(func=cmd_preprocess)

    p = sub.add_parser("augment", help="randomly augment spectrogram chunks")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--in", required=True, help="directory of .mels chunks")
    p.add_argument("--out", required=True)
    p.add_argument("--noise-pool", help="directory of noise .mels for add_noise")
    p.add_argument("--p-apply", type=float, default=0.5)
    p.add_argument("--max-augs", type=int, default=3)
    p.set_defaults(func=cmd_augment)

    p = sub.add_parser("infer", help="classify one spectrogram")
    p.add_argument("--model", required=True)
    p.add_argument("--spec", required=True)
    p.add_argument("--out")
    p.set_defaults(func=cmd_infer)

    p = sub.add_parser("rank", help="score compression trials")
    p.add_argument("--trials", required=True)
    p.add_argument("--out")
    p.set_defaults(func=cmd_rank)

    p = sub.add_parser("pareto", help="flag Pareto-optimal trials")
    p.add_argument("--trials", required=True)
    p.add_argument(
        "--resources-only",
        action="store_true",
        help="drop accuracy from the objectives",
    )
    p.add_argument("--out")
    p.set_defaults(func=cmd_pareto)

    p = sub.add_parser("compress", help="compression rates against a baseline")
    p.add_argument("--baseline", required=True)
    p.add_argument("--trials", required=True)
    p.add_argument("--resources-only", action="store_true")
    p.add_argument("--out")
    p.set_defaults(func=cmd_compress)

    p = sub.add_parser("energy", help="battery and panel sizing per month")
    p.add_argument("--profile", required=True, help="key=value deployment profile")
    p.add_argument("--irradiance", help="month,s_rad CSV (default: German table)")
    p.add_argument("--out")
    p.set_defaults(func=cmd_energy)

    p = sub.add_parser("bench", help="inference latency statistics")
    p.add_argument("--model", required=True)
    p.add_argument("--spec-dir", required=True)
    p.add_argument("--repetitions", type=int, default=1000)
    p.add_argument("--out")
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("gen-fixture", help="write a seeded fixture model")
    p.add_argument("--classes", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_gen_fixture)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The process's one parser, built on the first main call.

    Parsing does not change a parser, and argparse looks up sys.stdout and
    sys.stderr when it prints, so every call can share it.
    """
    return build_parser()


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (BirdEdgeError, OSError) as err:
        print(f"birdedge {args.subcommand}: {err}", file=sys.stderr)
        return 1


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
