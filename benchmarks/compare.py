"""Compare two sets of benchmark results, workload by workload.

    python3 benchmarks/compare.py BASE NEW

BASE and NEW are results files written by run.py (one JSON object per
line, benchmarks/out/results.jsonl) or directories of such files, e.g.
the committed baseline benchmarks/baseline/ against a fresh
benchmarks/out/. Only untraced runs are compared. Runs pair up by seed;
the baseline holds seeds 201-210 of every workload at the default run
length, so run those seeds to get pairs:

    for w in recording chunk_stream corpus_prep trial_sweep; do
      for s in $(seq 201 210); do
        python3 benchmarks/run.py --workload $w --seed $s --seconds 20 --trace 0
      done
    done
    python3 benchmarks/compare.py benchmarks/baseline benchmarks/out

For every workload and end-to-end metric the table shows each side's
median and quartiles, the pairs NEW wins (ties count for neither) and a
verdict:

- improved: NEW wins at least 9 in 10 pairs and the medians differ by more
  than BASE's interquartile range;
- regressed: NEW's median is worse than BASE's by more than the bound;
- unresolved: either side's spread (interquartile range over median) is
  wider than the bound, unless every NEW run beats every BASE run;
- no worse: otherwise.

Bounds come from BENCHMARK.json. Metrics it does not gate use EXTRA below:
op_ms_tail and audio_x_realtime take the op_ms_p50 bound, and the
per-seed-exact top1_agree_float and failed_ratio may not get worse at
all. The last lines report whether each seed's output digest is
identical on both sides. Exits 1 if any metric regressed.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# metric -> (better, bound or the end-to-end metric whose bound it shares)
EXTRA = {
    "op_ms_tail": ("lower", "op_ms_p50"),
    "audio_x_realtime": ("higher", "op_ms_p50"),
    "top1_agree_float": ("higher", 0.0),
    "failed_ratio": ("lower", 0.0),
}


def load(path: Path) -> list[dict]:
    files = sorted(path.glob("*.jsonl")) if path.is_dir() else [path]
    runs = []
    for file in files:
        for line in file.read_text().splitlines():
            if line.strip():
                record = json.loads(line)
                if record["trace"] == 0:
                    runs.append(record)
    return runs


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def pairs(base: list[dict], new: list[dict], metric: str) -> list[tuple[float, float]]:
    """Values of runs with the same seed, matched in run order."""
    by_seed = defaultdict(list)
    for run in base:
        by_seed[run["seed"]].append(run["metrics"][metric]["value"])
    out = []
    for run in new:
        waiting = by_seed.get(run["seed"])
        if waiting:
            out.append((waiting.pop(0), run["metrics"][metric]["value"]))
    return out


def verdict(a, b, better, bound, won, n_pairs) -> str:
    worse = 1.0 if better == "lower" else -1.0  # sign that makes "worse" positive
    qa, qb = quartiles(a), quartiles(b)
    if n_pairs and won >= 0.9 * n_pairs and worse * (qa[1] - qb[1]) > qa[2] - qa[0]:
        return "improved"
    if worse * (qb[1] - qa[1]) > bound * abs(qa[1]):
        return "regressed"
    spread = max((q[2] - q[0]) / abs(q[1]) if q[1] else 0.0 for q in (qa, qb))
    all_better = worse * (max(b) if worse > 0 else min(b)) < worse * (min(a) if worse > 0 else max(a))
    if bound > 0 and spread > bound and not all_better:
        return "unresolved"
    return "no worse"


def _fmt(q) -> str:
    return f"{q[1]:.5g} [{q[0]:.5g}, {q[2]:.5g}]"


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    base, new = load(Path(argv[0])), load(Path(argv[1]))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = {m["name"]: (m["better"], m["bound"]) for m in spec["end_to_end"]}
    for name, (better, bound) in EXTRA.items():
        metrics[name] = (better, metrics[bound][1] if isinstance(bound, str) else bound)

    workloads = sorted({r["workload"] for r in base} | {r["workload"] for r in new})
    print(f"{'workload':13s} {'metric':17s} {'unit':5s} "
          f"{'base median [q1, q3]':>32s} {'new median [q1, q3]':>32s} {'wins':>6s}  verdict")
    regressed = False
    for workload in workloads:
        a_runs = [r for r in base if r["workload"] == workload]
        b_runs = [r for r in new if r["workload"] == workload]
        if not a_runs or not b_runs:
            print(f"{workload:13s} only on one side ({len(a_runs)} base, {len(b_runs)} new runs)")
            continue
        for name, (better, bound) in metrics.items():
            if not all(name in r["metrics"] for r in a_runs + b_runs):
                continue
            a = [r["metrics"][name]["value"] for r in a_runs]
            b = [r["metrics"][name]["value"] for r in b_runs]
            matched = pairs(a_runs, b_runs, name)
            won = sum((y < x) if better == "lower" else (y > x) for x, y in matched)
            result = verdict(a, b, better, bound, won, len(matched))
            regressed |= result == "regressed"
            qa, qb = quartiles(a), quartiles(b)
            unit = a_runs[0]["metrics"][name]["unit"]
            print(
                f"{workload:13s} {name:17s} {unit:5s} {_fmt(qa):>32s} {_fmt(qb):>32s} "
                f"{won:>2d}/{len(matched):<3d}  {result}"
            )
    same = differ = 0
    base_digest = {(r["workload"], r["seed"]): r["digest"] for r in base}
    for r in new:
        key = (r["workload"], r["seed"])
        if key in base_digest:
            if base_digest[key] == r["digest"]:
                same += 1
            else:
                differ += 1
                print(f"digest differs: {key[0]} seed {key[1]}")
    print(f"output digests: {same} identical, {differ} different (runs matched by workload and seed)")
    for side, runs in (("base", base), ("new", new)):
        envs = {json.dumps(r["env"], sort_keys=True) for r in runs}
        for env in sorted(envs):
            print(f"{side} env: " + "  ".join(f"{k}={v}" for k, v in json.loads(env).items()))
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
