"""Run one benchmark workload and print its metrics.

    python3 benchmarks/run.py --workload recording --seed 1 --seconds 20 --trace 0

Workloads (see workloads.py and BENCHMARK.json): recording, chunk_stream,
corpus_prep, trial_sweep. Inputs come from --seed alone (inputs.py).

One run:

1. times set-up in fresh interpreters (setup_probe.py) and takes the median;
2. sets up in process, builds the seeded inputs and warms up on two ops;
3. runs whole passes over the inputs, one op at a time, until --seconds
   is used up (the last pass may end up to half a pass early or late);
   within a pass each input runs once on every CPU the process may use,
   pinned in turn (a round), because on a shared host the cores differ in
   speed from minute to minute and a run would otherwise land on one;
4. checks every op's output; an op that raises, exits nonzero, fails a
   check or differs from its first run on the same input is failed;
5. prints a table of metrics, the output digest and the environment, then
   as the last line a JSON object with correct, attempted, failed and the
   metrics BENCHMARK.json lists (end_to_end with --trace 0, per_layer
   with --trace 1).

End-to-end metrics: op_ms_p50 (median over rounds of the round's mean
wall ms per op, i.e. per-op latency averaged over the cores); op_ms_tail (per
block of at least 100 consecutive ops, up to 10 blocks, the value at the
highest percentile with at least ten samples beyond it, median over
blocks); audio_x_realtime (input audio seconds per busy second); setup_s;
peak_rss_mb; failed_ratio; top1_agree_float (share of classified chunks
whose int8 argmax matches float_reference_infer, computed after the timed
loop). BENCHMARK.json gates op_ms_p50, setup_s and peak_rss_mb: they
apply to every workload, and on a shared machine the tail follows other
tenants' load more than the program's.

With --trace 1 every input runs twice per pass, once plain and once with
spans (spans.py), in alternating order. End-to-end numbers come from the
plain ops; the traced ops give the per-layer numbers, and the difference
of the two medians is the tracing overhead. The self times of all layers
add up to the median traced op (see spans.Tracer.summary). Spans are
written to benchmarks/out/spans-<workload>-seed<seed>.jsonl after the run.
Every run appends its full result to benchmarks/out/results.jsonl, which
compare.py reads.

BLAS is pinned to one thread: the node classifies on one core, and a
single thread keeps run-to-run spread low on a shared machine.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import shutil
import subprocess
import sys
import time
from contextlib import nullcontext
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

BLAS_THREADS = 1
SETUP_PROBES = 5
WARMUP_OPS = 2
TAIL_BEYOND = 10
TAIL_BLOCKS = 10
TAIL_BLOCK_OPS = 100

# Every metric a run computes, with its unit.
UNITS = {
    "op_ms_p50": "ms",
    "op_ms_tail": "ms",
    "audio_x_realtime": "x",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "failed_ratio": "ratio",
    "top1_agree_float": "ratio",
    "audio_io.bytes_in": "B",
    "preprocess.voiced_ratio": "ratio",
    "nnrt.gflops": "GFLOP/s",
    "cli.bytes_written": "B",
}


def unit_of(name: str) -> str:
    if name in UNITS:
        return UNITS[name]
    return "ms" if name.endswith("_ms") or "_ms_" in name else "count"


def tail(values: list[float]) -> tuple[float, float, int]:
    """Tail latency, its percentile and the number of blocks it comes from.

    The ops are cut into up to TAIL_BLOCKS runs of consecutive ops, each at
    least TAIL_BLOCK_OPS long. In each block the tail is the value at the
    highest percentile with at least ten samples beyond it; the run reports
    the median over blocks, so one burst of contention from other tenants
    of the machine spoils one block rather than the whole figure.
    """
    blocks = max(1, min(TAIL_BLOCKS, len(values) // TAIL_BLOCK_OPS))
    size = len(values) // blocks
    tails, percentile = [], 100.0
    for b in range(blocks):
        block = sorted(values[b * size : (b + 1) * size] if b < blocks - 1 else values[b * size :])
        if len(block) <= TAIL_BEYOND:
            tails.append(block[-1])
            continue
        tails.append(block[len(block) - TAIL_BEYOND - 1])
        percentile = min(percentile, 100.0 * (len(block) - TAIL_BEYOND) / len(block))
    return statistics.median(tails), percentile, blocks


def environment(np, scipy) -> dict:
    try:
        blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
        blas_name = f"{blas['name']} {blas['version']}"
    except (AttributeError, KeyError):
        blas_name = "unknown"
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas_name,
        "blas_threads": BLAS_THREADS,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
    }


def usable_cpus() -> list:
    """The CPUs the ops take turns on: every CPU this process may use, or
    [None] where the system refuses pinning."""
    cpus = sorted(os.sched_getaffinity(0))
    try:
        os.sched_setaffinity(0, cpus)
    except OSError:
        return [None]
    return cpus


def measure_setup() -> float:
    """Median cold set-up time over several fresh interpreters."""
    times = []
    for _ in range(SETUP_PROBES):
        done = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py")],
            capture_output=True, text=True, timeout=120, check=True,
        )
        times.append(float(done.stdout.split()[-1]))
    return statistics.median(times)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    spec_path = ROOT / "BENCHMARK.json"
    if not (SRC / "birdedge" / "__init__.py").is_file() or not spec_path.is_file():
        print(f"benchmark: no birdedge sources under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    sys.path.insert(0, str(SRC))

    import numpy as np
    import scipy

    import spans
    from workloads import WORKLOADS
    from birdedge import nnrt

    if args.workload not in WORKLOADS:
        print(f"benchmark: unknown workload {args.workload!r}", file=sys.stderr)
        return 2

    setup_s = measure_setup()
    tracer = spans.Tracer() if args.trace else None

    def root(name, op_id):
        return tracer.root(name, op_id) if tracer else nullcontext()

    t_run = time.perf_counter()
    with root(spans.SETUP, -1):
        model = nnrt.load_model(nnrt.save_model(nnrt.generate_fixture_model(31, 7)))
        flops = nnrt.resource_report(model).flops

    OUT.mkdir(exist_ok=True)
    work = OUT / f"work-{args.workload}-{os.getpid()}"
    work.mkdir()
    try:
        workload = WORKLOADS[args.workload](args.seed, model, work, ROOT)
        result = run_loop(workload, args, lambda op_id: root(spans.OP, op_id))
        with root(spans.CHECK, -2):
            top1 = workload.agreement()
    finally:
        shutil.rmtree(work, ignore_errors=True)

    plain = result["plain_ms"]
    p50 = statistics.median(result["plain_rounds"])
    tail_ms, tail_pct, tail_blocks = tail(plain)
    busy_s = sum(plain) / 1e3
    metrics = {
        "op_ms_p50": p50,
        "op_ms_tail": tail_ms,
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "failed_ratio": result["failed"] / result["attempted"],
    }
    if result["audio_s"] > 0:
        metrics["audio_x_realtime"] = result["audio_s"] / busy_s
    if top1 is not None:
        metrics["top1_agree_float"] = top1

    if tracer:
        traced = result["traced_ms"]
        layer = tracer.summary(len(traced), flops)
        layer["cli.files_written"] = result["files_written"] / len(traced)
        layer["cli.bytes_written"] = result["bytes_written"] / len(traced)
        layer["trace.op_ms_p50"] = statistics.median(traced)
        layer["trace.overhead_ms"] = statistics.median(result["traced_rounds"]) - p50
        metrics.update(layer)
        tracer.write(OUT / f"spans-{args.workload}-seed{args.seed}.jsonl", t_run)

    listed = [m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]]
    missing = [name for name in listed if name not in metrics]
    if missing:
        print(f"benchmark: metrics not computed: {', '.join(missing)}", file=sys.stderr)
        return 2
    correct = result["failed"] == 0 and metrics.get("trace.span_violations", 0) == 0
    env = environment(np, scipy)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "correct": correct,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "samples": len(plain),
        "tail_percentile": tail_pct,
        "tail_blocks": tail_blocks,
        "digest": result["digest"],
        "env": env,
        "metrics": {k: {"value": v, "unit": unit_of(k)} for k, v in metrics.items()},
    }
    with open(OUT / "results.jsonl", "a") as fh:
        fh.write(json.dumps(record) + "\n")

    report(record, result["problems"])
    print(json.dumps({
        "correct": correct,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: record["metrics"][name] for name in listed},
    }))
    return 0


def run_loop(workload, args, op_root) -> dict:
    """Warm up, then run whole passes over the inputs until time is up."""
    items = workload.items
    for index in range(WARMUP_OPS):
        workload.prepare()
        try:
            workload.check(index % len(items), workload.op(items[index % len(items)]))
        except Exception:  # the timed ops count and report the same failure
            pass

    plain_ms, traced_ms, problems = [], [], []
    plain_rounds, traced_rounds = [], []
    first_digest: dict[int, str] = {}
    digest_order: list[str] = []
    state = {"attempted": 0, "failed": 0, "audio_s": 0.0, "files_written": 0, "bytes_written": 0}

    def one(index, traced):
        op_id = state["attempted"]
        state["attempted"] += 1
        item = items[index]
        workload.prepare()
        output, failure = None, None
        with op_root(op_id) if traced else nullcontext():
            t0 = time.perf_counter()
            try:
                output = workload.op(item)
            except Exception as err:  # a failing op is counted, the run goes on
                failure = f"{type(err).__name__}: {err}"
            ms = (time.perf_counter() - t0) * 1e3
        (traced_ms if traced else plain_ms).append(ms)
        op_problems = [failure] if failure else []
        if output is not None:
            try:
                checked = workload.check(index, output)
            except Exception as err:  # malformed output fails the op
                op_problems.append(f"check raised {type(err).__name__}: {err}")
            else:
                op_problems += checked.problems
                if index not in first_digest:
                    first_digest[index] = checked.digest
                    digest_order.append(checked.digest)
                elif first_digest[index] != checked.digest:
                    op_problems.append("output differs from the first run on this input")
                if traced:
                    state["files_written"] += checked.files_written
                    state["bytes_written"] += checked.bytes_written
        if not traced:
            state["audio_s"] += workload.audio_seconds(item)
        if op_problems:
            state["failed"] += 1
            problems.append(f"op {op_id} (input {index}): {'; '.join(op_problems)}")
        return ms

    cpus = usable_cpus()
    start = time.perf_counter()
    n_pass = 0
    try:
        while True:
            pass_start = time.perf_counter()
            for index in range(len(items)):
                plain, traced = [], []
                for k, cpu in enumerate(cpus):
                    if cpu is not None:
                        os.sched_setaffinity(0, {cpu})
                    if not args.trace:
                        plain.append(one(index, False))
                    elif (n_pass + index + k) % 2:
                        traced.append(one(index, True))
                        plain.append(one(index, False))
                    else:
                        plain.append(one(index, False))
                        traced.append(one(index, True))
                plain_rounds.append(statistics.fmean(plain))
                if traced:
                    traced_rounds.append(statistics.fmean(traced))
            n_pass += 1
            now = time.perf_counter()
            if now - start + 0.5 * (now - pass_start) >= args.seconds:
                break
    finally:
        if cpus[0] is not None:
            os.sched_setaffinity(0, cpus)

    state.update(
        plain_ms=plain_ms,
        traced_ms=traced_ms,
        plain_rounds=plain_rounds,
        traced_rounds=traced_rounds,
        problems=problems,
        digest=hashlib.sha256("".join(digest_order).encode()).hexdigest(),
    )
    return state


def report(record: dict, problems: list[str]) -> None:
    print(
        f"workload {record['workload']}  seed {record['seed']}  trace {record['trace']}  "
        f"ops {record['attempted']} ({record['samples']} untraced)  "
        f"failed {record['failed']}  correct {record['correct']}"
    )
    for name, metric in record["metrics"].items():
        note = ""
        if name == "op_ms_tail":
            note = (
                f"  (p{record['tail_percentile']:.1f}, median of {record['tail_blocks']} "
                f"blocks, {record['samples']} ops)"
            )
        print(f"  {name:28s} {metric['value']:14.6g} {metric['unit']}{note}")
    m = record["metrics"]
    if "trace.op_ms_p50" in m:
        modules = sum(v["value"] for k, v in m.items() if k.endswith(".self_ms") and k != "bench.self_ms")
        print(
            f"  self time of the median traced op: modules {modules:.3f} ms + harness "
            f"{m['bench.self_ms']['value']:.3f} ms = {m['trace.op_ms_p50']['value']:.3f} ms "
            f"(traced op_ms_p50); tracing overhead {m['trace.overhead_ms']['value']:.3f} ms"
        )
    print(f"  digest {record['digest']}")
    print("  env " + "  ".join(f"{k}={v}" for k, v in record["env"].items()))
    for line in problems[:10]:
        print(f"  FAILED {line}", file=sys.stderr)


if __name__ == "__main__":
    sys.exit(main())
