"""The benchmark's span tracer still finds every function it wraps.

benchmarks/spans.py traces a run by replacing module attributes by name,
and its Tracer looks up every name in PATCHES when it is built. A refactor
that removes or renames one of those names would otherwise show only when
the benchmark runs with tracing on.
"""

import importlib.util
from pathlib import Path

import numpy as np

import birdedge.preprocess

SPANS = Path(__file__).resolve().parents[1] / "benchmarks" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("benchmark_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_patched_name_exists():
    spans = load_spans()
    spans.Tracer()  # looks up every PATCHES name
    for module, attr, *_ in spans.PATCHES:
        assert callable(getattr(module, attr)), f"{module.__name__}.{attr}"


def test_a_traced_call_records_one_span_and_restores_the_name():
    spans = load_spans()
    tracer = spans.Tracer()
    original = birdedge.preprocess.normalize
    with tracer.root("op", 0):
        assert birdedge.preprocess.normalize is not original
        birdedge.preprocess.normalize(np.ones(4, dtype=np.float32))
    assert birdedge.preprocess.normalize is original
    assert [span[0] for span in tracer.spans] == ["op", "normalize"]
    assert tracer.violations() == 0
