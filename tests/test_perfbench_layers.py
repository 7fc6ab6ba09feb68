"""The benchmark's per-layer tracer names functions of the package by module
and attribute; renaming one breaks ``perfbench/run.py --trace 1``, so every
listed name must resolve."""

import importlib
import importlib.util
from pathlib import Path

TRACE_PY = Path(__file__).resolve().parents[1] / "perfbench" / "trace.py"

# listed by the tracer for the compiled kernels, which the package no longer has
ABSENT_MODULES = {"harmlesskit._core._ckernels"}


def test_every_traced_layer_resolves():
    spec = importlib.util.spec_from_file_location("perfbench_trace", TRACE_PY)
    trace = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(trace)
    assert trace.LAYERS
    for _, module_name, attr in trace.LAYERS:
        if module_name in ABSENT_MODULES:
            assert importlib.util.find_spec(module_name) is None
            continue
        obj = importlib.import_module(module_name)
        for part in attr.split("."):
            obj = getattr(obj, part)
        assert callable(obj), f"{module_name}.{attr}"

