"""The benchmark's traced run wraps drivetherm functions by name; every
name it lists must still resolve, or ``perfbench/run.py --trace 1`` breaks."""

import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def test_traced_functions_resolve():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    assert tracer.TRACED
    for span, (module, name) in tracer.TRACED.items():
        assert callable(getattr(module, name, None)), f"{span}: {module.__name__}.{name}"
