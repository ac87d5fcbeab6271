"""The benchmark's traced run wraps drivetherm functions by name and reads
fields of their results; every name it lists and every field it reads must
still resolve, or ``perfbench/run.py --trace 1`` breaks."""

import importlib.util
import numbers
from pathlib import Path

import numpy as np

from drivetherm import SIGMA_X, SIGMA_Z, cli, make_gibbs
from drivetherm.engine import build_current_trace, increment_series
from drivetherm.propagation import TimeGrid, beta_generator, propagate

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"


def load_perfbench(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_functions_resolve():
    tracer = load_perfbench("tracer")
    assert tracer.TRACED
    for span, (module, name) in tracer.TRACED.items():
        assert callable(getattr(module, name, None)), f"{span}: {module.__name__}.{name}"


def test_propagate_result_exposes_counted_fields(resonant_drive):
    # the tracer counts propagation.steps and propagation.stack_mb from these
    n = 7
    result = propagate(make_gibbs(0.5 * SIGMA_Z, 5.0), SIGMA_X, resonant_drive,
                       TimeGrid(1.0, n))
    assert isinstance(result.grid.n_steps, numbers.Integral) and result.grid.n_steps == n
    for stack in (result.propagators, result.heisenberg_v):
        assert isinstance(stack, np.ndarray) and stack.shape == (n + 1, 2, 2)


def test_stage_calls_outside_the_cli_path(resonant_drive):
    # after the traced CLI call the tracer runs these on the captured traces
    n = 7
    trace = propagate(make_gibbs(0.5 * SIGMA_Z, 5.0), SIGMA_X, resonant_drive,
                      TimeGrid(1.0, n))
    series = increment_series(build_current_trace(trace))
    assert series.shape == (n + 1,) and series.dtype == np.float64 and series[0] == 0.0
    assert beta_generator(trace).shape == (n + 1, 2, 2)


def test_child_calls_resolve(tmp_path):
    # child.py times cli.load_run_config(<config>) as setup and
    # cli.main(Inputs.argv(<config>, <out>)) as the run, with --parallelism 1
    config = ROOT / "configs" / "fig2a.yaml"
    assert cli.load_run_config(str(config)).grid.n_steps > 0
    argv = load_perfbench("workloads").make_inputs("simulate-long", 7).argv(config, tmp_path / "o")
    assert argv[0] == "simulate" and argv[-2:] == ["--parallelism", "1"]
    assert cli.main(argv) == 0
