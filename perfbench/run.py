"""Benchmark of the drivetherm CLI: `simulate` and `scan` on three workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from a checkout holding src/drivetherm.  With --trace 0 it discards a
warm-up invocation, then for S seconds alternates a timed CLI invocation (a
fresh single-threaded process) with a set-up sample (fresh-interpreter import
plus config load), and reports the medians of the end-to-end metrics.  With
--trace 1 it runs one traced process (tracer.py) for S seconds and reports
per-layer metrics.  Every invocation's outputs are checked by oracle.py.
The last stdout line is one JSON object: correct, attempted, failed, metrics.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

# One process, one thread: set before numpy loads in this process, and
# passed to every child.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "BLIS_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"
sys.dont_write_bytecode = True

import numpy as np  # noqa: E402

import oracle  # noqa: E402
import workloads  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_ROOT = ROOT / ".perfbench_out"

#: Set-up samples: one after each timed invocation, and at least this many.
SETUP_MIN = 5
#: A child that runs longer than this is killed and counted as failed.
CHILD_LIMIT_S = 150.0


class Child:
    """Result of one child process: wall time, rusage, exit code, last JSON line."""

    def __init__(self, argv, env, log_stem: Path):
        out_path, err_path = log_stem.with_suffix(".out"), log_stem.with_suffix(".err")
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(argv, stdout=out, stderr=err, env=env, cwd=ROOT)
            timer = threading.Timer(CHILD_LIMIT_S, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            self.wall_s = time.perf_counter() - t0
        proc.returncode = self.rc = os.waitstatus_to_exitcode(status)
        self.cpu_s = usage.ru_utime + usage.ru_stime
        self.peak_rss_mb = usage.ru_maxrss / 1024.0     # ru_maxrss is in KiB on Linux
        self.stderr = err_path.read_text(encoding="utf-8", errors="replace")
        lines = out_path.read_text(encoding="utf-8", errors="replace").strip().splitlines()
        try:
            self.result = json.loads(lines[-1]) if lines else {}
        except json.JSONDecodeError:
            self.result = {}

    def imported_from_checkout(self) -> bool:
        return in_checkout(self.result.get("module"))


def in_checkout(module_file) -> bool:
    """Whether drivetherm was imported from this checkout, not an install."""
    return module_file is not None and Path(module_file).resolve().parent == ROOT / "src" / "drivetherm"


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env.pop("DRIVETHERM_TOLERANCE_SCALE", None)
    return env


def checked(inp, out_dir: Path, ref):
    """None if the outputs pass every check, else ("check", reason)."""
    try:
        oracle.check_outputs(inp, out_dir, ref)
    except (oracle.CheckFailed, OSError, ValueError, KeyError, IndexError) as exc:
        return "check", f"{type(exc).__name__}: {exc}"
    return None


# ---------------------------------------------------------------------------
# --trace 0: end-to-end metrics
# ---------------------------------------------------------------------------


def timed_run(inp, config: Path, work: Path, ref, seconds: float, env):
    """Timed CLI invocations for ``seconds``, each followed by one set-up sample.

    Interleaving spreads both kinds of sample over the whole run, so a slow
    spell of the machine weighs on them alike.
    """
    setup_argv = [sys.executable, str(HERE / "child.py"), "setup", str(config)]

    def setup(tag):
        child = Child(setup_argv, env, work / tag)
        if child.rc != 0 or not child.imported_from_checkout():
            raise RuntimeError(f"set-up child failed (exit {child.rc}):\n{child.stderr}")
        return child.result["setup_s"]

    def invoke(tag):
        out_dir = work / tag
        argv = [sys.executable, str(HERE / "child.py"), "run"] + inp.argv(config, out_dir)
        child = Child(argv, env, work / tag)
        if child.rc != 0 or child.result.get("rc") != 0:
            problem = "exit", f"exit {child.rc}: {child.stderr.strip()[-500:]}"
        elif not child.imported_from_checkout():
            problem = "check", f"drivetherm imported from {child.result.get('module')}"
        else:
            problem = checked(inp, out_dir, ref)
        shutil.rmtree(out_dir, ignore_errors=True)
        return child, problem

    # Warm-up, discarded: compiles bytecode and fills the page cache.
    setup("setup-warmup")
    invoke("warmup")
    samples, failures, setups = [], [], []
    deadline = time.perf_counter() + seconds
    while not samples or time.perf_counter() < deadline:
        child, problem = invoke(f"inv{len(samples)}")
        samples.append(child)
        if problem:
            failures.append(problem)
        setups.append(setup(f"setup{len(setups)}"))
    while len(setups) < SETUP_MIN:
        setups.append(setup(f"setup{len(setups)}"))
    run_s = [c.result["run_s"] for c in samples if "run_s" in c.result]
    if not run_s:
        raise RuntimeError(f"no invocation reached the end of main: {failures[0][1]}")
    metrics = {
        "wall_s": (statistics.median(c.wall_s for c in samples), "s"),
        "cpu_s": (statistics.median(c.cpu_s for c in samples), "s"),
        "run_s": (statistics.median(run_s), "s"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (statistics.median(c.peak_rss_mb for c in samples), "MB"),
    }
    return len(samples), failures, metrics


# ---------------------------------------------------------------------------
# --trace 1: per-layer metrics
# ---------------------------------------------------------------------------

#: Per-layer metric -> (span names, "self" or "total" time).
TIMES = {
    "config.load_s": (("config.load_run_config",), "self"),
    "thermal.make_gibbs_s": (("thermal.make_gibbs",), "self"),
    "propagation.propagate_s": (("propagation.propagate",), "self"),
    "propagation.beta_generator_s": (("propagation.beta_generator",), "self"),
    "engine.build_current_trace_s": (("engine.build_current_trace",), "self"),
    "engine.increment_series_s": (("engine.increment_series",), "self"),
    "bures.spectral_qfi_batch_s": (("bures.spectral_qfi_batch",), "self"),
    "engine.qfi_time_series_s": (("engine.qfi_time_series",), "total"),
    "engine.assembly_s": (("engine.qfi_time_series", "engine.qfi_driven"), "self"),
    "engine.qfi_driven_s": (("engine.qfi_driven",), "total"),
    "engine.kernel_matrix_s": (("engine.kernel_matrix",), "self"),
    "scans.run_scan_s": (("scans.run_scan",), "total"),
    "scans.self_s": (("scans.run_scan",), "self"),
    "reporting.write_simulation_csv_s": (("reporting.write_simulation_csv",), "self"),
    "reporting.write_kernel_csv_s": (("reporting.write_kernel_csv",), "self"),
    "reporting.write_scan_csv_s": (("reporting.write_scan_csv",), "self"),
    "reporting.manifest_s": (("reporting.write_manifest", "reporting.build_manifest",
                              "reporting.config_content_hash", "reporting.sha256_file"), "self"),
    "cli.main_s": (("cli.main",), "total"),
    "cli.unattributed_s": (("cli.main",), "self"),
}


def pass_metrics(p) -> dict:
    """Per-layer metrics of one traced pass, from its spans and counts."""
    spans = p["spans"]
    duration = [end - start for _, start, end, _ in spans]
    covered = [0.0] * len(spans)
    for i, (_, _, _, parent) in enumerate(spans):
        if parent is not None:
            covered[parent] += duration[i]
    total, own, calls = {}, {}, {}
    for i, (name, _, _, _) in enumerate(spans):
        total[name] = total.get(name, 0.0) + duration[i]
        own[name] = own.get(name, 0.0) + duration[i] - covered[i]
        calls[name] = calls.get(name, 0) + 1
    m = {metric: sum((own if kind == "self" else total).get(n, 0.0) for n in names)
         for metric, (names, kind) in TIMES.items()}
    counts = p["counts"]
    m["thermal.make_gibbs_calls"] = calls.get("thermal.make_gibbs", 0)
    m["propagation.steps"] = counts["propagation.steps"]
    m["propagation.steps_per_s"] = _rate(counts["propagation.steps"], m["propagation.propagate_s"])
    m["propagation.stack_mb"] = counts["propagation.stack_bytes"] / 2**20
    m["scans.points"] = counts["scans.points"]
    m["scans.points_per_s"] = _rate(counts["scans.points"], m["scans.run_scan_s"])
    m["reporting.bytes_written"] = counts["reporting.bytes_written"]
    m["trace.untraced_main_s"] = p["untraced_main_s"]
    m["trace.overhead_s"] = m["cli.main_s"] - p["untraced_main_s"]
    return m


def _rate(count, seconds):
    return count / seconds if seconds > 0 else 0.0


def importtime_cumulative_s(stderr: str, module: str) -> float:
    """Cumulative import time of ``module`` from `python -X importtime` output."""
    for line in stderr.splitlines():
        parts = line.split("|")
        if line.startswith("import time:") and len(parts) == 3 and parts[2].strip() == module:
            return int(parts[1]) * 1e-6
    return 0.0


UNITS = {"init.import_modules": "count", "thermal.make_gibbs_calls": "count",
         "propagation.steps": "count", "propagation.steps_per_s": "1/s",
         "propagation.stack_mb": "MB", "scans.points": "count",
         "scans.points_per_s": "1/s", "reporting.bytes_written": "bytes"}


def traced_run(inp, config: Path, work: Path, ref, seconds: float, env, spans_path: Path):
    points = len(inp.values)
    spec = {
        "argv": [inp.command, "--config", str(config), "--parallelism", "1"],
        "out": str(work / "trace"),
        "seconds": seconds,
        "sample_calls": sorted({0, points // 2, points - 1}) if points else [0],
        "spans": str(spans_path),
    }
    spec_path = work / "trace_spec.json"
    spec_path.write_text(json.dumps(spec), encoding="utf-8")
    child = Child([sys.executable, "-X", "importtime", str(HERE / "tracer.py"), str(spec_path)],
                  env, work / "trace")
    if child.rc != 0:
        raise RuntimeError(f"traced run failed (exit {child.rc}):\n{child.stderr[-2000:]}")
    data = json.loads(spans_path.read_text(encoding="utf-8"))
    if not in_checkout(data["module"]):
        raise RuntimeError(f"drivetherm imported from {data['module']}")

    failures = []
    for p in data["passes"]:
        if p["rc"] != 0 or p["rc_untraced"] != 0:
            failures.append(("exit", f"exit codes {p['rc_untraced']}, {p['rc']}"))
            continue
        problem = next(filter(None, (checked(inp, Path(out), ref) for out in p["outputs"])), None)
        if problem:
            failures.append(problem)
    per_pass = [pass_metrics(p) for p in data["passes"]]
    metrics = {
        "init.import_s": (data["import_s"], "s"),
        "init.import_modules": (data["import_modules"], "count"),
        "drive.scipy_import_s": (importtime_cumulative_s(child.stderr, "scipy.interpolate"), "s"),
    }
    for name in per_pass[0]:
        unit = UNITS.get(name, "s")
        # Counts stay whole numbers: the lower median is one of the values.
        median = statistics.median_low if unit in ("count", "bytes") else statistics.median
        metrics[name] = (median(m[name] for m in per_pass), unit)
    return len(per_pass), failures, metrics


# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "drivetherm" / "cli.py").is_file():
        print(f"perfbench: no drivetherm sources under {ROOT / 'src'}; "
              "run from a checkout of the repository", file=sys.stderr)
        return 2

    inp = workloads.make_inputs(args.workload, args.seed)
    work = OUT_ROOT / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        config = work / "config.yaml"
        config.write_text(inp.config_text(), encoding="utf-8")
        ref = oracle.Reference(inp, np.random.default_rng([args.seed, 99]))
        env = child_env()
        if args.trace:
            spans = OUT_ROOT / f"spans-{args.workload}.json"
            attempted, failures, metrics = traced_run(inp, config, work, ref, args.seconds,
                                                      env, spans)
        else:
            attempted, failures, metrics = timed_run(inp, config, work, ref, args.seconds, env)
    except RuntimeError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for kind, problem in failures[:5]:
        print(f"perfbench: failed operation ({kind}): {problem}", file=sys.stderr)
    result = {
        # Wrong output from an invocation that exited 0; a non-zero exit is
        # a failed operation but no wrong answer.
        "correct": not any(kind == "check" for kind, _ in failures),
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
