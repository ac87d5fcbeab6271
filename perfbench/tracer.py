"""Traced run: times drivetherm's public functions from outside, in one process.

    python3 -X importtime perfbench/tracer.py SPEC_JSON

SPEC_JSON names the CLI argv template, the output root, the run length and
the scan calls to sample.  Each pass calls drivetherm.cli.main once
untraced and once with every traced function wrapped, then calls the stage
functions the CLI path does not reach (beta_generator, increment_series) on
inputs captured during the traced call.  Spans (name, start, end, parent) and
counts stay in memory and are written to the spans file when the run ends;
run.py derives self times and the per-layer metrics from it.
"""

import json
import sys
import time

T_IMPORT = time.perf_counter()
N_MODULES = len(sys.modules)
import drivetherm.cli  # noqa: E402  (the import is what is being timed)
IMPORT_S = time.perf_counter() - T_IMPORT
IMPORT_MODULES = len(sys.modules) - N_MODULES

import os  # noqa: E402

from drivetherm import (bures, config, engine, propagation, reporting,  # noqa: E402
                        scans, thermal)

MODULES = (drivetherm.cli, config, engine, propagation, reporting, scans, thermal,
           bures)

#: Span name -> (module that defines it, function name).
TRACED = {
    "config.load_run_config": (config, "load_run_config"),
    "thermal.make_gibbs": (thermal, "make_gibbs"),
    "propagation.propagate": (propagation, "propagate"),
    "propagation.beta_generator": (propagation, "beta_generator"),
    "engine.build_current_trace": (engine, "build_current_trace"),
    "engine.increment_series": (engine, "increment_series"),
    "engine.qfi_time_series": (engine, "qfi_time_series"),
    "engine.qfi_driven": (engine, "qfi_driven"),
    "engine.kernel_matrix": (engine, "kernel_matrix"),
    "bures.spectral_qfi_batch": (bures, "spectral_qfi_batch"),
    "scans.run_scan": (scans, "run_scan"),
    "reporting.write_simulation_csv": (reporting, "write_simulation_csv"),
    "reporting.write_scan_csv": (reporting, "write_scan_csv"),
    "reporting.write_kernel_csv": (reporting, "write_kernel_csv"),
    "reporting.write_manifest": (reporting, "write_manifest"),
    "reporting.build_manifest": (reporting, "build_manifest"),
    "reporting.config_content_hash": (reporting, "config_content_hash"),
    "reporting.sha256_file": (reporting, "sha256_file"),
}


class Tracer:
    """Spans and counts of one traced pass."""

    def __init__(self, sample_calls):
        self.spans = []          # [name, start, end, parent index or None]
        self.stack = []
        self.counts = {"propagation.steps": 0, "propagation.stack_bytes": 0,
                       "reporting.bytes_written": 0, "scans.points": 0}
        self.sample_calls = set(sample_calls)
        self.calls = {}
        self.captured = {"propagation.propagate": [], "engine.build_current_trace": []}

    def call(self, name, fn, args, kwargs):
        index = len(self.spans)
        span = [name, time.perf_counter(), None, self.stack[-1] if self.stack else None]
        self.spans.append(span)
        self.stack.append(index)
        try:
            result = fn(*args, **kwargs)
        finally:
            span[2] = time.perf_counter()
            self.stack.pop()
        self._count(name, args, result)
        return result

    def _count(self, name, args, result):
        n = self.calls.get(name, 0)
        self.calls[name] = n + 1
        if name in self.captured and n in self.sample_calls:
            self.captured[name].append(result)
        if name == "propagation.propagate":
            self.counts["propagation.steps"] += result.grid.n_steps
            stack = result.propagators.nbytes + result.heisenberg_v.nbytes
            self.counts["propagation.stack_bytes"] = max(self.counts["propagation.stack_bytes"], stack)
        elif name == "scans.run_scan":
            self.counts["scans.points"] += len(result.points)
        elif name.startswith("reporting.write_"):
            self.counts["reporting.bytes_written"] += os.path.getsize(args[0])


def _wrapper(tracer_ref, name, fn):
    def traced(*args, **kwargs):
        tracer = tracer_ref[0]
        if tracer is None:
            return fn(*args, **kwargs)
        return tracer.call(name, fn, args, kwargs)
    return traced


def install(tracer_ref):
    """Rebind every module-level name of each traced function to a wrapper."""
    for name, (home, attr) in TRACED.items():
        original = getattr(home, attr)
        wrapped = _wrapper(tracer_ref, name, original)
        for module in MODULES:
            if getattr(module, attr, None) is original:
                setattr(module, attr, wrapped)


def run_pass(spec, index, tracer_ref):
    def argv(tag):
        return spec["argv"] + ["--out", os.path.join(spec["out"], f"pass{index}-{tag}")]

    t0 = time.perf_counter()
    rc_plain = drivetherm.cli.main(argv("untraced"))
    untraced_s = time.perf_counter() - t0

    tracer = Tracer(spec["sample_calls"])
    tracer_ref[0] = tracer
    try:
        rc = tracer.call("cli.main", drivetherm.cli.main, (argv("traced"),), {})
        for trace in tracer.captured["propagation.propagate"]:
            propagation.beta_generator(trace)
        for current in tracer.captured["engine.build_current_trace"]:
            engine.increment_series(current)
    finally:
        tracer_ref[0] = None
    return {"rc": rc, "rc_untraced": rc_plain, "untraced_main_s": untraced_s,
            "outputs": [argv("untraced")[-1], argv("traced")[-1]],
            "spans": tracer.spans, "counts": tracer.counts}


def main() -> int:
    with open(sys.argv[1], encoding="utf-8") as fh:
        spec = json.load(fh)
    tracer_ref = [None]
    install(tracer_ref)
    # Warm-up call, discarded: first-call costs would otherwise land on
    # whichever of the two timed calls of the first pass runs first.
    drivetherm.cli.main(spec["argv"] + ["--out", os.path.join(spec["out"], "warmup")])
    passes = []
    deadline = time.perf_counter() + spec["seconds"]
    while not passes or time.perf_counter() < deadline:
        passes.append(run_pass(spec, len(passes), tracer_ref))
    with open(spec["spans"], "w", encoding="utf-8") as fh:
        json.dump({"import_s": IMPORT_S, "import_modules": IMPORT_MODULES,
                   "module": drivetherm.__file__, "passes": passes}, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
