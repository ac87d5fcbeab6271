"""Command-line interface: simulate, scan, validate.

Exit codes: 0 success, 1 numerical failure (a dual-path mismatch above
``engine.DUAL_PATH_TOL`` included, or failed validation checks),
2 configuration validation failure.  Each command runs the objects the
loader built (:class:`config.LoadedRun`).
"""

import argparse
import ctypes
import json
import logging
import shutil
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__, engine
from .config import load_run_config
from .exceptions import ConfigValidationError, DriveThermError
from .propagation import propagate
from .reporting import (build_manifest, config_content_hash, write_kernel_csv,
                        write_manifest, write_scan_csv, write_simulation_csv)
from .scans import run_scan

log = logging.getLogger("drivetherm")

EXIT_OK = 0
EXIT_NUMERICAL = 1
EXIT_CONFIG = 2

#: glibc ``mallopt`` parameters and the values ``main`` sets: blocks below
#: 16 MB come from the heap, and the heap is trimmed only past 4 MB free.
_MALLOPT = ((-3, 16 << 20), (-1, 4 << 20))  # M_MMAP_THRESHOLD, M_TRIM_THRESHOLD


def _keep_heap() -> None:
    """Keep freed numpy temporaries on the heap for the next ones, instead of
    returning them to the system and faulting them in again (a scan point
    frees and re-allocates its stacks).  A no-op without glibc's mallopt."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, TypeError, AttributeError):
        return
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    for param, value in _MALLOPT:
        mallopt(param, value)


def _add_common(parser):
    # Accepted and ignored: scan points run in order.  Kept so that existing
    # command lines still parse; perfbench passes --parallelism 1.
    parser.add_argument("--parallelism", type=int, default=1, help=argparse.SUPPRESS)
    parser.add_argument("--verbose", action="store_true", help="chatty logging")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="drivetherm",
        description="Fisher-information analysis of a thermal probe under a "
                    "temperature-dependent unitary drive (hbar = k_B = 1).",
    )
    parser.add_argument("--version", action="version", version=f"drivetherm {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    for name, text in (("simulate", "time series of the decomposed QFI"),
                       ("scan", "parameter sweep (frequency/temperature/time)")):
        p_run = sub.add_parser(name, help=text)
        p_run.add_argument("--config", required=True, help="run configuration (YAML)")
        p_run.add_argument("--out", required=True, help="output directory")
        _add_common(p_run)

    p_val = sub.add_parser("validate", help="run the built-in oracle/invariant suite")
    p_val.add_argument("--config", help="optional run configuration (YAML)")
    p_val.add_argument("--report", help="write the machine-readable JSON report here")
    _add_common(p_val)

    return parser


def _load_config(args):
    """The command's loaded run; None for ``validate`` without a config.

    Raises :class:`ConfigValidationError` for a bad file (a model below the
    full-rank floor included), for a scan section that ``simulate`` does
    not take or that ``scan`` lacks, for an ``--out`` at or inside a file,
    and for a ``--report`` that is a directory or lies in none.
    """
    if args.command == "validate" and args.report is not None:
        report = Path(args.report)
        if report.is_dir() or not report.parent.is_dir():
            raise ConfigValidationError(
                f"--report {args.report}: not a file in an existing directory")
    if args.config is None:
        return None
    run = load_run_config(args.config)
    if args.command != "validate":
        out = Path(args.out)
        nearest = next(p for p in (out, *out.parents) if p.exists())
        if not nearest.is_dir():
            raise ConfigValidationError(f"--out {args.out}: {nearest} is not a directory")
    if args.command == "simulate" and run.scan is not None:
        raise ConfigValidationError("'simulate' takes a config without a scan section "
                                    "(use 'scan')", path=args.config)
    if args.command == "scan" and run.scan is None:
        raise ConfigValidationError("'scan' needs a scan section", path=args.config)
    return run


def cmd_simulate(run, out_dir: Path, manifest_hash: str):
    """Write the time series (and kernel) CSVs; return the manifest's
    diagnostics and data files, and the summary line."""
    config, model, v, drive, grid, _ = run
    output = config["output"]
    trace = propagate(model, v, drive, grid, drift_tol=config["tolerances"]["step_drift"])
    results = engine.qfi_time_series(trace)
    worst = int(np.argmax(results.rel_disagreement))
    engine.check_dual_path(results.rel_disagreement[worst], f"t={results.t[worst]:g}")
    kernel_payload = None
    if output["kernel"] is not None:
        nodes = engine.kernel_nodes(grid.n_steps)
        kernel_payload = (grid.nodes[nodes], engine.kernel_matrix(model, trace.heisenberg_v[nodes]).real)

    csv_path = out_dir / output["csv"]
    write_simulation_csv(csv_path, results, manifest_hash,
                         n_measurements=config["estimation"]["n_measurements"])
    data_files = {output["csv"]: csv_path}
    if kernel_payload is not None:
        kernel_path = out_dir / output["kernel"]
        write_kernel_csv(kernel_path, *kernel_payload, manifest_hash)
        data_files[output["kernel"]] = kernel_path

    rows = len(results.t)
    diagnostics = {
        "rows": rows,
        "unitarity_drift": trace.unitarity_drift,
        "max_rel_disagreement": float(results.rel_disagreement.max()),
        "max_mixed_term_residual": float(results.mixed_term_residual.max()),
    }
    log.info("wrote %s rows to %s", rows, csv_path)
    return diagnostics, data_files, f"simulate: {rows} rows -> {csv_path}"


def cmd_scan(run, out_dir: Path, manifest_hash: str):
    """Write the scan CSV; return the manifest's diagnostics and data files,
    and the summary line."""
    result = run_scan(run.scan)
    name = run.config["output"]["csv"]
    csv_path = out_dir / name
    write_scan_csv(csv_path, result.axis, result.points, manifest_hash)
    diagnostics = {"points": len(result.points), "argmax": result.argmax,
                   "max_unitarity_drift": result.max_unitarity_drift,
                   "max_rel_disagreement": result.max_rel_disagreement,
                   "n_steps": list(result.n_steps)}
    return (diagnostics, {name: csv_path},
            f"scan: {len(result.points)} points -> {csv_path} "
            f"(argmax {result.axis} = {result.argmax:g})")


def _run_recorded(command, run, out: str) -> int:
    """Run ``simulate`` or ``scan`` into ``out``, then write the manifest; if
    the command raises, remove ``out`` again when this call created it."""
    config = run.config
    out_dir = Path(out)
    created = not out_dir.exists()
    out_dir.mkdir(parents=True, exist_ok=True)
    started = time.monotonic()
    try:
        diagnostics, data_files, summary = command(run, out_dir, config_content_hash(config))
    except BaseException:
        if created:
            shutil.rmtree(out_dir)
        raise
    manifest = build_manifest(config, wall_clock_seconds=time.monotonic() - started,
                              diagnostics=diagnostics, data_files=data_files)
    write_manifest(out_dir / config["output"]["manifest"], manifest)
    print(summary)
    return EXIT_OK


def cmd_validate(run, report: str | None) -> int:
    from .validation import run_checks, summarize  # only this command loads the suite

    checks = run_checks(run)
    print(summarize(checks))
    if report:
        payload = {
            "artifact": {"name": "drivetherm", "version": __version__},
            "checks": [c.as_dict() for c in checks],
            "all_passed": all(c.passed for c in checks),
        }
        Path(report).write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
    failed = [c for c in checks if not c.passed]
    if failed:
        print("failed checks: " + ", ".join(c.name for c in failed), file=sys.stderr)
        return EXIT_NUMERICAL
    return EXIT_OK


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    _keep_heap()
    logging.basicConfig(
        level=logging.DEBUG if getattr(args, "verbose", False) else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s",
    )
    if args.parallelism != 1:
        log.warning("--parallelism %d is ignored: scan points run in order",
                    args.parallelism)
    try:
        run = _load_config(args)
    except ConfigValidationError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    try:
        if args.command == "validate":
            return cmd_validate(run, args.report)
        return _run_recorded(cmd_simulate if args.command == "simulate" else cmd_scan,
                             run, args.out)
    except (DriveThermError, np.linalg.LinAlgError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
