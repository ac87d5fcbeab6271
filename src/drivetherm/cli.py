"""Command-line interface: simulate, scan, validate.

Exit codes: 0 success, 1 numerical failure (or failed validation checks),
2 configuration validation failure.
"""

import argparse
import json
import logging
import os
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__, engine
from .config import TOLERANCE_SCALE_ENV, load_run_config
from .drive import dlambda_dbeta
from .exceptions import ConfigValidationError, DriveThermError
from .propagation import propagate
from .reporting import (build_manifest, config_content_hash, write_kernel_csv,
                        write_manifest, write_scan_csv, write_simulation_csv)
from .scans import run_scan
from .validation import run_checks, summarize

log = logging.getLogger("drivetherm")

EXIT_OK = 0
EXIT_NUMERICAL = 1
EXIT_CONFIG = 2

#: Kernel visualization output is decimated to at most this many grid nodes.
KERNEL_MAX_NODES = 241


def _add_common(parser):
    parser.add_argument("--parallelism", type=int, default=os.cpu_count() or 1,
                        help="concurrent scan-point evaluations (default: CPU count)")
    parser.add_argument("--verbose", action="store_true", help="chatty logging")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="drivetherm",
        description="Fisher-information analysis of a thermal probe under a "
                    "temperature-dependent unitary drive (hbar = k_B = 1).",
    )
    parser.add_argument("--version", action="version", version=f"drivetherm {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="time series of the decomposed QFI")
    p_sim.add_argument("--config", required=True, help="run configuration (YAML)")
    p_sim.add_argument("--out", required=True, help="output directory")
    _add_common(p_sim)

    p_scan = sub.add_parser("scan", help="parameter sweep (frequency/temperature/time)")
    p_scan.add_argument("--config", required=True, help="run configuration (YAML)")
    p_scan.add_argument("--out", required=True, help="output directory")
    _add_common(p_scan)

    p_val = sub.add_parser("validate", help="run the built-in oracle/invariant suite")
    p_val.add_argument("--config", help="optional run configuration (YAML)")
    p_val.add_argument("--report", help="write the machine-readable JSON report here")
    _add_common(p_val)

    return parser


def _announce_tolerance_scale(config) -> None:
    if config.tolerances.scale != 1.0:
        log.info("%s=%s: all default tolerances scaled",
                 TOLERANCE_SCALE_ENV, config.tolerances.scale)


def cmd_simulate(args) -> int:
    try:
        config = load_run_config(args.config)
    except ConfigValidationError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    if config.scan is not None:
        print(f"configuration error: {args.config}: 'simulate' takes a config "
              "without a scan section (use 'scan')", file=sys.stderr)
        return EXIT_CONFIG
    _announce_tolerance_scale(config)

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    started = time.monotonic()
    try:
        model = config.build_model()
        drive = config.build_drive()
        grid = config.build_grid()
        v = config.build_v()
        trace = propagate(model, v, drive, grid,
                          drift_tol=config.tolerances.step_drift)
        results = engine.qfi_time_series(trace, n_measurements=config.n_measurements)
        kernel_payload = None
        if config.kernel_csv_name is not None:
            # currents at the sampled nodes only: all n of them would raise peak memory
            stride = max(1, grid.n_nodes // KERNEL_MAX_NODES)
            times = grid.nodes[::stride]
            thin = engine.CurrentTrace(
                grid=grid, model=model,
                currents=engine.information_current(model, trace.heisenberg_v[::stride]),
                weights=np.atleast_1d(dlambda_dbeta(drive, times, model.beta)))
            kernel_payload = (times, engine.kernel_matrix(thin).real)
    except DriveThermError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except np.linalg.LinAlgError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL

    manifest_hash = config_content_hash(config)
    csv_path = out_dir / config.csv_name
    write_simulation_csv(csv_path, results, manifest_hash)
    data_files = {config.csv_name: csv_path}
    if kernel_payload is not None:
        kernel_path = out_dir / config.kernel_csv_name
        write_kernel_csv(kernel_path, *kernel_payload, manifest_hash)
        data_files[config.kernel_csv_name] = kernel_path

    rows = len(results.t)
    diagnostics = {
        "rows": rows,
        "unitarity_drift": trace.unitarity_drift,
        "max_rel_disagreement": float(results.rel_disagreement.max()),
        "max_mixed_term_residual": float(results.mixed_term_residual.max()),
    }
    manifest = build_manifest(config, wall_clock_seconds=time.monotonic() - started,
                              diagnostics=diagnostics, data_files=data_files)
    write_manifest(out_dir / config.manifest_name, manifest)
    log.info("wrote %s rows to %s", rows, csv_path)
    print(f"simulate: {rows} rows -> {csv_path}")
    return EXIT_OK


def cmd_scan(args) -> int:
    try:
        config = load_run_config(args.config)
    except ConfigValidationError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    if config.scan is None:
        print(f"configuration error: {args.config}: 'scan' needs a scan section",
              file=sys.stderr)
        return EXIT_CONFIG
    _announce_tolerance_scale(config)

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    started = time.monotonic()
    try:
        spec = config.build_scan_spec()
        result = run_scan(spec, parallelism=max(1, args.parallelism))
    except (DriveThermError, ValueError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except np.linalg.LinAlgError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL

    manifest_hash = config_content_hash(config)
    csv_path = out_dir / config.csv_name
    write_scan_csv(csv_path, result.axis, result.points, manifest_hash)
    diagnostics = {
        "points": len(result.points),
        "argmax": result.argmax,
        "provenance": result.provenance,
    }
    manifest = build_manifest(config, wall_clock_seconds=time.monotonic() - started,
                              diagnostics=diagnostics,
                              data_files={config.csv_name: csv_path})
    write_manifest(out_dir / config.manifest_name, manifest)
    print(f"scan: {len(result.points)} points -> {csv_path} "
          f"(argmax {result.axis} = {result.argmax:g})")
    return EXIT_OK


def cmd_validate(args) -> int:
    config = None
    if args.config:
        try:
            config = load_run_config(args.config, enforce_guard=False)
        except ConfigValidationError as exc:
            print(f"configuration error: {exc}", file=sys.stderr)
            return EXIT_CONFIG
    checks = run_checks(config)
    print(summarize(checks))
    if args.report:
        payload = {
            "artifact": {"name": "drivetherm", "version": __version__},
            "checks": [c.as_dict() for c in checks],
            "all_passed": all(c.passed for c in checks),
        }
        Path(args.report).write_text(json.dumps(payload, indent=2) + "\n",
                                     encoding="utf-8")
    failed = [c for c in checks if not c.passed]
    if failed:
        print("failed checks: " + ", ".join(c.name for c in failed), file=sys.stderr)
        return EXIT_NUMERICAL
    return EXIT_OK


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        level=logging.DEBUG if getattr(args, "verbose", False) else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s",
    )
    if args.command == "simulate":
        return cmd_simulate(args)
    if args.command == "scan":
        return cmd_scan(args)
    return cmd_validate(args)


if __name__ == "__main__":
    sys.exit(main())
