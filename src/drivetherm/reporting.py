"""Result serialization: CSV data files and the JSON run manifest.

Numbers are written with 17 significant digits (lossless double round
trip).  Every data file opens with a ``# manifest_hash=...`` comment line
tying it to exactly one manifest; the hash covers the artifact version,
the resolved configuration, and the resolved defaults (the run identity),
so it is computable before any data exists.
"""

import hashlib
import json
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from . import __version__
from .config import RunConfig
from .engine import QfiResult
from .scans import ScanPoint

SIMULATION_COLUMNS = ("t", "F_eq", "I_t", "F_total", "F_spectral",
                      "rel_disagreement", "crb_sigma")

SCAN_AXIS_COLUMN = {"frequency": "omega_d", "temperature": "beta", "time": "t"}
SCAN_VALUE_COLUMNS = ("F_eq", "I_t", "F_total", "F_spectral")


def format_float(x: float) -> str:
    return f"{x:.17g}"


def _canonical_json(payload) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def config_content_hash(config: RunConfig) -> str:
    """Identity hash of a run: version + resolved config + resolved defaults."""
    identity = {
        "artifact": {"name": "drivetherm", "version": __version__},
        "config": config.to_dict(),
    }
    return hashlib.sha256(_canonical_json(identity).encode("utf-8")).hexdigest()


def sha256_file(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _write_csv(path, manifest_hash: str, header: Sequence[str],
               rows: Iterable[Sequence[float]]) -> None:
    lines = [f"# manifest_hash={manifest_hash}", ",".join(header)]
    for row in rows:
        lines.append(",".join(format_float(x) for x in row))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def write_simulation_csv(path, results: QfiResult, manifest_hash: str) -> None:
    columns = (results.t, results.f_eq, results.i_t, results.f_total,
               results.f_spectral, results.rel_disagreement, results.crb_sigma)
    _write_csv(path, manifest_hash, SIMULATION_COLUMNS,
               zip(*(c.tolist() for c in columns)))


def write_scan_csv(path, axis: str, points: Sequence[ScanPoint],
                   manifest_hash: str) -> None:
    header = (SCAN_AXIS_COLUMN[axis],) + SCAN_VALUE_COLUMNS
    rows = [(p.axis_value, p.f_eq, p.i_t, p.f_total, p.f_spectral) for p in points]
    _write_csv(path, manifest_hash, header, rows)


def write_kernel_csv(path, times, kernel_sym, manifest_hash: str) -> None:
    """Symmetrized kernel K_S(t_a, t_b) as (s, u, K_S) triples, row-major."""
    n = len(times)
    columns = (np.repeat(times, n), np.tile(times, n), np.ravel(kernel_sym))
    _write_csv(path, manifest_hash, ("s", "u", "K_S"),
               zip(*(c.tolist() for c in columns)))


def read_csv(path):
    """Read a package-emitted CSV: (manifest_hash, header, rows)."""
    text = Path(path).read_text(encoding="utf-8").strip().splitlines()
    if not text or not text[0].startswith("# manifest_hash="):
        raise ValueError(f"{path} is not a drivetherm data file")
    manifest_hash = text[0].split("=", 1)[1]
    header = text[1].split(",")
    rows = [[float(x) for x in line.split(",")] for line in text[2:]]
    return manifest_hash, header, rows


def build_manifest(config: RunConfig, *, wall_clock_seconds: float,
                   diagnostics: dict, data_files: dict) -> dict:
    """Assemble the manifest; ``data_files`` maps name -> on-disk path."""
    return {
        "artifact": {"name": "drivetherm", "version": __version__},
        "content_hash": config_content_hash(config),
        "config": config.to_dict(),
        "wall_clock_seconds": wall_clock_seconds,
        "diagnostics": diagnostics,
        "files": {name: sha256_file(path) for name, path in data_files.items()},
    }


def write_manifest(path, manifest: dict) -> None:
    Path(path).write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n",
                          encoding="utf-8")


def read_manifest(path) -> dict:
    return json.loads(Path(path).read_text(encoding="utf-8"))


def config_from_manifest(manifest: dict) -> RunConfig:
    """Reconstruct the resolved RunConfig recorded in a manifest."""
    return RunConfig.from_dict(manifest["config"])
