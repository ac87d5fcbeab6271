"""Result serialization: CSV data files and the JSON run manifest.

Numbers are written with 17 significant digits (lossless double round
trip), as ``%.17g``: each CSV is a repeated row template filled by one
``%`` operation per block of rows, which gives the same text as formatting
each value with ``f"{x:.17g}"``.  A column of bitwise-identical values
(``F_eq`` of a time series) and each sampled time of the kernel CSV are
formatted once and written into the template.  Every data file opens with a
``# manifest_hash=...`` comment line tying it to exactly one manifest; the
hash covers the artifact version, the resolved configuration, and the
resolved defaults (the run identity), so it is computable before any data
exists.
"""

import hashlib
import json
from pathlib import Path
from typing import Sequence

import numpy as np

from . import __version__
from .engine import QfiResult
from .scans import ScanPoint

#: Rows per format call of a float table: bounds the writer's transient memory.
_CHUNK_ROWS = 2048

SIMULATION_COLUMNS = ("t", "F_eq", "I_t", "F_total", "F_spectral",
                      "rel_disagreement", "crb_sigma")

SCAN_AXIS_COLUMN = {"frequency": "omega_d", "temperature": "beta", "time": "t"}
SCAN_VALUE_COLUMNS = ("F_eq", "I_t", "F_total", "F_spectral")


def _canonical_json(payload) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def config_content_hash(config: dict) -> str:
    """Identity hash of a run: version + resolved config + resolved defaults."""
    identity = {"artifact": {"name": "drivetherm", "version": __version__}, "config": config}
    return hashlib.sha256(_canonical_json(identity).encode("utf-8")).hexdigest()


def sha256_file(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _write_table(path, manifest_hash: str, header: Sequence[str], chunks) -> None:
    """Write the data file whose rows are the text ``chunks``, in order."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"# manifest_hash={manifest_hash}\n{','.join(header)}\n")
        fh.writelines(chunks)


def _float_table(path, manifest_hash: str, header: Sequence[str], table) -> None:
    """Write a (rows, columns) float table, one %.17g per value, one format call
    per block of _CHUNK_ROWS rows.  A column of bitwise-identical values is
    formatted once, into the row template."""
    table = np.asarray(table, dtype=float).reshape(-1, len(header))
    bits = table.view(np.uint64)
    constant = (bits == bits[:1]).all(axis=0) & (len(table) > 0)
    cells = ["%.17g" % table[0, j] if same else "%.17g" for j, same in enumerate(constant)]
    row = ",".join(cells) + "\n"
    values = table[:, ~constant]
    blocks = (values[i:i + _CHUNK_ROWS] for i in range(0, len(values), _CHUNK_ROWS))
    _write_table(path, manifest_hash, header,
                 (row * len(b) % tuple(b.ravel().tolist()) for b in blocks))


def write_simulation_csv(path, results: QfiResult, manifest_hash: str, *,
                         n_measurements: int) -> None:
    """The time series and crb_sigma = 1/sqrt(n F_total), inf where F_total <= 0."""
    crb = np.full(len(results.f_total), np.inf)
    informative = results.f_total > 0.0
    crb[informative] = 1.0 / np.sqrt(n_measurements * results.f_total[informative])
    columns = (results.t, results.f_eq, results.i_t, results.f_total,
               results.f_spectral, results.rel_disagreement, crb)
    _float_table(path, manifest_hash, SIMULATION_COLUMNS, np.column_stack(columns))


def write_scan_csv(path, axis: str, points: Sequence[ScanPoint],
                   manifest_hash: str) -> None:
    header = (SCAN_AXIS_COLUMN[axis],) + SCAN_VALUE_COLUMNS
    rows = [(p.axis_value, p.f_eq, p.i_t, p.f_total, p.f_spectral) for p in points]
    _float_table(path, manifest_hash, header, rows)


def write_kernel_csv(path, times, kernel_sym, manifest_hash: str) -> None:
    """Symmetrized kernel K_S(t_a, t_b) as (s, u, K_S) triples, row-major:
    s is the outer loop and u the inner.  Each time is formatted once and
    written into the row template, so only the kernel values are formatted
    per row; one format call fills a block of whole s rows, about _CHUNK_ROWS
    lines."""
    stamps = ["%.17g" % t for t in np.asarray(times).tolist()]
    tails = [f",{u},%.17g" for u in stamps]
    kernel = np.asarray(kernel_sym).reshape(len(stamps), len(stamps))
    step = max(1, _CHUNK_ROWS // max(1, len(stamps)))

    def blocks():
        for i in range(0, len(stamps), step):
            template = "".join(s + ("\n" + s).join(tails) + "\n" for s in stamps[i:i + step])
            yield template % tuple(kernel[i:i + step].ravel().tolist())

    _write_table(path, manifest_hash, ("s", "u", "K_S"), blocks())


def build_manifest(config: dict, *, wall_clock_seconds: float,
                   diagnostics: dict, data_files: dict) -> dict:
    """Assemble the manifest; ``data_files`` maps name -> on-disk path."""
    return {
        "artifact": {"name": "drivetherm", "version": __version__},
        "content_hash": config_content_hash(config),
        "config": config,
        "wall_clock_seconds": wall_clock_seconds,
        "diagnostics": diagnostics,
        "files": {name: sha256_file(path) for name, path in data_files.items()},
    }


def write_manifest(path, manifest: dict) -> None:
    Path(path).write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n",
                          encoding="utf-8")
