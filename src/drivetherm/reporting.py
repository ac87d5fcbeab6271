"""Result serialization: CSV data files and the JSON run manifest.

Numbers are written with 17 significant digits (lossless double round
trip), byte for byte as Python's ``%.17g``.  ``_fields`` forms that text in
numpy for a block of values: the 17-digit significand from a longdouble
product, its digits from a table of four-digit groups, and their layout by
the ``g`` rules.  A value too near a rounding tie for that product to
decide, and a zero, non-finite or very large or small value, is formatted
by Python's own ``%.17g`` instead, one ``%`` operation per block; where
longdouble is no wider than a double, every value is.  Each CSV is written
in blocks of rows, its fields joined by dropping their NUL padding.  A
column of bitwise-identical values (``F_eq`` of a time series) and each
sampled time of the kernel CSV are formatted once.  Every data file opens
with a ``# manifest_hash=...`` comment line tying it to exactly one manifest;
the hash covers the artifact version, the resolved configuration, and the
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

#: Rows per block of a float table: a simulation block's ~6,000 values, as
#: many as a kernel block formats, keep ``_fields``' working set (~0.4 kB a
#: value) in a few MB of cache.
_CHUNK_ROWS = 1024

SIMULATION_COLUMNS = ("t", "F_eq", "I_t", "F_total", "F_spectral",
                      "rel_disagreement", "crb_sigma")

SCAN_AXIS_COLUMN = {"frequency": "omega_d", "temperature": "beta", "time": "t"}
SCAN_VALUE_COLUMNS = ("F_eq", "I_t", "F_total", "F_spectral")

#: Bytes per value: Python's longest ``%.17g`` text (24) and a separator.
_WIDTH = 25
#: Decimal exponents E (|x| = d.dd... 10^E) that numpy formats: E >= _EMIN
#: and E < 16; ``g`` writes -4 <= E < 17 in fixed notation, else d.ddde-XX.
_EMIN = -38
#: |x| 10^(16-E) takes at most two longdouble roundings, each within
#: 2^-(nmant+1) relative; below 10^17 < 2^57 its fraction is off by less than
#: this, so one farther than this from 1/2 rounds as the exact one does.
_MARGIN = 2.0 ** (57 - np.finfo(np.longdouble).nmant)
_POW10 = np.cumprod(np.array([1] + [10] * 27, dtype=np.longdouble))  # all exact
_SCALE = (_POW10[np.minimum(16 - np.arange(_EMIN, 17), 27)],
          _POW10[np.maximum(-11 - np.arange(_EMIN, 17), 0)])
#: The four ASCII digits of 0..9999, one uint32 each.
_DIGITS = np.arange(48, 58, dtype=np.uint8)
_QUADS = np.stack(np.meshgrid(*[_DIGITS] * 4, indexing="ij"), -1).view(np.uint32).ravel()
#: A value's source row is "000", its 17 digits (columns 3-19), then these.
_SOURCE_TAIL = np.frombuffer(b".\0e-0123456789\0\0", np.uint8)


def _layout():
    """The source column of each of the 22 characters after the sign, for
    each (E - _EMIN) * 17 + (digits kept - 1)."""
    e = np.arange(_EMIN, 17, dtype=np.int8)[:, None, None]
    kept = np.arange(1, 18, dtype=np.int8)[:, None]
    j = np.arange(22, dtype=np.int8)
    fixed = e >= -4
    zeros = np.where(fixed, np.maximum(-e, 0), 0)  # the zeros of "0.000" before the digits
    point = np.where(fixed, np.maximum(e + 1, 1), 1)  # characters before the '.'
    mantissa = zeros + np.maximum(kept, point - zeros)  # characters but the '.'
    dot = mantissa > point
    c = j - (dot & (j > point))
    body = np.where(dot & (j == point), 20, np.where(c < zeros, 24, 3 + c - zeros))
    s = j - mantissa - dot
    tail = np.select([fixed | (s > 3), s == 0, s == 1, s == 2],
                     [21, 22, 23, 24 + -e // 10], 24 + -e % 10)  # NUL, or e-XX
    return np.where(j < mantissa + dot, body, tail).astype(np.uint8).reshape(-1, 22)


_LAYOUT = _layout()


def _fields(x: np.ndarray) -> np.ndarray:
    """The ``%.17g`` text of each value of the float64 vector ``x``, as the
    rows of an (n, _WIDTH) uint8 array padded with NUL; the last byte of each
    is NUL, left for a separator."""
    a = np.abs(x)
    fast = (a >= 1e-37) & (a < 1e16)
    a = np.where(fast, a, 1.0)
    e = np.floor(np.log10(a)).astype(np.intp) - _EMIN
    y = a * _SCALE[0][e] * _SCALE[1][e]  # in [10^16, 10^17) once E is right
    off = (y >= 1e17).view(np.int8) - (y < 1e16).view(np.int8)  # log10 crossed 10^E
    fix = np.flatnonzero(off)
    e[fix] += off[fix]
    y[fix] = a[fix] * _SCALE[0][e[fix]] * _SCALE[1][e[fix]]
    n = y.astype(np.int64)
    frac = (y - n).astype(float)
    fast &= abs(frac - 0.5) >= _MARGIN
    n += frac > 0.5
    top = n == 10**17
    n[top] = 10**16
    e += top
    source = np.empty((len(a), 36), np.uint8)
    quads = source.view(np.uint32)
    for i, p in enumerate((10**16, 10**12, 10**8, 10**4)):
        q = n // p  # int64 % and divmod are several times slower
        quads[:, i] = _QUADS[q]
        n -= q * p
    quads[:, 4] = _QUADS[n]
    source[:, 20:] = _SOURCE_TAIL
    kept = 17 - (source[:, 19:2:-1] != 48).argmax(1)
    out = np.zeros((len(a), _WIDTH), np.uint8)
    out[:, 0] = (x < 0) * 45
    rows = np.arange(0, source.size, 36, dtype=np.int32)[:, None]
    out[:, 1:23] = source.ravel().take(np.take(_LAYOUT, e * 17 + kept - 1, 0) + rows)
    slow = np.flatnonzero(~fast)
    text = ("%-24.17g" * len(slow)) % tuple(x[slow].tolist())
    cells = np.frombuffer(text.encode("ascii"), np.uint8).reshape(-1, 24)
    out[slow, :24] = np.where(cells == 32, 0, cells)
    return out


def _csv_bytes(cells: np.ndarray) -> bytes:
    """The rows of (rows, columns, _WIDTH) fields, joined by ',' and '\\n'."""
    cells[:, :-1, -1] = ord(",")
    cells[:, -1, -1] = ord("\n")
    return cells[cells != 0].tobytes()


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
    """Write the data file whose rows are the byte ``chunks``, in order."""
    with open(path, "wb") as fh:
        fh.write(f"# manifest_hash={manifest_hash}\n{','.join(header)}\n".encode())
        fh.writelines(chunks)


def _float_table(path, manifest_hash: str, header: Sequence[str], table) -> None:
    """Write a (rows, columns) float table, one %.17g per value, in blocks of
    _CHUNK_ROWS rows.  A column of bitwise-identical values is formatted once."""
    table = np.asarray(table, dtype=float).reshape(-1, len(header))
    bits = table.view(np.uint64)
    constant = (bits == bits[:1]).all(axis=0) & (len(table) > 0)
    head = _fields(table[:1, constant].ravel())

    def blocks():
        for i in range(0, len(table), _CHUNK_ROWS):
            block = table[i:i + _CHUNK_ROWS]
            cells = np.empty(block.shape + (_WIDTH,), np.uint8)
            cells[:, constant] = head
            cells[:, ~constant] = _fields(block[:, ~constant].ravel()).reshape(
                len(block), -1, _WIDTH)
            yield _csv_bytes(cells)

    _write_table(path, manifest_hash, header, blocks())


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
    s is the outer loop and u the inner.  Each time is formatted once; a
    block of whole s rows, about as many values as a simulation block,
    formats its kernel values together."""
    times = np.asarray(times, dtype=float).ravel()
    stamps = _fields(times)
    kernel = np.asarray(kernel_sym, dtype=float).reshape(len(times), len(times))
    step = max(1, len(SIMULATION_COLUMNS) * _CHUNK_ROWS // max(1, len(times)))

    def blocks():
        for i in range(0, len(times), step):
            values = kernel[i:i + step]
            cells = np.empty(values.shape + (3, _WIDTH), np.uint8)
            cells[:, :, 0] = stamps[i:i + step, None]
            cells[:, :, 1] = stamps
            cells[:, :, 2] = _fields(values.ravel()).reshape(values.shape + (_WIDTH,))
            yield _csv_bytes(cells.reshape(-1, 3, _WIDTH))

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
