"""The table writers: every value is written as f"{x:.17g}", in row order."""

import math
from decimal import Decimal

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from drivetherm import reporting
from drivetherm.engine import QfiResult
from drivetherm.reporting import (SIMULATION_COLUMNS, write_kernel_csv,
                                  write_scan_csv, write_simulation_csv)
from drivetherm.scans import ScanPoint

#: Values every drawn table contains, whatever else is drawn.
SPECIAL = [np.inf, -np.inf, np.nan, -0.0, 5e-324, 1.7976931348623157e308]

floats = st.floats(allow_nan=True, allow_infinity=True, width=64)


def tables(n_columns):
    """(rows, n_columns) float64 tables whose first rows hold every SPECIAL value."""
    drawn = st.integers(0, 12).flatmap(
        lambda n: arrays(np.float64, (n, n_columns), elements=floats))
    head = np.resize(np.array(SPECIAL), (len(SPECIAL), n_columns))
    return drawn.map(lambda body: np.vstack([head, body]))


def expected_lines(rows):
    return [",".join(f"{x:.17g}" for x in row) for row in rows]


def simulation_rows(table, n_measurements):
    """The CSV rows of a QfiResult table: its first six columns, then
    crb_sigma = 1/sqrt(n F_total), inf where F_total <= 0 (or NaN)."""
    return [row[:6] + [1.0 / math.sqrt(n_measurements * row[3]) if row[3] > 0 else math.inf]
            for row in table.tolist()]


def body(path):
    lines = path.read_text(encoding="utf-8").split("\n")
    assert lines[0] == "# manifest_hash=h" and lines[-1] == ""
    return lines[1], lines[2:-1]


@settings(max_examples=60)
@given(tables(len(QfiResult._fields)))
def test_simulation_csv_formats_each_value_17g(tmp_path_factory, table):
    path = tmp_path_factory.mktemp("sim") / "sim.csv"
    write_simulation_csv(path, QfiResult(*table.T), "h", n_measurements=1)
    header, lines = body(path)
    assert header == ",".join(SIMULATION_COLUMNS)
    assert lines == expected_lines(simulation_rows(table, 1))


def test_simulation_csv_crb_column(tmp_path):
    # crb_sigma = 1/sqrt(n F_total) for n measurements; inf where F_total <= 0
    f_total = np.array([0.37, 2.5e3, 1e-300, 0.0, -0.0, -1.2, np.nan])
    table = np.zeros((len(f_total), len(QfiResult._fields)))
    table[:, 3] = f_total
    write_simulation_csv(tmp_path / "sim.csv", QfiResult(*table.T), "h", n_measurements=25)
    crb = [line.split(",")[6] for line in body(tmp_path / "sim.csv")[1]]
    assert crb == [f"{x:.17g}" for x in 1.0 / np.sqrt(25 * f_total[:3])] + ["inf"] * 4


@settings(max_examples=30)
@given(tables(5))
def test_scan_csv_formats_each_value_17g(tmp_path_factory, table):
    path = tmp_path_factory.mktemp("scan") / "scan.csv"
    write_scan_csv(path, "temperature", [ScanPoint(*row) for row in table.tolist()], "h")
    header, lines = body(path)
    assert header == "beta,F_eq,I_t,F_total,F_spectral"
    assert lines == expected_lines(table.tolist())


@settings(max_examples=60)
@given(st.integers(1, 9).flatmap(lambda n: st.tuples(
    arrays(np.float64, n, elements=floats), arrays(np.float64, (n, n), elements=floats))))
def test_kernel_csv_rows_run_s_outer_u_inner(tmp_path_factory, drawn):
    times, kernel = drawn
    times[:len(SPECIAL)] = SPECIAL[:len(times)]
    kernel.flat[:len(SPECIAL)] = SPECIAL[:kernel.size]
    path = tmp_path_factory.mktemp("kernel") / "kernel.csv"
    write_kernel_csv(path, times, kernel, "h")
    header, lines = body(path)
    assert header == "s,u,K_S"
    t, k = times.tolist(), kernel.tolist()
    rows = [(t[a], t[b], k[a][b]) for a in range(len(t)) for b in range(len(t))]
    assert lines == expected_lines(rows)


def test_empty_tables_write_the_header_only(tmp_path):
    write_scan_csv(tmp_path / "scan.csv", "frequency", [], "h")
    assert body(tmp_path / "scan.csv") == ("omega_d,F_eq,I_t,F_total,F_spectral", [])
    write_kernel_csv(tmp_path / "kernel.csv", np.zeros(0), np.zeros((0, 0)), "h")
    assert body(tmp_path / "kernel.csv") == ("s,u,K_S", [])


@pytest.mark.parametrize("constant", [np.nan, -0.0], ids=["nan", "minus-zero"])
def test_constant_column_is_written_as_each_value_17g(tmp_path, constant):
    # F_eq is constant; I_t mixes 0.0 and -0.0, which compare equal but are not
    # one value; the rows span three format blocks
    rows = 2 * reporting._CHUNK_ROWS + 3
    table = np.linspace(-1.0, 1.0, rows * 7).reshape(rows, 7)
    table[:, 1] = constant
    table[:, 2] = np.where(np.arange(rows) % 2, -0.0, 0.0)
    write_simulation_csv(tmp_path / "sim.csv", QfiResult(*table.T), "h", n_measurements=3)
    assert body(tmp_path / "sim.csv")[1] == expected_lines(simulation_rows(table, 3))


def test_kernel_csv_spanning_format_blocks_is_written_17g(tmp_path):
    # 70 times: blocks of 29, 29 and 12 whole s rows
    n = 70
    assert reporting._CHUNK_ROWS // n == 14
    times = np.linspace(0.0, 3.0, n)
    kernel = np.sin(np.add.outer(times, 1.1 * times)) / 3.0
    times[1:1 + len(SPECIAL)] = SPECIAL
    kernel.flat[-len(SPECIAL):] = SPECIAL
    write_kernel_csv(tmp_path / "kernel.csv", times, kernel, "h")
    t, k = times.tolist(), kernel.tolist()
    rows = [(t[a], t[b], k[a][b]) for a in range(n) for b in range(n)]
    assert body(tmp_path / "kernel.csv") == ("s,u,K_S", expected_lines(rows))


# ---------------------------------------------------------------------------
# The numpy formatter's hard cases: every value still reads as f"{x:.17g}"
# ---------------------------------------------------------------------------


def written(directory, values):
    """``values`` as the scan CSV writes them, one text per value."""
    values = np.asarray(values, dtype=float)
    table = np.resize(values, (-(-len(values) // 5), 5))
    write_scan_csv(directory / "scan.csv", "time", [ScanPoint(*row) for row in table.tolist()],
                   "h")
    return ",".join(body(directory / "scan.csv")[1]).split(",")[:len(values)]


def exact_ties():
    """Doubles m / 2^k, m odd, whose exact decimal value m 5^k 10^-k has 18
    significant digits, the last a 5: ties at the 17th digit, which round half
    to even.  Only k <= 25 (5^26 > 10^18) with m < 2^53 has them."""
    ties = []
    for k in range(2, 26):
        first = -(-10**17 // 5**k) | 1  # the first odd m with m 5^k >= 10^17
        ties += [m / 2**k for m in range(first, first + 6, 2) if m * 5**k < 10**18]
    return ties


def test_exact_ties_round_half_to_even(tmp_path):
    ties = exact_ties()
    assert 2.0**-25 in ties and len(ties) >= 20
    for x in ties:
        digits = Decimal(x).as_tuple().digits
        assert len(digits) == 18 and digits[-1] == 5, x
    values = ties + [-x for x in ties]
    assert written(tmp_path, values) == [f"{x:.17g}" for x in values]
    assert f"{2.0**-25:.17g}" == "2.9802322387695312e-08"  # ...3125: the 2 is even


def test_powers_of_ten_and_their_neighbours(tmp_path):
    powers = np.array([float(f"1e{e}") for e in range(-30, 17)])
    values = np.concatenate([powers, np.nextafter(powers, 0.0), np.nextafter(powers, np.inf)])
    values = np.concatenate([values, -values])
    assert written(tmp_path, values) == [f"{x:.17g}" for x in values.tolist()]


@settings(max_examples=60)
@given(st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=40))
def test_raw_bit_patterns(tmp_path_factory, bits):
    values = np.array(bits, dtype=np.uint64).view(np.float64)
    assert (written(tmp_path_factory.mktemp("bits"), values)
            == [f"{x:.17g}" for x in values.tolist()])


def test_python_fallback_alone_writes_the_same_bytes(tmp_path, monkeypatch):
    # with the margin above 1/2 every value takes Python's '%.17g', as where
    # longdouble is a double; the kernel's last block is partial
    n = 90
    assert n % (reporting._CHUNK_ROWS // n)
    rng = np.random.default_rng(5)
    times = np.linspace(0.0, 7.0, n)
    kernel = rng.standard_normal((n, n)) * 10.0 ** rng.integers(-40, 20, (n, n))
    kernel.flat[:len(SPECIAL)] = SPECIAL
    write_kernel_csv(tmp_path / "numpy.csv", times, kernel, "h")
    monkeypatch.setattr(reporting, "_MARGIN", 1.0)
    write_kernel_csv(tmp_path / "python.csv", times, kernel, "h")
    fast = (tmp_path / "numpy.csv").read_bytes()
    assert fast == (tmp_path / "python.csv").read_bytes()
    t, k = times.tolist(), kernel.tolist()
    rows = [(t[a], t[b], k[a][b]) for a in range(n) for b in range(n)]
    assert body(tmp_path / "numpy.csv") == ("s,u,K_S", expected_lines(rows))
