"""Correctness checks computed apart from the program.

Nothing here imports drivetherm.  The reference quantum Fisher information
comes from the benchmark's own fourth-order Magnus stepper, a centred
difference in beta of the propagated state, and the spectral formula
F = sum_ij 2 |<i|drho|j>|^2 / (p_i + p_j).  README.md derives the budgets.
"""

import hashlib
import json
import math
from pathlib import Path

import numpy as np

from workloads import STEPS_PER_PERIOD, TWO_PI, Inputs

#: Relative agreement of F_eq with the benchmark's own energy variance.
FEQ_RTOL = 1e-12
#: Most negative I_t accepted (round-off of an exactly non-negative sum).
IT_FLOOR = -1e-10
#: Dual-path agreement |F_total - F_spectral| / F_spectral.
DUAL_RTOL = 1e-6
#: Kernel positivity: smallest eigenvalue >= -KERNEL_PSD * largest.
KERNEL_PSD = 1e-10
#: Budget on |F - F_ref| as a share of I_ref: c (omega_fast dt)^2 with the
#: error constant c of a second-order stepper taken as 1, at the coarsest step
#: the CLI's default rule allows, omega_fast dt = 2 pi / STEPS_PER_PERIOD.
STEP_BUDGET = 1.0 * (TWO_PI / STEPS_PER_PERIOD) ** 2
#: Floor of the budget: centred-difference and round-off error of F_ref.
REF_RTOL = 5e-8

_SQRT3 = math.sqrt(3.0)


class CheckFailed(Exception):
    pass


def _require(ok, message):
    if not ok:
        raise CheckFailed(message)


# ---------------------------------------------------------------------------
# Reference physics
# ---------------------------------------------------------------------------


def energy_variance(h0: np.ndarray, beta) -> np.ndarray:
    """Thermal energy variance from numpy.linalg.eigvalsh, vectorised in beta."""
    e = np.linalg.eigvalsh(h0)
    beta = np.atleast_1d(np.asarray(beta, dtype=float))
    w = np.exp(-np.outer(beta, e - e[0]))
    p = w / w.sum(axis=1, keepdims=True)
    mean = p @ e
    return np.einsum("bi,bi->b", p, (e[None, :] - mean[:, None]) ** 2)


def _gibbs(h0, beta):
    e, q = np.linalg.eigh(h0)
    w = np.exp(-beta * (e - e[0]))
    return (q * (w / w.sum())) @ q.conj().T


def _drive(inp: Inputs, t, beta, omega_d):
    z = (beta - inp.beta0) / inp.s_beta
    return inp.lambda0 * math.exp(-0.5 * z * z) * np.cos(omega_d * t + inp.phi)


def _states(inp: Inputs, beta, omega_d, t_end, n, keep):
    """rho(t_k) for k in ``keep`` on an n-step grid, fourth-order Magnus.

    Per step U <- exp(-i K) U with K = dt/2 (H1 + H2) - i sqrt(3)/12 dt^2 [H2, H1]
    at the two Gauss nodes; for H = H0 + l(t) V the commutator is
    (l1 - l2) [H0, V].
    """
    h0, v = inp.h0, inp.v
    dt = t_end / n
    t = np.arange(n) * dt
    l1 = _drive(inp, t + dt * (0.5 - _SQRT3 / 6), beta, omega_d)
    l2 = _drive(inp, t + dt * (0.5 + _SQRT3 / 6), beta, omega_d)
    comm = h0 @ v - v @ h0
    k = (dt * h0[None] + (0.5 * dt * (l1 + l2))[:, None, None] * v[None]
         - 1j * (_SQRT3 / 12) * dt * dt * (l1 - l2)[:, None, None] * comm[None])
    ev, q = np.linalg.eigh(k)
    steps = np.einsum("kij,kj,klj->kil", q, np.exp(-1j * ev), q.conj())
    pi0 = _gibbs(h0, beta)
    keep = np.asarray(keep)
    props = np.empty((len(keep),) + h0.shape, dtype=complex)
    u = np.eye(h0.shape[0], dtype=complex)
    j = 0
    for step in range(n + 1):
        while j < len(keep) and keep[j] == step:
            props[j] = u
            j += 1
        if j == len(keep):
            break
        u = steps[step] @ u
    return props @ pi0 @ props.conj().transpose(0, 2, 1)


def _spectral_qfi(rho, drho):
    lam, q = np.linalg.eigh(rho)
    dt = q.conj().transpose(0, 2, 1) @ drho @ q
    return np.sum(2.0 * np.abs(dt) ** 2 / (lam[:, :, None] + lam[:, None, :]), axis=(1, 2))


def reference_qfi(inp: Inputs, beta, omega_d, t_end, n, keep):
    """F(t_k, beta) at the ``keep`` nodes of an n-step grid on [0, t_end]."""
    h = 1e-5 * max(1.0, beta)
    plus = _states(inp, beta + h, omega_d, t_end, n, keep)
    minus = _states(inp, beta - h, omega_d, t_end, n, keep)
    rho = _states(inp, beta, omega_d, t_end, n, keep)
    return _spectral_qfi(rho, (plus - minus) / (2.0 * h))


def _fine_steps(inp: Inputs, omega_d, t_end) -> int:
    """Reference grid: twice the CLI's default resolution."""
    return 2 * math.ceil(STEPS_PER_PERIOD * t_end * inp.omega_fast(omega_d) / TWO_PI)


# ---------------------------------------------------------------------------
# Reference values, computed once per run
# ---------------------------------------------------------------------------


class Reference:
    """Reference QFI at a few sampled rows, plus the rows to compare."""

    def __init__(self, inp: Inputs, rng):
        self.inp = inp
        self.samples = []   # (row index, low, high): accepted F_total interval
        if inp.workload == "simulate-long":
            self._simulate(rng)
        elif inp.workload == "scan-frequency":
            self._frequency(rng)
        else:
            self._temperature(rng)

    def _accept(self, row, f_ref, i_ref):
        tol = STEP_BUDGET * abs(i_ref) + REF_RTOL * f_ref
        self.samples.append((row, f_ref - tol, f_ref + tol))

    def _simulate(self, rng):
        inp = self.inp
        n = inp.n_steps
        rows = sorted({n // 4, n // 2, int(rng.integers(1, n)), n})
        f = reference_qfi(inp, inp.beta_star, inp.omega_d, inp.t_end, 2 * n,
                          [2 * k for k in rows])
        f_eq = energy_variance(inp.h0, inp.beta_star)[0]
        for row, f_ref in zip(rows, f):
            self._accept(row, f_ref, f_ref - f_eq)

    def _frequency(self, rng):
        inp = self.inp
        p = len(inp.values)
        rows = sorted({0, p // 3, int(rng.integers(1, p - 1)), p - 1})
        f_eq = energy_variance(inp.h0, inp.beta_star)[0]
        for row in rows:
            w = inp.values[row]
            n = _fine_steps(inp, w, inp.t_end)
            f_ref = reference_qfi(inp, inp.beta_star, w, inp.t_end, n, [n])[0]
            self._accept(row, f_ref, f_ref - f_eq)

    def _temperature(self, rng):
        """max_over_t: the reference maximum over its own fine window nodes.

        The program maximises over its own nodes, spaced at most dt_p apart,
        so its maximum may sit below the true one by |F''| dt_p^2 / 8.
        """
        inp = self.inp
        t0, t1 = inp.reduce["window"]
        n = _fine_steps(inp, inp.omega_d, t1)
        dt = t1 / n
        nodes = np.linspace(0.0, t1, n + 1)
        keep = np.flatnonzero((nodes >= t0) & (nodes <= t1))
        p = len(inp.values)
        rows = sorted({0, inp.values.index(inp.beta0), int(rng.integers(1, p - 1)), p - 1})
        dt_p = TWO_PI / (STEPS_PER_PERIOD * inp.omega_fast())
        for row in rows:
            beta = inp.values[row]
            f = reference_qfi(inp, beta, inp.omega_d, t1, n, keep)
            curvature = np.max(np.abs(np.diff(f, 2))) / dt**2 if len(f) > 2 else 0.0
            f_eq = energy_variance(inp.h0, beta)[0]
            top = float(f.max())
            tol = STEP_BUDGET * (top - f_eq) + REF_RTOL * top
            self.samples.append((row, top - tol - curvature * dt_p**2 / 8,
                                 top + tol + curvature * dt**2 / 8))


# ---------------------------------------------------------------------------
# Output checks, run on every invocation
# ---------------------------------------------------------------------------


def _read_csv(path: Path):
    with open(path, encoding="utf-8") as fh:
        first = fh.readline().rstrip("\n")
        header = fh.readline().rstrip("\n").split(",")
    _require(first.startswith("# manifest_hash="), f"{path.name}: no manifest_hash line")
    data = np.loadtxt(path, delimiter=",", skiprows=2, ndmin=2)
    return first.split("=", 1)[1], header, data


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def check_outputs(inp: Inputs, out_dir: Path, ref: Reference) -> None:
    """Raise CheckFailed unless every output of one invocation is right."""
    manifest = json.loads((out_dir / inp.manifest_name).read_text(encoding="utf-8"))
    files = manifest["files"]
    expected = {inp.csv_name} | ({inp.kernel_name} if inp.kernel_name else set())
    _require(set(files) == expected, f"manifest lists {sorted(files)}, expected {sorted(expected)}")
    for name, digest in files.items():
        _require(_sha256(out_dir / name) == digest, f"{name}: SHA-256 differs from the manifest")

    file_hash, header, data = _read_csv(out_dir / inp.csv_name)
    _require(file_hash == manifest["content_hash"], "csv manifest_hash != manifest content_hash")
    _require(bool(np.all(np.isfinite(data))), "non-finite value in the csv")
    col = {name: data[:, i] for i, name in enumerate(header)}
    for name in ("F_eq", "I_t", "F_total", "F_spectral"):
        _require(name in col, f"csv has no {name} column")

    if inp.command == "simulate":
        _require(header[0] == "t", "simulate csv does not start with t")
        _require(len(data) == inp.n_steps + 1, f"{len(data)} rows for {inp.n_steps + 1} grid nodes")
        nodes = np.linspace(0.0, inp.t_end, inp.n_steps + 1)
        _require(np.allclose(col["t"], nodes, rtol=1e-14, atol=1e-12), "t column is not the grid")
        betas = np.full(len(data), inp.beta_star)
    else:
        axis = {"frequency": "omega_d", "temperature": "beta"}[inp.axis]
        _require(header[0] == axis, f"scan csv does not start with {axis}")
        _require(len(data) == len(inp.values), f"{len(data)} rows for {len(inp.values)} scan points")
        _require(np.array_equal(data[:, 0], np.array(inp.values)), "axis column != scan grid")
        betas = data[:, 0] if inp.axis == "temperature" else np.full(len(data), inp.beta_star)

    f_eq = energy_variance(inp.h0, betas)
    err = np.abs(col["F_eq"] - f_eq) / f_eq
    _require(err.max() <= FEQ_RTOL, f"F_eq off the energy variance by {err.max():.2e} relative")
    _require(col["I_t"].min() >= IT_FLOOR, f"I_t = {col['I_t'].min():.3e} < {IT_FLOOR}")
    dual = np.abs(col["F_total"] - col["F_spectral"]) / col["F_spectral"]
    _require(dual.max() <= DUAL_RTOL, f"|F_total - F_spectral| / F_spectral = {dual.max():.2e}")
    split = np.abs(col["F_total"] - col["F_eq"] - col["I_t"])
    _require(split.max() <= 1e-12 * col["F_total"].max(), "F_total != F_eq + I_t")

    for row, low, high in ref.samples:
        got = col["F_total"][row]
        _require(low <= got <= high,
                 f"row {row}: F_total {got:.12e} outside reference [{low:.12e}, {high:.12e}]")

    if inp.workload == "simulate-long":
        _check_kernel(out_dir / inp.kernel_name, manifest["content_hash"])
    elif inp.workload == "scan-frequency":
        step = inp.values[1] - inp.values[0]
        best = inp.values[int(np.argmax(col["F_total"]))]
        _require(abs(best - 1.0) <= step + 1e-12, f"argmax omega_d = {best}, gap is 1")
    else:
        i_t = col["I_t"]
        at = i_t[inp.values.index(inp.beta0)]
        _require(at <= 1e-12 * i_t.max(), f"I_t at beta0 = {at:.3e}, max {i_t.max():.3e}")


def _check_kernel(path: Path, content_hash: str) -> None:
    """The decimated kernel K_S(s, u) is symmetric positive semi-definite."""
    file_hash, header, data = _read_csv(path)
    _require(file_hash == content_hash, "kernel manifest_hash != manifest content_hash")
    _require(header == ["s", "u", "K_S"], f"kernel header {header}")
    m = math.isqrt(len(data))
    _require(m * m == len(data) and m > 1, f"kernel has {len(data)} rows, not a square")
    k = data[:, 2].reshape(m, m)
    _require(np.array_equal(data[:, 0].reshape(m, m)[:, 0], data[:, 1][:m]), "kernel grid mismatch")
    _require(bool(np.all(np.isfinite(k))), "non-finite kernel value")
    scale = np.abs(k).max()
    _require(np.abs(k - k.T).max() <= 1e-10 * scale, "kernel is not symmetric")
    lam = np.linalg.eigvalsh(0.5 * (k + k.T))
    _require(lam[0] >= -KERNEL_PSD * lam[-1], f"kernel eigenvalue {lam[0]:.3e} vs max {lam[-1]:.3e}")
