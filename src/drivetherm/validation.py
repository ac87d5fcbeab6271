"""Built-in oracle/invariant suite behind the ``validate`` CLI command.

Each check pins an analytic closed form, a no-go condition, or an
internal-consistency identity of the pipeline at an explicit tolerance.
The suite runs on a default two-level configuration or on a user config.
"""

import math
from dataclasses import dataclass, replace

import numpy as np

from . import engine
from .bures import jordan_apply, jordan_inverse_apply
from .config import RunConfig
from .drive import (ConstantEnvelope, CosineModulation, DriveProfile,
                    GaussianEnvelope)
from .exceptions import DriveThermError
from .operators import SIGMA_X, SIGMA_Z, eig, hermitize, pauli_components
from .propagation import TimeGrid, default_n_steps, propagate
from .spin import magnetization, qubit_equilibrium_qfi, weak_field_kernel
from .thermal import equilibrium_qfi, make_gibbs


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    measured: float
    threshold: float
    detail: str = ""

    def as_dict(self) -> dict:
        return {
            "name": self.name,
            "passed": bool(self.passed),
            "measured": float(self.measured),
            "threshold": float(self.threshold),
            "detail": self.detail,
        }


def _default_setup():
    h0 = 0.5 * SIGMA_Z
    v = SIGMA_X
    beta_star = 5.0
    drive = DriveProfile(
        lambda0=0.1,
        envelope=GaussianEnvelope(beta0=10.0, s_beta=3.0),
        temporal=CosineModulation(omega_d=1.0, phi=0.0),
    )
    t_end = 2.0 * 2.0 * math.pi
    return h0, v, beta_star, drive, t_end


def _setup_from_config(config: RunConfig):
    h0 = config.build_h0()
    v = config.build_v()
    drive = config.build_drive()
    t_end = config.t_end if config.t_end > 0 else 2.0 * 2.0 * math.pi
    return h0, v, config.beta_star, drive, t_end


def run_checks(config: RunConfig | None = None, *, seed: int = 20260810) -> list[CheckResult]:
    """Run the full suite; never raises on a failed check, only records it."""
    checks: list[CheckResult] = []
    rng = np.random.default_rng(seed)

    if config is None:
        h0, v, beta_star, drive, t_end = _default_setup()
    else:
        h0, v, beta_star, drive, t_end = _setup_from_config(config)

    spread = float(np.ptp(eig(h0).eigenvalues))
    omega_d = drive.omega_d

    # --- model construction (full-rank guard surfaces here) ---------------
    try:
        model = make_gibbs(h0, beta_star,
                           rank_floor=(config.tolerances.rank_floor if config else 1e-18))
        checks.append(CheckResult("model-within-full-rank-guard", True, 0.0, 0.0))
    except DriveThermError as exc:
        checks.append(CheckResult(
            "model-within-full-rank-guard", False, math.inf, 0.0, detail=str(exc)))
        return checks

    grid = TimeGrid(t_end, default_n_steps(t_end, spread, omega_d))

    # --- closed-form equilibrium baseline (two-level) ---------------------
    betas = np.linspace(0.0, 20.0, 101)
    worst = 0.0
    for b in betas:
        closed = qubit_equilibrium_qfi(1.0, float(b))
        numeric = equilibrium_qfi(make_gibbs(0.5 * SIGMA_Z, float(b)))
        worst = max(worst, abs(numeric - closed) / closed)
    checks.append(CheckResult("equilibrium-baseline-closed-form", worst <= 1e-12,
                              worst, 1e-12))

    # --- Jordan product round trip -----------------------------------------
    worst = 0.0
    for _ in range(50):
        d = int(rng.integers(2, 5))
        raw = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        sigma = raw @ raw.conj().T + 0.1 * np.eye(d)
        sigma /= np.trace(sigma).real
        x = hermitize(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)),
                      warn_above=np.inf)
        back = jordan_apply(sigma, jordan_inverse_apply(sigma, x))
        worst = max(worst, float(np.linalg.norm(back - x) / np.linalg.norm(x)))
    checks.append(CheckResult("jordan-inverse-round-trip", worst <= 1e-10, worst, 1e-10))

    # --- driven run: shared trace ------------------------------------------
    trace = propagate(model, v, drive, grid)
    ct = engine.build_current_trace(trace)
    series = engine.qfi_time_series(trace)

    # currents live in the coherence sector: Tr[pi0 J] = 0
    overlaps = np.abs(np.einsum("ij,kji->k", model.state, ct.currents))
    worst = float(overlaps.max())
    checks.append(CheckResult("current-thermal-overlap", worst <= 1e-10, worst, 1e-10))

    # spectrum preservation + unitarity of the trace
    v_eigs = eig(hermitize(v)).eigenvalues
    vh_eigs = np.linalg.eigvalsh(trace.heisenberg_v)
    spec_drift = float(np.abs(vh_eigs - v_eigs[None, :]).max())
    measured = max(spec_drift, trace.unitarity_drift)
    checks.append(CheckResult("unitarity-and-spectrum-preservation",
                              measured <= 1e-10, measured, 1e-10))

    # dual-path agreement
    worst = float(series.rel_disagreement.max())
    checks.append(CheckResult("dual-path-agreement", worst <= 1e-6, worst, 1e-6))

    # mixed term
    worst = float(series.mixed_term_residual.max())
    checks.append(CheckResult("mixed-term-vanishing", worst <= 1e-10, worst, 1e-10))

    # increment path equivalence + antisymmetric-part residual
    short_grid = TimeGrid(min(t_end, 2.0 * math.pi),
                          default_n_steps(min(t_end, 2.0 * math.pi), spread, omega_d))
    ct_short = engine.build_current_trace(propagate(model, v, drive, short_grid))
    i_kernel, asym = engine.increment_via_kernel(ct_short, return_diagnostics=True)
    i_delta = engine.increment_via_deltaL(ct_short)
    rel = abs(i_kernel - i_delta) / max(abs(i_delta), 1e-30)
    measured = max(rel if i_delta > 1e-25 else abs(i_kernel - i_delta), asym)
    checks.append(CheckResult("kernel-vs-accumulated-increment",
                              measured <= 1e-10, measured, 1e-10))

    # nonnegativity and gain over the run
    measured = float(min(series.i_t.min(), (series.f_total - series.f_eq).min()))
    checks.append(CheckResult("increment-nonnegative", measured >= -1e-10,
                              measured, -1e-10))

    # --- no-go: temperature-insensitive envelope ---------------------------
    nogo_drive = replace(drive, envelope=ConstantEnvelope())
    nogo = engine.qfi_time_series(propagate(model, v, nogo_drive, grid))
    worst = float(max(np.abs(nogo.f_spectral - nogo.f_eq).max(), np.abs(nogo.i_t).max()))
    checks.append(CheckResult("no-go-constant-envelope", worst <= 1e-9, worst, 1e-9))

    # --- no-go: perturbation commuting with H0 -----------------------------
    commuting_drive = DriveProfile(
        lambda0=0.1,
        envelope=GaussianEnvelope(beta0=beta_star + 2.0, s_beta=2.0),
        temporal=CosineModulation(omega_d=max(spread, 1.0), phi=0.0),
    )
    commuting = engine.qfi_time_series(propagate(model, h0, commuting_drive, grid))
    worst = float(np.abs(commuting.i_t).max())
    checks.append(CheckResult("no-go-commuting-perturbation", worst <= 1e-12,
                              worst, 1e-12))

    # --- two-level closed forms (always on the reference qubit) ------------
    qubit_model = make_gibbs(0.5 * SIGMA_Z, 5.0)
    qubit_drive = DriveProfile(
        lambda0=0.1,
        envelope=GaussianEnvelope(beta0=10.0, s_beta=3.0),
        temporal=CosineModulation(omega_d=1.0, phi=0.0),
    )

    # current closed form 2m(ax sy - ay sx)
    qgrid = TimeGrid(2.0 * math.pi, default_n_steps(2.0 * math.pi, 1.0, 1.0))
    qtrace = propagate(qubit_model, SIGMA_X, qubit_drive, qgrid)
    qct = engine.build_current_trace(qtrace)
    m = magnetization(1.0, 5.0)
    worst = 0.0
    for k in range(0, qgrid.n_nodes, 25):
        a = pauli_components(qtrace.heisenberg_v[k])
        closed = 2.0 * m * (a[0] * np.array([[0, -1j], [1j, 0]]) - a[1] * SIGMA_X)
        worst = max(worst, float(np.abs(closed - qct.currents[k]).max()))
    checks.append(CheckResult("qubit-current-closed-form", worst <= 1e-10,
                              worst, 1e-10))

    # short-time quadratic law
    t_short = 1e-3
    sgrid = TimeGrid(t_short, 64)
    sct = engine.build_current_trace(propagate(qubit_model, SIGMA_X, qubit_drive, sgrid))
    i_short = engine.increment_via_deltaL(sct)
    gprime = qubit_drive.envelope.derivative(5.0)
    coef = 4.0 * m**2 * (0.1 * gprime) ** 2
    measured = abs(i_short / t_short**2 - coef) / coef
    checks.append(CheckResult("short-time-quadratic-law", measured <= 1e-3,
                              measured, 1e-3))

    # weak-field kernel
    weak_drive = replace(qubit_drive, lambda0=1e-4)
    wgrid = TimeGrid(4.0, default_n_steps(4.0, 1.0, 1.0))
    wct = engine.build_current_trace(propagate(qubit_model, SIGMA_X, weak_drive, wgrid))
    km = engine.kernel_matrix(wct)
    nodes = wgrid.nodes
    idx = np.arange(0, wgrid.n_nodes, 16)
    worst = 0.0
    for a_i in idx:
        for b_i in idx:
            closed = weak_field_kernel(1.0, m, nodes[a_i], nodes[b_i])
            worst = max(worst, abs(km[a_i, b_i].real - closed))
    checks.append(CheckResult("weak-field-kernel-closed-form", worst <= 1e-6,
                              worst, 1e-6))

    return checks


def summarize(checks: list[CheckResult]) -> str:
    """Human-readable pass/fail table."""
    width = max(len(c.name) for c in checks)
    lines = []
    for c in checks:
        status = "PASS" if c.passed else "FAIL"
        line = (f"{status}  {c.name.ljust(width)}  "
                f"measured={c.measured:.3e}  threshold={c.threshold:.3e}")
        if c.detail:
            line += f"  ({c.detail})"
        lines.append(line)
    n_fail = sum(1 for c in checks if not c.passed)
    lines.append(f"{len(checks) - n_fail}/{len(checks)} checks passed")
    return "\n".join(lines)
