"""Built-in oracle/invariant suite behind the ``validate`` CLI command.

Each check pins an analytic closed form, a no-go condition, or an
internal-consistency identity of the pipeline at an explicit tolerance.
The suite runs on a default two-level configuration or on a user config.
"""

import math
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from . import engine
from .bures import jordan_apply, jordan_inverse_apply
from .config import RunConfig
from .drive import (ConstantEnvelope, CosineModulation, DriveProfile,
                    GaussianEnvelope)
from .operators import SIGMA_X, SIGMA_Y, SIGMA_Z, eig, hermitize, pauli_components
from .propagation import DRIFT_TOL, TimeGrid, default_grid, propagate
from .spin import (magnetization, qubit_equilibrium_qfi, short_time_coefficient,
                   weak_field_kernel)
from .thermal import RANK_FLOOR, equilibrium_qfi, make_gibbs, spectral_spread


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    measured: float
    threshold: float

    def as_dict(self) -> dict:
        return {
            "name": self.name,
            "passed": bool(self.passed),
            "measured": float(self.measured),
            "threshold": float(self.threshold),
        }


class _Setup(NamedTuple):
    h0: np.ndarray
    v: np.ndarray
    beta_star: float
    drive: DriveProfile
    grid: TimeGrid


#: The reference qubit H0 = sigma_z/2, V = sigma_x at beta = 5 under a
#: Gaussian-envelope cosine drive, run to t = 4 pi.  The suite runs on it
#: without a config, and the closed-form checks always do.
REFERENCE = _Setup(
    h0=0.5 * SIGMA_Z,
    v=SIGMA_X,
    beta_star=5.0,
    drive=DriveProfile(lambda0=0.1, envelope=GaussianEnvelope(beta0=10.0, s_beta=3.0),
                       temporal=CosineModulation(omega_d=1.0, phi=0.0)),
    grid=default_grid(4.0 * math.pi, 1.0, 1.0),
)


def _setup_from_config(config: RunConfig) -> _Setup:
    """The configured run; a ``grid.t_end`` of 0 runs to t = 4 pi, or to the
    end of a tabulated temporal table if that is earlier."""
    h0 = config.build_h0()
    drive = config.build_drive()
    if config.grid["t_end"] > 0.0:
        grid = config.build_grid()
    else:
        t_end = 4.0 * math.pi
        if config.drive["temporal"]["kind"] == "tabulated":
            t_end = min(t_end, config.drive["temporal"]["points"][-1][0])
        grid = default_grid(t_end, spectral_spread(h0), drive.omega_d)
    return _Setup(h0, config.build_v(), config.model["beta_star"], drive, grid)


def run_checks(config: RunConfig | None = None, *, seed: int = 20260810) -> list[CheckResult]:
    """Run the 13 checks; never raises on a failed check, only records it.

    A loaded ``config``'s Gibbs model already passed the full-rank rule of
    :func:`thermal.make_gibbs`, so no check repeats it.
    """
    checks: list[CheckResult] = []
    rng = np.random.default_rng(seed)

    def check(name, measured, threshold, *, at_least=False):
        """Record ``measured <= threshold`` (``>=`` with ``at_least``)."""
        passed = measured >= threshold if at_least else measured <= threshold
        checks.append(CheckResult(name, passed, measured, threshold))

    if config is None:
        h0, v, beta_star, drive, grid = REFERENCE
        drift_tol, rank_floor = DRIFT_TOL, RANK_FLOOR
    else:
        h0, v, beta_star, drive, grid = _setup_from_config(config)
        drift_tol, rank_floor = config.tolerances["step_drift"], config.tolerances["rank_floor"]

    spread = spectral_spread(h0)
    omega_d = drive.omega_d

    model = make_gibbs(h0, beta_star, rank_floor=rank_floor)

    # --- closed-form equilibrium baseline (two-level) ---------------------
    betas = np.linspace(0.0, 20.0, 101)
    worst = 0.0
    for b in betas:
        closed = qubit_equilibrium_qfi(1.0, float(b))
        numeric = equilibrium_qfi(make_gibbs(REFERENCE.h0, float(b)))
        worst = max(worst, abs(numeric - closed) / closed)
    check("equilibrium-baseline-closed-form", worst, 1e-12)

    # --- Jordan product round trip -----------------------------------------
    worst = 0.0
    for _ in range(50):
        d = int(rng.integers(2, 5))
        raw = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        sigma = raw @ raw.conj().T + 0.1 * np.eye(d)
        sigma /= np.trace(sigma).real
        raw = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        x = 0.5 * (raw + raw.conj().T)
        back = jordan_apply(sigma, jordan_inverse_apply(sigma, x))
        worst = max(worst, float(np.linalg.norm(back - x) / np.linalg.norm(x)))
    check("jordan-inverse-round-trip", worst, 1e-10)

    # --- driven run: shared trace ------------------------------------------
    trace = propagate(model, v, drive, grid, drift_tol=drift_tol)
    ct = engine.build_current_trace(trace)
    series = engine.qfi_time_series(trace)

    # currents live in the coherence sector: Tr[pi0 J] = 0
    overlaps = np.abs(np.einsum("ij,kji->k", model.state, ct.currents))
    check("current-thermal-overlap", float(overlaps.max()), 1e-10)

    # spectrum preservation + unitarity of the trace
    v_eigs = eig(hermitize(v)).eigenvalues
    vh_eigs = np.linalg.eigvalsh(trace.heisenberg_v)
    spec_drift = float(np.abs(vh_eigs - v_eigs[None, :]).max())
    check("unitarity-and-spectrum-preservation", max(spec_drift, trace.unitarity_drift), 1e-10)

    check("dual-path-agreement", float(series.rel_disagreement.max()), 1e-6)
    check("mixed-term-vanishing", float(series.mixed_term_residual.max()), 1e-10)

    # increment path equivalence + antisymmetric-part residual
    short_grid = default_grid(min(grid.t_end, 2.0 * math.pi), spread, omega_d)
    ct_short = engine.build_current_trace(propagate(model, v, drive, short_grid,
                                                    drift_tol=drift_tol))
    i_kernel, asym = engine.increment_via_kernel(ct_short, return_diagnostics=True)
    i_delta = engine.increment_series(ct_short)[-1]
    rel = abs(i_kernel - i_delta) / max(abs(i_delta), 1e-30)
    measured = max(rel if i_delta > 1e-25 else abs(i_kernel - i_delta), asym)
    check("kernel-vs-accumulated-increment", measured, 1e-10)

    # nonnegativity and gain over the run
    measured = float(min(series.i_t.min(), (series.f_total - series.f_eq).min()))
    check("increment-nonnegative", measured, -1e-10, at_least=True)

    # --- no-go: temperature-insensitive envelope ---------------------------
    nogo_drive = replace(drive, envelope=ConstantEnvelope())
    nogo = engine.qfi_time_series(propagate(model, v, nogo_drive, grid, drift_tol=drift_tol))
    worst = float(max(np.abs(nogo.f_spectral - nogo.f_eq).max(), np.abs(nogo.i_t).max()))
    check("no-go-constant-envelope", worst, 1e-9)

    # --- no-go: perturbation commuting with H0 -----------------------------
    commuting_drive = DriveProfile(
        lambda0=0.1,
        envelope=GaussianEnvelope(beta0=beta_star + 2.0, s_beta=2.0),
        temporal=CosineModulation(omega_d=max(spread, 1.0), phi=0.0),
    )
    commuting = engine.qfi_time_series(propagate(model, h0, commuting_drive, grid,
                                                 drift_tol=drift_tol))
    check("no-go-commuting-perturbation", float(np.abs(commuting.i_t).max()), 1e-12)

    # --- two-level closed forms (always on the reference qubit) ------------
    qubit_model = make_gibbs(REFERENCE.h0, REFERENCE.beta_star)
    qubit_drive = REFERENCE.drive
    m = magnetization(1.0, REFERENCE.beta_star)

    # current closed form 2m(ax sy - ay sx)
    qgrid = default_grid(2.0 * math.pi, 1.0, 1.0)
    qtrace = propagate(qubit_model, REFERENCE.v, qubit_drive, qgrid)
    qct = engine.build_current_trace(qtrace)
    worst = 0.0
    for k in range(0, qgrid.n_nodes, 25):
        a = pauli_components(qtrace.heisenberg_v[k])
        closed = 2.0 * m * (a[0] * SIGMA_Y - a[1] * SIGMA_X)
        worst = max(worst, float(np.abs(closed - qct.currents[k]).max()))
    check("qubit-current-closed-form", worst, 1e-10)

    # short-time quadratic law
    t_short = 1e-3
    sct = engine.build_current_trace(propagate(qubit_model, REFERENCE.v, qubit_drive,
                                               TimeGrid(t_short, 64)))
    i_short = engine.increment_series(sct)[-1]
    coef = short_time_coefficient(m, qubit_drive.lambda0,
                                  qubit_drive.envelope.derivative(REFERENCE.beta_star))
    check("short-time-quadratic-law", abs(i_short / t_short**2 - coef) / coef, 1e-3)

    # weak-field kernel
    weak_drive = replace(qubit_drive, lambda0=1e-4)
    wgrid = default_grid(4.0, 1.0, 1.0)
    km = engine.kernel_matrix(engine.build_current_trace(
        propagate(qubit_model, REFERENCE.v, weak_drive, wgrid)))
    nodes = wgrid.nodes
    idx = np.arange(0, wgrid.n_nodes, 16)
    worst = 0.0
    for a_i in idx:
        for b_i in idx:
            closed = weak_field_kernel(1.0, m, nodes[a_i], nodes[b_i])
            worst = max(worst, abs(km[a_i, b_i].real - closed))
    check("weak-field-kernel-closed-form", worst, 1e-6)

    return checks


def summarize(checks: list[CheckResult]) -> str:
    """Human-readable pass/fail table."""
    width = max(len(c.name) for c in checks)
    lines = []
    for c in checks:
        status = "PASS" if c.passed else "FAIL"
        lines.append(f"{status}  {c.name.ljust(width)}  "
                     f"measured={c.measured:.3e}  threshold={c.threshold:.3e}")
    n_fail = sum(1 for c in checks if not c.passed)
    lines.append(f"{len(checks) - n_fail}/{len(checks)} checks passed")
    return "\n".join(lines)
