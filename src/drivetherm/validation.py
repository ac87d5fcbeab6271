"""Built-in oracle/invariant suite behind the ``validate`` CLI command.

Each check pins an analytic closed form, a no-go condition, or an
internal-consistency identity of the pipeline at an explicit tolerance.
The suite runs on a default two-level configuration or on the objects of a
loaded user config (:class:`config.LoadedRun`).
"""

import math
from typing import NamedTuple

import numpy as np

from . import engine
from .config import LoadedRun
from .drive import (ConstantEnvelope, CosineModulation, DriveProfile,
                    GaussianEnvelope, TabulatedModulation)
from .operators import SIGMA_X, SIGMA_Y, SIGMA_Z, hermitize, pauli_components
from .propagation import (DRIFT_TOL, TimeGrid, default_grid, default_n_steps,
                          propagate)
from .spin import (detuned_increment, magnetization, qubit_equilibrium_qfi,
                   resonant_increment, short_time_coefficient, weak_field_kernel)
from .thermal import GibbsModel, equilibrium_qfi, make_gibbs


class CheckResult(NamedTuple):
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
    model: GibbsModel
    v: np.ndarray
    drive: DriveProfile
    grid: TimeGrid


#: The reference qubit H0 = sigma_z/2, V = sigma_x at beta = 5 under a
#: Gaussian-envelope cosine drive, run to t = 4 pi.  The suite runs on it
#: without a config, and the closed-form checks always do.
REFERENCE = _Setup(
    model=make_gibbs(0.5 * SIGMA_Z, 5.0),
    v=SIGMA_X,
    drive=DriveProfile(lambda0=0.1, envelope=GaussianEnvelope(beta0=10.0, s_beta=3.0),
                       temporal=CosineModulation(omega_d=1.0, phi=0.0)),
    grid=default_grid(4.0 * math.pi, 1.0, 1.0),
)


def _setup_from_run(run: LoadedRun) -> _Setup:
    """The loaded run; a ``grid.t_end`` of 0 runs to t = 4 pi, or to the
    end of a tabulated temporal table if that is earlier."""
    grid = run.grid
    if grid.t_end == 0.0:
        t_end = 4.0 * math.pi
        if isinstance(run.drive.temporal, TabulatedModulation):
            t_end = min(t_end, run.drive.temporal.times[-1])
        grid = default_grid(t_end, run.model.spread, run.drive.omega_d)
    return _Setup(run.model, run.v, run.drive, grid)


def run_checks(run: LoadedRun | None = None) -> list[CheckResult]:
    """Run the 15 checks; never raises on a failed check, only records it.

    The checks up to the no-go conditions read the loaded ``run`` (the
    reference qubit without one), the PSD check on the nodes whose kernel
    ``simulate`` writes.  The run's Gibbs model passed the full-rank rule
    of :func:`thermal.make_gibbs`, so no check repeats it.
    """
    checks: list[CheckResult] = []

    def check(name, measured, threshold, *, at_least=False):
        """Record ``measured <= threshold`` (``>=`` with ``at_least``)."""
        passed = measured >= threshold if at_least else measured <= threshold
        checks.append(CheckResult(name, passed, measured, threshold))

    if run is None:
        model, v, drive, grid = REFERENCE
        drift_tol = DRIFT_TOL
    else:
        model, v, drive, grid = _setup_from_run(run)
        drift_tol = run.config["tolerances"]["step_drift"]
    omega_d = drive.omega_d

    # --- closed-form equilibrium baseline (two-level) ---------------------
    betas = np.linspace(0.0, 20.0, 101)
    worst = 0.0
    for b in betas:
        closed = qubit_equilibrium_qfi(1.0, float(b))
        numeric = equilibrium_qfi(make_gibbs(REFERENCE.model.h0, float(b)))
        worst = max(worst, abs(numeric - closed) / closed)
    check("equilibrium-baseline-closed-form", worst, 1e-12)

    # --- driven run: shared trace ------------------------------------------
    trace = propagate(model, v, drive, grid, drift_tol=drift_tol)
    series = engine.qfi_time_series(trace)

    # the kernel simulate writes is PSD: lambda_min / max|lambda| of Re K on its
    # nodes; a V commuting with H0 gives the zero kernel, which reads 0
    nodes = engine.kernel_nodes(grid.n_steps)
    lam = np.linalg.eigvalsh(engine.kernel_matrix(model, trace.heisenberg_v[nodes]).real)
    scale = max(float(np.abs(lam).max()), np.finfo(float).tiny)
    check("kernel-positive-semidefinite", float(lam[0]) / scale, -1e-10, at_least=True)

    # currents live in the coherence sector: Tr[pi0 J] = 0
    currents = engine.information_current(model, trace.heisenberg_v)
    overlaps = np.abs(np.einsum("ij,kji->k", model.state, currents))
    check("current-thermal-overlap", float(overlaps.max()), 1e-10)

    # spectrum preservation + unitarity of the trace
    v_eigs, _ = np.linalg.eigh(hermitize(v))
    vh_eigs = np.linalg.eigvalsh(trace.heisenberg_v)
    spec_drift = float(np.abs(vh_eigs - v_eigs[None, :]).max())
    check("unitarity-and-spectrum-preservation", max(spec_drift, trace.unitarity_drift), 1e-10)

    check("dual-path-agreement", float(series.rel_disagreement.max()), engine.DUAL_PATH_TOL)
    check("mixed-term-vanishing", float(series.mixed_term_residual.max()), 1e-10)

    # the kernel double sum against the written I_t, relative to the sum of
    # its absolute terms (its round-off scale), + antisymmetric residual
    short_grid = default_grid(min(grid.t_end, 2.0 * math.pi), model.spread, omega_d)
    short = propagate(model, v, drive, short_grid, drift_tol=drift_tol)
    i_kernel, asym, scale = engine.increment_via_kernel(short)
    diff = abs(i_kernel - engine.qfi_driven(short).i_t)
    check("kernel-vs-accumulated-increment", max(diff / scale if scale else diff, asym), 1e-10)

    # nonnegativity and gain over the run
    measured = float(min(series.i_t.min(), (series.f_total - series.f_eq).min()))
    check("increment-nonnegative", measured, -1e-10, at_least=True)

    # --- no-go: temperature-insensitive envelope ---------------------------
    nogo_drive = drive._replace(envelope=ConstantEnvelope())
    nogo = engine.qfi_time_series(propagate(model, v, nogo_drive, grid, drift_tol=drift_tol))
    worst = float(max(np.abs(nogo.f_spectral - nogo.f_eq).max(), np.abs(nogo.i_t).max()))
    check("no-go-constant-envelope", worst, 1e-9)

    # --- no-go: perturbation commuting with H0 -----------------------------
    commuting_drive = DriveProfile(
        lambda0=0.1,
        envelope=GaussianEnvelope(beta0=model.beta + 2.0, s_beta=2.0),
        temporal=CosineModulation(omega_d=max(model.spread, 1.0), phi=0.0),
    )
    commuting = engine.qfi_time_series(propagate(model, model.h0, commuting_drive, grid,
                                                 drift_tol=drift_tol))
    check("no-go-commuting-perturbation", float(np.abs(commuting.i_t).max()), 1e-12)

    # --- two-level closed forms (always on the reference qubit) ------------
    qubit_model = REFERENCE.model
    qubit_drive = REFERENCE.drive
    m = magnetization(1.0, qubit_model.beta)
    gprime = qubit_drive.envelope.derivative(qubit_model.beta)

    # current closed form 2m(ax sy - ay sx)
    qgrid = default_grid(2.0 * math.pi, 1.0, 1.0)
    qtrace = propagate(qubit_model, REFERENCE.v, qubit_drive, qgrid)
    vh = qtrace.heisenberg_v[::25]
    worst = 0.0
    for v_k, current in zip(vh, engine.information_current(qubit_model, vh)):
        a = pauli_components(v_k)
        closed = 2.0 * m * (a[0] * SIGMA_Y - a[1] * SIGMA_X)
        worst = max(worst, float(np.abs(closed - current).max()))
    check("qubit-current-closed-form", worst, 1e-10)

    # short-time quadratic law
    t_short = 1e-3
    i_short = engine.qfi_driven(propagate(qubit_model, REFERENCE.v, qubit_drive,
                                          TimeGrid(t_short, 64))).i_t
    coef = short_time_coefficient(m, qubit_drive.lambda0, gprime)
    check("short-time-quadratic-law", abs(i_short / t_short**2 - coef) / coef, 1e-3)

    # weak-field kernel, at every 16th node
    weak_drive = qubit_drive._replace(lambda0=1e-4)
    wgrid = default_grid(4.0, 1.0, 1.0)
    wtrace = propagate(qubit_model, REFERENCE.v, weak_drive, wgrid)
    km = engine.kernel_matrix(qubit_model, wtrace.heisenberg_v[::16])
    nodes = wgrid.nodes[::16]
    worst = 0.0
    for a_i, s in enumerate(nodes):
        for b_i, u in enumerate(nodes):
            worst = max(worst, abs(km[a_i, b_i].real - weak_field_kernel(1.0, m, s, u)))
    check("weak-field-kernel-closed-form", worst, 1e-6)

    # resonant long-time law: the exact weak-field A(t), pointwise to 2 %
    lam0 = 0.01
    rgrid = TimeGrid(100.0, default_n_steps(100.0, 1.0, 1.0))
    i_res = engine.qfi_time_series(propagate(qubit_model, REFERENCE.v,
                                             qubit_drive._replace(lambda0=lam0), rgrid)).i_t
    exact = np.array([resonant_increment(1.0, m, lam0, gprime, t).exact
                      for t in rgrid.nodes[1:]])
    check("resonant-long-time-law", float(np.abs(i_res[1:] / exact - 1.0).max()), 0.02)

    # detuned drive (omega_d = 2): I_t stays on the bounded weak-field law
    dgrid = default_grid(20.0 * math.pi, 1.0, 2.0)
    detuned = qubit_drive._replace(lambda0=lam0, temporal=CosineModulation(omega_d=2.0, phi=0.0))
    i_det = engine.qfi_time_series(propagate(qubit_model, REFERENCE.v, detuned, dgrid)).i_t
    law = detuned_increment(1.0, 2.0, m, lam0, gprime, dgrid.nodes)
    check("detuned-bounded-law", float(np.abs(i_det - law).max() / law.max()), 0.02)

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
