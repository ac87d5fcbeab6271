"""Time-ordered propagation for H(t, beta) = H0 + lambda(t, beta) V.

The stepper is midpoint-exponential, U(t+dt) = exp(-i*dt*H(t+dt/2)) U(t):
exactly unitary per step regardless of dt, second-order accurate overall.
Heisenberg operators V_H(t) = U^dag V U and the weighted integral
M(t) = int_0^t dlambda/dbeta(s) V_H(s) ds are accumulated once, here, and
cached on the resulting trace.  M is the one accumulated state of a run:
the beta-generator is A = -i M, and the accumulated information current dL
of the engine is a fixed linear map of M.
"""

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .drive import DriveProfile, dlambda_dbeta, lambda_at
from .exceptions import DriveThermError, StepSizeTooCoarse
from .operators import hermitize
from .thermal import GibbsModel, dpi_dbeta, make_gibbs

#: Steps per fastest period at default resolution.
STEPS_PER_PERIOD = 200

#: Unitarity drift (Frobenius defect of U^dag U) treated as a step-size failure.
DRIFT_TOL = 1e-8


@dataclass(frozen=True)
class TimeGrid:
    """Uniform grid t_k = k * t_end / n_steps, with t_0 = 0.

    ``t_end == 0`` (with ``n_steps == 0``) is the degenerate single-node
    grid used for instantaneous evaluation.
    """

    t_end: float
    n_steps: int

    def __post_init__(self):
        if self.t_end < 0.0:
            raise ValueError(f"t_end must be >= 0, got {self.t_end}")
        if self.n_steps < 0:
            raise ValueError(f"n_steps must be >= 0, got {self.n_steps}")
        if (self.t_end == 0.0) != (self.n_steps == 0):
            raise ValueError("t_end == 0 requires n_steps == 0 and vice versa")

    @property
    def dt(self) -> float:
        return self.t_end / self.n_steps if self.n_steps else 0.0

    @property
    def n_nodes(self) -> int:
        return self.n_steps + 1

    @property
    def nodes(self) -> np.ndarray:
        return np.linspace(0.0, self.t_end, self.n_steps + 1)


def default_n_steps(t_end: float, *frequencies: float) -> int:
    """Default resolution: >= STEPS_PER_PERIOD steps per fastest period."""
    if t_end == 0.0:
        return 0
    fastest = max([abs(f) for f in frequencies] + [1e-30])
    return max(1, math.ceil(STEPS_PER_PERIOD * t_end * fastest / (2.0 * math.pi)))


def default_grid(t_end: float, *frequencies: float) -> TimeGrid:
    return TimeGrid(t_end, default_n_steps(t_end, *frequencies))


@dataclass(frozen=True)
class EvolutionTrace:
    """Propagators, Heisenberg perturbation and their weighted integral.

    ``propagators[k]`` is U(t_k); ``heisenberg_v[k] = U(t_k)^dag V U(t_k)``
    shares the spectrum of V and stays Hermitian for all k.  ``M[k]`` is the
    Hermitian cumulative trapezoid of dlambda_dbeta(s) * V_H(s) up to t_k.
    """

    grid: TimeGrid
    model: GibbsModel
    drive: DriveProfile
    v: np.ndarray
    propagators: np.ndarray
    heisenberg_v: np.ndarray
    M: np.ndarray
    unitarity_drift: float

    @property
    def beta(self) -> float:
        return self.model.beta

    @property
    def dim(self) -> int:
        return self.model.dim


def propagate(model: GibbsModel, v, drive: DriveProfile, grid: TimeGrid,
              *, drift_tol: float = DRIFT_TOL) -> EvolutionTrace:
    """Integrate the propagator chain; cache Heisenberg operators and M.

    Raises
    ------
    DriveThermError
        If the unitarity drift or M is not finite (a NaN or infinite drive
        parameter or entry of V).
    StepSizeTooCoarse
        If the accumulated unitarity defect exceeds ``drift_tol``; the
        exception carries a suggested finer ``n_steps``.
    """
    v = hermitize(v)
    if v.shape != model.h0.shape:
        raise ValueError(f"dimension mismatch: V {v.shape} vs H0 {model.h0.shape}")
    d = model.dim
    n = grid.n_steps
    identity = np.eye(d, dtype=complex)

    propagators = np.empty((n + 1, d, d), dtype=complex)
    propagators[0] = identity
    if n > 0:
        dt = grid.dt
        t_mid = grid.nodes[:-1] + 0.5 * dt
        lam_mid = np.atleast_1d(lambda_at(drive, t_mid, model.beta))
        h_stack = model.h0[None, :, :] + lam_mid[:, None, None] * v[None, :, :]
        evals, evecs = np.linalg.eigh(h_stack)
        phases = np.exp(-1j * dt * evals)
        steps = np.einsum("kij,kj,klj->kil", evecs, phases, evecs.conj())
        for k in range(n):
            propagators[k + 1] = steps[k] @ propagators[k]

    defects = np.linalg.norm(
        np.einsum("kji,kjl->kil", propagators.conj(), propagators) - identity,
        axis=(1, 2),
    )
    drift = float(defects.max())
    if not math.isfinite(drift):
        raise DriveThermError(f"unitarity drift is {drift}: the drive or V is not finite")
    if drift > drift_tol:
        suggested = max(2 * n, 1)
        raise StepSizeTooCoarse(
            f"unitarity drift {drift:.3e} exceeds {drift_tol:.1e}; "
            f"retry with n_steps >= {suggested}",
            suggested_n_steps=suggested,
        )

    heisenberg_v = np.einsum("kji,jl,klm->kim", propagators.conj(), v, propagators)
    w = np.atleast_1d(dlambda_dbeta(drive, grid.nodes, model.beta))
    m = cumulative_trapezoid(w[:, None, None] * heisenberg_v, grid.dt)
    if not np.isfinite(m).all():
        raise DriveThermError("the weighted integral M is not finite: "
                              "check the drive's dlambda/dbeta")
    return EvolutionTrace(
        grid=grid,
        model=model,
        drive=drive,
        v=v,
        propagators=propagators,
        heisenberg_v=heisenberg_v,
        M=m,
        unitarity_drift=drift,
    )


def cumulative_trapezoid(values: np.ndarray, dt: float) -> np.ndarray:
    """Running composite trapezoid of a node stack: out[k] = int_0^{t_k}."""
    out = np.zeros_like(values)
    if len(values) > 1:
        np.cumsum(0.5 * dt * (values[:-1] + values[1:]), axis=0, out=out[1:])
    return out


def beta_generator(trace: EvolutionTrace) -> np.ndarray:
    """The generator A(t_k) = U^dag dU/dbeta = -i M(t_k), anti-Hermitian
    stack; A(0) = 0."""
    return -1j * trace.M


def drho_dbeta_analytic(trace: EvolutionTrace, k: int) -> np.ndarray:
    """Analytic beta-derivative of rho(t_k): U (dpi + [A, pi0]) U^dag.

    Traceless Hermitian; reduces to the rotated equilibrium derivative when
    the drive is temperature-insensitive (A = 0).
    """
    a_k = -1j * trace.M[k]
    pi0 = trace.model.state
    inner = dpi_dbeta(trace.model) + (a_k @ pi0 - pi0 @ a_k)
    u = trace.propagators[k]
    return u @ inner @ u.conj().T


#: Relative noise level of the centered difference above which a warning fires.
FD_NOISE_WARN = 1e-4


def drho_dbeta_fd(model: GibbsModel, v, drive: DriveProfile, grid: TimeGrid,
                  k: int, h_beta: float | None = None, *,
                  beta_max: float | None = None) -> np.ndarray:
    """Centered finite difference of rho(t_k, beta) in beta.

    Both branches are re-thermalized *and* re-propagated at beta +- h: the
    temperature enters through the initial state and through the drive.
    Default step 1e-5 * max(1, beta) balances truncation and cancellation.
    """
    beta = model.beta
    if h_beta is None:
        h_beta = 1e-5 * max(1.0, beta)
    if beta - h_beta < 0.0:
        raise ValueError(f"beta - h_beta = {beta - h_beta} below 0; shrink h_beta")
    branches = []
    for shifted in (beta + h_beta, beta - h_beta):
        shifted_model = make_gibbs(model.h0, shifted, beta_max=beta_max,
                                   rank_floor=model.rank_floor)
        tr = propagate(shifted_model, v, drive, grid)
        u = tr.propagators[k]
        branches.append(u @ shifted_model.state @ u.conj().T)
    result = (branches[0] - branches[1]) / (2.0 * h_beta)
    noise = np.finfo(float).eps / (2.0 * h_beta)
    scale = max(float(np.linalg.norm(result)), 1e-300)
    if noise / scale > FD_NOISE_WARN:
        warnings.warn(
            f"finite-difference step h_beta={h_beta:.1e} is cancellation-limited "
            f"(relative noise ~{noise / scale:.1e})",
            stacklevel=2,
        )
    return result
