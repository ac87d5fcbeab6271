"""Reference computations that the tests check the package against."""

import math
import warnings
from dataclasses import dataclass

import numpy as np

from drivetherm.drive import DriveProfile, lambda_at
from drivetherm.exceptions import StepSizeTooCoarse
from drivetherm.propagation import TimeGrid, propagate
from drivetherm.thermal import GibbsModel, make_gibbs


def expm_hermitian_generator(a: np.ndarray, s: float) -> np.ndarray:
    """exp(-i*s*A) for Hermitian A, via eigendecomposition.

    Exactly unitary up to eigensolver roundoff regardless of ``s``.
    """
    vals, vecs = np.linalg.eigh(a)
    phases = np.exp(-1j * s * vals)
    return (vecs * phases) @ vecs.conj().T


def commutator(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """A@B - B@A (anti-Hermitian for Hermitian inputs)."""
    if a.shape != b.shape:
        raise ValueError(f"dimension mismatch: {a.shape} vs {b.shape}")
    return a @ b - b @ a


# ------------------------------------------------- RK4 Bloch rotation (qubit)

#: Steps per fastest period for the RK4 Bloch integrator.  Denser than the
#: propagator default: RK4 norm drift per rotation step is ~(Omega*dt)^6/144,
#: and the norm budget is 1e-9 over tens of periods.
BLOCH_STEPS_PER_PERIOD = 800

#: Norm drift treated as an integrator failure.
BLOCH_NORM_TOL = 1e-6


def default_bloch_grid(t_end: float, omega: float, omega_d: float = 0.0) -> TimeGrid:
    """Grid meeting the RK4 norm budget for the Bloch integrator."""
    if t_end == 0.0:
        return TimeGrid(0.0, 0)
    fastest = max(abs(omega), abs(omega_d), 1e-30)
    n = max(1, math.ceil(BLOCH_STEPS_PER_PERIOD * t_end * fastest / (2.0 * math.pi)))
    return TimeGrid(t_end, n)


@dataclass(frozen=True)
class BlochTrace:
    """Heisenberg-picture Bloch vector a(t_k) of the transverse perturbation."""

    grid: TimeGrid
    vectors: np.ndarray  # (n_nodes, 3)

    @property
    def norm_drift(self) -> float:
        return float(np.abs(np.linalg.norm(self.vectors, axis=1) - 1.0).max())


def _cross_matrix(b: np.ndarray) -> np.ndarray:
    bx, by, bz = b
    return np.array([[0.0, -bz, by], [bz, 0.0, -bx], [-by, bx, 0.0]])


def bloch_precess(omega: float, drive: DriveProfile, beta: float,
                  grid: TimeGrid) -> BlochTrace:
    """Bloch components of V_H(t) = U^dag sigma_x U under the driven field.

    The field is B(t) = (2*lambda(t, beta), 0, Omega).  Because V_H carries
    the *reversed* time ordering of the Schroedinger-conjugated operator, the
    3-vector alone obeys no closed lab-frame precession once the field is
    time dependent; the full rotation M(t) with dM/dt = -M [B(t) x] is
    integrated instead (classic RK4, one step per grid interval) and
    a(t) = M(t) e_x read off.  At lambda0 = 0 this gives
    (cos Omega t, -sin Omega t, 0).

    The unit norm of a is asserted (never renormalized); drift beyond
    ``BLOCH_NORM_TOL`` raises :class:`StepSizeTooCoarse`.
    """
    n = grid.n_steps
    vectors = np.empty((n + 1, 3))
    m = np.eye(3)
    vectors[0] = m[:, 0]
    dt = grid.dt

    def rhs(mat, t):
        b = np.array([2.0 * lambda_at(drive, t, beta), 0.0, omega])
        return -(mat @ _cross_matrix(b))

    t = 0.0
    for k in range(n):
        k1 = rhs(m, t)
        k2 = rhs(m + 0.5 * dt * k1, t + 0.5 * dt)
        k3 = rhs(m + 0.5 * dt * k2, t + 0.5 * dt)
        k4 = rhs(m + dt * k3, t + dt)
        m = m + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        t += dt
        vectors[k + 1] = m[:, 0]

    trace = BlochTrace(grid=grid, vectors=vectors)
    if trace.norm_drift > BLOCH_NORM_TOL:
        raise StepSizeTooCoarse(
            f"Bloch norm drift {trace.norm_drift:.3e} exceeds {BLOCH_NORM_TOL:.1e}; "
            f"retry with n_steps >= {2 * max(n, 1)}",
            suggested_n_steps=2 * max(n, 1),
        )
    return trace


# ------------------------------------------ finite-difference state derivative

#: Relative noise level of the centered difference above which a warning fires.
FD_NOISE_WARN = 1e-4


def drho_dbeta_fd(model: GibbsModel, v, drive: DriveProfile, grid: TimeGrid,
                  k: int, h_beta: float | None = None) -> np.ndarray:
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
        shifted_model = make_gibbs(model.h0, shifted, rank_floor=model.rank_floor)
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
