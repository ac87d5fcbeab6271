"""Closed-form two-level-probe results used as independent oracles.

Conventions: H0 = (Omega/2) sigma_z, transverse perturbation V = sigma_x,
m = tanh(beta*Omega/2).  The Heisenberg perturbation is V_H = U^dag V U,
so the undriven Bloch vector is (cos Omega t, -sin Omega t, 0).
"""

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .drive import DriveProfile, lambda_at
from .exceptions import StepSizeTooCoarse
from .propagation import TimeGrid

#: Steps per fastest period for the RK4 Bloch integrator.  Denser than the
#: propagator default: RK4 norm drift per rotation step is ~(Omega*dt)^6/144,
#: and the norm budget is 1e-9 over tens of periods.
BLOCH_STEPS_PER_PERIOD = 800

#: Norm drift treated as an integrator failure.
BLOCH_NORM_TOL = 1e-6

#: Detunings below this (times Omega) use the resonant closed form; the
#: detuned amplitude has a removable singularity at zero detuning.
DETUNING_FLOOR = 1e-6


def magnetization(omega: float, beta: float) -> float:
    """m = tanh(beta*Omega/2)."""
    return math.tanh(0.5 * beta * omega)


def qubit_equilibrium_qfi(omega: float, beta: float) -> float:
    """(Omega/2)^2 sech^2(beta*Omega/2), the static sensitivity baseline.

    sech is evaluated in the overflow-free form 2 e^-x / (1 + e^-2x).
    """
    if omega <= 0.0:
        raise ValueError(f"omega must be > 0, got {omega}")
    if beta < 0.0:
        raise ValueError(f"beta must be >= 0, got {beta}")
    x = 0.5 * beta * omega
    sech = 2.0 * math.exp(-x) / (1.0 + math.exp(-2.0 * x))
    return (0.5 * omega * sech) ** 2


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


def weak_field_kernel(omega: float, m: float, s: float, u: float) -> float:
    """Leading-order symmetrized current kernel 4 m^2 cos(Omega (s-u))."""
    return 4.0 * m * m * math.cos(omega * (s - u))


def short_time_coefficient(m: float, lambda0: float, gprime: float) -> float:
    """Coefficient of the leading t^2 growth of the increment: 4 m^2 (lambda0 G')^2."""
    return 4.0 * m * m * (lambda0 * gprime) ** 2


def detuned_amplitude(omega: float, omega_d: float, t):
    """Closed-form weak-field amplitude A(t) for a detuned cosine drive.

    A(t) = C(t)^2 + S(t)^2 with C, S the elementary cos*cos and cos*sin
    integrals; bounded in t for any fixed nonzero detuning.  Vectorized
    over t.  Detunings at or below ``DETUNING_FLOOR * omega`` are rejected.
    """
    detuning_floor = DETUNING_FLOOR * omega
    if abs(omega_d - omega) <= detuning_floor:
        raise ValueError(
            f"detuning |omega_d - omega| = {abs(omega_d - omega):.3e} below the "
            f"floor {detuning_floor:.3e}; use resonant_increment instead"
        )
    t = np.asarray(t, dtype=float)
    denom = omega_d**2 - omega**2
    c = (omega_d * np.sin(omega_d * t) * np.cos(omega * t)
         - omega * np.cos(omega_d * t) * np.sin(omega * t)) / denom
    s = (omega_d * np.sin(omega_d * t) * np.sin(omega * t)
         + omega * np.cos(omega_d * t) * np.cos(omega * t) - omega) / denom
    out = c * c + s * s
    return float(out) if out.ndim == 0 else out


def detuned_increment(omega: float, omega_d: float, m: float, lambda0: float,
                      gprime: float, t):
    """Weak-field increment 4 m^2 (lambda0 G')^2 A(t) off resonance."""
    return short_time_coefficient(m, lambda0, gprime) * detuned_amplitude(omega, omega_d, t)


class ResonantIncrement(NamedTuple):
    """Exact weak-field resonant increment and its long-time quadratic law."""

    exact: float
    quadratic: float


def resonant_amplitude(omega: float, t):
    """Resonance limit of the weak-field amplitude:
    (2 Omega^2 t^2 + 2 Omega t sin(2 Omega t) - cos(2 Omega t) + 1)/(8 Omega^2)."""
    t = np.asarray(t, dtype=float)
    out = (2.0 * omega**2 * t**2 + 2.0 * omega * t * np.sin(2.0 * omega * t)
           - np.cos(2.0 * omega * t) + 1.0) / (8.0 * omega**2)
    return float(out) if out.ndim == 0 else out


def resonant_increment(omega: float, m: float, lambda0: float, gprime: float,
                       t: float) -> ResonantIncrement:
    """Resonant weak-field increment: exact A(t) value and the asymptotic
    m^2 (lambda0 G')^2 t^2 law, returned together."""
    factor = short_time_coefficient(m, lambda0, gprime)
    exact = factor * resonant_amplitude(omega, t)
    quadratic = 0.25 * factor * t * t
    return ResonantIncrement(exact=float(exact), quadratic=float(quadratic))
