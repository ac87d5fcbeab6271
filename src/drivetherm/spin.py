"""Closed-form two-level-probe results used as independent oracles.

Conventions: H0 = (Omega/2) sigma_z, transverse perturbation V = sigma_x,
m = tanh(beta*Omega/2).  The Heisenberg perturbation is V_H = U^dag V U,
so the undriven Bloch vector is (cos Omega t, -sin Omega t, 0).
"""

import math
from typing import NamedTuple

import numpy as np

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
