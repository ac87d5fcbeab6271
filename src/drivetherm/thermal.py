"""Gibbs states of the bare Hamiltonian and the equilibrium sensitivity baseline.

The inverse Jordan (Bures) map of the thermal state exists only while every
thermal population is positive.  :func:`make_gibbs` holds the one full-rank
rule: the smallest population must stay above a floor (default
:data:`RANK_FLOOR`).

Units: hbar = k_B = 1; energies in units of the probe gap, inverse
temperature beta in inverse energy units.
"""

from dataclasses import dataclass, field

import numpy as np

from .exceptions import FullRankViolation
from .operators import eig, hermitize

#: Smallest thermal population treated as numerically full rank.
RANK_FLOOR = 1e-18


def spectral_spread(h0: np.ndarray) -> float:
    """Largest minus smallest eigenvalue of the Hermitian part of ``h0``."""
    vals = eig(hermitize(h0)).eigenvalues
    return float(vals[-1] - vals[0])


@dataclass(frozen=True)
class GibbsModel:
    """Thermal state e^(-beta*H0)/Z0 together with its spectral data.

    ``energies`` ascend and ``basis`` columns are the matching eigenvectors
    of ``h0``; ``probabilities`` are the thermal populations in that basis.
    The state commutes with ``h0`` by construction.
    """

    h0: np.ndarray
    beta: float
    energies: np.ndarray
    basis: np.ndarray
    probabilities: np.ndarray
    state: np.ndarray
    log_z: float
    rank_floor: float = field(default=RANK_FLOOR)

    @property
    def dim(self) -> int:
        return self.h0.shape[0]

    @property
    def full_rank(self) -> bool:
        return float(self.probabilities.min()) > self.rank_floor

    @property
    def mean_energy(self) -> float:
        return float(self.probabilities @ self.energies)


def make_gibbs(h0, beta: float, *, rank_floor: float = RANK_FLOOR) -> GibbsModel:
    """Construct the Gibbs state of ``h0`` at inverse temperature ``beta``.

    Populations are computed in the eigenbasis of ``h0`` with the spectrum
    shifted by its minimum, so no overflow can occur for any beta >= 0.
    The smallest population falls monotonically with ``beta``, so a model
    that passes the floor at some beta passes it at every smaller one.

    Raises
    ------
    FullRankViolation
        If the smallest population falls at or below ``rank_floor``.
    """
    h0 = hermitize(h0)
    if beta < 0.0:
        raise ValueError(f"beta must be >= 0, got {beta}")
    energies, basis = eig(h0)
    shifted = beta * (energies - energies[0])
    weights = np.exp(-shifted)
    z_shifted = float(weights.sum())
    probabilities = weights / z_shifted
    log_z = float(np.log(z_shifted) - beta * energies[0])
    if float(probabilities.min()) <= rank_floor:
        raise FullRankViolation(
            f"Gibbs state at beta={beta} has smallest population "
            f"{probabilities.min():.3e} <= rank floor {rank_floor:.1e}"
        )
    state = (basis * probabilities) @ basis.conj().T
    return GibbsModel(
        h0=h0,
        beta=float(beta),
        energies=energies,
        basis=basis,
        probabilities=probabilities,
        state=state,
        log_z=log_z,
        rank_floor=rank_floor,
    )


def equilibrium_sld(model: GibbsModel) -> np.ndarray:
    """The thermal-state logarithmic derivative -(H0 - <H0>)."""
    return -(model.h0 - model.mean_energy * np.eye(model.dim))


def equilibrium_qfi(model: GibbsModel) -> float:
    """Energy variance of the thermal state.

    Evaluated as sum_i p_i (E_i - <E>)^2 rather than as a difference of raw
    moments: the latter loses ~8 digits to cancellation once the variance is
    exponentially small (beta*spread ~ 40).
    """
    centered = model.energies - model.mean_energy
    return float(model.probabilities @ centered**2)


def dpi_dbeta(model: GibbsModel) -> np.ndarray:
    """Analytic beta-derivative of the Gibbs state, (<H0> - H0) * pi0.

    Exact in the commuting case (diagonal in the H0 eigenbasis); traceless
    Hermitian by construction.
    """
    diag = model.probabilities * (model.mean_energy - model.energies)
    return (model.basis * diag) @ model.basis.conj().T
