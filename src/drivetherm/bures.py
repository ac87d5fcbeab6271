"""Bures geometry: the Jordan superoperator, its inverse, the SLD, and the
spectral form of the quantum Fisher information.

For a state sigma the Jordan product J_sigma(X) = {sigma, X}/2 defines the
Bures metric; its inverse is evaluated spectrally, (J^-1 X)_ij =
2 X_ij / (l_i + l_j) in the sigma eigenbasis, which is exact and O(d^3).
"""

import numpy as np

from .exceptions import FullRankViolation
from .operators import eig, stack_mul
from .thermal import RANK_FLOOR

#: Relative threshold on l_i + l_j below which spectral-QFI terms are dropped.
SPECTRAL_QFI_CUTOFF = 1e-14


def jordan_apply(sigma: np.ndarray, x: np.ndarray) -> np.ndarray:
    """(sigma@x + x@sigma)/2."""
    if sigma.shape != x.shape:
        raise ValueError(f"dimension mismatch: {sigma.shape} vs {x.shape}")
    return 0.5 * (sigma @ x + x @ sigma)


def jordan_inverse_apply(sigma: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Inverse Jordan product, spectrally: 2 X_ij / (l_i + l_j).

    Raises
    ------
    FullRankViolation
        If the smallest eigenvalue of ``sigma`` is at or below ``RANK_FLOOR``.
    """
    if sigma.shape != x.shape:
        raise ValueError(f"dimension mismatch: {sigma.shape} vs {x.shape}")
    lam, q = eig(sigma)
    if float(lam[0]) <= RANK_FLOOR:
        raise FullRankViolation(
            f"inverse Jordan product needs a full-rank state; smallest "
            f"eigenvalue {lam[0]:.3e} <= rank floor {RANK_FLOOR:.1e}"
        )
    xt = q.conj().T @ x @ q
    yt = 2.0 * xt / (lam[:, None] + lam[None, :])
    return q @ yt @ q.conj().T


def sld(sigma: np.ndarray, dsigma: np.ndarray) -> np.ndarray:
    """Symmetric logarithmic derivative: solves dsigma = {sigma, L}/2."""
    return jordan_inverse_apply(sigma, dsigma)


def spectral_qfi(sigma: np.ndarray, dsigma: np.ndarray) -> float:
    """Fisher information of the family through (sigma, dsigma).

    Sum of 2|<i|dsigma|j>|^2/(l_i+l_j) over eigenvalue pairs, with terms
    whose denominator falls below ``SPECTRAL_QFI_CUTOFF * max(l_i+l_j)``
    dropped; the truncation is inert for full-rank states and regularizes
    near-singular ones.
    """
    if sigma.shape != dsigma.shape:
        raise ValueError(f"dimension mismatch: {sigma.shape} vs {dsigma.shape}")
    return float(spectral_qfi_batch(sigma[None], dsigma[None])[0])


def spectral_qfi_batch(sigmas: np.ndarray, dsigmas: np.ndarray) -> np.ndarray:
    """Vectorized :func:`spectral_qfi` over a leading stack axis."""
    lam, q = np.linalg.eigh(sigmas)
    dt = stack_mul(stack_mul(q.conj().swapaxes(1, 2), dsigmas), q)
    denom = lam[:, :, None] + lam[:, None, :]
    cutoff = SPECTRAL_QFI_CUTOFF * 2.0 * lam[:, -1][:, None, None]
    mask = denom > cutoff
    safe = np.where(mask, denom, 1.0)
    terms = np.where(mask, 2.0 * np.abs(dt) ** 2 / safe, 0.0)
    return terms.sum(axis=(1, 2))
