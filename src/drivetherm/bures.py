"""Bures geometry: the spectral form of the quantum Fisher information.

For a state sigma with eigenvalues l_i, the Fisher information Tr[sigma L^2]
of a tangent dsigma, with L the SLD that solves dsigma = {sigma, L}/2, is
sum_ij 2 |<i|dsigma|j>|^2 / (l_i + l_j) in the sigma eigenbasis: exact and
O(d^3), with no L formed.
"""

import numpy as np

from .operators import stack_innermost, stack_mul

#: Relative threshold on l_i + l_j below which spectral-QFI terms are dropped.
SPECTRAL_QFI_CUTOFF = 1e-14


def spectral_qfi_batch(sigmas: np.ndarray, dsigmas: np.ndarray) -> np.ndarray:
    """Fisher information of each family through (sigma, dsigma), over a
    leading stack axis.

    Sum of 2|<i|dsigma|j>|^2/(l_i+l_j) over eigenvalue pairs, with terms
    whose denominator falls below ``SPECTRAL_QFI_CUTOFF * max(l_i+l_j)``
    dropped; the truncation is inert for full-rank states and regularizes
    near-singular ones.
    """
    lam, q = np.linalg.eigh(sigmas)
    q = stack_innermost(q)
    dt = stack_mul(stack_mul(q.conj().swapaxes(1, 2), dsigmas), q)
    denom = lam[:, :, None] + lam[:, None, :]
    cutoff = SPECTRAL_QFI_CUTOFF * 2.0 * lam[:, -1][:, None, None]
    mask = denom > cutoff
    safe = np.where(mask, denom, 1.0)
    terms = np.where(mask, 2.0 * np.abs(dt) ** 2 / safe, 0.0)
    return terms.sum(axis=(1, 2))
