"""Bures geometry: the spectral form of the quantum Fisher information.

For a state sigma with eigenvalues l_i, the Fisher information Tr[sigma L^2]
of a tangent dsigma, with L the SLD that solves dsigma = {sigma, L}/2, is
sum_ij 2 |<i|dsigma|j>|^2 / (l_i + l_j) in the sigma eigenbasis: exact and
O(d^3), with no L formed.  A qubit needs no eigenvectors: its three distinct
terms are formulas in the Bloch vectors of sigma and dsigma.
"""

import numpy as np

from .operators import stack_innermost, stack_mul

#: Relative threshold on l_i + l_j below which spectral-QFI terms are dropped.
SPECTRAL_QFI_CUTOFF = 1e-14


def _qubit_qfi(sigmas: np.ndarray, dsigmas: np.ndarray) -> np.ndarray:
    """``spectral_qfi_batch`` at d = 2, from sigma = m I + h.s and
    dsigma = n I + k.s (s the Pauli vector; diagonals and lower triangles).
    sigma has eigenvalues m +/- |h|, the one farther from 0 a sum without
    cancellation and the other the determinant over it.  In its eigenbasis
    dsigma has diagonal n +/- x, x = h.k/|h|, and off-diagonal entries of
    squared modulus |h x k|^2/|h|^2 (x = 0 and |k|^2 for sigma ~ I).
    """
    a, c, b = sigmas[:, 0, 0].real, sigmas[:, 1, 1].real, sigmas[:, 1, 0]
    da, dc, db = dsigmas[:, 0, 0].real, dsigmas[:, 1, 1].real, dsigmas[:, 1, 0]
    m, h = 0.5 * (a + c), np.array([b.real, b.imag, 0.5 * (a - c)])
    n, k = 0.5 * (da + dc), np.array([db.real, db.imag, 0.5 * (da - dc)])
    h2 = (h * h).sum(0)
    r = np.sqrt(h2)
    outer = m + np.copysign(r, m)
    inner = np.divide(a * c - b.real**2 - b.imag**2, outer, out=np.zeros_like(m),
                      where=outer != 0.0)
    lam_hi, lam_lo = np.maximum(inner, outer), np.minimum(inner, outer)
    x = np.divide((h * k).sum(0), r, out=np.zeros_like(m), where=r > 0.0)
    cross = h[[1, 2, 0]] * k[[2, 0, 1]] - h[[2, 0, 1]] * k[[1, 2, 0]]
    k_perp2 = np.divide((cross * cross).sum(0), h2, out=(k * k).sum(0), where=r > 0.0)
    cut = SPECTRAL_QFI_CUTOFF * lam_hi
    f = np.zeros_like(m)
    for num, den in (((n + x) ** 2, lam_hi), ((n - x) ** 2, lam_lo), (2.0 * k_perp2, m)):
        f += np.divide(num, den, out=np.zeros_like(m), where=den > cut)
    return f


def spectral_qfi_batch(sigmas: np.ndarray, dsigmas: np.ndarray) -> np.ndarray:
    """Fisher information of each family through (sigma, dsigma), over a
    leading stack axis.

    Sum of 2|<i|dsigma|j>|^2/(l_i+l_j) over eigenvalue pairs, with terms
    whose denominator falls below ``SPECTRAL_QFI_CUTOFF * max(l_i+l_j)``
    dropped; the truncation is inert for full-rank states and regularizes
    near-singular ones.  A qubit takes ``_qubit_qfi``'s closed form, and
    every other d the eigensystem of ``np.linalg.eigh``.
    """
    if sigmas.shape[-1] == 2:
        return _qubit_qfi(sigmas, dsigmas)
    lam, q = np.linalg.eigh(sigmas)
    q = stack_innermost(q)
    dt = stack_mul(stack_mul(q.conj().swapaxes(1, 2), dsigmas), q)
    denom = lam[:, :, None] + lam[:, None, :]
    cutoff = SPECTRAL_QFI_CUTOFF * 2.0 * lam[:, -1][:, None, None]
    mask = denom > cutoff
    safe = np.where(mask, denom, 1.0)
    terms = np.where(mask, 2.0 * np.abs(dt) ** 2 / safe, 0.0)
    return terms.sum(axis=(1, 2))
