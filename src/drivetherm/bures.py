"""Bures geometry: the spectral form of the quantum Fisher information.

For a state sigma with eigenvalues l_i, the Fisher information Tr[sigma L^2]
of a tangent dsigma, with L the SLD that solves dsigma = {sigma, L}/2, is
sum_ij 2 |<i|dsigma|j>|^2 / (l_i + l_j) in the sigma eigenbasis: exact and
O(d^3), with no L formed.  Qubit states are diagonalized in closed form,
where LAPACK pays about a microsecond per 2x2 matrix.
"""

import numpy as np

from .operators import stack_innermost, stack_mul

#: Relative threshold on l_i + l_j below which spectral-QFI terms are dropped.
SPECTRAL_QFI_CUTOFF = 1e-14


def _qubit_eigh(sigmas: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``np.linalg.eigh`` of a (k, 2, 2) Hermitian stack [[a, b*], [b, c]] in
    closed form: eigenvalues ascending, and the eigenvectors as columns of a
    unitary stack laid out with the stack axis innermost.

    With m = (a+c)/2, h = (a-c)/2 and r = hypot(h, |b|), the eigenvalue m +/- r
    farther from 0 is a sum without cancellation, and the other is taken as
    the determinant over it.
    The upper eigenvector comes from the row without cancellation,
    (|h| + r, b) for h >= 0 and (b*, |h| + r) otherwise, and the lower one is
    its orthogonal partner; a multiple of the identity gets the identity basis.
    """
    a, c, b = sigmas[:, 0, 0].real, sigmas[:, 1, 1].real, sigmas[:, 1, 0]
    m, h = 0.5 * (a + c), 0.5 * (a - c)
    b2 = b.real * b.real + b.imag * b.imag
    r = np.sqrt(h * h + b2)
    outer = m + np.copysign(r, m)
    inner = np.divide(a * c - b2, outer, out=np.zeros_like(outer), where=outer != 0.0)
    lam = np.empty((len(a), 2))
    np.minimum(inner, outer, out=lam[:, 0])
    np.maximum(inner, outer, out=lam[:, 1])
    s = np.abs(h) + r
    lower = h < 0.0
    flat = s == 0.0
    norm = np.sqrt(s * s + b2)
    norm[flat] = 1.0
    q = np.empty((2, 2, len(a)), dtype=complex)
    q[0, 1] = np.where(lower, b.conj(), s)
    q[1, 1] = np.where(lower, s, b)
    q[1, 1, flat] = 1.0
    q[:, 1].real /= norm  # real divisions: a diagonal sigma gives exact 1s
    q[:, 1].imag /= norm
    q[0, 0], q[1, 0] = q[1, 1].conj(), -q[0, 1].conj()
    return lam, np.moveaxis(q, -1, 0)


def spectral_qfi_batch(sigmas: np.ndarray, dsigmas: np.ndarray) -> np.ndarray:
    """Fisher information of each family through (sigma, dsigma), over a
    leading stack axis.

    Sum of 2|<i|dsigma|j>|^2/(l_i+l_j) over eigenvalue pairs, with terms
    whose denominator falls below ``SPECTRAL_QFI_CUTOFF * max(l_i+l_j)``
    dropped; the truncation is inert for full-rank states and regularizes
    near-singular ones.  The eigensystem is ``_qubit_eigh``'s closed form
    for d = 2 and ``np.linalg.eigh`` otherwise.
    """
    if sigmas.shape[-1] == 2:
        lam, q = _qubit_eigh(sigmas)
    else:
        lam, q = np.linalg.eigh(sigmas)
    q = stack_innermost(q)
    dt = stack_mul(stack_mul(q.conj().swapaxes(1, 2), dsigmas), q)
    denom = lam[:, :, None] + lam[:, None, :]
    cutoff = SPECTRAL_QFI_CUTOFF * 2.0 * lam[:, -1][:, None, None]
    mask = denom > cutoff
    safe = np.where(mask, denom, 1.0)
    terms = np.where(mask, 2.0 * np.abs(dt) ** 2 / safe, 0.0)
    return terms.sum(axis=(1, 2))
