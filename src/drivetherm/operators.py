"""Dense complex linear algebra for small Hermitian and unitary matrices.

Everything here operates on plain ``numpy`` arrays of shape (d, d) with
d <= MAX_DIM; ``stack_mul`` is the one matrix product of (..., d, d) stacks
that the propagator, the engine and the spectral route share.  Operators are
kept exactly Hermitian by symmetrizing at construction.
"""

import warnings

import numpy as np

#: Largest probe dimension the package is designed for.
MAX_DIM = 32

#: Warn when the anti-Hermitian part removed at construction exceeds this
#: (relative to the matrix norm).
HERMITICITY_WARN = 1e-10

#: Largest d whose stack products run elementwise in ``stack_mul``, not as @.
UNROLL_MAX_DIM = 3


class HermiticityWarning(UserWarning):
    """Input matrix had a non-negligible anti-Hermitian part."""


def hermitize(entries) -> np.ndarray:
    """Return the Hermitian part (A + A^dag)/2 of a square matrix.

    Symmetrization prevents Hermiticity drift from accumulating over long
    integrations.  A :class:`HermiticityWarning` is emitted when the
    discarded part exceeds ``HERMITICITY_WARN`` relative to ``||A||_F``.
    """
    a = np.asarray(entries, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    if a.shape[0] > MAX_DIM:
        raise ValueError(f"dimension {a.shape[0]} exceeds supported maximum {MAX_DIM}")
    herm = 0.5 * (a + a.conj().T)
    defect = float(np.linalg.norm(a - herm))
    if defect > HERMITICITY_WARN * max(1.0, float(np.linalg.norm(a))):
        warnings.warn(
            f"matrix symmetrized: anti-Hermitian part {defect:.3e} above "
            f"{HERMITICITY_WARN:.1e} threshold",
            HermiticityWarning,
            stacklevel=2,
        )
    return herm


def stack_mul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Matrix product of (..., d, d) stacks; either may be a single (d, d).
    Batched ``@`` pays per matrix, so for d <= UNROLL_MAX_DIM it sums d
    broadcast outer products instead (fastest with the stack axis innermost
    in memory).  A stack times a fixed (d, d) returns in the stack's memory
    layout, which broadcasting alone would not keep."""
    d = a.shape[-1]
    if d > UNROLL_MAX_DIM:
        return a @ b
    if b.ndim == 2 < a.ndim:
        out = np.empty_like(a, dtype=np.result_type(a, b))
        term = np.empty_like(out)
        np.multiply(a[..., :, :1], b[:1], out=out)
        for j in range(1, d):
            out += np.multiply(a[..., :, j:j + 1], b[j:j + 1], out=term)
        return out
    out = a[..., :, :1] * b[..., :1, :]
    for j in range(1, d):
        out += a[..., :, j:j + 1] * b[..., j:j + 1, :]
    return out


def stack_innermost(a: np.ndarray) -> np.ndarray:
    """The (n, d, d) stack ``a`` in the layout ``stack_mul`` is fastest on: for
    d <= UNROLL_MAX_DIM the same values with the stack axis innermost in
    memory, otherwise ``a`` itself."""
    if a.shape[-1] > UNROLL_MAX_DIM:
        return a
    return np.moveaxis(np.ascontiguousarray(np.moveaxis(a, 0, -1)), -1, 0)


# Pauli matrices: the ubiquitous d=2 special case.
SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)

PAULI = {"sigma_x": SIGMA_X, "sigma_y": SIGMA_Y, "sigma_z": SIGMA_Z}


def pauli_components(m: np.ndarray) -> np.ndarray:
    """Real coefficients (a_x, a_y, a_z) of a 2x2 Hermitian traceless-part decomposition."""
    if m.shape != (2, 2):
        raise ValueError("Pauli decomposition requires a 2x2 matrix")
    return np.array(
        [
            0.5 * np.trace(m @ SIGMA_X).real,
            0.5 * np.trace(m @ SIGMA_Y).real,
            0.5 * np.trace(m @ SIGMA_Z).real,
        ]
    )
