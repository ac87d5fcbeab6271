"""Reference computations that the tests check the package against."""

import numpy as np


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
