import numpy as np
import pytest

from drivetherm.operators import (SIGMA_X, SIGMA_Y, SIGMA_Z,
                                  HermiticityWarning, hermitize,
                                  pauli_components)

from conftest import random_hermitian
from oracles import commutator, expm_hermitian_generator


def test_expm_zero_generator():
    u = expm_hermitian_generator(np.zeros((3, 3), dtype=complex), 7.3)
    assert np.allclose(u, np.eye(3), atol=1e-15)


def test_expm_full_period_phase():
    u = expm_hermitian_generator(0.5 * SIGMA_Z, 2 * np.pi)
    assert np.allclose(u, -np.eye(2), atol=1e-12)


def expm_series(a, s):
    term = np.eye(a.shape[0], dtype=complex)
    total = term.copy()
    n = 1
    while np.linalg.norm(term) > 1e-18:
        term = term @ (-1j * s * a) / n
        total += term
        n += 1
    return total


def test_expm_against_power_series(rng):
    u = expm_hermitian_generator(SIGMA_X, np.pi / 2)
    assert np.abs(u - (-1j) * SIGMA_X).max() < 1e-14
    assert np.abs(u - expm_series(SIGMA_X, np.pi / 2)).max() < 1e-14
    a = random_hermitian(rng, 3)
    assert np.abs(expm_hermitian_generator(a, 0.7) - expm_series(a, 0.7)).max() < 1e-13


def test_expm_unitarity_and_group_property(rng):
    for _ in range(30):
        a = random_hermitian(rng, 4)
        s, t = rng.uniform(-3, 3, size=2)
        us, ut, ust = (expm_hermitian_generator(a, x) for x in (s, t, s + t))
        assert np.linalg.norm(us.conj().T @ us - np.eye(4)) <= 1e-10
        assert np.linalg.norm(us @ ut - ust) <= 1e-10


def naive_matmul(a, b):
    d = a.shape[0]
    out = np.zeros((d, d), dtype=complex)
    for i in range(d):
        for j in range(d):
            for k in range(d):
                out[i, j] += a[i, k] * b[k, j]
    return out


def test_commutator_pauli_algebra():
    assert np.allclose(commutator(SIGMA_Z, SIGMA_Z), 0, atol=0)
    assert np.allclose(commutator(SIGMA_X, SIGMA_Z), -2j * SIGMA_Y, atol=1e-15)


def test_commutator_against_naive_product(rng):
    a = random_hermitian(rng, 5)
    b = random_hermitian(rng, 5)
    expected = naive_matmul(a, b) - naive_matmul(b, a)
    assert np.abs(commutator(a, b) - expected).max() < 1e-12


def test_commutator_dimension_mismatch(rng):
    with pytest.raises(ValueError, match="mismatch"):
        commutator(random_hermitian(rng, 2), random_hermitian(rng, 3))


def test_hermitize_symmetrizes_and_warns(rng):
    a = random_hermitian(rng, 3)
    assert np.abs(hermitize(a) - a).max() < 1e-15
    skewed = a + 1e-3 * (rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)))
    with pytest.warns(HermiticityWarning):
        h = hermitize(skewed)
    assert np.allclose(h, h.conj().T)


def test_hermitize_rejects_nonsquare():
    with pytest.raises(ValueError):
        hermitize(np.zeros((2, 3)))


def test_pauli_components_roundtrip(rng):
    coeffs = rng.normal(size=3)
    m = coeffs[0] * SIGMA_X + coeffs[1] * SIGMA_Y + coeffs[2] * SIGMA_Z
    assert np.allclose(pauli_components(m), coeffs, atol=1e-14)
