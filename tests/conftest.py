import numpy as np
import pytest

from drivetherm import (CosineModulation, DriveProfile, GaussianEnvelope,
                        SIGMA_Z, make_gibbs)


@pytest.fixture
def rng():
    return np.random.default_rng(20260810)


def random_hermitian(rng, d, scale=1.0):
    a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    return scale * 0.5 * (a + a.conj().T)


def random_full_rank_state(rng, d, floor=0.05):
    a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    sigma = a @ a.conj().T + floor * d * np.eye(d)
    return sigma / np.trace(sigma).real


def step_axis_innermost(stack):
    """The same (n, d, d) values laid out with the stack axis innermost in memory."""
    return np.moveaxis(np.ascontiguousarray(np.moveaxis(stack, 0, -1)), -1, 0)


def random_unitary(rng, d):
    a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    q, r = np.linalg.qr(a)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


@pytest.fixture
def qubit_model():
    return make_gibbs(0.5 * SIGMA_Z, 5.0)


@pytest.fixture
def resonant_drive():
    return DriveProfile(
        lambda0=0.1,
        envelope=GaussianEnvelope(beta0=10.0, s_beta=3.0),
        temporal=CosineModulation(omega_d=1.0, phi=0.0),
    )
