import numpy as np
import pytest
from hypothesis import settings
from hypothesis.configuration import set_hypothesis_home_dir

from drivetherm import (CosineModulation, DriveProfile, GaussianEnvelope,
                        SIGMA_Z, make_gibbs)
from drivetherm.bures import spectral_qfi_batch

# the same examples on every run, no example database on disk
settings.register_profile("drivetherm", derandomize=True, deadline=None, database=None)
settings.load_profile("drivetherm")


@pytest.hookimpl(trylast=True)
def pytest_configure(config):
    # Hypothesis caches the package's source constants in its home directory
    # when it collects; keep that in pytest's temporary tree, not .hypothesis/
    set_hypothesis_home_dir(config._tmp_path_factory.mktemp("hypothesis"))


@pytest.fixture
def rng():
    return np.random.default_rng(20260810)


def random_hermitian(rng, d, scale=1.0):
    a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    return scale * 0.5 * (a + a.conj().T)


def spectral_qfi(sigma, dsigma):
    """The spectral QFI of one state and tangent."""
    return float(spectral_qfi_batch(sigma[None], dsigma[None])[0])


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
