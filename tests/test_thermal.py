import numpy as np
import pytest

from drivetherm import FullRankViolation
from drivetherm.bures import spectral_qfi
from drivetherm.operators import SIGMA_Z
from drivetherm.thermal import (dpi_dbeta, equilibrium_qfi, equilibrium_sld,
                                make_gibbs)

from conftest import random_hermitian


def test_infinite_temperature_is_maximally_mixed():
    g = make_gibbs(0.5 * SIGMA_Z, 0.0)
    assert np.allclose(g.state, np.eye(2) / 2, atol=1e-15)


def test_infinite_temperature_generic_dim(rng):
    h0 = random_hermitian(rng, 4)
    g = make_gibbs(h0, 0.0)
    assert np.allclose(g.state, np.eye(4) / 4, atol=1e-14)


def test_qubit_populations_match_magnetization():
    # excited/ground populations (1 -+ m)/2 with m = tanh(beta*Omega/2),
    # in the (excited, ground) matrix ordering of H0 = (Omega/2) sigma_z
    g = make_gibbs(0.5 * SIGMA_Z, 2.0)
    m = np.tanh(1.0)
    assert abs(g.state[0, 0].real - (1 - m) / 2) < 1e-15
    assert abs(g.state[1, 1].real - (1 + m) / 2) < 1e-15
    assert abs(g.state[0, 1]) == 0.0


def test_state_commutes_with_hamiltonian(rng):
    h0 = random_hermitian(rng, 4)
    g = make_gibbs(h0, 1.3)
    assert np.linalg.norm(g.h0 @ g.state - g.state @ g.h0) < 1e-12
    assert abs(np.trace(g.state) - 1.0) < 1e-12


def test_partition_function_qubit():
    omega, beta = 1.0, 2.0
    g = make_gibbs(0.5 * omega * SIGMA_Z, beta)
    z = 2 * np.cosh(beta * omega / 2)
    assert abs(g.log_z - np.log(z)) < 1e-14


def test_beta_guard_raises():
    # the population floor is the one guard on beta: e^-60/Z < 1e-18
    with pytest.raises(FullRankViolation, match="rank floor"):
        make_gibbs(0.5 * SIGMA_Z, 60.0)


def test_rank_floor_raises_before_guard():
    # beta*spread = 45: the smallest population e^-45/Z = 2.9e-20 is below
    # the default floor; the floor is the only guard, so a lower floor admits
    # this model and colder ones
    with pytest.raises(FullRankViolation, match="rank floor"):
        make_gibbs(0.5 * SIGMA_Z, 45.0)
    for beta in (45.0, 60.0):
        g = make_gibbs(0.5 * SIGMA_Z, beta, rank_floor=1e-30)
        assert g.full_rank
        assert g.probabilities[1] == pytest.approx(np.exp(-beta) / (1 + np.exp(-beta)),
                                                   rel=1e-14)


def test_beta_max_infinite_for_trivial_spectrum():
    # a Gibbs state proportional to the identity is full rank at any beta
    g = make_gibbs(2.0 * np.eye(3, dtype=complex), 1e6)
    assert np.allclose(g.state, np.eye(3) / 3, atol=1e-14)


def test_equilibrium_sld_infinite_temperature():
    g = make_gibbs(0.5 * SIGMA_Z, 0.0)
    assert np.allclose(equilibrium_sld(g), -0.5 * SIGMA_Z, atol=1e-15)


def test_equilibrium_sld_mean_shift():
    g = make_gibbs(0.5 * SIGMA_Z, 2.0)
    mean = np.trace(g.h0 @ g.state).real  # oracle: direct matrix trace
    m = np.tanh(1.0)
    assert abs(mean - (-m / 2)) < 1e-15
    expected = -(0.5 * SIGMA_Z - mean * np.eye(2))
    assert np.allclose(equilibrium_sld(g), expected, atol=1e-14)


def test_equilibrium_sld_trivial_spectrum():
    g = make_gibbs(3.0 * np.eye(2, dtype=complex), 1.0)
    assert np.allclose(equilibrium_sld(g), 0.0, atol=1e-14)


def test_equilibrium_sld_thermal_overlap_vanishes(rng):
    for d, beta in ((2, 0.5), (3, 1.0), (4, 5.0)):
        g = make_gibbs(random_hermitian(rng, d), beta)
        assert abs(np.trace(g.state @ equilibrium_sld(g))) < 1e-12


def test_equilibrium_qfi_infinite_temperature():
    assert abs(equilibrium_qfi(make_gibbs(0.5 * SIGMA_Z, 0.0)) - 0.25) < 1e-15


def test_equilibrium_qfi_against_raw_variance():
    g = make_gibbs(0.5 * SIGMA_Z, 2.0)
    # oracle: raw second moment minus squared mean, by direct matrix traces
    raw = (np.trace(g.state @ g.h0 @ g.h0) - np.trace(g.state @ g.h0) ** 2).real
    assert abs(equilibrium_qfi(g) - raw) < 1e-14
    assert abs(equilibrium_qfi(g) - 0.25 / np.cosh(1.0) ** 2) < 1e-15


def test_qubit_closed_form_tight_over_beta_range():
    for beta in np.linspace(0.0, 20.0, 81):
        g = make_gibbs(0.5 * SIGMA_Z, float(beta))
        closed = 0.25 / np.cosh(beta / 2) ** 2
        assert abs(equilibrium_qfi(g) - closed) <= 1e-12 * closed


def test_equilibrium_qfi_suppressed_at_low_temperature():
    values = [equilibrium_qfi(make_gibbs(0.5 * SIGMA_Z, b)) for b in (5, 10, 20, 40)]
    assert all(b < a for a, b in zip(values, values[1:]))
    assert values[-1] < 1e-15


def test_equilibrium_qfi_equals_spectral_qfi(rng):
    for d in (2, 3, 4):
        for beta in (0.1, 1.0, 5.0):
            g = make_gibbs(random_hermitian(rng, d), beta)
            f_spec = spectral_qfi(g.state, dpi_dbeta(g))
            assert abs(f_spec - equilibrium_qfi(g)) <= 1e-10 * max(1.0, equilibrium_qfi(g))


def test_dpi_dbeta_matches_finite_difference(rng):
    h0 = random_hermitian(rng, 3)
    beta, h = 1.2, 1e-6
    g = make_gibbs(h0, beta)
    fd = (make_gibbs(h0, beta + h).state - make_gibbs(h0, beta - h).state) / (2 * h)
    assert np.abs(dpi_dbeta(g) - fd).max() < 1e-9
    assert abs(np.trace(dpi_dbeta(g))) < 1e-14
