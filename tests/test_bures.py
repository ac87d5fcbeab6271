import numpy as np
import pytest

from drivetherm.bures import SPECTRAL_QFI_CUTOFF, spectral_qfi_batch
from drivetherm.operators import SIGMA_X, SIGMA_Z
from drivetherm.thermal import dpi_dbeta, equilibrium_qfi, equilibrium_sld, make_gibbs

from conftest import (random_full_rank_state, random_hermitian, random_unitary,
                      spectral_qfi, step_axis_innermost)


def test_sld_gibbs_family(rng):
    # the production SLD -(H0 - <H0>) solves {pi0, L}/2 = dpi0/dbeta, with
    # Tr[pi0 L] = 0 and Tr[pi0 L^2] = F_eq, for random Gibbs models
    for d in range(2, 7):
        g = make_gibbs(random_hermitian(rng, d), 1.1)
        l_op = equilibrium_sld(g)
        assert np.linalg.norm(0.5 * (g.state @ l_op + l_op @ g.state) - dpi_dbeta(g)) < 1e-11
        assert abs(np.trace(g.state @ l_op)) < 1e-10
        f_eq = equilibrium_qfi(g)
        assert abs(np.trace(g.state @ l_op @ l_op).real - f_eq) <= 1e-12 * max(1.0, f_eq)


def test_spectral_qfi_zero_tangent(rng):
    assert spectral_qfi(random_full_rank_state(rng, 3), np.zeros((3, 3))) == 0.0


def test_spectral_qfi_gibbs_qubit():
    g = make_gibbs(0.5 * SIGMA_Z, 1.0)
    expected = 0.25 / np.cosh(0.5) ** 2  # oracle: equilibrium variance
    assert abs(spectral_qfi(g.state, dpi_dbeta(g)) - expected) < 1e-13
    assert abs(equilibrium_qfi(g) - expected) < 1e-15


def test_spectral_qfi_unitary_family():
    # sigma(beta) = e^(-i beta G) sigma0 e^(i beta G); oracle evaluated by
    # direct matrix arithmetic: F = 2 sum_{i != j} (l_i-l_j)^2/(l_i+l_j) |G_ij|^2
    sigma0 = np.diag([0.7, 0.3]).astype(complex)
    g_op = SIGMA_X
    dsigma = -1j * (g_op @ sigma0 - sigma0 @ g_op)
    lam = np.array([0.7, 0.3])
    oracle = 0.0
    for i in range(2):
        for j in range(2):
            if i != j:
                oracle += 2 * (lam[i] - lam[j]) ** 2 / (lam[i] + lam[j]) * abs(g_op[i, j]) ** 2
    assert abs(oracle - 0.64) < 1e-15
    assert abs(spectral_qfi(sigma0, dsigma) - oracle) < 1e-13


def test_spectral_qfi_nonnegative_and_unitarily_invariant(rng):
    for _ in range(25):
        sigma = random_full_rank_state(rng, 3)
        dsigma = random_hermitian(rng, 3)
        dsigma -= np.trace(dsigma) / 3 * np.eye(3)
        f = spectral_qfi(sigma, dsigma)
        assert f >= 0.0
        u = random_unitary(rng, 3)
        f_rot = spectral_qfi(u @ sigma @ u.conj().T, u @ dsigma @ u.conj().T)
        assert abs(f_rot - f) <= 1e-10 * max(1.0, f)


def partial_trace_second(rho4):
    out = np.zeros((2, 2), dtype=complex)
    for i in range(2):
        for j in range(2):
            out[i, j] = rho4[2 * i, 2 * j] + rho4[2 * i + 1, 2 * j + 1]
    return out


def test_data_processing_monotonicity(rng):
    # a fixed (parameter-independent) ancilla + unitary + partial trace can
    # never increase the Fisher information
    for _ in range(100):
        sigma = random_full_rank_state(rng, 2)
        dsigma = random_hermitian(rng, 2)
        dsigma -= np.trace(dsigma) / 2 * np.eye(2)
        tau = random_full_rank_state(rng, 2)
        u = random_unitary(rng, 4)

        def channel(x):
            return partial_trace_second(u @ np.kron(x, tau) @ u.conj().T)

        f_in = spectral_qfi(sigma, dsigma)
        f_out = spectral_qfi(channel(sigma), channel(dsigma))
        assert f_out <= f_in + 1e-9


@pytest.mark.parametrize("d", range(1, 7))
def test_spectral_qfi_batch_rotation_matches_matmul(rng, d):
    # q^dag dsigma q runs through operators.stack_mul; batched @ is the reference
    sigmas = np.stack([random_full_rank_state(rng, d) for _ in range(9)])
    dsigmas = np.stack([random_hermitian(rng, d) for _ in range(9)])
    lam, q = np.linalg.eigh(sigmas)
    dt = q.conj().swapaxes(1, 2) @ dsigmas @ q
    denom = lam[:, :, None] + lam[:, None, :]
    mask = denom > SPECTRAL_QFI_CUTOFF * 2.0 * lam[:, -1][:, None, None]
    expected = np.where(mask, 2.0 * np.abs(dt) ** 2 / np.where(mask, denom, 1.0),
                        0.0).sum(axis=(1, 2))
    for s, ds in ((sigmas, dsigmas), (step_axis_innermost(sigmas),
                                      step_axis_innermost(dsigmas))):
        got = spectral_qfi_batch(s, ds)
        assert np.abs(got - expected).max() <= 1e-14 * np.abs(expected).max()
