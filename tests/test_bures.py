import numpy as np
import pytest

from drivetherm import FullRankViolation
from drivetherm.bures import (SPECTRAL_QFI_CUTOFF, jordan_apply,
                              jordan_inverse_apply, spectral_qfi_batch)
from drivetherm.operators import SIGMA_X, SIGMA_Z
from drivetherm.thermal import dpi_dbeta, equilibrium_qfi, make_gibbs

from conftest import (random_full_rank_state, random_hermitian, random_unitary,
                      spectral_qfi, step_axis_innermost)
from oracles import expm_hermitian_generator


def test_jordan_apply_identity_state(rng):
    x = random_hermitian(rng, 2)
    assert np.allclose(jordan_apply(np.eye(2) / 2, x), x / 2, atol=1e-15)


def test_jordan_apply_offdiagonal_qubit():
    # anticommutator with a diagonal unit-trace state averages the two
    # populations: {pi0, sigma_x}/2 = sigma_x/2
    pi0 = make_gibbs(0.5 * SIGMA_Z, 2.0).state
    assert np.allclose(jordan_apply(pi0, SIGMA_X), SIGMA_X / 2, atol=1e-15)


def test_jordan_apply_direct_arithmetic(rng):
    sigma = random_full_rank_state(rng, 4)
    x = random_hermitian(rng, 4)
    assert np.allclose(jordan_apply(sigma, x), 0.5 * (sigma @ x + x @ sigma), atol=0)


def test_jordan_inverse_identity_state(rng):
    for d in (2, 3, 5):
        x = random_hermitian(rng, d)
        assert np.allclose(jordan_inverse_apply(np.eye(d) / d, x), d * x, atol=1e-12)


def test_jordan_inverse_offdiagonal_factor_two():
    # purely off-diagonal argument in the state eigenbasis: J^-1 X = 2X
    pi0 = make_gibbs(0.5 * SIGMA_Z, 2.0).state
    for x in (SIGMA_X, np.array([[0, 1j], [-1j, 0]], dtype=complex)):
        assert np.allclose(jordan_inverse_apply(pi0, x), 2 * x, atol=1e-13)


def test_jordan_inverse_solves_lyapunov(rng):
    sigma = random_full_rank_state(rng, 3)
    x = random_hermitian(rng, 3)
    y = jordan_inverse_apply(sigma, x)
    assert np.linalg.norm(0.5 * (sigma @ y + y @ sigma) - x) < 1e-11


def test_jordan_round_trip_many(rng):
    for d in (2, 3, 4, 8):
        for _ in range(125):
            sigma = random_full_rank_state(rng, d)
            x = random_hermitian(rng, d)
            back = jordan_apply(sigma, jordan_inverse_apply(sigma, x))
            assert np.linalg.norm(back - x) <= 1e-10 * np.linalg.norm(x)


def test_jordan_inverse_rejects_rank_deficient():
    sigma = np.diag([1.0, 0.0]).astype(complex)
    with pytest.raises(FullRankViolation):
        jordan_inverse_apply(sigma, SIGMA_X)


def test_jordan_inverse_integral_representation(rng):
    # oracle: J^-1 X = 2 * integral_0^inf e^(-s sigma) X e^(-s sigma) ds,
    # evaluated by composite Simpson over [0, 40/lambda_min]
    sigma = 0.7 * random_full_rank_state(rng, 3) + 0.3 * np.eye(3) / 3
    sigma /= np.trace(sigma).real
    x = random_hermitian(rng, 3)
    lam, q = np.linalg.eigh(sigma)
    xt = q.conj().T @ x @ q
    s_max = 40.0 / lam[0]
    ss = np.linspace(0.0, s_max, 40001)
    decay = np.exp(-np.multiply.outer(ss, lam[:, None] + lam[None, :]))
    from scipy.integrate import simpson
    integral = simpson(2.0 * decay * xt[None, :, :], x=ss, axis=0)
    oracle = q @ integral @ q.conj().T
    spectral = jordan_inverse_apply(sigma, x)
    assert np.linalg.norm(spectral - oracle) <= 1e-6 * np.linalg.norm(spectral)


def test_unitary_covariance(rng):
    sigma = random_full_rank_state(rng, 4)
    x = random_hermitian(rng, 4)
    u = random_unitary(rng, 4)
    rotated = jordan_inverse_apply(u @ sigma @ u.conj().T, u @ x @ u.conj().T)
    expected = u @ jordan_inverse_apply(sigma, x) @ u.conj().T
    assert np.linalg.norm(rotated - expected) < 1e-10 * np.linalg.norm(expected)
    rotated_fwd = jordan_apply(u @ sigma @ u.conj().T, u @ x @ u.conj().T)
    expected_fwd = u @ jordan_apply(sigma, x) @ u.conj().T
    assert np.linalg.norm(rotated_fwd - expected_fwd) < 1e-12


def test_sld_gibbs_family(rng):
    g = make_gibbs(random_hermitian(rng, 3), 1.1)
    expected = -(g.h0 - np.trace(g.h0 @ g.state).real * np.eye(3))
    l_op = jordan_inverse_apply(g.state, dpi_dbeta(g))
    assert np.linalg.norm(l_op - expected) < 1e-11
    assert abs(np.trace(g.state @ l_op)) < 1e-10


def test_sld_zero_tangent(rng):
    sigma = random_full_rank_state(rng, 3)
    assert np.allclose(jordan_inverse_apply(sigma, np.zeros((3, 3))), 0.0, atol=0)


def test_sld_satisfies_lyapunov_for_rotated_family(rng):
    # family sigma(beta) = U(beta) D U(beta)^dag; tangent by central difference
    d_mat = np.diag([0.5, 0.3, 0.2]).astype(complex)
    g = random_hermitian(rng, 3)
    h = 1e-6

    def family(beta):
        u = expm_hermitian_generator(g, beta)
        return u @ d_mat @ u.conj().T

    dsigma = (family(h) - family(-h)) / (2 * h)
    sigma = family(0.0)
    l_op = jordan_inverse_apply(sigma, dsigma)
    assert np.linalg.norm(0.5 * (sigma @ l_op + l_op @ sigma) - dsigma) < 1e-8


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
