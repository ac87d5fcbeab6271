import numpy as np
import pytest

from drivetherm.bures import SPECTRAL_QFI_CUTOFF, _qubit_eigh, spectral_qfi_batch
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
    # q^dag dsigma q runs through operators.stack_mul, and d = 2 takes its
    # eigensystem from _qubit_eigh; eigh and batched @ are the reference
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


def _near_pure_states(rng, k, p_min):
    u = np.stack([random_unitary(rng, 2) for _ in range(k)])
    return u @ np.diag([1.0 - p_min, p_min]) @ u.conj().swapaxes(1, 2)


QUBIT_STACKS = {
    "full-rank": lambda rng: np.stack([random_full_rank_state(rng, 2) for _ in range(200)]),
    "diagonal": lambda rng: np.array([np.diag([0.7, 0.3]), np.diag([0.3, 0.7])]),
    "flat": lambda rng: np.array([0.5 * np.eye(2), np.zeros((2, 2))]),
    "near-pure": lambda rng: _near_pure_states(rng, 200, 1e-12),
    "indefinite": lambda rng: np.stack([random_hermitian(rng, 2) for _ in range(200)]),
}


@pytest.mark.parametrize("kind", QUBIT_STACKS)
def test_qubit_eigh_matches_eigh(rng, kind):
    # the closed form against LAPACK: ascending eigenvalues, a unitary basis
    # that rebuilds sigma, and eigh's eigenvectors up to phase where split
    sigmas = QUBIT_STACKS[kind](rng).astype(complex)
    lam, q = _qubit_eigh(sigmas)
    lam_ref, q_ref = np.linalg.eigh(sigmas)
    scale = np.abs(lam_ref).max(axis=1)
    assert np.all(lam[:, 0] <= lam[:, 1])
    assert np.all(np.abs(lam - lam_ref).max(axis=1) <= 2e-15 * scale)
    assert np.abs(q.conj().swapaxes(1, 2) @ q - np.eye(2)).max() <= 1e-15
    rebuilt = (q * lam[:, None, :]) @ q.conj().swapaxes(1, 2)
    assert np.all(np.linalg.norm(rebuilt - sigmas, 2, axis=(1, 2)) <= 1e-15 * scale)
    split = lam_ref[:, 1] - lam_ref[:, 0] > 1e-6 * scale
    overlap = np.abs(np.einsum("kij,kij->kj", q_ref.conj(), q))[split]
    assert np.abs(overlap - 1.0).max(initial=0.0) <= 1e-12


def test_qubit_eigh_special_cases():
    # diagonal sigma (h > 0, then h < 0) keeps the standard basis, up to
    # sign, in eigh's ascending order
    lam, q = _qubit_eigh(np.array([np.diag([0.7, 0.3]), np.diag([0.3, 0.7])], complex))
    assert np.array_equal(lam, [[0.3, 0.7], [0.3, 0.7]])
    assert np.array_equal(q, [[[0, 1], [-1, 0]], [[1, 0], [0, 1]]])
    # a multiple of the identity gets the identity basis
    lam, q = _qubit_eigh(np.array([0.5 * np.eye(2), np.zeros((2, 2))], complex))
    assert np.array_equal(lam, [[0.5, 0.5], [0.0, 0.0]])
    assert np.array_equal(q, [np.eye(2), np.eye(2)])


def test_qubit_stacks_skip_lapack(rng, monkeypatch):
    # d = 2 never reaches np.linalg.eigh; every other d still does
    def refuse(a, *args, **kwargs):
        raise AssertionError(f"np.linalg.eigh called on shape {a.shape}")

    monkeypatch.setattr(np.linalg, "eigh", refuse)
    qubit = np.stack([random_full_rank_state(rng, 2) for _ in range(5)])
    assert np.all(spectral_qfi_batch(qubit, np.stack([SIGMA_X] * 5)) > 0.0)
    qutrit = np.stack([random_full_rank_state(rng, 3) for _ in range(5)])
    with pytest.raises(AssertionError, match="shape"):
        spectral_qfi_batch(qutrit, np.stack([random_hermitian(rng, 3)] * 5))
