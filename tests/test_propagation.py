import numpy as np
import pytest

from drivetherm.drive import (ConstantEnvelope, CosineModulation, DriveProfile,
                              GaussianEnvelope)
from drivetherm.exceptions import DriveThermError, StepSizeTooCoarse
from drivetherm.operators import SIGMA_X, SIGMA_Y, SIGMA_Z
from drivetherm.propagation import (TimeGrid, beta_generator, default_n_steps,
                                    drho_dbeta_analytic, drho_dbeta_fd,
                                    propagate)
from drivetherm.thermal import dpi_dbeta, make_gibbs

from conftest import random_hermitian

TWO_PI = 2 * np.pi


def resonant_drive(lambda0=0.1, beta0=10.0, s_beta=3.0, omega_d=1.0):
    return DriveProfile(lambda0, GaussianEnvelope(beta0, s_beta),
                        CosineModulation(omega_d, 0.0))


def test_grid_nodes_uniform():
    grid = TimeGrid(2.0, 4)
    assert np.allclose(grid.nodes, [0.0, 0.5, 1.0, 1.5, 2.0], atol=0)
    assert grid.dt == 0.5


def test_grid_degenerate_single_node():
    grid = TimeGrid(0.0, 0)
    assert grid.n_nodes == 1 and grid.nodes[0] == 0.0
    with pytest.raises(ValueError):
        TimeGrid(0.0, 5)
    with pytest.raises(ValueError):
        TimeGrid(1.0, 0)


def test_default_n_steps_rule():
    assert default_n_steps(TWO_PI, 1.0) == 200
    assert default_n_steps(TWO_PI, 1.0, 2.0) == 400
    assert default_n_steps(0.0, 1.0) == 0


def test_zero_time_propagation(qubit_model, resonant_drive):
    trace = propagate(qubit_model, SIGMA_X, resonant_drive, TimeGrid(0.0, 0))
    assert np.allclose(trace.propagators[0], np.eye(2), atol=0)
    assert np.allclose(trace.heisenberg_v[0], SIGMA_X, atol=0)


def test_free_evolution_interaction_picture(qubit_model):
    # lambda0 = 0: V_H(t) = cos(Omega t) sigma_x - sin(Omega t) sigma_y
    drive = resonant_drive(lambda0=0.0)
    grid = TimeGrid(TWO_PI, 400)
    trace = propagate(qubit_model, SIGMA_X, drive, grid)
    for k in (0, 57, 200, 400):
        t = grid.nodes[k]
        expected = np.cos(t) * SIGMA_X - np.sin(t) * SIGMA_Y
        assert np.abs(trace.heisenberg_v[k] - expected).max() < 1e-10
        u_expected = np.diag(np.exp(-1j * 0.5 * np.array([1.0, -1.0]) * t))
        assert np.abs(trace.propagators[k] - u_expected).max() < 1e-10


def test_unitarity_and_spectrum_preserved(rng):
    h0 = random_hermitian(rng, 4)
    v = random_hermitian(rng, 4)
    model = make_gibbs(h0, 1.0)
    grid = TimeGrid(5.0, default_n_steps(5.0, float(np.ptp(np.linalg.eigvalsh(h0))), 1.0))
    trace = propagate(model, v, resonant_drive(), grid)
    assert trace.unitarity_drift <= 1e-10
    v_eigs = np.linalg.eigvalsh(0.5 * (v + v.conj().T))
    vh_eigs = np.linalg.eigvalsh(trace.heisenberg_v)
    assert np.abs(vh_eigs - v_eigs[None, :]).max() <= 1e-10


def test_drift_guard_raises(qubit_model, resonant_drive):
    with pytest.raises(StepSizeTooCoarse) as err:
        propagate(qubit_model, SIGMA_X, resonant_drive, TimeGrid(TWO_PI, 50),
                  drift_tol=1e-17)
    assert err.value.suggested_n_steps == 100


NAN_V = np.array([[0.0, np.nan], [np.nan, 0.0]])


@pytest.mark.parametrize("drive, v, message", [
    pytest.param(resonant_drive(lambda0=np.nan), SIGMA_X, "unitarity drift is nan",
                 id="lambda0-nan"),
    pytest.param(resonant_drive(omega_d=np.nan), SIGMA_X, "unitarity drift is nan",
                 id="omega_d-nan"),
    pytest.param(resonant_drive(), NAN_V, "unitarity drift is nan", id="v-nan"),
    # G'(beta) = inf * 0 in dlambda/dbeta: finite propagators, NaN M
    pytest.param(resonant_drive(beta0=np.inf), SIGMA_X, "integral M is not finite",
                 id="beta0-inf",
                 marks=pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")),
])
def test_non_finite_input_rejected(qubit_model, drive, v, message):
    with pytest.raises(DriveThermError, match=message) as err:
        propagate(qubit_model, v, drive, TimeGrid(TWO_PI, 50))
    assert type(err.value) is DriveThermError


def richardson_reference(model, v, drive, t_end, n_fine):
    u1 = propagate(model, v, drive, TimeGrid(t_end, n_fine)).propagators[-1]
    u2 = propagate(model, v, drive, TimeGrid(t_end, 2 * n_fine)).propagators[-1]
    return u2 + (u2 - u1) / 3.0  # eliminates the O(dt^2) error term


def test_second_order_convergence(qubit_model, resonant_drive):
    t_end = 2 * TWO_PI
    ref = richardson_reference(qubit_model, SIGMA_X, resonant_drive, t_end, 3200)
    errors = []
    for n in (200, 400, 800):
        u = propagate(qubit_model, SIGMA_X, resonant_drive, TimeGrid(t_end, n)).propagators[-1]
        errors.append(np.linalg.norm(u - ref))
    exponents = [np.log2(errors[i] / errors[i + 1]) for i in range(2)]
    for p in exponents:
        assert 1.8 <= p <= 2.2


def test_self_convergence_against_refined_reference():
    # resonant run with the envelope centered on beta (G = 1, strongest drive);
    # n chosen so the O(dt^2) error lands below 1e-8
    model = make_gibbs(0.5 * SIGMA_Z, 5.0)
    drive = resonant_drive(beta0=5.0, s_beta=3.0)
    t_end, n = 2.0, 32000
    ref = richardson_reference(model, SIGMA_X, drive, t_end, 8 * n)
    u = propagate(model, SIGMA_X, drive, TimeGrid(t_end, n)).propagators[-1]
    assert np.linalg.norm(u - ref) < 1e-8


def test_beta_generator_zero_cases(qubit_model):
    grid = TimeGrid(TWO_PI, 200)
    # temperature-insensitive envelope
    drive = DriveProfile(0.1, ConstantEnvelope(), CosineModulation(1.0, 0.0))
    a = beta_generator(propagate(qubit_model, SIGMA_X, drive, grid))
    assert np.abs(a).max() == 0.0
    # gaussian envelope evaluated exactly at its center
    model_at_center = make_gibbs(0.5 * SIGMA_Z, 10.0)
    a = beta_generator(propagate(model_at_center, SIGMA_X, resonant_drive(beta0=10.0), grid))
    assert np.abs(a).max() == 0.0


def test_beta_generator_matches_propagator_derivative():
    # oracle: central finite difference U^dag(beta) dU/dbeta with re-propagation
    beta, h = 7.0, 1e-5
    t_end = 2.0
    n = 4 * default_n_steps(t_end, 1.0, 1.0)
    grid = TimeGrid(t_end, n)
    drive = resonant_drive(beta0=5.0)
    model = make_gibbs(0.5 * SIGMA_Z, beta)
    a_analytic = beta_generator(propagate(model, SIGMA_X, drive, grid))[-1]
    u_plus = propagate(make_gibbs(0.5 * SIGMA_Z, beta + h), SIGMA_X, drive, grid).propagators[-1]
    u_minus = propagate(make_gibbs(0.5 * SIGMA_Z, beta - h), SIGMA_X, drive, grid).propagators[-1]
    u_mid = propagate(model, SIGMA_X, drive, grid).propagators[-1]
    a_fd = u_mid.conj().T @ (u_plus - u_minus) / (2 * h)
    assert np.linalg.norm(a_analytic - a_fd) < 1e-6


def test_drho_analytic_at_node_zero(qubit_model, resonant_drive):
    grid = TimeGrid(TWO_PI, 200)
    trace = propagate(qubit_model, SIGMA_X, resonant_drive, grid)
    assert np.abs(drho_dbeta_analytic(trace, 0) - dpi_dbeta(qubit_model)).max() < 1e-14


def test_drho_analytic_constant_envelope_is_rotated_equilibrium(qubit_model):
    drive = DriveProfile(0.1, ConstantEnvelope(), CosineModulation(1.0, 0.0))
    grid = TimeGrid(TWO_PI, 200)
    trace = propagate(qubit_model, SIGMA_X, drive, grid)
    k = 137
    u = trace.propagators[k]
    expected = u @ dpi_dbeta(qubit_model) @ u.conj().T
    assert np.abs(drho_dbeta_analytic(trace, k) - expected).max() < 1e-14


def test_drho_analytic_traceless_hermitian(qubit_model, resonant_drive):
    grid = TimeGrid(TWO_PI, 200)
    trace = propagate(qubit_model, SIGMA_X, resonant_drive, grid)
    d = drho_dbeta_analytic(trace, 200)
    assert abs(np.trace(d)) < 1e-12
    assert np.abs(d - d.conj().T).max() < 1e-12


def test_drho_fd_free_evolution(qubit_model):
    drive = resonant_drive(lambda0=0.0)
    grid = TimeGrid(3.0, default_n_steps(3.0, 1.0, 1.0))
    fd = drho_dbeta_fd(qubit_model, SIGMA_X, drive, grid, grid.n_steps)
    u = propagate(qubit_model, SIGMA_X, drive, grid).propagators[-1]
    expected = u @ dpi_dbeta(qubit_model) @ u.conj().T
    assert np.abs(fd - expected).max() < 1e-8


def test_drho_fd_constant_envelope_only_state_depends_on_beta(qubit_model):
    # temperature-insensitive drive: the propagator carries no beta
    # dependence, so the derivative is the rotated equilibrium derivative
    drive = DriveProfile(0.1, ConstantEnvelope(), CosineModulation(1.0, 0.0))
    grid = TimeGrid(3.0, default_n_steps(3.0, 1.0, 1.0))
    fd = drho_dbeta_fd(qubit_model, SIGMA_X, drive, grid, grid.n_steps)
    u = propagate(qubit_model, SIGMA_X, drive, grid).propagators[-1]
    expected = u @ dpi_dbeta(qubit_model) @ u.conj().T
    assert np.abs(fd - expected).max() < 1e-8


def test_drho_fd_warns_when_cancellation_limited(qubit_model, resonant_drive):
    grid = TimeGrid(1.0, default_n_steps(1.0, 1.0, 1.0))
    with pytest.warns(UserWarning, match="cancellation"):
        drho_dbeta_fd(qubit_model, SIGMA_X, resonant_drive, grid,
                      grid.n_steps, h_beta=1e-13)


def test_drho_analytic_vs_fd_matrix(qubit_model, resonant_drive):
    # 4x the default step density: the residual between the two derivative
    # paths is the trapezoid-vs-midpoint quadrature mismatch, O(dt^2)
    for t_end in (2.0, TWO_PI, 2 * TWO_PI):
        n = 4 * default_n_steps(t_end, 1.0, 1.0)
        grid = TimeGrid(t_end, n)
        for beta in (2.0, 5.0, 8.0):
            model = make_gibbs(0.5 * SIGMA_Z, beta)
            trace = propagate(model, SIGMA_X, resonant_drive, grid)
            analytic = drho_dbeta_analytic(trace, n)
            fd = drho_dbeta_fd(model, SIGMA_X, resonant_drive, grid, n)
            assert np.linalg.norm(analytic - fd) <= 1e-5
