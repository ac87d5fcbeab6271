import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from drivetherm import propagation
from drivetherm.cli import main
from drivetherm.drive import (ConstantEnvelope, ConstantModulation,
                              CosineModulation, DriveProfile, GaussianEnvelope,
                              lambda_at)
from drivetherm.engine import qfi_driven, qfi_time_series
from drivetherm.exceptions import DriveThermError, StepSizeTooCoarse
from drivetherm.operators import (SIGMA_X, SIGMA_Y, SIGMA_Z, UNROLL_MAX_DIM, stack_innermost,
                                  stack_mul)
from drivetherm.propagation import (TimeGrid, _step_exponentials,
                                    beta_generator, default_n_steps,
                                    drho_dbeta_analytic, finish_nodes, propagate,
                                    reduce_to_node, residual_pairs)
from drivetherm.thermal import dpi_dbeta, make_gibbs

from conftest import random_hermitian, step_axis_innermost
from oracles import drho_dbeta_fd, expm_hermitian_generator

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


def test_overflowing_weight_on_a_zero_step_grid_leaves_m_zero(qubit_model):
    # dlambda/dbeta overflows to inf where V_H has zero entries: the weighted
    # product is formed without a warning (pytest makes warnings errors), and
    # a node without steps adds nothing to M
    drive = DriveProfile(1e308, GaussianEnvelope(5.1, 0.1), CosineModulation(1.0))
    trace = propagate(qubit_model, SIGMA_X, drive, TimeGrid(0.0, 0))
    assert np.isinf(trace.weights).all()
    assert (trace.M == 0.0).all()


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


@pytest.mark.parametrize("d", [2, 3, 6])
@pytest.mark.parametrize("n_steps", [1, 2, 3, 15, 16, 17, 1000])
def test_chain_matches_sequential_product(rng, d, n_steps):
    # block sizes: perfect squares, identity padding, n below one block
    h0 = random_hermitian(rng, d)
    v = random_hermitian(rng, d)
    model = make_gibbs(h0, 1.0)
    drive = resonant_drive()
    grid = TimeGrid(3.0, n_steps)
    t_mid = grid.nodes[:-1] + 0.5 * grid.dt
    h_mid = h0 + lambda_at(drive, t_mid, model.beta)[:, None, None] * v
    evals, evecs = np.linalg.eigh(h_mid)
    steps = (evecs * np.exp(-1j * grid.dt * evals)[:, None, :]) @ evecs.conj().swapaxes(1, 2)
    reference = [np.eye(d, dtype=complex)]
    for step in steps:
        reference.append(step @ reference[-1])
    propagators = propagate(model, v, drive, grid).propagators
    assert np.array_equal(propagators[0], np.eye(d))
    assert np.abs(propagators - np.array(reference)).max() <= 1e-12


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
                 id="beta0-inf"),
])
def test_non_finite_input_rejected(qubit_model, drive, v, message):
    with pytest.raises(DriveThermError, match=message) as err:
        propagate(qubit_model, v, drive, TimeGrid(TWO_PI, 50))
    assert type(err.value) is DriveThermError


def unitarity_defect_2(u):
    return np.linalg.norm(u.conj().T @ u - np.eye(len(u)), 2)


def traceless_hermitian(rng, d):
    h = random_hermitian(rng, d)
    return h - (np.trace(h).real / d) * np.eye(d)


def check_step_exponentials(h0, v, lam):
    """_step_exponentials of A_k = -i (H0 + lam_k V) against the eigh reference,
    in the memory layout that _chain and stack_mul rely on."""
    steps = _step_exponentials(-1j * h0, -1j * v, lam)
    assert steps.shape == (len(lam),) + h0.shape
    if len(h0) <= UNROLL_MAX_DIM:
        assert steps.strides[0] == steps.itemsize
    for x, u in zip(lam, steps):
        assert np.abs(u - expm_hermitian_generator(h0 + x * v, 1.0)).max() <= 1e-13
        assert unitarity_defect_2(u) <= 1e-13


@pytest.mark.parametrize("d", [1, 2, 3, 4, 6, 8])
def test_step_exponentials_match_eigh_reference(rng, d):
    # N = ||A0||_1 + max|lam| ||A1||_1 from 1e-9 to 50: every Taylor degree
    # and the scaling branch
    for norm in np.geomspace(1e-9, 50.0, 30):
        h0, v = traceless_hermitian(rng, d), traceless_hermitian(rng, d)
        lam = rng.uniform(-2.0, 2.0, 5)
        scale = norm / max(np.linalg.norm(h0, 1) + np.abs(lam).max() * np.linalg.norm(v, 1), 1e-300)
        check_step_exponentials(scale * h0, scale * v, lam)


@pytest.mark.parametrize("d", [2, 3, 6])
def test_step_exponentials_of_cancelling_generators(rng, d):
    # H0 + lam V nearly cancels at lam ~ L = 1e6, while N ~ 2 ||H0||_1
    h0, w = traceless_hermitian(rng, d), traceless_hermitian(rng, d)
    big = 1e6
    v = -h0 / big + 1e-9 * w
    check_step_exponentials(h0, v, big * np.array([1.0, 1.0 - 1e-3, 1.0 + 1e-7, 0.5, -1.0]))


@pytest.mark.parametrize("d", [2, 3, 6])
def test_step_exponentials_of_a_huge_drive_on_a_tiny_step(rng, d):
    # |lam| up to 1e200 with dt = 1e-200: lam dt stays O(1) and the result finite
    h0, v = traceless_hermitian(rng, d), traceless_hermitian(rng, d)
    lam = np.array([1e200, -3e199, 1e100, 0.0, 7e199]) / np.linalg.norm(v, 1)
    check_step_exponentials(1e-200 * h0, 1e-200 * v, lam)


@pytest.mark.parametrize("d", [1, 2, 3, 6])
def test_step_exponentials_without_drive(rng, d):
    h0 = traceless_hermitian(rng, d)
    check_step_exponentials(h0, traceless_hermitian(rng, d), np.zeros(4))


@pytest.mark.parametrize("d", [1, 2, 3, 4, 6])
def test_step_exponential_with_energy_offset_matches_eigh_reference(rng, d):
    # one constant-drive step of H0 + 100 I + lambda0 V: the trace shift is exact
    h0 = random_hermitian(rng, d) + 100.0 * np.eye(d)
    v = random_hermitian(rng, d)
    drive = DriveProfile(0.3, ConstantEnvelope(), ConstantModulation())
    u = propagate(make_gibbs(h0, 1.0), v, drive, TimeGrid(0.7, 1)).propagators[1]
    expected = expm_hermitian_generator(h0 + 0.3 * 0.5 * (v + v.conj().T), 0.7)
    assert np.abs(u - expected).max() <= 1e-13
    assert unitarity_defect_2(u) <= 1e-13


@pytest.mark.parametrize("d", range(1, 9))
def test_stack_mul_matches_matmul(rng, d):
    def stack(*shape):
        return rng.normal(size=shape + (d, d)) + 1j * rng.normal(size=shape + (d, d))

    a, b, single = stack(7), stack(7), stack()
    step_axis_innermost = np.moveaxis(np.ascontiguousarray(np.moveaxis(a, 0, -1)), -1, 0)
    for x, y in ((a, b), (a, single), (single, b), (stack(3, 4), single),
                 (step_axis_innermost, b), (single, step_axis_innermost)):
        expected = x @ y
        assert np.abs(stack_mul(x, y) - expected).max() <= 1e-14 * np.abs(expected).max()


@pytest.mark.parametrize("d", range(2, UNROLL_MAX_DIM + 1))
def test_fixed_right_stack_mul_keeps_the_stack_layout(rng, d):
    # the bytes of the broadcast sum of outer products, in the stack's layout
    right = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    c_order = rng.normal(size=(7, d, d)) + 1j * rng.normal(size=(7, d, d))
    for stack in (c_order, step_axis_innermost(c_order), step_axis_innermost(c_order.real)):
        expected = stack[..., :, :1] * right[:1, :]
        for j in range(1, d):
            expected += stack[..., :, j:j + 1] * right[j:j + 1, :]
        got = stack_mul(stack, right)
        assert got.dtype == complex
        assert np.argsort(got.strides).tolist() == np.argsort(stack.strides).tolist()
        assert got.tobytes() == expected.tobytes()


@pytest.mark.parametrize("d", range(1, UNROLL_MAX_DIM + 3))
def test_stack_innermost_keeps_values_and_lays_small_stacks_step_innermost(rng, d):
    a = rng.normal(size=(5, d, d)) + 1j * rng.normal(size=(5, d, d))
    got = stack_innermost(a)
    assert np.array_equal(got, a)
    if d <= UNROLL_MAX_DIM:
        assert got.strides[0] == got.itemsize
    else:
        assert got is a


def test_energy_offset_leaves_f_total_unchanged(rng):
    h0 = random_hermitian(rng, 3)
    v = random_hermitian(rng, 3)
    drive = DriveProfile(0.2, GaussianEnvelope(1.5, 1.0), CosineModulation(1.3, 0.4))
    grid = TimeGrid(8.0, 1600)
    f_totals = [qfi_driven(propagate(make_gibbs(h, 1.0), v, drive, grid)).f_total
                for h in (h0, h0 + 100.0 * np.eye(3))]
    assert abs(f_totals[1] - f_totals[0]) <= 1e-12 * f_totals[0]


def test_squaring_bound_suggests_a_grid_that_runs():
    # ||A||_1 = dt * lambda0 needs 18 squarings on one step; 4 steps need 16
    model = make_gibbs(0.0 * SIGMA_Z, 1.0)
    drive = DriveProfile(1.0, ConstantEnvelope(), ConstantModulation())
    theta_12 = (2.0 ** -53 * 6227020800.0) ** (1.0 / 13)
    t_end = 1.5 * 2 ** 17 * theta_12
    with pytest.raises(StepSizeTooCoarse, match="retry with n_steps >= 4") as err:
        propagate(model, SIGMA_X, drive, TimeGrid(t_end, 1))
    assert err.value.suggested_n_steps == 4
    trace = propagate(model, SIGMA_X, drive, TimeGrid(t_end, 4))
    expected = expm_hermitian_generator(SIGMA_X, t_end)
    assert np.abs(trace.propagators[-1] - expected).max() <= 1e-9


def test_grids_past_the_cap_are_rejected_before_any_stack():
    # 8 stacks of n + 1 nodes fit MAX_STACK_BYTES: 2^25 / d^2 - 1 steps
    assert propagation.max_n_steps(2) == 8_388_607 and propagation.max_n_steps(32) == 32_767
    model, drive = make_gibbs(0.5 * SIGMA_Z, 5.0), resonant_drive()
    for n in (8_388_608, 10**12):
        with pytest.raises(ValueError, match="exceeds the cap of 8,388,607 steps at d = 2"):
            propagate(model, SIGMA_X, drive, TimeGrid(1.0, n))
        with pytest.raises(ValueError, match="exceeds the cap"):
            reduce_to_node(model, SIGMA_X, drive, TimeGrid(1.0, n))
    # an auto grid past 2^63 steps saturates there instead of overflowing
    assert default_n_steps(1.0e300, 1.0e300) == 2**63


def test_too_coarse_suggests_no_grid_past_the_cap():
    cap = propagation.max_n_steps(2)
    inside = propagation._drift_failure(1.0, cap // 2, 2, 1e-8)
    assert inside.suggested_n_steps == 2 * (cap // 2) <= cap
    assert str(inside).endswith(f"retry with n_steps >= {2 * (cap // 2)}")
    past = propagation._drift_failure(1.0, cap // 2 + 1, 2, 1e-8)
    assert past.suggested_n_steps is None
    assert str(past).endswith("no grid within the cap of 8,388,607 steps at d = 2 resolves "
                              "the drive")
    model = make_gibbs(0.5 * SIGMA_Z, 5.0)
    with pytest.raises(StepSizeTooCoarse, match="squarings; no grid within the cap") as err:
        propagate(model, SIGMA_X, resonant_drive(lambda0=1.0e150), TimeGrid(TWO_PI, 10))
    assert err.value.suggested_n_steps is None


def test_cli_rejects_a_drive_too_strong_for_the_grid(tmp_path, capsys):
    cfg = tmp_path / "strong.yaml"
    cfg.write_text(
        "model: {kind: qubit, omega: 1.0, v: sigma_x, beta_star: 5.0}\n"
        "drive:\n"
        "  lambda0: 1.0e+150\n"
        "  envelope: {kind: gaussian, beta0: 10.0, s_beta: 3.0}\n"
        "  temporal: {kind: cosine, omega_d: 1.0, phi: 0.0}\n"
        "grid: {t_end: 6.283185307179586}\n", encoding="utf-8")
    assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
    # the grid it would need is past the cap, so it suggests none
    err = capsys.readouterr().err
    assert "no grid within the cap of 8,388,607 steps at d = 2 resolves the drive" in err
    assert "retry" not in err


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


def test_long_qubit_run_keeps_round_off_small(qubit_model, resonant_drive):
    # 100 resonant periods on 20,000 steps: the chain's round-off stays near
    # 1e-13 in the unitarity drift and in the dual-path mismatch
    trace = propagate(qubit_model, SIGMA_X, resonant_drive, TimeGrid(100 * TWO_PI, 20000))
    assert trace.unitarity_drift <= 1e-12
    assert qfi_time_series(trace).rel_disagreement.max() <= 1e-12


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


@pytest.mark.parametrize("d", range(1, 7))
def test_drho_dbeta_analytic_matches_matmul(rng, d):
    # U (dpi + [A, pi0]) U^dag runs through operators.stack_mul; batched @ is the reference
    model = make_gibbs(random_hermitian(rng, d), 0.9)
    drive = DriveProfile(0.2, GaussianEnvelope(1.5, 1.0), CosineModulation(1.3, 0.4))
    trace = propagate(model, random_hermitian(rng, d), drive, TimeGrid(2.0, 40))
    a, u, pi0 = -1j * trace.M, trace.propagators, model.state
    expected = u @ (dpi_dbeta(model) + a @ pi0 - pi0 @ a) @ u.conj().swapaxes(1, 2)
    nodes = np.arange(trace.grid.n_nodes)
    innermost = trace._replace(M=step_axis_innermost(trace.M),
                               propagators=step_axis_innermost(u))
    for tr in (trace, innermost):
        got = drho_dbeta_analytic(tr, nodes)
        assert np.abs(got - expected).max() <= 1e-14 * np.abs(expected).max()
        assert np.abs(drho_dbeta_analytic(tr, 17) - expected[17]).max() \
            <= 1e-14 * np.abs(expected).max()


@given(d=st.integers(2, 6), n=st.sampled_from([0, 1, 2, 3, 37, 64]),
       seed=st.integers(0, 2**32 - 1))
def test_first_node_route_matches_full_trace(d, n, seed):
    # the steps before `first` reduced pairwise as (U, M) pairs against the
    # chained trace from node 0, at every node both hold
    rng = np.random.default_rng(seed)
    model = make_gibbs(random_hermitian(rng, d), 0.8)
    v = random_hermitian(rng, d)
    drive = DriveProfile(0.3, GaussianEnvelope(1.5, 1.0), CosineModulation(1.1, 0.3))
    grid = TimeGrid(2.0 if n else 0.0, n)
    full = propagate(model, v, drive, grid)
    columns = ("f_eq", "i_t", "f_total", "f_spectral")
    full_rows = qfi_time_series(full)
    for first in sorted({0, min(1, n), n // 2, n}):
        trace = propagate(model, v, drive, grid, first=first)
        assert trace.first == first and len(trace.M) == len(trace.propagators) == n + 1 - first
        assert np.abs(trace.M - full.M[first:]).max() <= 1e-12 * np.abs(full.M).max()
        for u, ref in zip(trace.propagators, full.propagators[first:]):
            phase = np.trace(ref.conj().T @ u) / d
            assert abs(abs(phase) - 1.0) <= 1e-12
            assert np.abs(u - phase * ref).max() <= 1e-12
        rows = qfi_time_series(trace)
        assert np.array_equal(rows.t, full_rows.t[first:])
        for name in columns:
            got, ref = getattr(rows, name), getattr(full_rows, name)
            assert np.abs(got - ref[first:]).max() <= 1e-12 * np.abs(ref).max(), name
        if n == 0:  # a value_at_t point at t = 0
            assert np.array_equal(trace.propagators[0], np.eye(d)) and not trace.M.any()


def test_first_node_bounds(qubit_model, resonant_drive):
    grid = TimeGrid(1.0, 4)
    for first in (-1, 5):
        with pytest.raises(ValueError, match="first node"):
            propagate(qubit_model, SIGMA_X, resonant_drive, grid, first=first)
    trace = propagate(qubit_model, SIGMA_X, resonant_drive, grid, first=3)
    with pytest.raises(ValueError, match="outside held nodes 3..4"):
        qfi_driven(trace, 2)
    for k in (2, [2, 3], 5, [3, 5]):
        with pytest.raises(ValueError, match="outside held nodes 3..4"):
            drho_dbeta_analytic(trace, k)
    assert drho_dbeta_analytic(trace, [3, 4]).shape == (2, 2, 2)


@pytest.mark.parametrize("d", [1, 2, 3, 6, 16])
def test_finished_nodes_equal_one_node_propagation(monkeypatch, rng, d):
    # one batch of zero, odd and even step counts, whose residuals have
    # different lengths and are padded to the longest: U, M and the drift bit
    # for bit those of propagate(..., first=n); then in batches of one point
    model = make_gibbs(random_hermitian(rng, d), 0.8)
    v = random_hermitian(rng, d)
    drive = DriveProfile(0.3, GaussianEnvelope(1.5, 1.0), CosineModulation(1.1, 0.3))
    r = residual_pairs(d)
    grids = [TimeGrid(0.0, 0), TimeGrid(0.3, 1), TimeGrid(0.5, 2), TimeGrid(0.9, 3 * r + 1),
             TimeGrid(1.2, 4 * r), TimeGrid(1.7, 301)]
    residuals = [reduce_to_node(model, v, drive, g) for g in grids]
    lengths = [len(x.u) for x in residuals]
    assert max(lengths) <= r and (len(set(lengths)) >= 3 or r == 1)
    traces = [propagate(model, v, drive, g, first=g.n_steps) for g in grids]
    for budget in (propagation.FINISH_BYTES, 1):
        monkeypatch.setattr(propagation, "FINISH_BYTES", budget)
        u, m, drift, failure = finish_nodes(v, residuals)
        assert failure is None and len(u) == len(m) == len(drift) == len(grids)
        for k, trace in enumerate(traces):
            assert u[k].tobytes() == trace.propagators[0].tobytes(), k
            assert m[k].tobytes() == trace.M[0].tobytes(), k
            assert drift[k] == trace.unitarity_drift, k
        # a guard fails at point 3: the points before it come back, with its error
        bad = residuals[3]._replace(u=residuals[3].u.copy())
        bad.u[0] *= 2.0
        u, m, drift, failure = finish_nodes(v, residuals[:3] + [bad] + residuals[4:])
        assert len(u) == len(m) == len(drift) == 3
        assert isinstance(failure, StepSizeTooCoarse)
        assert failure.suggested_n_steps == 2 * grids[3].n_steps
        bad = residuals[4]._replace(half_weight=np.nan)
        u, _, _, failure = finish_nodes(v, residuals[:4] + [bad])
        assert len(u) == 4 and str(failure).startswith("the weighted integral M is not finite")
