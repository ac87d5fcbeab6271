import numpy as np
import pytest

from drivetherm import FullRankViolation, engine
from drivetherm.drive import (ConstantEnvelope, CosineModulation, DriveProfile,
                              GaussianEnvelope, dlambda_dbeta)
from drivetherm.engine import (_decompose, build_current_trace,
                               increment_series, increment_via_kernel,
                               information_current, kernel_matrix, qfi_driven,
                               qfi_time_series)
from drivetherm.operators import (SIGMA_X, SIGMA_Y, SIGMA_Z,
                                  pauli_components)
from drivetherm.propagation import (TimeGrid, cumulative_trapezoid,
                                    default_n_steps, propagate)
from drivetherm.thermal import equilibrium_sld, make_gibbs

from conftest import random_hermitian, random_unitary, step_axis_innermost

TWO_PI = 2 * np.pi


def test_current_vanishes_for_commuting_operator(qubit_model):
    assert np.abs(information_current(qubit_model, SIGMA_Z)).max() == 0.0


def test_current_vanishes_at_infinite_temperature(rng):
    model = make_gibbs(0.5 * SIGMA_Z, 0.0)
    v_h = random_hermitian(rng, 2)
    assert np.abs(information_current(model, v_h)).max() < 1e-16


def test_current_closed_form_qubit(rng):
    # J = 2m (a_x sigma_y - a_y sigma_x) for any V_H = a . sigma (+ a_z part)
    beta = 3.0
    model = make_gibbs(0.5 * SIGMA_Z, beta)
    m = np.tanh(beta / 2)
    for _ in range(10):
        a = rng.normal(size=3)
        v_h = a[0] * SIGMA_X + a[1] * SIGMA_Y + a[2] * SIGMA_Z
        expected = 2 * m * (a[0] * SIGMA_Y - a[1] * SIGMA_X)
        assert np.abs(information_current(model, v_h) - expected).max() < 1e-13


def test_current_is_offdiagonal_and_hermitian(rng):
    # diagonal H0: the thermal eigenbasis is trivial, so the current's
    # diagonal is exactly zero (no rotation roundoff)
    model = make_gibbs(np.diag([0.9, 0.1, -0.6]).astype(complex), 1.5)
    j = information_current(model, random_hermitian(rng, 3))
    assert np.abs(np.diagonal(j)).max() == 0.0
    # generic H0: roundoff-level only
    model = make_gibbs(random_hermitian(rng, 4), 1.5)
    v_h = random_hermitian(rng, 4)
    j = information_current(model, v_h)
    assert np.abs(j - j.conj().T).max() < 1e-13
    jt = model.basis.conj().T @ j @ model.basis
    assert np.abs(np.diagonal(jt)).max() < 1e-14
    assert abs(np.trace(model.state @ j)) < 1e-14


def test_current_requires_full_rank(rng):
    model = make_gibbs(0.5 * SIGMA_Z, 2.0)
    starved = type(model)(
        h0=model.h0, beta=model.beta, energies=model.energies,
        basis=model.basis, probabilities=model.probabilities,
        state=model.state, log_z=model.log_z, rank_floor=0.9,
    )
    with pytest.raises(FullRankViolation):
        information_current(starved, SIGMA_X)


def test_kernel_hermiticity_and_positivity(rng):
    model = make_gibbs(random_hermitian(rng, 3), 1.0)
    v_h = np.stack([random_hermitian(rng, 3), random_hermitian(rng, 3),
                    np.zeros((3, 3), dtype=complex)])
    km = kernel_matrix(model, v_h)
    assert np.abs(km - km.conj().T).max() < 1e-14
    assert np.abs(np.diagonal(km).imag).max() < 1e-14
    assert (np.diagonal(km).real >= 0.0).all()
    assert (km[2] == 0.0).all() and (km[:, 2] == 0.0).all()


def test_weak_field_kernel_matches_cosine(qubit_model):
    # lambda0 -> 0: symmetrized kernel K_S(s, u) = 4 m^2 cos(Omega (s-u))
    drive = DriveProfile(1e-6, GaussianEnvelope(10.0, 3.0), CosineModulation(1.0, 0.0))
    grid = TimeGrid(4.0, default_n_steps(4.0, 1.0, 1.0))
    trace = propagate(qubit_model, SIGMA_X, drive, grid)
    km = kernel_matrix(qubit_model, trace.heisenberg_v).real
    m = np.tanh(2.5)
    nodes = grid.nodes
    expected = 4 * m**2 * np.cos(nodes[:, None] - nodes[None, :])
    assert np.abs(km - expected).max() < 1e-5


def test_build_current_trace_weights(qubit_model):
    grid = TimeGrid(TWO_PI, 200)
    con = DriveProfile(0.1, ConstantEnvelope(), CosineModulation(1.0, 0.0))
    ct = build_current_trace(propagate(qubit_model, SIGMA_X, con, grid))
    assert np.abs(ct.weights).max() == 0.0
    assert np.abs(ct.currents).max() > 0.1  # currents flow, but enter with zero weight


def test_trace_carries_the_weights_of_m(qubit_model, resonant_drive):
    # propagate keeps the w it weights M with; the current trace reads those
    grid = TimeGrid(TWO_PI, 200)
    trace = propagate(qubit_model, SIGMA_X, resonant_drive, grid)
    assert np.array_equal(trace.weights,
                          dlambda_dbeta(resonant_drive, grid.nodes, qubit_model.beta))
    assert build_current_trace(trace).weights is trace.weights


def test_weak_field_current_convention(qubit_model):
    # lambda0 = 0: J(t) = 2m (cos(Omega t) sigma_y + sin(Omega t) sigma_x),
    # fixed by the V_H = U^dag V U convention; the symmetrized kernel is
    # insensitive to the sign of a_y either way
    drive = DriveProfile(0.0, GaussianEnvelope(10.0, 3.0), CosineModulation(1.0, 0.0))
    grid = TimeGrid(TWO_PI, 400)
    trace = propagate(qubit_model, SIGMA_X, drive, grid)
    ct = build_current_trace(trace)
    m = np.tanh(2.5)
    for k in (31, 150, 311):
        t = grid.nodes[k]
        expected = 2 * m * (np.cos(t) * SIGMA_Y + np.sin(t) * SIGMA_X)
        assert np.abs(ct.currents[k] - expected).max() < 1e-10
        a = pauli_components(trace.heisenberg_v[k])
        flipped = 2 * m * (a[0] * SIGMA_Y - (-a[1]) * SIGMA_X)
        k_same = np.trace(qubit_model.state @ ct.currents[k] @ ct.currents[k]).real
        k_flip = np.trace(qubit_model.state @ flipped @ flipped).real
        assert abs(k_same - k_flip) < 1e-12


def test_single_node_trace(qubit_model, resonant_drive):
    trace = propagate(qubit_model, SIGMA_X, resonant_drive, TimeGrid(0.0, 0))
    assert increment_series(build_current_trace(trace))[-1] == 0.0
    assert increment_via_kernel(trace) == (0.0, 0.0, 0.0)


def test_increment_paths_agree(qubit_model, resonant_drive, rng):
    grid = TimeGrid(2 * TWO_PI, default_n_steps(2 * TWO_PI, 1.0, 1.0))
    trace = propagate(qubit_model, SIGMA_X, resonant_drive, grid)
    i_kernel, asym, scale = increment_via_kernel(trace)
    i_delta = increment_series(build_current_trace(trace))[-1]
    assert abs(i_kernel - i_delta) <= 1e-10 * i_delta
    assert asym <= 1e-10
    assert i_kernel <= scale  # the sum of the absolute terms bounds the sum
    # generic model too
    h0 = random_hermitian(rng, 3)
    model = make_gibbs(h0, 1.2)
    grid = TimeGrid(4.0, default_n_steps(4.0, float(np.ptp(np.linalg.eigvalsh(h0))), 1.3))
    drive = DriveProfile(0.08, GaussianEnvelope(2.0, 1.5), CosineModulation(1.3, 0.7))
    trace = propagate(model, random_hermitian(rng, 3), drive, grid)
    i_kernel, asym, scale = increment_via_kernel(trace)
    i_delta = increment_series(build_current_trace(trace))[-1]
    assert abs(i_kernel - i_delta) <= 1e-10 * max(i_delta, 1e-30)
    assert asym <= 1e-10
    assert i_kernel <= scale


def test_increment_zero_for_zero_weights(qubit_model):
    drive = DriveProfile(0.1, ConstantEnvelope(), CosineModulation(1.0, 0.0))
    grid = TimeGrid(TWO_PI, 300)
    ct = build_current_trace(propagate(qubit_model, SIGMA_X, drive, grid))
    assert increment_series(ct)[-1] == 0.0


def test_increment_zero_for_commuting_perturbation(qubit_model, resonant_drive):
    grid = TimeGrid(TWO_PI, 300)
    ct = build_current_trace(propagate(qubit_model, SIGMA_Z, resonant_drive, grid))
    assert increment_series(ct)[-1] <= 1e-12


def test_short_time_quadratic_coefficient(qubit_model, resonant_drive):
    t = 1e-3
    ct = build_current_trace(propagate(qubit_model, SIGMA_X, resonant_drive,
                                       TimeGrid(t, 64)))
    i_t = increment_series(ct)[-1]
    m = np.tanh(2.5)
    gprime = -((5.0 - 10.0) / 9.0) * np.exp(-25.0 / 18.0)
    coef = 4 * m**2 * (0.1 * gprime) ** 2
    assert abs(i_t / t**2 - coef) <= 1e-3 * coef


def test_mixed_term_vanishes(qubit_model, resonant_drive):
    grid = TimeGrid(2 * TWO_PI, default_n_steps(2 * TWO_PI, 1.0, 1.0))
    ct = build_current_trace(propagate(qubit_model, SIGMA_X, resonant_drive, grid))
    dl = cumulative_trapezoid(ct.weights[:, None, None] * ct.currents, grid.dt)[-1]
    l_eq = equilibrium_sld(qubit_model)
    assert abs(np.trace(qubit_model.state @ l_eq @ dl)) <= 1e-10


def test_qfi_driven_at_time_zero(qubit_model, resonant_drive):
    r = qfi_driven(propagate(qubit_model, SIGMA_X, resonant_drive, TimeGrid(0.0, 0)))
    assert r.i_t == 0.0
    assert r.f_total == r.f_eq
    assert abs(r.f_spectral - r.f_eq) < 1e-12 * r.f_eq


def test_qfi_driven_constant_envelope_no_gain(qubit_model):
    drive = DriveProfile(0.1, ConstantEnvelope(), CosineModulation(1.0, 0.0))
    grid = TimeGrid(2 * TWO_PI, default_n_steps(2 * TWO_PI, 1.0, 1.0))
    series = qfi_time_series(propagate(qubit_model, SIGMA_X, drive, grid))
    assert np.abs(series.f_spectral - series.f_eq).max() <= 1e-9
    assert np.array_equal(series.f_total, series.f_eq)


def test_qfi_driven_dual_path_agreement(qubit_model, resonant_drive):
    grid = TimeGrid(2 * TWO_PI, default_n_steps(2 * TWO_PI, 1.0, 1.0))
    series = qfi_time_series(propagate(qubit_model, SIGMA_X, resonant_drive, grid))
    assert series.rel_disagreement.max() <= 1e-6
    assert np.array_equal(series.f_total, series.f_eq + series.i_t)
    # the single node evaluator agrees with the batched series in every field
    r_single = qfi_driven(propagate(qubit_model, SIGMA_X, resonant_drive, grid), at=250)
    for name in ("t", "f_eq", "i_t", "f_total"):
        assert abs(getattr(r_single, name) - getattr(series, name)[250]) < 1e-15
    for name in ("f_spectral", "rel_disagreement"):
        assert abs(getattr(r_single, name) - getattr(series, name)[250]) < 1e-12
    assert abs(r_single.mixed_term_residual - series.mixed_term_residual[250]) <= 1e-10


def test_qfi_driven_rejects_bad_node_index(qubit_model, resonant_drive):
    with pytest.raises(ValueError, match="node index"):
        qfi_driven(propagate(qubit_model, SIGMA_X, resonant_drive, TimeGrid(1.0, 10)), at=11)


def test_dual_path_tightens_under_refinement(qubit_model, resonant_drive):
    t_end = TWO_PI
    coarse = TimeGrid(t_end, default_n_steps(t_end, 1.0, 1.0))
    fine = TimeGrid(t_end, 4 * coarse.n_steps)
    series = qfi_time_series(propagate(qubit_model, SIGMA_X, resonant_drive, fine))
    worst_fine = series.rel_disagreement.max()
    assert worst_fine <= 1e-8


def test_randomized_positivity_and_gain(rng):
    # nonnegativity of the increment and monotone gain over the baseline
    for _ in range(40):
        d = int(rng.integers(2, 5))
        h0 = random_hermitian(rng, d)
        v = random_hermitian(rng, d)
        beta = float(rng.uniform(0.2, 5.0))
        model = make_gibbs(h0, beta)
        drive = DriveProfile(
            lambda0=float(rng.uniform(0.01, 0.2)),
            envelope=GaussianEnvelope(float(rng.uniform(0.5, 8.0)),
                                      float(rng.uniform(1.0, 4.0))),
            temporal=CosineModulation(float(rng.uniform(0.3, 2.5)),
                                      float(rng.uniform(0.0, TWO_PI))),
        )
        t_end = float(rng.uniform(1.0, 5.0))
        spread = float(np.ptp(np.linalg.eigvalsh(h0)))
        grid = TimeGrid(t_end, default_n_steps(t_end, spread, drive.omega_d))
        r = qfi_driven(propagate(model, v, drive, grid))
        assert r.i_t >= -1e-10
        assert r.f_total >= r.f_eq - 1e-10
        assert r.mixed_term_residual <= 1e-10


@pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
def test_time_series_matches_current_route(d):
    # dL read off the accumulated M equals the running trapezoid of the
    # per-node currents at every node
    rng = np.random.default_rng(5300 + d)
    h0 = random_hermitian(rng, d)
    v = random_hermitian(rng, d)
    drive = DriveProfile(0.15, GaussianEnvelope(2.0, 1.5), CosineModulation(1.1, 0.4))
    spread = float(np.ptp(np.linalg.eigvalsh(h0)))
    grid = TimeGrid(6.0, default_n_steps(6.0, spread, drive.omega_d))
    trace = propagate(make_gibbs(h0, 0.8), v, drive, grid)
    i_t = qfi_time_series(trace).i_t
    reference = increment_series(build_current_trace(trace))
    assert i_t[0] == reference[0] == 0.0
    assert (i_t >= 0.0).all()
    np.testing.assert_allclose(i_t, reference, rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
def test_increment_is_exactly_nonnegative_for_commuting_perturbation(d):
    # V = Q diag(r) Q^dag commutes with H0: I_t is round-off around zero, and
    # as a sum of squares it never drops below it
    drive = DriveProfile(0.15, GaussianEnvelope(2.0, 1.5), CosineModulation(1.1, 0.4))
    for seed in range(10):
        rng = np.random.default_rng(1000 * d + seed)
        model = make_gibbs(random_hermitian(rng, d), 0.8)
        v = (model.basis * rng.normal(size=d)) @ model.basis.conj().T
        grid = TimeGrid(6.0, default_n_steps(6.0, model.spread, drive.omega_d))
        i_t = qfi_time_series(propagate(model, v, drive, grid)).i_t
        assert (i_t >= 0.0).all() and i_t.max() < 1e-28


def test_time_series_columns_are_float64_arrays(qubit_model, resonant_drive):
    grid = TimeGrid(TWO_PI, 120)
    series = qfi_time_series(propagate(qubit_model, SIGMA_X, resonant_drive, grid))
    for name in series._fields:
        column = getattr(series, name)
        assert isinstance(column, np.ndarray), name
        assert column.dtype == np.float64 and column.shape == (grid.n_nodes,), name
    single = qfi_driven(propagate(qubit_model, SIGMA_X, resonant_drive, grid))
    assert all(type(getattr(single, name)) is float for name in single._fields)


@pytest.mark.parametrize("d", range(1, 7))
def test_current_rotations_match_matmul(rng, d):
    # the two basis rotations run through operators.stack_mul; batched @ is the reference
    model = make_gibbs(random_hermitian(rng, d), 0.7)
    q, p = model.basis, model.probabilities
    ratio = (p[None, :] - p[:, None]) / (p[:, None] + p[None, :])
    v_h = np.stack([random_hermitian(rng, d) for _ in range(9)])
    expected = q @ (-2j * ratio * (q.conj().T @ v_h @ q)) @ q.conj().T
    for stack in (v_h, step_axis_innermost(v_h)):
        got = information_current(model, stack)
        assert np.abs(got - expected).max() <= 1e-14 * np.abs(expected).max()
    single = information_current(model, v_h[4])
    assert np.abs(single - expected[4]).max() <= 1e-14 * np.abs(expected).max()


@pytest.mark.parametrize("d", range(1, 7))
def test_kernel_matches_lab_frame_trace(rng, d):
    # K(t_a, t_b) = Tr[pi0 J_a J_b] of the lab-frame currents of the V_H stack
    model = make_gibbs(random_hermitian(rng, d), 0.7)
    v_h = step_axis_innermost(np.stack([random_hermitian(rng, d) for _ in range(9)]))
    j = information_current(model, v_h)
    expected = np.einsum("ij,ajk,bki->ab", model.state, j, j)
    got = kernel_matrix(model, v_h)
    assert np.abs(got - expected).max() <= 1e-12 * np.abs(expected).max()


def assert_same_bytes(a, b):
    for name in a._fields:
        assert getattr(a, name).tobytes() == getattr(b, name).tobytes(), name


@pytest.mark.parametrize("d", [2, 3, 6])
def test_decomposition_does_not_depend_on_layout(rng, d):
    # each row is reduced on its own, in an order that the memory layout of
    # the rows does not change
    model = make_gibbs(random_hermitian(rng, d), 0.7)
    u = np.stack([random_unitary(rng, d) for _ in range(33)])
    m = np.stack([random_hermitian(rng, d, scale=0.3) for _ in range(33)])
    t = np.linspace(0.0, 1.0, 33)
    assert_same_bytes(_decompose(model, u, m, t),
                      _decompose(model, step_axis_innermost(u), step_axis_innermost(m), t))


@pytest.mark.parametrize("d", [2, 3])
def test_blocked_time_series_equals_one_decomposition(d):
    # more than two blocks of rows, the last one partial
    rng = np.random.default_rng(7100 + d)
    drive = DriveProfile(0.15, GaussianEnvelope(2.0, 1.5), CosineModulation(1.1, 0.4))
    grid = TimeGrid(6.0, 2 * engine._DECOMPOSE_ROWS + 5)
    trace = propagate(make_gibbs(random_hermitian(rng, d), 0.8), random_hermitian(rng, d),
                      drive, grid)
    assert_same_bytes(qfi_time_series(trace),
                      _decompose(trace.model, trace.propagators, trace.M, grid.nodes))
