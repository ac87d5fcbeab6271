from dataclasses import fields

import numpy as np
import pytest

from drivetherm import FullRankViolation
from drivetherm.drive import (ConstantEnvelope, CosineModulation, DriveProfile,
                              GaussianEnvelope)
from drivetherm.engine import (build_current_trace, delta_sld,
                               increment_series, increment_via_deltaL,
                               increment_via_kernel, information_current,
                               kernel, kernel_matrix, qfi_driven,
                               qfi_time_series)
from drivetherm.operators import (SIGMA_X, SIGMA_Y, SIGMA_Z,
                                  pauli_components)
from drivetherm.propagation import TimeGrid, default_n_steps, propagate
from drivetherm.thermal import equilibrium_sld, make_gibbs

from conftest import random_hermitian

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
    j_s = information_current(model, random_hermitian(rng, 3))
    j_u = information_current(model, random_hermitian(rng, 3))
    k_su = kernel(model, j_s, j_u)
    k_us = kernel(model, j_u, j_s)
    assert abs(k_su - np.conj(k_us)) < 1e-14
    diag = kernel(model, j_s, j_s)
    assert abs(diag.imag) < 1e-14 and diag.real >= 0.0
    zero = np.zeros((3, 3))
    assert kernel(model, zero, j_u) == 0.0


def test_weak_field_kernel_matches_cosine(qubit_model):
    # lambda0 -> 0: symmetrized kernel K_S(s, u) = 4 m^2 cos(Omega (s-u))
    drive = DriveProfile(1e-6, GaussianEnvelope(10.0, 3.0), CosineModulation(1.0, 0.0))
    grid = TimeGrid(4.0, default_n_steps(4.0, 1.0, 1.0))
    ct = build_current_trace(propagate(qubit_model, SIGMA_X, drive, grid))
    km = kernel_matrix(ct).real
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
    ct = build_current_trace(propagate(qubit_model, SIGMA_X, resonant_drive,
                                       TimeGrid(0.0, 0)))
    assert increment_via_deltaL(ct) == 0.0
    assert increment_via_kernel(ct) == 0.0


def test_increment_paths_agree(qubit_model, resonant_drive, rng):
    grid = TimeGrid(2 * TWO_PI, default_n_steps(2 * TWO_PI, 1.0, 1.0))
    ct = build_current_trace(propagate(qubit_model, SIGMA_X, resonant_drive, grid))
    i_kernel, asym = increment_via_kernel(ct, return_diagnostics=True)
    i_delta = increment_via_deltaL(ct)
    assert abs(i_kernel - i_delta) <= 1e-10 * i_delta
    assert asym <= 1e-10
    # generic model too
    h0 = random_hermitian(rng, 3)
    model = make_gibbs(h0, 1.2)
    grid = TimeGrid(4.0, default_n_steps(4.0, float(np.ptp(np.linalg.eigvalsh(h0))), 1.3))
    drive = DriveProfile(0.08, GaussianEnvelope(2.0, 1.5), CosineModulation(1.3, 0.7))
    ct = build_current_trace(propagate(model, random_hermitian(rng, 3), drive, grid))
    i_kernel, asym = increment_via_kernel(ct, return_diagnostics=True)
    i_delta = increment_via_deltaL(ct)
    assert abs(i_kernel - i_delta) <= 1e-10 * max(i_delta, 1e-30)
    assert asym <= 1e-10


def test_increment_zero_for_zero_weights(qubit_model):
    drive = DriveProfile(0.1, ConstantEnvelope(), CosineModulation(1.0, 0.0))
    grid = TimeGrid(TWO_PI, 300)
    ct = build_current_trace(propagate(qubit_model, SIGMA_X, drive, grid))
    assert increment_via_deltaL(ct) == 0.0


def test_increment_zero_for_commuting_perturbation(qubit_model, resonant_drive):
    grid = TimeGrid(TWO_PI, 300)
    ct = build_current_trace(propagate(qubit_model, SIGMA_Z, resonant_drive, grid))
    assert increment_via_deltaL(ct) <= 1e-12


def test_short_time_quadratic_coefficient(qubit_model, resonant_drive):
    t = 1e-3
    ct = build_current_trace(propagate(qubit_model, SIGMA_X, resonant_drive,
                                       TimeGrid(t, 64)))
    i_t = increment_via_deltaL(ct)
    m = np.tanh(2.5)
    gprime = -((5.0 - 10.0) / 9.0) * np.exp(-25.0 / 18.0)
    coef = 4 * m**2 * (0.1 * gprime) ** 2
    assert abs(i_t / t**2 - coef) <= 1e-3 * coef


def test_mixed_term_vanishes(qubit_model, resonant_drive):
    grid = TimeGrid(2 * TWO_PI, default_n_steps(2 * TWO_PI, 1.0, 1.0))
    ct = build_current_trace(propagate(qubit_model, SIGMA_X, resonant_drive, grid))
    dl = delta_sld(ct)
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
    for name in ("f_spectral", "rel_disagreement", "crb_sigma"):
        assert abs(getattr(r_single, name) - getattr(series, name)[250]) < 1e-12
    assert abs(r_single.mixed_term_residual - series.mixed_term_residual[250]) <= 1e-10


def test_qfi_driven_crb_column(qubit_model, resonant_drive):
    grid = TimeGrid(TWO_PI, 200)
    r = qfi_driven(propagate(qubit_model, SIGMA_X, resonant_drive, grid),
                   n_measurements=25)
    assert abs(r.crb_sigma - 1.0 / np.sqrt(25 * r.f_total)) < 1e-15


def test_qfi_driven_rejects_bad_node_index(qubit_model, resonant_drive):
    with pytest.raises(ValueError, match="node index"):
        qfi_driven(propagate(qubit_model, SIGMA_X, resonant_drive, TimeGrid(1.0, 10)), at=11)


def test_increment_series_matches_pointwise(qubit_model, resonant_drive):
    grid = TimeGrid(TWO_PI, 100)
    ct = build_current_trace(propagate(qubit_model, SIGMA_X, resonant_drive, grid))
    series = increment_series(ct)
    for k in (0, 11, 57, 100):
        assert abs(series[k] - increment_via_deltaL(ct, k)) < 1e-15


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
    np.testing.assert_allclose(i_t, reference, rtol=1e-12, atol=0.0)


def test_time_series_columns_are_float64_arrays(qubit_model, resonant_drive):
    grid = TimeGrid(TWO_PI, 120)
    series = qfi_time_series(propagate(qubit_model, SIGMA_X, resonant_drive, grid))
    for field in fields(series):
        column = getattr(series, field.name)
        assert isinstance(column, np.ndarray), field.name
        assert column.dtype == np.float64 and column.shape == (grid.n_nodes,), field.name
    single = qfi_driven(propagate(qubit_model, SIGMA_X, resonant_drive, grid))
    assert all(type(getattr(single, f.name)) is float for f in fields(single))
