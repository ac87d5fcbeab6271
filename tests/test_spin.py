import numpy as np
import pytest

from drivetherm.drive import (CosineModulation, DriveProfile, GaussianEnvelope)
from drivetherm.engine import build_current_trace, increment_series, kernel_matrix
from drivetherm.exceptions import StepSizeTooCoarse
from drivetherm.operators import SIGMA_X, SIGMA_Z, pauli_components
from drivetherm.propagation import TimeGrid, default_n_steps, propagate
from drivetherm.spin import (detuned_amplitude, detuned_increment,
                             magnetization, qubit_equilibrium_qfi,
                             resonant_amplitude, resonant_increment,
                             short_time_coefficient, weak_field_kernel)
from drivetherm.thermal import equilibrium_qfi, make_gibbs

from oracles import bloch_precess, default_bloch_grid

TWO_PI = 2 * np.pi


def drive(lambda0=0.1, beta0=10.0, s_beta=3.0, omega_d=1.0):
    return DriveProfile(lambda0, GaussianEnvelope(beta0, s_beta),
                        CosineModulation(omega_d, 0.0))


# ---------------------------------------------------------------- baseline

def test_equilibrium_qfi_closed_form_limits():
    assert qubit_equilibrium_qfi(1.0, 0.0) == 0.25
    assert qubit_equilibrium_qfi(1.0, 500.0) < 1e-200  # ground-state limit
    expected = 0.25 / np.cosh(1.0) ** 2
    assert abs(qubit_equilibrium_qfi(1.0, 2.0) - expected) < 1e-16


def test_equilibrium_qfi_closed_form_vs_matrix_variance():
    for beta in (0.3, 1.0, 4.0, 9.0):
        g = make_gibbs(0.5 * SIGMA_Z, beta)
        assert abs(qubit_equilibrium_qfi(1.0, beta) - equilibrium_qfi(g)) < 1e-14


# ------------------------------------------------------------ Bloch oracle

def test_bloch_free_precession():
    grid = default_bloch_grid(2 * TWO_PI, 1.0)
    trace = bloch_precess(1.0, drive(lambda0=0.0), 5.0, grid)
    ts = grid.nodes
    expected = np.stack([np.cos(ts), -np.sin(ts), np.zeros_like(ts)], axis=1)
    assert np.abs(trace.vectors - expected).max() < 1e-9
    assert np.allclose(trace.vectors[0], [1.0, 0.0, 0.0], atol=0)


def test_bloch_norm_conserved_at_default_resolution():
    grid = default_bloch_grid(10 * TWO_PI, 1.0, 1.0)
    trace = bloch_precess(1.0, drive(beta0=5.0), 5.0, grid)
    assert trace.norm_drift <= 1e-9


def test_bloch_norm_guard_raises():
    with pytest.raises(StepSizeTooCoarse):
        bloch_precess(1.0, drive(), 5.0, TimeGrid(10 * TWO_PI, 40))


def test_bloch_matches_heisenberg_decomposition():
    # driven case at the envelope center (G = 1): the RK4 rotation trace must
    # reproduce the Pauli components of U^dag sigma_x U from the propagator
    beta = 10.0
    t_end = 2 * TWO_PI
    n = 16000
    grid = TimeGrid(t_end, n)
    d = drive(lambda0=0.1, beta0=10.0)
    trace = propagate(make_gibbs(0.5 * SIGMA_Z, beta), SIGMA_X, d, grid)
    bloch = bloch_precess(1.0, d, beta, grid)
    decomposed = np.array([pauli_components(m) for m in trace.heisenberg_v[::400]])
    assert np.abs(bloch.vectors[::400] - decomposed).max() < 1e-7


# --------------------------------------------------------------- kernels

def test_weak_field_kernel_values():
    m = 0.7
    assert weak_field_kernel(1.0, m, 2.3, 2.3) == 4 * m**2
    assert abs(weak_field_kernel(1.0, m, np.pi / 2, 0.0)) < 1e-15


def test_weak_field_kernel_matches_engine_at_vanishing_field(qubit_model):
    grid = TimeGrid(4.0, default_n_steps(4.0, 1.0, 1.0))
    trace = propagate(qubit_model, SIGMA_X, drive(lambda0=1e-4), grid)
    km = kernel_matrix(qubit_model, trace.heisenberg_v).real
    m = magnetization(1.0, 5.0)
    nodes = grid.nodes
    idx = np.arange(0, grid.n_nodes, 20)
    worst = max(
        abs(km[a, b] - weak_field_kernel(1.0, m, nodes[a], nodes[b]))
        for a in idx for b in idx
    )
    assert worst < 1e-6


def test_kernel_first_order_correction_bound(qubit_model):
    # |K_S_numeric - 4 m^2 cos(Omega(s-u))| <= 10 lambda0 on a 50x50 grid
    for lambda0 in (1e-3, 3e-4):
        grid = TimeGrid(2 * TWO_PI, 49)
        trace = propagate(qubit_model, SIGMA_X, drive(lambda0=lambda0), grid)
        km = kernel_matrix(qubit_model, trace.heisenberg_v).real
        m = magnetization(1.0, 5.0)
        nodes = grid.nodes
        expected = 4 * m**2 * np.cos(nodes[:, None] - nodes[None, :])
        assert np.abs(km - expected).max() <= 10 * lambda0


# ----------------------------------------------------- short-time and laws

def test_short_time_coefficient_zeros():
    assert short_time_coefficient(0.0, 0.1, 0.5) == 0.0
    assert short_time_coefficient(0.9, 0.1, 0.0) == 0.0


def test_short_time_coefficient_vs_engine(qubit_model, resonant_drive):
    t = 1e-3
    ct = build_current_trace(propagate(qubit_model, SIGMA_X, resonant_drive,
                                       TimeGrid(t, 64)))
    i_t = increment_series(ct)[-1]
    m = magnetization(1.0, 5.0)
    gprime = resonant_drive.envelope.derivative(5.0)
    coef = short_time_coefficient(m, 0.1, gprime)
    assert abs(i_t / t**2 - coef) <= 1e-3 * coef


def test_detuned_amplitude_guards_and_zero():
    assert detuned_amplitude(1.0, 0.5, 0.0) == 0.0
    with pytest.raises(ValueError, match="resonant_increment"):
        detuned_amplitude(1.0, 1.0 + 1e-9, 1.0)


def test_detuned_increment_zero_cases():
    assert detuned_increment(1.0, 0.5, 0.9, 0.0, 0.3, 7.0) == 0.0
    assert detuned_increment(1.0, 0.5, 0.9, 0.01, 0.3, 0.0) == 0.0


def weak_field_spin_setup(lambda0=0.01):
    beta = 5.0
    env = GaussianEnvelope(11.0, 2.0)
    m = magnetization(1.0, beta)
    gprime = float(env.derivative(beta))
    return beta, env, m, gprime, lambda0


def test_detuned_increment_matches_engine():
    beta, env, m, gprime, lam0 = weak_field_spin_setup()
    for omega_d in (0.5, 2.0):
        t_end = 20 * TWO_PI
        grid = TimeGrid(t_end, default_n_steps(t_end, 1.0, omega_d))
        d = DriveProfile(lam0, env, CosineModulation(omega_d, 0.0))
        model = make_gibbs(0.5 * SIGMA_Z, beta)
        i_num = increment_series(build_current_trace(propagate(model, SIGMA_X, d, grid)))
        i_closed = detuned_increment(1.0, omega_d, m, lam0, gprime, grid.nodes)
        sel = i_closed > 0.05 * i_closed.max()
        assert np.abs(i_num[sel] / i_closed[sel] - 1.0).max() < 0.02


def test_resonant_increment_t_zero():
    r = resonant_increment(1.0, 0.9, 0.01, 0.3, 0.0)
    assert r.exact == 0.0 and r.quadratic == 0.0


def test_resonant_amplitude_is_detuning_limit():
    # the closed detuned amplitude approaches the resonant form as the
    # detuning shrinks toward the floor
    for t in (3.0, 17.0, 61.0):
        near = detuned_amplitude(1.0, 1.0 + 1e-5, t)
        assert abs(near - resonant_amplitude(1.0, t)) < 1e-3 * resonant_amplitude(1.0, t) + 1e-12


def test_resonant_exact_vs_quadratic_long_time():
    m, lam0, gp = 0.9, 0.01, 0.3
    r = resonant_increment(1.0, m, lam0, gp, 100.0)
    assert abs(r.exact / r.quadratic - 1.0) < 0.03


def test_resonant_increment_matches_engine():
    beta, env, m, gprime, lam0 = weak_field_spin_setup()
    t_end = 100.0
    grid = TimeGrid(t_end, default_n_steps(t_end, 1.0, 1.0))
    d = DriveProfile(lam0, env, CosineModulation(1.0, 0.0))
    model = make_gibbs(0.5 * SIGMA_Z, beta)
    i_num = increment_series(build_current_trace(propagate(model, SIGMA_X, d, grid)))
    nodes = grid.nodes
    sel = nodes > 0.5
    i_closed = np.array([resonant_increment(1.0, m, lam0, gprime, t).exact
                         for t in nodes[sel]])
    assert np.abs(i_num[sel] / i_closed - 1.0).max() < 0.02


def test_resonant_looser_check_at_strong_field():
    # leading-order law within 15% even at lambda0 = 0.1 (moderate window)
    beta, env, m, gprime, _ = weak_field_spin_setup()
    lam0 = 0.1
    t_end = 4 * TWO_PI
    grid = TimeGrid(t_end, default_n_steps(t_end, 1.0, 1.0))
    d = DriveProfile(lam0, env, CosineModulation(1.0, 0.0))
    model = make_gibbs(0.5 * SIGMA_Z, beta)
    i_num = increment_series(build_current_trace(propagate(model, SIGMA_X, d, grid)))[-1]
    i_closed = resonant_increment(1.0, m, lam0, gprime, t_end).exact
    assert abs(i_num / i_closed - 1.0) < 0.15
