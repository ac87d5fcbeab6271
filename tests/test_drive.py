import numpy as np
import pytest

from drivetherm import ExtrapolationError
from drivetherm.drive import (ConstantEnvelope, ConstantModulation,
                              CosineModulation, DriveProfile,
                              GaussianEnvelope, TabulatedEnvelope,
                              TabulatedModulation, dlambda_dbeta, lambda_at,
                              sample_envelope_center)
from drivetherm.operators import SIGMA_X, SIGMA_Z
from drivetherm.propagation import TimeGrid
from drivetherm.scans import ReduceSpec, ScanSpec
from drivetherm.thermal import make_gibbs


def gaussian_profile(lambda0=0.1, beta0=5.0, s_beta=3.0, omega_d=1.0, phi=0.0):
    return DriveProfile(lambda0, GaussianEnvelope(beta0, s_beta),
                        CosineModulation(omega_d, phi))


def test_lambda_at_envelope_peak():
    p = gaussian_profile()
    assert abs(lambda_at(p, 0.0, 5.0) - 0.1) < 1e-15
    assert abs(lambda_at(p, np.pi / 2, 5.0)) < 1e-15


def test_lambda_at_direct_formula():
    p = gaussian_profile(beta0=10.0, s_beta=3.0)
    expected = 0.1 * np.exp(-9.0 / 18.0) * np.cos(1.0)
    assert abs(lambda_at(p, 1.0, 7.0) - expected) < 1e-16


def test_lambda_vectorized_over_time():
    p = gaussian_profile()
    ts = np.linspace(0, 10, 7)
    vals = lambda_at(p, ts, 4.0)
    assert vals.shape == ts.shape
    assert np.allclose(vals, [lambda_at(p, float(t), 4.0) for t in ts], atol=0)


def test_dlambda_zero_at_envelope_center():
    p = gaussian_profile(beta0=5.0)
    for t in (0.0, 0.7, 3.1):
        assert dlambda_dbeta(p, t, 5.0) == 0.0


def test_dlambda_zero_for_constant_envelope():
    p = DriveProfile(0.1, ConstantEnvelope(), CosineModulation(1.0))
    for t, beta in ((0.0, 1.0), (2.0, 7.0)):
        assert dlambda_dbeta(p, t, beta) == 0.0


def test_dlambda_symbolic_value():
    p = gaussian_profile(beta0=5.0, s_beta=3.0)
    expected = 0.1 * (-3.0 / 9.0) * np.exp(-0.5)
    assert abs(dlambda_dbeta(p, 0.0, 8.0) - expected) < 1e-16


def test_dlambda_matches_finite_difference():
    p = gaussian_profile(beta0=4.0, s_beta=2.0, omega_d=1.3, phi=0.4)
    h = 1e-6
    for t in np.linspace(0, 12, 10):
        for beta in np.linspace(0.2, 9.0, 10):
            fd = (lambda_at(p, float(t), beta + h) - lambda_at(p, float(t), beta - h)) / (2 * h)
            assert abs(dlambda_dbeta(p, float(t), beta) - fd) < 1e-8


def test_cosine_periodicity():
    p = gaussian_profile(omega_d=0.7, phi=1.1)
    period = 2 * np.pi / 0.7
    for t in (0.3, 2.0, 9.9):
        assert abs(lambda_at(p, t, 4.0) - lambda_at(p, t + period, 4.0)) < 1e-12


def test_gaussian_envelope_bounds_and_peak():
    env = GaussianEnvelope(beta0=6.0, s_beta=2.0)
    betas = np.linspace(0, 20, 201)
    vals = env.value(betas)
    assert np.all(vals > 0) and np.all(vals <= 1.0)
    assert vals.argmax() == np.abs(betas - 6.0).argmin()
    # far tail underflows gracefully to zero instead of raising
    assert env.value(1e6) == 0.0


def test_gaussian_envelope_rejects_bad_width():
    with pytest.raises(ValueError):
        GaussianEnvelope(beta0=1.0, s_beta=0.0)


def test_tabulated_envelope_interpolates_and_guards():
    env = TabulatedEnvelope(betas=(0.0, 1.0, 2.0, 4.0), values=(0.1, 0.9, 0.4, 0.2))
    assert abs(env.value(1.0) - 0.9) < 1e-15
    # exact derivative of the Hermite cubic: on [0, 1] the end slope is 1.45 and
    # the slope at the maximum is 0, so G'(s) = 1.45 - 1.0 s - 0.45 s^2; the knot
    # at 2 takes the weighted harmonic mean 9 / (5 / -0.5 + 4 / -0.1) of its secants
    assert abs(env.derivative(0.5) - 0.8375) < 1e-15
    assert abs(env.derivative(2.0) - (-0.18)) < 1e-15
    with pytest.raises(ExtrapolationError):
        env.value(5.0)
    with pytest.raises(ValueError, match="strictly increasing"):
        TabulatedEnvelope(betas=(0.0, 0.0, 1.0), values=(1.0, 2.0, 3.0))


def test_tabulated_envelope_derivative_close_to_smooth_reference():
    xs = np.linspace(0.0, 10.0, 101)
    env = TabulatedEnvelope(betas=tuple(xs), values=tuple(np.exp(-0.1 * xs)))
    d = env.derivative(5.0)
    assert abs(d - (-0.1 * np.exp(-0.5))) < 1e-4
    # endpoints are inside the table: finite, no extrapolation error
    assert np.isfinite(env.derivative(0.0))
    assert np.isfinite(env.derivative(10.0))


def _pchip_tables(rng):
    """Monotone, non-monotone and flat-run tables of 2 to 12 points."""
    for n in (2, 3, 4, 7, 12):
        for _ in range(8):
            x = np.cumsum(rng.uniform(0.05, 2.0, n)) - rng.uniform(0.0, 5.0)
            yield x, rng.normal(size=n)
            yield x, np.cumsum(rng.uniform(0.0, 1.0, n)) * rng.choice([-1.0, 1.0])
            flat = rng.normal(size=n)
            k = rng.integers(0, n - 1)
            flat[k + 1] = flat[k]
            yield x, flat


def test_tabulated_profiles_match_scipy_pchip():
    from scipy.interpolate import PchipInterpolator

    rng = np.random.default_rng(20260810)
    for x, y in _pchip_tables(rng):
        ref = PchipInterpolator(x, y, extrapolate=False)
        env = TabulatedEnvelope(betas=tuple(x), values=tuple(y))
        mod = TabulatedModulation(times=tuple(x), values=tuple(y))
        at = np.concatenate([rng.uniform(x[0], x[-1], 40), x, [x[0], x[-1]]])
        y_scale = np.abs(y).max()
        assert np.abs(env.value(at) - ref(at)).max() <= 1e-14 * y_scale
        assert np.abs(mod.value(at) - ref(at)).max() <= 1e-14 * y_scale
        d_ref = ref.derivative()(at)
        assert np.abs(env.derivative(at) - d_ref).max() <= 1e-12 * np.abs(d_ref).max()
        # scalar arguments take the same path
        assert abs(env.derivative(x[-1]) - d_ref[-1]) <= 1e-12 * np.abs(d_ref).max()


def test_tabulated_modulation_guards_range():
    mod = TabulatedModulation(times=(0.0, 1.0, 2.0), values=(1.0, 0.5, 0.0))
    p = DriveProfile(0.1, ConstantEnvelope(), mod)
    assert abs(lambda_at(p, 1.0, 3.0) - 0.05) < 1e-15
    with pytest.raises(ExtrapolationError):
        lambda_at(p, 2.5, 3.0)


def test_constant_modulation():
    p = DriveProfile(0.2, GaussianEnvelope(5.0, 3.0), ConstantModulation())
    assert abs(lambda_at(p, 123.0, 5.0) - 0.2) < 1e-15


def test_sample_envelope_center_window_and_determinism():
    draws = {sample_envelope_center(5.0, 0.25, seed=7) for _ in range(3)}
    assert len(draws) == 1
    val = draws.pop()
    assert 3.0 <= val <= 7.0  # half width 1/sqrt(0.25) = 2
    low = sample_envelope_center(0.5, 0.25, seed=11)
    assert 0.0 <= low <= 2.5  # window clipped at beta = 0


def test_records_of_different_kinds_differ():
    # as plain tuples all of these compared equal
    assert CosineModulation(1.0, 2.0) != GaussianEnvelope(1.0, 2.0)
    assert not CosineModulation(1.0, 2.0) == GaussianEnvelope(1.0, 2.0)
    assert ConstantEnvelope() != ConstantModulation()
    assert ConstantEnvelope() != ()
    assert TabulatedEnvelope((0.0, 1.0), (1.0, 2.0)) != TabulatedModulation((0.0, 1.0), (1.0, 2.0))
    assert (DriveProfile(0.1, GaussianEnvelope(5.0, 3.0), ConstantEnvelope())
            != DriveProfile(0.1, CosineModulation(5.0, 3.0), ConstantModulation()))
    assert len({GaussianEnvelope(1.0, 2.0), CosineModulation(1.0, 2.0)}) == 2
    # the grid and the scan records are no plain tuples either
    assert TimeGrid(1.0, 2) != (1.0, 2) and not TimeGrid(1.0, 2) == (1.0, 2)
    assert ReduceSpec("value_at_t", 1.0) != ("value_at_t", 1.0, None)
    assert len({TimeGrid(1.0, 2), (1.0, 2)}) == 2
    assert len({ReduceSpec("value_at_t", 1.0), ("value_at_t", 1.0, None)}) == 2
    spec = ScanSpec("frequency", (0.5, 1.0), make_gibbs(0.5 * SIGMA_Z, 5.0), SIGMA_X,
                    gaussian_profile(), ReduceSpec("value_at_t", 1.0))
    assert spec != tuple(spec) and not spec == tuple(spec)


def test_records_of_one_kind_compare_and_hash_by_value():
    for a, b in ((GaussianEnvelope(1.0, 2.0), GaussianEnvelope(1.0, 2.0)),
                 (ConstantEnvelope(), ConstantEnvelope()),
                 (ConstantModulation(), ConstantModulation()),
                 (CosineModulation(1.0), CosineModulation(1.0, 0.0)),
                 (TabulatedEnvelope([0, 1], [1, 2]), TabulatedEnvelope((0.0, 1.0), (1.0, 2.0))),
                 (TabulatedModulation([0, 1], [1, 2]), TabulatedModulation((0.0, 1.0), (1.0, 2.0))),
                 (gaussian_profile(), gaussian_profile()._replace()),
                 (TimeGrid(1.0, 2), TimeGrid(t_end=1.0, n_steps=2)),
                 (ReduceSpec("value_at_t", 1.0), ReduceSpec(t=1.0)),
                 (ReduceSpec("max_over_t", window=(0.0, 1.0)),
                  ReduceSpec("max_over_t", None, (0.0, 1.0)))):
        assert a == b and not a != b and hash(a) == hash(b) and len({a, b}) == 1
    # a scan record holds arrays, so it equals only a record with the same ones
    spec = ScanSpec("frequency", (0.5, 1.0), make_gibbs(0.5 * SIGMA_Z, 5.0), SIGMA_X,
                    gaussian_profile(), ReduceSpec("value_at_t", 1.0))
    assert spec == spec and not spec != spec
    assert spec == tuple.__new__(ScanSpec, spec)
    assert gaussian_profile() != gaussian_profile(phi=0.5)
    assert GaussianEnvelope(1.0, 2.0) != GaussianEnvelope(1.0, 3.0)
