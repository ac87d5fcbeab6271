from dataclasses import fields

import numpy as np
import pytest

from drivetherm.drive import (ConstantEnvelope, CosineModulation, DriveProfile,
                              GaussianEnvelope)
from drivetherm.engine import QfiResult
from drivetherm.operators import SIGMA_X, SIGMA_Z
from drivetherm.scans import (OptimizeResult, ReduceSpec, ScanSpec, _best_node,
                              frequency_scan, optimize_drive, run_scan,
                              temperature_scan)

TWO_PI = 2 * np.pi


def base_drive(lambda0=0.1, beta0=5.0, s_beta=3.0, omega_d=1.0):
    return DriveProfile(lambda0, GaussianEnvelope(beta0, s_beta),
                        CosineModulation(omega_d, 0.0))


def freq_spec(values, t_eval=6 * TWO_PI, lambda0=0.1):
    return ScanSpec(
        axis="frequency",
        values=values,
        h0=0.5 * SIGMA_Z,
        v=SIGMA_X,
        beta_star=5.0,
        drive=base_drive(lambda0=lambda0, beta0=10.0),
        reduce=ReduceSpec(mode="value_at_t", t=t_eval),
    )


def temp_spec(values, drive, t_eval=12.0):
    return ScanSpec(
        axis="temperature",
        values=values,
        h0=0.5 * SIGMA_Z,
        v=SIGMA_X,
        beta_star=5.0,
        drive=drive,
        reduce=ReduceSpec(mode="value_at_t", t=t_eval),
    )


def test_spec_validation():
    with pytest.raises(ValueError, match="nonempty"):
        freq_spec(())
    with pytest.raises(ValueError, match="strictly increasing"):
        freq_spec((1.0, 1.0))
    with pytest.raises(ValueError, match="axis"):
        ScanSpec(axis="volume", values=(1.0,), h0=0.5 * SIGMA_Z, v=SIGMA_X,
                 beta_star=5.0, drive=base_drive(),
                 reduce=ReduceSpec(mode="value_at_t", t=1.0))
    with pytest.raises(ValueError, match="cosine"):
        ScanSpec(axis="frequency", values=(1.0,), h0=0.5 * SIGMA_Z, v=SIGMA_X,
                 beta_star=5.0,
                 drive=DriveProfile(0.1, GaussianEnvelope(5, 3), ConstantEnvelope()),
                 reduce=ReduceSpec(mode="value_at_t", t=1.0))


def test_reduce_spec_validation():
    with pytest.raises(ValueError):
        ReduceSpec(mode="value_at_t")
    with pytest.raises(ValueError):
        ReduceSpec(mode="max_over_t", window=(3.0, 1.0))
    with pytest.raises(ValueError):
        ReduceSpec(mode="nonsense", t=1.0)


def test_frequency_scan_resonance_argmax():
    result = frequency_scan(freq_spec((0.5, 1.0, 2.0)))
    assert result.argmax == 1.0
    totals = {p.axis_value: p.f_total for p in result.points}
    assert totals[1.0] > totals[0.5] and totals[1.0] > totals[2.0]


def test_single_point_grid_is_argmax():
    result = frequency_scan(freq_spec((0.7,)))
    assert result.argmax == 0.7 and len(result.points) == 1


def test_zero_drive_ties_break_to_smallest():
    result = frequency_scan(freq_spec((0.5, 1.0, 2.0), lambda0=0.0, t_eval=TWO_PI))
    f = [p.f_total for p in result.points]
    assert max(f) - min(f) < 1e-12
    assert result.argmax == 0.5


def test_scan_determinism_bitwise():
    spec = freq_spec((0.8, 1.0, 1.2), t_eval=TWO_PI)
    a, b = run_scan(spec), run_scan(spec)
    assert repr(a.points) == repr(b.points)
    assert a.argmax == b.argmax


def test_parallel_matches_sequential():
    spec = freq_spec(tuple(np.linspace(0.6, 1.4, 9)), t_eval=TWO_PI)
    seq = run_scan(spec, parallelism=1)
    par = run_scan(spec, parallelism=4)
    assert repr(seq.points) == repr(par.points)
    assert seq.argmax == par.argmax


def test_wrong_axis_helpers_raise():
    with pytest.raises(ValueError):
        temperature_scan(freq_spec((1.0,)))
    with pytest.raises(ValueError):
        frequency_scan(temp_spec((1.0, 2.0), base_drive()))


def test_temperature_scan_constant_envelope_matches_baseline():
    drive = DriveProfile(0.1, ConstantEnvelope(), CosineModulation(1.0, 0.0))
    result = temperature_scan(temp_spec(tuple(np.linspace(0.5, 8.0, 16)), drive,
                                        t_eval=TWO_PI))
    for p in result.points:
        assert p.i_t == 0.0
        assert p.f_total == p.f_eq
        assert abs(p.f_spectral - p.f_eq) <= 1e-9


def lobe_maxima(points):
    i_vals = [p.i_t for p in points]
    return [points[k].axis_value
            for k in range(1, len(points) - 1)
            if i_vals[k] > i_vals[k - 1] and i_vals[k] > i_vals[k + 1]]


def test_temperature_scan_two_lobes_straddle_center():
    betas = tuple(np.linspace(0.5, 20.0, 79))  # step 0.25, hits 5.0 and 10.0
    result = temperature_scan(temp_spec(betas, base_drive(beta0=5.0), t_eval=12.0))
    peaks = lobe_maxima(result.points)
    assert len(peaks) == 2
    assert peaks[0] < 5.0 < peaks[1]
    at_center = next(p for p in result.points if p.axis_value == 5.0)
    peak_val = max(p.i_t for p in result.points)
    assert at_center.i_t <= 1e-12 * peak_val


def test_temperature_scan_lobes_follow_center():
    betas = tuple(np.linspace(0.5, 20.0, 79))
    r5 = temperature_scan(temp_spec(betas, base_drive(beta0=5.0)))
    r10 = temperature_scan(temp_spec(betas, base_drive(beta0=10.0)))
    p5, p10 = lobe_maxima(r5.points), lobe_maxima(r10.points)
    assert len(p5) == 2 and len(p10) == 2
    assert p10[0] > p5[0] and p10[1] > p5[1]


def test_max_over_t_reduction():
    spec = ScanSpec(
        axis="frequency",
        values=(1.0,),
        h0=0.5 * SIGMA_Z, v=SIGMA_X, beta_star=5.0,
        drive=base_drive(beta0=10.0),
        reduce=ReduceSpec(mode="max_over_t", window=(0.0, TWO_PI)),
    )
    best = run_scan(spec).points[0]
    fixed = run_scan(freq_spec((1.0,), t_eval=TWO_PI)).points[0]
    assert best.f_total >= fixed.f_total - 1e-15


def test_max_over_t_window_ties_pick_earliest_node():
    zeros = dict.fromkeys((f.name for f in fields(QfiResult)), np.zeros(9))
    series = QfiResult(**{**zeros, "t": np.linspace(0.0, 4.0, 9),
                          "f_total": np.array([9.0, 1, 3, 3, 2, 3, 0, 0, 9])})
    assert _best_node(series, (0.25, 3.5)) == 2      # nodes 0 and 8 lie outside
    assert _best_node(series, (0.0, 0.0)) == 0       # closed window ends
    with pytest.raises(ValueError, match="no grid nodes"):
        _best_node(series, (0.1, 0.4))


# ------------------------------------------------------------- optimizer

def test_optimizer_collapsed_bounds():
    result = optimize_drive(
        0.5 * SIGMA_Z, SIGMA_X, target_beta=5.0, t_eval=TWO_PI,
        bounds={"omega_d": (1.3, 1.3)},
        base_drive=base_drive(beta0=10.0),
    )
    assert result.params["omega_d"] == 1.3
    assert not result.budget_exhausted


def test_optimizer_finds_resonance_and_matches_dense_scan():
    t_eval = 6 * TWO_PI
    result = optimize_drive(
        0.5 * SIGMA_Z, SIGMA_X, target_beta=5.0, t_eval=t_eval,
        bounds={"omega_d": (0.5, 2.0)},
        base_drive=base_drive(beta0=10.0),
        coarse_points=33,
    )
    assert abs(result.params["omega_d"] - 1.0) <= 0.02
    dense = frequency_scan(freq_spec(tuple(np.linspace(0.5, 2.0, 301)), t_eval=t_eval))
    assert abs(result.params["omega_d"] - dense.argmax) <= (2.0 - 0.5) / 300 + 1e-12
    best_coarse = max(v for _, v in result.trail[:34])
    assert result.value >= best_coarse  # monotone refinement


def test_optimizer_places_envelope_center_one_width_away():
    # maximizing over beta0 at fixed s_beta puts a lobe peak on the target:
    # |beta0 - beta*| ~ s_beta
    s_beta = 2.0
    result = optimize_drive(
        0.5 * SIGMA_Z, SIGMA_X, target_beta=5.0, t_eval=2 * TWO_PI,
        bounds={"beta0": (5.0, 11.0)},
        base_drive=base_drive(lambda0=0.01, beta0=8.0, s_beta=s_beta),
        coarse_points=25,
    )
    dense_vals = np.linspace(5.0, 11.0, 121)
    from drivetherm.scans import _evaluate_point
    best_dense = max(
        dense_vals,
        key=lambda b0: _evaluate_point(
            ScanSpec(axis="temperature", values=(5.0,), h0=0.5 * SIGMA_Z,
                     v=SIGMA_X, beta_star=5.0,
                     drive=base_drive(lambda0=0.01, beta0=float(b0), s_beta=s_beta),
                     reduce=ReduceSpec(mode="value_at_t", t=2 * TWO_PI)),
            5.0).f_total,
    )
    assert abs(result.params["beta0"] - best_dense) <= 0.1
    assert abs(abs(result.params["beta0"] - 5.0) - s_beta) <= 0.45


def test_optimizer_budget_flag():
    result = optimize_drive(
        0.5 * SIGMA_Z, SIGMA_X, target_beta=5.0, t_eval=TWO_PI,
        bounds={"omega_d": (0.5, 2.0)},
        base_drive=base_drive(beta0=10.0),
        max_evals=5,
    )
    assert result.budget_exhausted
    assert isinstance(result, OptimizeResult)
    assert result.value >= max(v for _, v in result.trail) - 1e-15


def test_optimizer_resonance_seeding_weak_field_cap():
    with pytest.raises(ValueError, match="weak field"):
        optimize_drive(
            0.5 * SIGMA_Z, SIGMA_X, target_beta=5.0, t_eval=TWO_PI,
            bounds={"omega_d": (0.5, 2.0)},
            base_drive=base_drive(lambda0=0.5, beta0=10.0),
            seed_resonance=True,
        )
    result = optimize_drive(
        0.5 * SIGMA_Z, SIGMA_X, target_beta=5.0, t_eval=4 * TWO_PI,
        bounds={"omega_d": (0.5, 2.0)},
        base_drive=base_drive(lambda0=0.05, beta0=10.0),
        coarse_points=9, passes=1, seed_resonance=True,
    )
    assert abs(result.params["omega_d"] - 1.0) <= 0.02
