import numpy as np
import pytest

from drivetherm import engine, scans
from drivetherm.drive import (ConstantEnvelope, CosineModulation, DriveProfile,
                              GaussianEnvelope)
from drivetherm.engine import qfi_time_series
from drivetherm.exceptions import FullRankViolation
from drivetherm.operators import SIGMA_X, SIGMA_Z
from drivetherm.propagation import EvolutionTrace, TimeGrid
from drivetherm.scans import (OptimizeResult, ReduceSpec, ScanSpec, _best_node,
                              optimize_drive, run_scan)
from drivetherm.thermal import make_gibbs

from conftest import random_hermitian

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
    result = run_scan(freq_spec((0.5, 1.0, 2.0)))
    assert result.argmax == 1.0
    totals = {p.axis_value: p.f_total for p in result.points}
    assert totals[1.0] > totals[0.5] and totals[1.0] > totals[2.0]


def test_single_point_grid_is_argmax():
    result = run_scan(freq_spec((0.7,)))
    assert result.argmax == 0.7 and len(result.points) == 1


def test_zero_drive_ties_break_to_smallest():
    result = run_scan(freq_spec((0.5, 1.0, 2.0), lambda0=0.0, t_eval=TWO_PI))
    f = [p.f_total for p in result.points]
    assert max(f) - min(f) < 1e-12
    assert result.argmax == 0.5


def test_scan_determinism_bitwise():
    spec = freq_spec((0.8, 1.0, 1.2), t_eval=TWO_PI)
    a, b = run_scan(spec), run_scan(spec)
    assert repr(a.points) == repr(b.points)
    assert a.argmax == b.argmax


def test_temperature_scan_constant_envelope_matches_baseline():
    drive = DriveProfile(0.1, ConstantEnvelope(), CosineModulation(1.0, 0.0))
    result = run_scan(temp_spec(tuple(np.linspace(0.5, 8.0, 16)), drive,
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
    result = run_scan(temp_spec(betas, base_drive(beta0=5.0), t_eval=12.0))
    peaks = lobe_maxima(result.points)
    assert len(peaks) == 2
    assert peaks[0] < 5.0 < peaks[1]
    at_center = next(p for p in result.points if p.axis_value == 5.0)
    peak_val = max(p.i_t for p in result.points)
    assert at_center.i_t <= 1e-12 * peak_val


def test_temperature_scan_lobes_follow_center():
    betas = tuple(np.linspace(0.5, 20.0, 79))
    r5 = run_scan(temp_spec(betas, base_drive(beta0=5.0)))
    r10 = run_scan(temp_spec(betas, base_drive(beta0=10.0)))
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
    # M[k] = c_k sigma_x on a thermal qubit gives I_t proportional to c_k^2
    c = np.sqrt([9.0, 1, 3, 3, 2, 3, 0, 0, 9])
    identity = np.broadcast_to(np.eye(2, dtype=complex), (9, 2, 2))
    trace = EvolutionTrace(grid=TimeGrid(4.0, 8), model=make_gibbs(0.5 * SIGMA_Z, 5.0),
                           drive=base_drive(), propagators=identity,
                           heisenberg_v=np.broadcast_to(SIGMA_X, (9, 2, 2)),
                           M=c[:, None, None] * SIGMA_X, unitarity_drift=0.0)
    assert _best_node(trace, (0.25, 3.5)) == 2      # nodes 0 and 8 lie outside
    assert _best_node(trace, (0.0, 0.0)) == 0       # closed window ends
    with pytest.raises(ValueError, match="no grid nodes"):
        _best_node(trace, (0.1, 0.4))


def qubit_window_spec():
    return ScanSpec(axis="frequency", values=(0.8, 1.0, 1.3), h0=0.5 * SIGMA_Z,
                    v=SIGMA_X, beta_star=5.0, drive=base_drive(beta0=10.0),
                    reduce=ReduceSpec(mode="max_over_t", window=(TWO_PI, 3 * TWO_PI)))


def probe_window_spec():
    rng = np.random.default_rng(7)
    return ScanSpec(axis="temperature", values=(0.5, 1.0, 1.5),
                    h0=random_hermitian(rng, 6), v=random_hermitian(rng, 6),
                    beta_star=1.0, drive=base_drive(lambda0=0.2, beta0=1.0, s_beta=1.0),
                    reduce=ReduceSpec(mode="max_over_t", window=(1.0, 3.0)))


@pytest.mark.parametrize("make_spec", [qubit_window_spec, probe_window_spec],
                         ids=["qubit", "d6"])
def test_max_over_t_decomposes_one_node(monkeypatch, make_spec):
    spec = make_spec()
    traces, nodes, stack_sizes = [], [], []
    propagate, qfi_driven = scans.propagate, scans.qfi_driven
    spectral = engine.spectral_qfi_batch

    def counted_propagate(*args, **kwargs):
        traces.append(propagate(*args, **kwargs))
        return traces[-1]

    def recorded_qfi_driven(trace, at=None, **kwargs):
        nodes.append(at)
        return qfi_driven(trace, at, **kwargs)

    def counted_spectral(rho, drho):
        stack_sizes.append(len(rho))
        return spectral(rho, drho)

    monkeypatch.setattr(scans, "propagate", counted_propagate)
    monkeypatch.setattr(scans, "qfi_driven", recorded_qfi_driven)
    monkeypatch.setattr(engine, "spectral_qfi_batch", counted_spectral)
    points = run_scan(spec).points
    monkeypatch.undo()

    assert len(traces) == len(spec.values)          # one propagation per point
    assert stack_sizes == [1] * len(spec.values)    # spectral route at one node
    t0, t1 = spec.reduce.window
    for point, trace, node in zip(points, traces, nodes):
        series = qfi_time_series(trace)
        inside = np.flatnonzero((series.t >= t0) & (series.t <= t1))
        k = int(inside[np.argmax(series.f_total[inside])])
        assert node == k
        assert (point.f_eq, point.i_t, point.f_total) == (
            series.f_eq[k], series.i_t[k], series.f_total[k])
        assert abs(point.f_spectral - series.f_spectral[k]) <= 1e-12 * series.f_spectral[k]


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
    dense = run_scan(freq_spec(tuple(np.linspace(0.5, 2.0, 301)), t_eval=t_eval))
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


def test_optimizer_honours_rank_floor():
    # at beta = 44 the qubit's excited population is 7.8e-20, below the
    # default floor of 1e-18
    args = (0.5 * SIGMA_Z, SIGMA_X, 44.0, 6.0, {"omega_d": (0.5, 1.5)})
    kwargs = dict(base_drive=base_drive(beta0=40.0), coarse_points=5, passes=1,
                  golden_iters=4)
    with pytest.raises(FullRankViolation, match="rank floor"):
        optimize_drive(*args, **kwargs)
    result = optimize_drive(*args, rank_floor=1e-30, **kwargs)
    assert 0.5 <= result.params["omega_d"] <= 1.5
    assert np.isfinite(result.value) and result.value > 0.0


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
