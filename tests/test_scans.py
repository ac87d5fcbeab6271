import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from drivetherm import engine, scans
from drivetherm.drive import (ConstantEnvelope, CosineModulation, DriveProfile,
                              GaussianEnvelope, TabulatedEnvelope, TabulatedModulation)
from drivetherm.engine import qfi_driven, qfi_time_series
from drivetherm.exceptions import (DriveThermError, ExtrapolationError, FullRankViolation,
                                   StepSizeTooCoarse)
from drivetherm.operators import SIGMA_X, SIGMA_Z
from drivetherm.propagation import EvolutionTrace, TimeGrid, default_grid, propagate
from drivetherm.scans import (OptimizeResult, ReduceSpec, ScanSpec, _best_node,
                              optimize_drive, run_scan)
from drivetherm.thermal import make_gibbs

from conftest import random_hermitian

TWO_PI = 2 * np.pi


def base_drive(lambda0=0.1, beta0=5.0, s_beta=3.0, omega_d=1.0):
    return DriveProfile(lambda0, GaussianEnvelope(beta0, s_beta),
                        CosineModulation(omega_d, 0.0))


def qubit(beta=5.0, **kwargs):
    return make_gibbs(0.5 * SIGMA_Z, beta, **kwargs)


def freq_spec(values, t_eval=6 * TWO_PI, lambda0=0.1):
    return ScanSpec(
        axis="frequency",
        values=values,
        model=qubit(),
        v=SIGMA_X,
        drive=base_drive(lambda0=lambda0, beta0=10.0),
        reduce=ReduceSpec(mode="value_at_t", t=t_eval),
    )


def temp_spec(values, drive, t_eval=12.0):
    return ScanSpec(
        axis="temperature",
        values=values,
        model=qubit(),
        v=SIGMA_X,
        drive=drive,
        reduce=ReduceSpec(mode="value_at_t", t=t_eval),
    )


def test_spec_validation():
    with pytest.raises(ValueError, match="nonempty"):
        freq_spec(())
    with pytest.raises(ValueError, match="strictly increasing"):
        freq_spec((1.0, 1.0))
    with pytest.raises(ValueError, match="axis"):
        ScanSpec(axis="volume", values=(1.0,), model=qubit(), v=SIGMA_X,
                 drive=base_drive(),
                 reduce=ReduceSpec(mode="value_at_t", t=1.0))
    with pytest.raises(ValueError, match="cosine"):
        ScanSpec(axis="frequency", values=(1.0,), model=qubit(), v=SIGMA_X,
                 drive=DriveProfile(0.1, GaussianEnvelope(5, 3), ConstantEnvelope()),
                 reduce=ReduceSpec(mode="value_at_t", t=1.0))
    # the rules on a scan's values hold through _replace too, before any point runs
    tabulated = DriveProfile(0.1, TabulatedEnvelope((1.0, 8.0), (0.2, 1.0)),
                             CosineModulation(1.0, 0.0))
    time_spec = ScanSpec("time", (0.5, 1.0), qubit(), SIGMA_X, base_drive(),
                         ReduceSpec("value_at_t", 1.0))
    cases = [(freq_spec((0.5, 1.0)), (-0.5, 1.0), ValueError, "driving frequencies must be >= 0"),
             (temp_spec((0.5, 1.0), base_drive()), (-0.5, 1.0), ValueError,
              "inverse temperatures must be >= 0"),
             (time_spec, (-0.5, 1.0), ValueError, "^times must be >= 0"),
             # beta* = 5 passes a floor of 1e-3, the last beta of 10 does not
             (temp_spec((1.0, 5.0), base_drive())._replace(model=qubit(rank_floor=1e-3)),
              (1.0, 10.0), FullRankViolation, "rank floor"),
             (temp_spec((2.0, 8.0), tabulated), (2.0, 9.0), ValueError,
              r"leaves the tabulated envelope range \[1.0, 8.0\]"),
             (temp_spec((2.0, 8.0), tabulated), (0.5, 2.0), ValueError,
              "leaves the tabulated envelope range")]
    for spec, values, error, message in cases:
        with pytest.raises(error, match=message):
            spec._replace(values=values)
        with pytest.raises(error, match=message):
            ScanSpec(spec.axis, values, *spec[2:])


@pytest.fixture
def records(monkeypatch):
    """The arguments of every ``scans._record`` call, which still runs."""
    calls, record = [], scans._record
    monkeypatch.setattr(scans, "_record", lambda *a, **k: calls.append(a) or record(*a, **k))
    return calls


def test_times_past_a_tabulated_temporal_table_are_rejected_up_front(records):
    # the table ends at t = 5: a time scan's last value, reduce.t and the
    # window end each past it fail as the spec is built, before any point runs
    drive = DriveProfile(0.1, GaussianEnvelope(5.0, 3.0),
                         TabulatedModulation((0.0, 2.0, 5.0), (1.0, 0.5, 0.2)))
    time_spec = ScanSpec("time", (1.0, 3.0, 5.0), qubit(), SIGMA_X, drive,
                         ReduceSpec("value_at_t", 1.0))
    cases = [(time_spec, {"values": (1.0, 3.0, 10.0)}, "scan time=10.0"),
             (temp_spec((1.0, 2.0), drive, t_eval=5.0), {"reduce": ReduceSpec("value_at_t", 6.0)},
              "scan.reduce.t=6.0"),
             (temp_spec((1.0, 2.0), drive, t_eval=5.0),
              {"reduce": ReduceSpec("max_over_t", window=(1.0, 6.0))},
              "scan.reduce.window end=6.0")]
    for spec, change, name in cases:
        message = f"^{name} exceeds the tabulated temporal range \\(max t = 5.0\\)$"
        with pytest.raises(ExtrapolationError, match=message):
            run_scan(spec._replace(**change))
        with pytest.raises(ExtrapolationError, match=message):
            run_scan(ScanSpec(*spec._replace(**change)))
    assert records == []
    assert len(run_scan(time_spec).points) == 3 and len(records) == 3  # up to t = 5 runs


def test_reduce_spec_validation():
    with pytest.raises(ValueError):
        ReduceSpec(mode="value_at_t")
    with pytest.raises(ValueError):
        ReduceSpec(mode="max_over_t", window=(3.0, 1.0))
    with pytest.raises(ValueError):
        ReduceSpec(mode="nonsense", t=1.0)


@pytest.mark.parametrize("build, message", [
    (lambda: ScanSpec("time", (np.inf,), qubit(), SIGMA_X, base_drive(),
                      ReduceSpec("value_at_t", 1.0)), "scan grid must be finite"),
    (lambda: freq_spec((1.0, np.inf)), "scan grid must be finite"),
    (lambda: ReduceSpec("max_over_t", window=(1.0, np.inf)), "window .* with finite"),
    (lambda: ReduceSpec("value_at_t", np.nan), "needs a finite time"),
    (lambda: optimize_drive(qubit(), SIGMA_X, np.inf, {"omega_d": (0.5, 1.5)},
                            base_drive=base_drive()), "t_eval must be finite"),
    (lambda: optimize_drive(qubit(), SIGMA_X, 1.0, {"omega_d": (0.5, np.inf)},
                            base_drive=base_drive()), "bounds for 'omega_d' must be finite"),
    (lambda: optimize_drive(qubit(), SIGMA_X, 1.0, {"beta0": (-np.inf, 2.0)},
                            base_drive=base_drive()), "bounds for 'beta0' must be finite"),
    (lambda: optimize_drive(qubit(), SIGMA_X, 1.0, {"omega_d": (np.nan, 2.0)},
                            base_drive=base_drive()), "bounds for 'omega_d' must be finite"),
], ids=["time-inf", "frequency-inf", "window-end-inf", "t-nan", "t_eval-inf",
        "bound-hi-inf", "bound-lo-minus-inf", "bound-lo-nan"])
def test_non_finite_times_and_values_are_rejected_up_front(monkeypatch, build, message):
    monkeypatch.setattr(scans, "_record", None)  # rejected before any point runs
    with pytest.raises(ValueError, match=message):
        build()


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
        model=qubit(), v=SIGMA_X,
        drive=base_drive(beta0=10.0),
        reduce=ReduceSpec(mode="max_over_t", window=(0.0, TWO_PI)),
    )
    best = run_scan(spec).points[0]
    fixed = run_scan(freq_spec((1.0,), t_eval=TWO_PI)).points[0]
    assert best.f_total >= fixed.f_total - 1e-15


def test_max_over_t_window_ties_pick_earliest_node():
    # M[k] = c_k sigma_x on a thermal qubit gives I_t proportional to c_k^2;
    # a trace held from node `first` on a grid of step 0.5 is what _record
    # holds for a window from just below 0.5 * first to the grid's end
    def held_from(first, c):
        rows = len(c)
        return EvolutionTrace(grid=TimeGrid(0.5 * (first + rows - 1), first + rows - 1),
                              model=qubit(), weights=np.ones(rows),
                              propagators=np.broadcast_to(np.eye(2, dtype=complex), (rows, 2, 2)),
                              heisenberg_v=np.broadcast_to(SIGMA_X, (rows, 2, 2)),
                              M=np.sqrt(c)[:, None, None] * SIGMA_X, unitarity_drift=0.0,
                              first=first)

    assert _best_node(held_from(1, [1.0, 3, 3, 2, 3, 0, 0])) == 2
    assert _best_node(held_from(3, [5.0, 1, 5])) == 3      # a tie at the first held node
    assert _best_node(held_from(4, [2.0])) == 4             # one held node


def qubit_window_spec():
    return ScanSpec(axis="frequency", values=(0.8, 1.0, 1.3), model=qubit(),
                    v=SIGMA_X, drive=base_drive(beta0=10.0),
                    reduce=ReduceSpec(mode="max_over_t", window=(TWO_PI, 3 * TWO_PI)))


def probe_window_spec():
    rng = np.random.default_rng(7)
    return ScanSpec(axis="temperature", values=(0.5, 1.0, 1.5),
                    model=make_gibbs(random_hermitian(rng, 6), 1.0),
                    v=random_hermitian(rng, 6),
                    drive=base_drive(lambda0=0.2, beta0=1.0, s_beta=1.0),
                    reduce=ReduceSpec(mode="max_over_t", window=(1.0, 3.0)))


@pytest.mark.parametrize("make_spec", [qubit_window_spec, probe_window_spec],
                         ids=["qubit", "d6"])
def test_max_over_t_decomposes_one_node(monkeypatch, make_spec):
    # each row against an independent first = 0 propagation of the same point
    spec = make_spec()
    calls, groups, stack_sizes = [], [], []
    propagate, decompose = scans.propagate, scans._decompose
    spectral = engine.spectral_qfi_batch

    def counted_propagate(*args, **kwargs):
        calls.append((args, kwargs, propagate(*args, **kwargs)))
        return calls[-1][-1]

    def recorded_decompose(model, u, m, t):
        groups.append((u, m, t))
        return decompose(model, u, m, t)

    def counted_spectral(rho, drho):
        stack_sizes.append(len(rho))
        return spectral(rho, drho)

    monkeypatch.setattr(scans, "propagate", counted_propagate)
    monkeypatch.setattr(scans, "_decompose", recorded_decompose)
    monkeypatch.setattr(engine, "spectral_qfi_batch", counted_spectral)
    points = run_scan(spec).points
    monkeypatch.undo()

    assert len(calls) == len(spec.values)           # one propagation per point
    # one spectral call per Gibbs model: the frequency scan shares one, the
    # temperature scan builds one per point; one row per point
    models = 1 if spec.axis == "frequency" else len(spec.values)
    assert stack_sizes == [len(spec.values) // models] * models == [len(g[0]) for g in groups]
    rows = zip(*(np.concatenate(column) for column in zip(*groups)))
    t0, t1 = spec.reduce.window
    for point, (args, kwargs, trace), (u, m, t) in zip(points, calls, rows):
        full = scans.propagate(*args, drift_tol=kwargs["drift_tol"])
        series = qfi_time_series(full)
        inside = np.flatnonzero((series.t >= t0) & (series.t <= t1))
        k = int(inside[np.argmax(series.f_total[inside])])
        assert t == series.t[k]                     # the best node is picked
        assert trace.first == inside[0] > 0         # held from the window's first node
        assert len(trace.M) == len(trace.propagators) == trace.grid.n_nodes - inside[0]
        assert np.abs(m - full.M[k]).max() <= 1e-12 * np.abs(full.M).max()
        phase = np.trace(full.propagators[k].conj().T @ u) / len(u)
        assert abs(abs(phase) - 1.0) <= 1e-12
        assert np.abs(u - phase * full.propagators[k]).max() <= 1e-12
        for name in ("f_eq", "i_t", "f_total", "f_spectral"):
            ref = getattr(series, name)[k]
            assert abs(getattr(point, name) - ref) <= 1e-12 * ref, name


@settings(max_examples=40)
@given(d=st.integers(2, 6), axis=st.sampled_from(["frequency", "temperature", "time"]),
       seed=st.integers(0, 2**32 - 1))
def test_grouped_rows_equal_per_point_qfi_driven(d, axis, seed):
    # the batched finish and one decomposition per Gibbs model over the scan's
    # stacked rows, bit for bit the per-point one-node propagation
    rng = np.random.default_rng(seed)
    model = make_gibbs(random_hermitian(rng, d), 0.8)
    v = random_hermitian(rng, d)
    values = {"frequency": (0.5, 0.9, 1.7), "temperature": (0.5, 0.9, 1.7),
              "time": (0.0, 0.7, 1.5)}[axis]
    spec = ScanSpec(axis=axis, values=values, model=model, v=v,
                    drive=base_drive(lambda0=0.3, beta0=1.5, s_beta=1.0, omega_d=1.1),
                    reduce=ReduceSpec(mode="value_at_t", t=1.5))
    for x, point in zip(values, run_scan(spec).points):
        at, drive, t_end = model, spec.drive, 1.5
        if axis == "frequency":
            drive = drive._replace(temporal=CosineModulation(x, 0.0))
        elif axis == "temperature":
            at = make_gibbs(model.h0, x, rank_floor=model.rank_floor)
        else:
            t_end = x
        grid = default_grid(t_end, model.spread, drive.omega_d)
        row = qfi_driven(propagate(at, v, drive, grid, first=grid.n_steps))
        assert (point.f_eq, point.i_t, point.f_total, point.f_spectral) \
            == (row.f_eq, row.i_t, row.f_total, row.f_spectral)


@pytest.mark.parametrize("fail_at", [0.5, 2.0])
def test_scan_reports_its_first_failing_point(monkeypatch, fail_at):
    # a failure at one point as it is recorded (its steps) and as it is
    # finished (the drift guard), and a dual-path failure at every point
    spec = freq_spec((0.5, 1.0, 2.0), t_eval=TWO_PI)
    reduce_to_node = scans.reduce_to_node

    def failing_record(model, v, drive, grid):
        if drive.omega_d == fail_at:
            raise StepSizeTooCoarse("injected propagation failure")
        return reduce_to_node(model, v, drive, grid)

    def failing_finish(model, v, drive, grid):
        residual = reduce_to_node(model, v, drive, grid)
        if drive.omega_d == fail_at:  # U grows by 2, so its defect is 3 sqrt(2)
            residual.u[0] *= 2.0
        return residual

    steps = default_grid(TWO_PI, spec.model.spread, fail_at).n_steps
    for failing, message in ((failing_record, "injected"),
                             (failing_finish, "unitarity drift 4.243e\\+00 exceeds")):
        monkeypatch.setattr(scans, "reduce_to_node", failing)
        with pytest.raises(StepSizeTooCoarse, match=message) as raised:
            run_scan(spec)                          # the points before it pass
        if failing is failing_finish:
            assert raised.value.suggested_n_steps == 2 * steps
        with monkeypatch.context() as every_point_fails:
            every_point_fails.setattr(engine, "DUAL_PATH_TOL", -1.0)
            expected = message if fail_at == 0.5 else \
                "dual-path mismatch .* at frequency scan point 0.5 "
            with pytest.raises(DriveThermError, match=expected):
                run_scan(spec)


def test_finish_failure_precedes_a_later_record_failure(monkeypatch):
    # point 1.0 fails its drift guard as it is finished, after point 2.0
    # failed as it was recorded: the first in axis order is raised
    reduce_to_node = scans.reduce_to_node

    def failing(model, v, drive, grid):
        if drive.omega_d == 2.0:
            raise StepSizeTooCoarse("injected propagation failure")
        residual = reduce_to_node(model, v, drive, grid)
        if drive.omega_d == 1.0:
            residual.u[0] *= 2.0
        return residual

    monkeypatch.setattr(scans, "reduce_to_node", failing)
    with pytest.raises(StepSizeTooCoarse, match="unitarity drift"):
        run_scan(freq_spec((0.5, 1.0, 2.0), t_eval=TWO_PI))


def test_value_at_t_point_keeps_the_drift_guard():
    # the point holds one node: its drift is the defect of the one reduced product
    spec = freq_spec((1.0,), t_eval=TWO_PI)
    grid = default_grid(TWO_PI, spec.model.spread, 1.0)
    defect = propagate(spec.model, spec.v, spec.drive, grid, first=grid.n_steps).unitarity_drift
    assert defect > 0.0
    assert run_scan(spec._replace(drift_tol=defect)).points[0].f_total > 0.0
    with pytest.raises(StepSizeTooCoarse, match="unitarity drift"):
        run_scan(spec._replace(drift_tol=0.5 * defect))


def test_zero_time_point_keeps_m_zero_where_dlambda_dbeta_is_not_finite():
    # dlambda/dbeta overflows to inf: a t = 0 point holds no step, so its M
    # stays 0 as in propagate, and a later point still fails its own steps
    drive = DriveProfile(1e308, GaussianEnvelope(5.1, 0.1), CosineModulation(1.0))
    spec = ScanSpec("time", (0.0,), qubit(), SIGMA_X, drive, ReduceSpec("value_at_t", 1.0))
    point = run_scan(spec).points[0]
    assert point.i_t == 0.0 and point.f_total == point.f_eq
    with pytest.raises(StepSizeTooCoarse, match="squarings"):
        run_scan(spec._replace(values=(0.0, 1.0)))


def test_non_finite_v_at_a_scan_point_is_a_drive_therm_error():
    # also at t = 0, where the point takes no step
    v = SIGMA_X.copy()
    v[0, 1] = v[1, 0] = np.nan
    spec = freq_spec((1.0,), t_eval=TWO_PI)._replace(v=v)
    for spec in (spec, spec._replace(axis="time", values=(0.0,))):
        with pytest.raises(DriveThermError, match="not finite"):
            run_scan(spec)


# ------------------------------------------------------------- optimizer

def test_optimizer_collapsed_bounds():
    result = optimize_drive(
        qubit(), SIGMA_X, t_eval=TWO_PI,
        bounds={"omega_d": (1.3, 1.3)},
        base_drive=base_drive(beta0=10.0),
    )
    assert result.params["omega_d"] == 1.3
    assert not result.budget_exhausted


def test_optimizer_finds_resonance_and_matches_dense_scan():
    t_eval = 6 * TWO_PI
    result = optimize_drive(
        qubit(), SIGMA_X, t_eval=t_eval,
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
        qubit(), SIGMA_X, t_eval=2 * TWO_PI,
        bounds={"beta0": (5.0, 11.0)},
        base_drive=base_drive(lambda0=0.01, beta0=8.0, s_beta=s_beta),
        coarse_points=25,
    )
    dense_vals = np.linspace(5.0, 11.0, 121)
    best_dense = max(
        dense_vals,
        key=lambda b0: run_scan(
            ScanSpec(axis="temperature", values=(5.0,), model=qubit(), v=SIGMA_X,
                     drive=base_drive(lambda0=0.01, beta0=float(b0), s_beta=s_beta),
                     reduce=ReduceSpec(mode="value_at_t", t=2 * TWO_PI))).points[0].f_total,
    )
    assert abs(result.params["beta0"] - best_dense) <= 0.1
    assert abs(abs(result.params["beta0"] - 5.0) - s_beta) <= 0.45


def test_optimizer_budget_flag():
    result = optimize_drive(
        qubit(), SIGMA_X, t_eval=TWO_PI,
        bounds={"omega_d": (0.5, 2.0)},
        base_drive=base_drive(beta0=10.0),
        max_evals=5,
    )
    assert result.budget_exhausted
    assert isinstance(result, OptimizeResult)
    assert result.value >= max(v for _, v in result.trail) - 1e-15


def test_optimizer_honours_rank_floor():
    # at beta = 44 the qubit's excited population is 7.8e-20, below the
    # default floor of 1e-18; the optimizer runs the model it is given
    with pytest.raises(FullRankViolation, match="rank floor"):
        qubit(44.0)
    result = optimize_drive(qubit(44.0, rank_floor=1e-30), SIGMA_X, 6.0,
                            {"omega_d": (0.5, 1.5)}, base_drive=base_drive(beta0=40.0),
                            coarse_points=5, passes=1, golden_iters=4)
    assert 0.5 <= result.params["omega_d"] <= 1.5
    assert np.isfinite(result.value) and result.value > 0.0


@pytest.mark.parametrize("bounds, message", [
    ({"s_beta": (-1.0, 2.0)}, "s_beta must be > 0, got -1.0"),
    ({"omega_d": (-0.5, 1.5), "beta0": (1.0, 9.0)}, "omega_d must be >= 0, got -0.5"),
], ids=["s_beta", "omega_d"])
def test_optimizer_checks_its_whole_bounds_box_first(records, bounds, message):
    # the start point lies inside the drive's rules; a corner of the box does not
    with pytest.raises(ValueError, match=message):
        optimize_drive(qubit(), SIGMA_X, 1.0, bounds, base_drive=base_drive())
    assert records == []


def test_optimizer_rejects_unresolved_point():
    # beta = 38 passes the default floor, but F_total ~ 3e-17 lies below the
    # spectral route's cutoff: the first point's mismatch is 3.1e13
    with pytest.raises(DriveThermError, match="dual-path mismatch .* at optimizer point "
                                              "omega_d=1, beta0=10"):
        optimize_drive(qubit(38.0), SIGMA_X, 10 * TWO_PI, {"omega_d": (0.5, 2.0)},
                       base_drive=base_drive(beta0=10.0))


def test_optimizer_resonance_seeding_weak_field_cap():
    with pytest.raises(ValueError, match="weak field"):
        optimize_drive(
            qubit(), SIGMA_X, t_eval=TWO_PI,
            bounds={"omega_d": (0.5, 2.0)},
            base_drive=base_drive(lambda0=0.5, beta0=10.0),
            seed_resonance=True,
        )
    result = optimize_drive(
        qubit(), SIGMA_X, t_eval=4 * TWO_PI,
        bounds={"omega_d": (0.5, 2.0)},
        base_drive=base_drive(lambda0=0.05, beta0=10.0),
        coarse_points=9, passes=1, seed_resonance=True,
    )
    assert abs(result.params["omega_d"] - 1.0) <= 0.02
