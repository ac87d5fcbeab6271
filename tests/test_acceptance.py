"""Acceptance suite: one test per release criterion, each printing a
pass/fail line (run with ``pytest tests/test_acceptance.py -v -s``).

All tolerances are pinned here, not configurable.
"""

import time
from pathlib import Path

import numpy as np
import pytest

from drivetherm import (CosineModulation, DriveProfile, GaussianEnvelope,
                        SIGMA_X, SIGMA_Z, TimeGrid, build_current_trace,
                        default_n_steps, make_gibbs, propagate,
                        qfi_time_series)
from drivetherm.config import load_run_config
from drivetherm.drive import ConstantEnvelope
from drivetherm.engine import increment_series
from drivetherm.propagation import drho_dbeta_analytic
from drivetherm.scans import ReduceSpec, ScanSpec, optimize_drive, run_scan
from drivetherm.spin import (detuned_increment, magnetization,
                             qubit_equilibrium_qfi, resonant_increment)
from drivetherm.thermal import equilibrium_qfi

from oracles import drho_dbeta_fd

TWO_PI = 2.0 * np.pi
CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


def report(num, name, ok, detail):
    print(f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'} {name}: {detail}")
    assert ok, f"criterion {num} ({name}): {detail}"


def spread_of(h0):
    return float(np.ptp(np.linalg.eigvalsh(h0)))


@pytest.fixture(scope="module")
def randomized_suite():
    """200 random driven-probe runs at default resolution (d in 2..4)."""
    rng = np.random.default_rng(77001)
    stats = []
    started = time.monotonic()
    for _ in range(200):
        d = int(rng.integers(2, 5))
        raw = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        h0 = 0.5 * (raw + raw.conj().T)
        h0 *= float(rng.uniform(0.8, 2.5)) / spread_of(h0)
        raw = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        v = 0.5 * (raw + raw.conj().T)
        v /= np.linalg.norm(v)
        beta = float(rng.uniform(0.2, 5.0))
        drive = DriveProfile(
            lambda0=float(rng.uniform(0.01, 0.2)),
            envelope=GaussianEnvelope(float(rng.uniform(0.5, 8.0)),
                                      float(rng.uniform(1.0, 4.0))),
            temporal=CosineModulation(float(rng.uniform(0.3, 2.5)),
                                      float(rng.uniform(0.0, TWO_PI))),
        )
        t_end = float(rng.uniform(2.0, 8.0))
        grid = TimeGrid(t_end, default_n_steps(t_end, spread_of(h0), drive.omega_d))
        series = qfi_time_series(propagate(make_gibbs(h0, beta), v, drive, grid))
        stats.append({
            "max_rel": series.rel_disagreement.max(),
            "min_i": series.i_t.min(),
            "min_gain": (series.f_total - series.f_eq).min(),
            "max_mixed": series.mixed_term_residual.max(),
        })
    return stats, time.monotonic() - started


def test_criterion_01_dual_path_equivalence(randomized_suite):
    stats, elapsed = randomized_suite
    started = time.monotonic()
    run = load_run_config(str(CONFIG_DIR / "fig2b.yaml"))
    series = qfi_time_series(propagate(run.model, run.v, run.drive, run.grid))
    elapsed += time.monotonic() - started
    worst = max(max(s["max_rel"] for s in stats), series.rel_disagreement.max())
    ok = worst <= 1e-6 and elapsed <= 60.0
    report(1, "dual-path equivalence", ok,
           f"max rel disagreement {worst:.2e} (<=1e-6) over 200 random runs "
           f"+ resonant recipe, {elapsed:.1f}s (<=60s)")


def test_criterion_02_equilibrium_baseline():
    worst = 0.0
    for beta in np.linspace(0.0, 20.0, 401):
        closed = qubit_equilibrium_qfi(1.0, float(beta))
        numeric = equilibrium_qfi(make_gibbs(0.5 * SIGMA_Z, float(beta)))
        worst = max(worst, abs(numeric - closed) / closed)
    report(2, "equilibrium baseline", worst <= 1e-12,
           f"max rel error {worst:.2e} (<=1e-12) over beta in [0, 20]")


def test_criterion_03_no_go_condition():
    model = make_gibbs(0.5 * SIGMA_Z, 5.0)
    t_end = 20 * TWO_PI
    grid = TimeGrid(t_end, default_n_steps(t_end, 1.0, 1.0))
    flat = DriveProfile(0.1, ConstantEnvelope(), CosineModulation(1.0, 0.0))
    series = qfi_time_series(propagate(model, SIGMA_X, flat, grid))
    worst_spec = np.abs(series.f_spectral - series.f_eq).max()

    gaussian = DriveProfile(0.1, GaussianEnvelope(10.0, 3.0),
                            CosineModulation(1.0, 0.0))
    ct = build_current_trace(propagate(model, SIGMA_Z, gaussian, grid))
    worst_commuting = float(increment_series(ct).max())

    ok = worst_spec <= 1e-9 and worst_commuting <= 1e-12
    report(3, "no-go condition", ok,
           f"constant envelope |F_spec - F_eq| {worst_spec:.2e} (<=1e-9); "
           f"commuting perturbation I_t {worst_commuting:.2e} (<=1e-12)")


def test_criterion_04_short_time_law():
    model = make_gibbs(0.5 * SIGMA_Z, 5.0)
    env = GaussianEnvelope(10.0, 3.0)
    drive = DriveProfile(0.1, env, CosineModulation(1.0, 0.0))
    t = 1e-3
    ct = build_current_trace(propagate(model, SIGMA_X, drive, TimeGrid(t, 64)))
    i_t = increment_series(ct)[-1]
    m = magnetization(1.0, 5.0)
    coef = 4.0 * m**2 * (0.1 * float(env.derivative(5.0))) ** 2
    err = abs(i_t / t**2 - coef) / coef
    report(4, "short-time quadratic law", err <= 1e-3,
           f"|I_t/t^2 - 4 m^2 (l0 G')^2| rel error {err:.2e} (<=1e-3)")


def weak_field_resonant_run():
    beta = 5.0
    env = GaussianEnvelope(11.0, 2.0)
    model = make_gibbs(0.5 * SIGMA_Z, beta)
    m = magnetization(1.0, beta)
    gprime = float(env.derivative(beta))
    return model, env, m, gprime


def test_criterion_05_resonant_long_time_law():
    model, env, m, gprime = weak_field_resonant_run()
    lam0 = 0.01
    drive = DriveProfile(lam0, env, CosineModulation(1.0, 0.0))
    grid = TimeGrid(100.0, default_n_steps(100.0, 1.0, 1.0))
    i_num = increment_series(build_current_trace(propagate(model, SIGMA_X, drive, grid)))
    nodes = grid.nodes

    window = nodes >= 50.0
    c_fit = float(np.sum(i_num[window] * nodes[window] ** 2)
                  / np.sum(nodes[window] ** 4))
    c_law = m**2 * (lam0 * gprime) ** 2
    fit_err = abs(c_fit / c_law - 1.0)

    positive = nodes > 0.0
    exact = np.array([resonant_increment(1.0, m, lam0, gprime, t).exact
                      for t in nodes[positive]])
    point_err = float(np.abs(i_num[positive] / exact - 1.0).max())

    ok = fit_err <= 0.05 and point_err <= 0.02
    report(5, "resonant long-time law", ok,
           f"t^2 fit within {fit_err:.2%} (<=5%); exact resonant form within "
           f"{point_err:.2%} pointwise (<=2%)")


def test_criterion_06_detuned_boundedness():
    model, env, m, gprime = weak_field_resonant_run()
    lam0 = 0.01
    c_resonant = m**2 * (lam0 * gprime) ** 2
    t_max = 50 * TWO_PI
    details = []
    ok = True
    for omega_d in (0.5, 2.0):
        drive = DriveProfile(lam0, env, CosineModulation(omega_d, 0.0))
        grid = TimeGrid(t_max, default_n_steps(t_max, 1.0, omega_d))
        i_num = increment_series(build_current_trace(
            propagate(model, SIGMA_X, drive, grid)))
        dense_t = np.linspace(0.0, t_max, 200001)
        sup_closed = float(detuned_increment(1.0, omega_d, m, lam0, gprime,
                                             dense_t).max())
        sup_err = abs(float(i_num.max()) / sup_closed - 1.0)
        tail = grid.nodes >= t_max / 2
        c_det = float(np.sum(i_num[tail] * grid.nodes[tail] ** 2)
                      / np.sum(grid.nodes[tail] ** 4))
        trend = c_det / c_resonant
        ok = ok and sup_err <= 0.03 and trend <= 1e-3
        details.append(f"omega_d={omega_d}: sup within {sup_err:.2%} (<=3%), "
                       f"t^2 trend ratio {trend:.1e} (<=1e-3)")
    report(6, "detuned boundedness", ok, "; ".join(details))


def test_criterion_07_positivity_and_gain(randomized_suite):
    stats, _ = randomized_suite
    min_i = min(s["min_i"] for s in stats)
    min_gain = min(s["min_gain"] for s in stats)
    ok = min_i >= -1e-10 and min_gain >= -1e-10
    report(7, "positivity and gain", ok,
           f"min I_t {min_i:.2e} and min (F_total - F_eq) {min_gain:.2e} "
           f"(both >= -1e-10) over 200 random runs")


def test_criterion_08_mixed_term_vanishing(randomized_suite):
    stats, _ = randomized_suite
    worst = max(s["max_mixed"] for s in stats)
    report(8, "mixed-term vanishing", worst <= 1e-10,
           f"max |Tr[pi0 L_eq dL]| {worst:.2e} (<=1e-10) over 200 random runs")


def lobe_positions(points):
    i_vals = [p.i_t for p in points]
    return [points[k].axis_value for k in range(1, len(points) - 1)
            if i_vals[k] > i_vals[k - 1] and i_vals[k] > i_vals[k + 1]]


def test_criterion_09_sensitivity_window_shift():
    betas = tuple(np.linspace(0.5, 20.0, 79))  # step 0.25, contains 5.0 and 10.0
    scans = {}
    for beta0 in (5.0, 10.0):
        spec = ScanSpec(
            axis="temperature", values=betas, model=make_gibbs(0.5 * SIGMA_Z, 5.0),
            v=SIGMA_X,
            drive=DriveProfile(0.1, GaussianEnvelope(beta0, 3.0),
                               CosineModulation(1.0, 0.0)),
            reduce=ReduceSpec(mode="value_at_t", t=12.0),
        )
        scans[beta0] = run_scan(spec).points

    ok = True
    details = []
    for beta0, points in scans.items():
        peaks = lobe_positions(points)
        peak_val = max(p.i_t for p in points)
        at_center = next(p.i_t for p in points if p.axis_value == beta0)
        good = (len(peaks) == 2 and peaks[0] < beta0 < peaks[1]
                and at_center <= 1e-12 * peak_val)
        ok = ok and good
        details.append(f"beta0={beta0:g}: lobes at {peaks[0]:.2f}/{peaks[1]:.2f}, "
                       f"center I_t/peak {at_center / peak_val:.1e}")
    p5, p10 = lobe_positions(scans[5.0]), lobe_positions(scans[10.0])
    shifted = p10[0] > p5[0] and p10[1] > p5[1]
    ok = ok and shifted
    details.append(f"lobes shift monotonically with beta0: {shifted}")
    report(9, "sensitivity-window shift", ok, "; ".join(details))


def test_criterion_10_convergence_order():
    model = make_gibbs(0.5 * SIGMA_Z, 5.0)
    drive = DriveProfile(0.1, GaussianEnvelope(10.0, 3.0),
                         CosineModulation(1.0, 0.0))
    t_end = 2 * TWO_PI
    u_fine = propagate(model, SIGMA_X, drive, TimeGrid(t_end, 3200)).propagators[-1]
    u_finer = propagate(model, SIGMA_X, drive, TimeGrid(t_end, 6400)).propagators[-1]
    reference = u_finer + (u_finer - u_fine) / 3.0
    errors = [np.linalg.norm(
        propagate(model, SIGMA_X, drive, TimeGrid(t_end, n)).propagators[-1]
        - reference) for n in (200, 400, 800)]
    exponents = [float(np.log2(errors[i] / errors[i + 1])) for i in range(2)]
    order_ok = all(1.8 <= p <= 2.2 for p in exponents)

    # analytic vs finite-difference beta derivative; 4x default density because
    # the residual is the trapezoid-vs-midpoint quadrature mismatch, O(dt^2)
    worst = 0.0
    for t_eval in (2.0, TWO_PI, 2 * TWO_PI, 4 * TWO_PI, 30.0):
        n = 4 * default_n_steps(t_eval, 1.0, 1.0)
        grid = TimeGrid(t_eval, n)
        for beta in (2.0, 5.0):
            model_b = make_gibbs(0.5 * SIGMA_Z, beta)
            trace = propagate(model_b, SIGMA_X, drive, grid)
            diff = np.linalg.norm(
                drho_dbeta_analytic(trace, n)
                - drho_dbeta_fd(model_b, SIGMA_X, drive, grid, n))
            worst = max(worst, float(diff))
    fd_ok = worst <= 1e-5
    report(10, "convergence order", order_ok and fd_ok,
           f"halving exponents {exponents[0]:.2f}, {exponents[1]:.2f} (in [1.8, 2.2]); "
           f"analytic-vs-fd derivative {worst:.2e} Frobenius (<=1e-5) on 10 (t, beta) points")


def test_criterion_11_optimizer_sanity():
    t_eval = 6 * TWO_PI
    base = DriveProfile(0.1, GaussianEnvelope(10.0, 3.0),
                        CosineModulation(1.0, 0.0))
    model = make_gibbs(0.5 * SIGMA_Z, 5.0)
    result = optimize_drive(
        model, SIGMA_X, t_eval=t_eval,
        bounds={"omega_d": (0.5, 2.0)}, base_drive=base, coarse_points=33,
    )
    spec = ScanSpec(
        axis="frequency", values=tuple(np.linspace(0.5, 2.0, 301)),
        model=model, v=SIGMA_X, drive=base,
        reduce=ReduceSpec(mode="value_at_t", t=t_eval),
    )
    dense = run_scan(spec)
    step = (2.0 - 0.5) / 300
    close_to_gap = abs(result.params["omega_d"] - 1.0) <= 0.02
    agrees = abs(result.params["omega_d"] - dense.argmax) <= step + 1e-12
    report(11, "optimizer sanity", close_to_gap and agrees,
           f"optimizer omega_d {result.params['omega_d']:.4f} within 2% of the gap; "
           f"dense-scan argmax {dense.argmax:.4f} within one grid step")
