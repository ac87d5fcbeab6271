"""Parameter sweeps and drive optimization.

Scan points are independent pure evaluations; they may run concurrently
and are always merged in axis order, so results are deterministic and
identical to sequential execution.
"""

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from typing import Mapping

import numpy as np

from .drive import CosineModulation, DriveProfile, GaussianEnvelope
from .engine import QfiResult, qfi_driven, qfi_time_series
from .operators import eig, hermitize
from .propagation import DRIFT_TOL, TimeGrid, default_n_steps, propagate
from .thermal import RANK_FLOOR, make_gibbs

AXES = ("frequency", "temperature", "time")
REDUCE_MODES = ("value_at_t", "max_over_t")


@dataclass(frozen=True)
class ReduceSpec:
    """How a time series collapses to one scan row.

    ``value_at_t`` reads the QFI at a fixed evolution time (the default);
    ``max_over_t`` takes the best node inside a window.  Both are exposed
    because "maximum QFI at a fixed time" admits either reading.
    """

    mode: str = "value_at_t"
    t: float | None = None
    window: tuple | None = None

    def __post_init__(self):
        if self.mode not in REDUCE_MODES:
            raise ValueError(f"reduce mode must be one of {REDUCE_MODES}, got {self.mode!r}")
        if self.mode == "value_at_t" and self.t is None:
            raise ValueError("value_at_t reduction needs a time t")
        if self.mode == "max_over_t":
            if self.window is None or len(self.window) != 2 or not self.window[1] > self.window[0] >= 0:
                raise ValueError("max_over_t reduction needs a window (t0, t1) with t1 > t0 >= 0")


@dataclass(frozen=True)
class ScanSpec:
    """One sweep axis over an otherwise fixed model/drive configuration."""

    axis: str
    values: tuple
    h0: np.ndarray
    v: np.ndarray
    beta_star: float
    drive: DriveProfile
    reduce: ReduceSpec
    n_measurements: int = 1
    drift_tol: float = DRIFT_TOL
    rank_floor: float = RANK_FLOOR

    def __post_init__(self):
        if self.axis not in AXES:
            raise ValueError(f"axis must be one of {AXES}, got {self.axis!r}")
        values = tuple(float(x) for x in self.values)
        if len(values) == 0:
            raise ValueError("scan grid must be nonempty")
        if not all(b > a for a, b in zip(values, values[1:])):
            raise ValueError("scan grid must be strictly increasing")
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "h0", hermitize(self.h0))
        object.__setattr__(self, "v", hermitize(self.v))
        if self.axis == "frequency" and not isinstance(self.drive.temporal, CosineModulation):
            raise ValueError("frequency scans need a cosine temporal modulation")


@dataclass(frozen=True)
class ScanPoint:
    axis_value: float
    f_eq: float
    i_t: float
    f_total: float
    f_spectral: float


@dataclass(frozen=True)
class ScanResult:
    """Scan rows in axis order plus the argmax of F_total (ties -> smallest)."""

    axis: str
    points: tuple
    argmax: float
    provenance: dict


def _spectral_spread(h0: np.ndarray) -> float:
    vals = eig(h0).eigenvalues
    return float(vals[-1] - vals[0])


def _grid_for(spec: ScanSpec, t_end: float, omega_d: float) -> TimeGrid:
    return TimeGrid(t_end, default_n_steps(t_end, _spectral_spread(spec.h0), omega_d))


def _best_node(series: QfiResult, window: tuple) -> int:
    """Node of the largest F_total inside the window (ties -> earliest)."""
    t0, t1 = window
    inside = np.flatnonzero((series.t >= t0) & (series.t <= t1))
    if inside.size == 0:
        raise ValueError(f"no grid nodes inside the reduction window [{t0}, {t1}]")
    return int(inside[np.argmax(series.f_total[inside])])


def _evaluate_point(spec: ScanSpec, value: float) -> ScanPoint:
    beta = spec.beta_star
    drive = spec.drive
    if spec.axis == "frequency":
        drive = replace(drive, temporal=replace(drive.temporal, omega_d=value))
    elif spec.axis == "temperature":
        beta = value
    omega_d = drive.omega_d
    model = make_gibbs(spec.h0, beta, rank_floor=spec.rank_floor)

    if spec.axis == "time":
        t_eval = value
    elif spec.reduce.mode == "value_at_t":
        t_eval = spec.reduce.t
    else:
        t_eval = spec.reduce.window[1]

    trace = propagate(model, spec.v, drive, _grid_for(spec, t_eval, omega_d),
                      drift_tol=spec.drift_tol)
    if spec.reduce.mode == "max_over_t" and spec.axis != "time":
        series = qfi_time_series(trace, n_measurements=spec.n_measurements)
        k = _best_node(series, spec.reduce.window)
        columns = (series.f_eq, series.i_t, series.f_total, series.f_spectral)
        return ScanPoint(value, *(float(c[k]) for c in columns))
    row = qfi_driven(trace, n_measurements=spec.n_measurements)
    return ScanPoint(value, row.f_eq, row.i_t, row.f_total, row.f_spectral)


def _provenance(spec: ScanSpec) -> dict:
    """Full configuration snapshot of a scan, suitable for serialization."""
    drive = spec.drive
    return {
        "axis": spec.axis,
        "values": list(spec.values),
        "dim": int(spec.h0.shape[0]),
        "h0": [[[float(c.real), float(c.imag)] for c in row] for row in spec.h0],
        "v": [[[float(c.real), float(c.imag)] for c in row] for row in spec.v],
        "beta_star": spec.beta_star,
        "drive": {
            "lambda0": drive.lambda0,
            "envelope": repr(drive.envelope),
            "temporal": repr(drive.temporal),
        },
        "reduce": {"mode": spec.reduce.mode, "t": spec.reduce.t,
                   "window": list(spec.reduce.window) if spec.reduce.window else None},
        "n_measurements": spec.n_measurements,
        "drift_tol": spec.drift_tol,
        "rank_floor": spec.rank_floor,
    }


def run_scan(spec: ScanSpec, *, parallelism: int = 1) -> ScanResult:
    """Evaluate every grid point; concurrent for parallelism > 1 with a
    deterministic axis-ordered merge."""
    if parallelism > 1:
        with ThreadPoolExecutor(max_workers=parallelism) as pool:
            points = tuple(pool.map(lambda x: _evaluate_point(spec, x), spec.values))
    else:
        points = tuple(_evaluate_point(spec, x) for x in spec.values)
    totals = np.array([p.f_total for p in points])
    argmax = points[int(np.argmax(totals))].axis_value  # first max -> smallest axis value
    return ScanResult(axis=spec.axis, points=points, argmax=argmax,
                      provenance=_provenance(spec))


def frequency_scan(spec: ScanSpec, *, parallelism: int = 1) -> ScanResult:
    if spec.axis != "frequency":
        raise ValueError(f"expected a frequency scan, got axis {spec.axis!r}")
    return run_scan(spec, parallelism=parallelism)


def temperature_scan(spec: ScanSpec, *, parallelism: int = 1) -> ScanResult:
    if spec.axis != "temperature":
        raise ValueError(f"expected a temperature scan, got axis {spec.axis!r}")
    return run_scan(spec, parallelism=parallelism)


# --------------------------------------------------------------------------
# Drive optimization: coarse grid + coordinate-wise golden-section refinement
# --------------------------------------------------------------------------

_PARAM_ORDER = ("omega_d", "beta0", "s_beta", "lambda0")
_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0

#: lambda0/spread cap above which analytic resonance seeding is refused.
WEAK_FIELD_CAP = 0.2


@dataclass(frozen=True)
class OptimizeResult:
    params: dict
    value: float
    trail: tuple            # ((params dict, value), ...) in evaluation order
    budget_exhausted: bool


class _Budget:
    def __init__(self, max_evals):
        self.remaining = max_evals
        self.exhausted = False

    def take(self):
        if self.remaining <= 0:
            self.exhausted = True
            return False
        self.remaining -= 1
        return True


def optimize_drive(h0, v, target_beta: float, t_eval: float,
                   bounds: Mapping[str, tuple], *, base_drive: DriveProfile,
                   coarse_points: int = 17, passes: int = 2,
                   golden_iters: int = 32, max_evals: int = 600,
                   n_measurements: int = 1,
                   seed_resonance: bool = False) -> OptimizeResult:
    """Maximize F_total(t_eval, target_beta) over a box of drive parameters.

    Derivative-free: each pass sweeps the free parameters in a fixed order,
    laying a coarse grid across the parameter's bounds and refining the best
    bracket by golden section.  Deterministic given the arguments; never
    returns a point below the best coarse-grid evaluation.  With
    ``seed_resonance`` the positive Bohr gaps of ``h0`` inside the omega_d
    bounds are added to the coarse grid (requires a weak drive,
    lambda0 <= WEAK_FIELD_CAP * spread, where the resonance heuristic is
    reliable).

    When the evaluation budget runs out the best point so far is returned
    with ``budget_exhausted`` set.
    """
    h0 = hermitize(h0)
    v = hermitize(v)
    if not bounds:
        raise ValueError("bounds must name at least one parameter")
    for name in bounds:
        if name not in _PARAM_ORDER:
            raise ValueError(f"unknown parameter {name!r}; expected one of {_PARAM_ORDER}")
    if not isinstance(base_drive.envelope, GaussianEnvelope):
        raise ValueError("optimize_drive tunes a gaussian envelope")
    if not isinstance(base_drive.temporal, CosineModulation):
        raise ValueError("optimize_drive tunes a cosine temporal modulation")

    model = make_gibbs(h0, target_beta)
    spread = _spectral_spread(h0)

    def current(params):
        return DriveProfile(
            lambda0=params["lambda0"],
            envelope=GaussianEnvelope(beta0=params["beta0"], s_beta=params["s_beta"]),
            temporal=CosineModulation(omega_d=params["omega_d"], phi=base_drive.temporal.phi),
        )

    params = {
        "omega_d": base_drive.temporal.omega_d,
        "beta0": base_drive.envelope.beta0,
        "s_beta": base_drive.envelope.s_beta,
        "lambda0": base_drive.lambda0,
    }
    for name, (lo, hi) in bounds.items():
        if hi < lo:
            raise ValueError(f"empty bounds for {name!r}: ({lo}, {hi})")
        params[name] = min(max(params[name], lo), hi)

    seeds = []
    if seed_resonance and "omega_d" in bounds:
        lam_cap = bounds.get("lambda0", (params["lambda0"], params["lambda0"]))[1]
        if lam_cap > WEAK_FIELD_CAP * spread:
            raise ValueError(
                f"analytic resonance seeding needs a weak field: lambda0 <= "
                f"{WEAK_FIELD_CAP} * spectral spread ({WEAK_FIELD_CAP * spread:.3g})"
            )
        energies = eig(h0).eigenvalues
        gaps = {round(float(b - a), 12) for i, a in enumerate(energies)
                for b in energies[i + 1:] if b - a > 0}
        lo, hi = bounds["omega_d"]
        seeds = sorted(g for g in gaps if lo <= g <= hi)

    budget = _Budget(max_evals)
    trail = []
    cache = {}

    def objective(p):
        key = tuple(p[name] for name in _PARAM_ORDER)
        if key in cache:
            return cache[key]
        if not budget.take():
            return None
        grid = TimeGrid(t_eval, default_n_steps(t_eval, spread, p["omega_d"]))
        result = qfi_driven(propagate(model, v, current(p), grid),
                            n_measurements=n_measurements)
        cache[key] = result.f_total
        trail.append((dict(p), result.f_total))
        return result.f_total

    best_value = objective(params)
    if best_value is None:
        raise ValueError("max_evals must allow at least one evaluation")
    best = dict(params)

    def try_point(p):
        nonlocal best, best_value
        val = objective(p)
        if val is None:
            return False
        if val > best_value:
            best, best_value = dict(p), val
        return True

    free = [name for name in _PARAM_ORDER if name in bounds
            and bounds[name][1] > bounds[name][0]]

    for _ in range(passes):
        for name in free:
            lo, hi = bounds[name]
            grid_vals = list(np.linspace(lo, hi, coarse_points))
            if name == "omega_d":
                grid_vals = sorted(set(grid_vals) | set(seeds))
            scores = []
            for x in grid_vals:
                p = dict(best)
                p[name] = float(x)
                if not try_point(p):
                    return OptimizeResult(best, best_value, tuple(trail), True)
                scores.append(cache[tuple(p[n] for n in _PARAM_ORDER)])
            i_best = int(np.argmax(scores))
            a = grid_vals[max(i_best - 1, 0)]
            b = grid_vals[min(i_best + 1, len(grid_vals) - 1)]
            if b <= a:
                continue
            # golden-section refinement of the bracket around the best node
            x1 = b - _GOLDEN * (b - a)
            x2 = a + _GOLDEN * (b - a)
            for _ in range(golden_iters):
                p1, p2 = dict(best), dict(best)
                p1[name], p2[name] = x1, x2
                if not (try_point(p1) and try_point(p2)):
                    return OptimizeResult(best, best_value, tuple(trail), True)
                f1 = cache[tuple(p1[n] for n in _PARAM_ORDER)]
                f2 = cache[tuple(p2[n] for n in _PARAM_ORDER)]
                if f1 < f2:
                    a = x1
                    x1 = x2
                    x2 = a + _GOLDEN * (b - a)
                else:
                    b = x2
                    x2 = x1
                    x1 = b - _GOLDEN * (b - a)

    return OptimizeResult(best, best_value, tuple(trail), budget.exhausted)
