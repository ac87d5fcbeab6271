"""Parameter sweeps and drive optimization.

Scan points are independent pure evaluations, run in axis order.  Every
scan point and every optimizer step is one call of ``_evaluate``: one
propagation on the default grid that holds only the nodes it reads, and
the decomposition at one node.  Scans and the optimizer take the Gibbs
model of H0 at beta*; only a temperature scan builds one per point, at
that point's beta under the model's rank floor.  A scan point or
optimizer step whose dual-path mismatch exceeds
``engine.DUAL_PATH_TOL`` raises :class:`DriveThermError`.
"""

import math
from dataclasses import dataclass, replace
from typing import Mapping

import numpy as np

from .drive import CosineModulation, DriveProfile, GaussianEnvelope
from .engine import QfiResult, check_dual_path, increment_at, qfi_driven
from .operators import hermitize
from .propagation import DRIFT_TOL, EvolutionTrace, default_grid, propagate
from .thermal import GibbsModel, equilibrium_qfi, make_gibbs

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
        if self.mode == "value_at_t" and (self.t is None or self.t < 0.0):
            raise ValueError(f"value_at_t reduction needs a time t >= 0, got {self.t}")
        if self.mode == "max_over_t":
            if self.window is None or len(self.window) != 2 or not self.window[1] > self.window[0] >= 0:
                raise ValueError("max_over_t reduction needs a window (t0, t1) with t1 > t0 >= 0")


@dataclass(frozen=True)
class ScanSpec:
    """One sweep axis over an otherwise fixed model/drive configuration;
    ``model`` is the Gibbs model of H0 at beta*."""

    axis: str
    values: tuple
    model: GibbsModel
    v: np.ndarray
    drive: DriveProfile
    reduce: ReduceSpec
    drift_tol: float = DRIFT_TOL

    def __post_init__(self):
        if self.axis not in AXES:
            raise ValueError(f"axis must be one of {AXES}, got {self.axis!r}")
        values = tuple(float(x) for x in self.values)
        if len(values) == 0:
            raise ValueError("scan grid must be nonempty")
        if not all(b > a for a, b in zip(values, values[1:])):
            raise ValueError("scan grid must be strictly increasing")
        object.__setattr__(self, "values", values)
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


def _best_node(trace: EvolutionTrace, window: tuple) -> int:
    """Node of the largest F_eq + I_t inside the window (ties -> earliest)."""
    t0, t1 = window
    nodes = trace.grid.nodes
    inside = np.flatnonzero((nodes >= t0) & (nodes <= t1))
    if inside.size == 0:
        raise ValueError(f"no grid nodes inside the reduction window [{t0}, {t1}]")
    f_total = equilibrium_qfi(trace.model) + increment_at(trace, inside)[0]
    return int(inside[np.argmax(f_total)])


def _evaluate(model: GibbsModel, v: np.ndarray, drive: DriveProfile, t_end: float,
              where: str, *, window: tuple | None = None, drift_tol: float) -> QfiResult:
    """One propagation on the default grid, held from the first node read and
    decomposed at one node: the final one, or the best node inside
    ``window``.  A dual-path mismatch there raises :class:`DriveThermError`
    naming ``where``."""
    grid = default_grid(t_end, model.spread, drive.omega_d)
    # t_end is the window's end, so the window holds grid nodes from this one on
    first = grid.n_steps if window is None else int(np.searchsorted(grid.nodes, window[0]))
    trace = propagate(model, v, drive, grid, first=first, drift_tol=drift_tol)
    at = None if window is None else _best_node(trace, window)
    row = qfi_driven(trace, at)
    check_dual_path(row.rel_disagreement, where)
    return row


def _evaluate_point(spec: ScanSpec, value: float) -> ScanPoint:
    model = spec.model
    drive = spec.drive
    if spec.axis == "frequency":
        drive = replace(drive, temporal=replace(drive.temporal, omega_d=value))
    elif spec.axis == "temperature":
        model = make_gibbs(model.h0, value, rank_floor=model.rank_floor)
    window = None
    if spec.axis == "time":
        t_eval = value
    elif spec.reduce.mode == "value_at_t":
        t_eval = spec.reduce.t
    else:
        window = spec.reduce.window
        t_eval = window[1]
    row = _evaluate(model, spec.v, drive, t_eval, f"{spec.axis} scan point {value:g}",
                    window=window, drift_tol=spec.drift_tol)
    return ScanPoint(value, row.f_eq, row.i_t, row.f_total, row.f_spectral)


def run_scan(spec: ScanSpec) -> ScanResult:
    """Evaluate every grid point in axis order."""
    points = tuple(_evaluate_point(spec, x) for x in spec.values)
    totals = np.array([p.f_total for p in points])
    argmax = points[int(np.argmax(totals))].axis_value  # first max -> smallest axis value
    return ScanResult(axis=spec.axis, points=points, argmax=argmax)


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


class _BudgetExhausted(Exception):
    """Raised by the optimizer's objective once ``max_evals`` are spent."""


def optimize_drive(model: GibbsModel, v, t_eval: float,
                   bounds: Mapping[str, tuple], *, base_drive: DriveProfile,
                   coarse_points: int = 17, passes: int = 2,
                   golden_iters: int = 32, max_evals: int = 600,
                   seed_resonance: bool = False) -> OptimizeResult:
    """Maximize F_total(t_eval) at the Gibbs ``model``'s beta over a box of
    drive parameters.

    Derivative-free: each pass sweeps the free parameters in a fixed order,
    laying a coarse grid across the parameter's bounds and refining the best
    bracket by golden section.  Deterministic given the arguments; never
    returns a point below the best coarse-grid evaluation.  With
    ``seed_resonance`` the positive Bohr gaps of H0 inside the omega_d
    bounds are added to the coarse grid (requires a weak drive,
    lambda0 <= WEAK_FIELD_CAP * spread, where the resonance heuristic is
    reliable).

    When the evaluation budget runs out the best point so far is returned
    with ``budget_exhausted`` set.  A point whose dual-path mismatch exceeds
    ``engine.DUAL_PATH_TOL`` raises :class:`DriveThermError`.
    """
    v = hermitize(v)
    if not bounds:
        raise ValueError("bounds must name at least one parameter")
    if max_evals <= 0:
        raise ValueError("max_evals must allow at least one evaluation")
    for name in bounds:
        if name not in _PARAM_ORDER:
            raise ValueError(f"unknown parameter {name!r}; expected one of {_PARAM_ORDER}")
    if not isinstance(base_drive.envelope, GaussianEnvelope):
        raise ValueError("optimize_drive tunes a gaussian envelope")
    if not isinstance(base_drive.temporal, CosineModulation):
        raise ValueError("optimize_drive tunes a cosine temporal modulation")

    def current(p):
        return DriveProfile(p["lambda0"], GaussianEnvelope(p["beta0"], p["s_beta"]),
                            CosineModulation(p["omega_d"], base_drive.temporal.phi))

    params = {"omega_d": base_drive.temporal.omega_d, "beta0": base_drive.envelope.beta0,
              "s_beta": base_drive.envelope.s_beta, "lambda0": base_drive.lambda0}
    for name, (lo, hi) in bounds.items():
        if hi < lo:
            raise ValueError(f"empty bounds for {name!r}: ({lo}, {hi})")
        params[name] = min(max(params[name], lo), hi)

    seeds = []
    if seed_resonance and "omega_d" in bounds:
        lam_cap = bounds.get("lambda0", (params["lambda0"], params["lambda0"]))[1]
        cap = WEAK_FIELD_CAP * model.spread
        if lam_cap > cap:
            raise ValueError(f"analytic resonance seeding needs a weak field: lambda0 <= "
                             f"{WEAK_FIELD_CAP} * spectral spread ({cap:.3g})")
        energies = model.energies
        gaps = {round(float(b - a), 12) for i, a in enumerate(energies)
                for b in energies[i + 1:] if b - a > 0}
        lo, hi = bounds["omega_d"]
        seeds = sorted(g for g in gaps if lo <= g <= hi)

    trail, cache = [], {}

    def objective(p):
        key = tuple(p[name] for name in _PARAM_ORDER)
        if key not in cache:
            if len(trail) >= max_evals:
                raise _BudgetExhausted
            where = "optimizer point " + ", ".join(f"{k}={p[k]:g}" for k in _PARAM_ORDER)
            f_total = _evaluate(model, v, current(p), t_eval, where, drift_tol=DRIFT_TOL).f_total
            cache[key] = f_total
            trail.append((dict(p), f_total))
        return cache[key]

    best, best_value = dict(params), objective(params)

    def try_point(p):
        nonlocal best, best_value
        val = objective(p)
        if val > best_value:
            best, best_value = dict(p), val
        return val

    free = [name for name in _PARAM_ORDER if name in bounds
            and bounds[name][1] > bounds[name][0]]

    exhausted = False
    try:
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
                    scores.append(try_point(p))
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
                    f1, f2 = try_point(p1), try_point(p2)
                    if f1 < f2:
                        a = x1
                        x1 = x2
                        x2 = a + _GOLDEN * (b - a)
                    else:
                        b = x2
                        x2 = x1
                        x1 = b - _GOLDEN * (b - a)
    except _BudgetExhausted:
        exhausted = True
    return OptimizeResult(best, best_value, tuple(trail), exhausted)
