"""Parameter sweeps and drive optimization.

Scan points are independent pure evaluations, run in axis order.  Every
scan point and every optimizer step is one ``_record``: one propagation on
the default grid that holds only the nodes it reads, kept as (U, M) at the
node read.  A point read at one node (``value_at_t``, a time scan, an
optimizer step) keeps the residual of its pairwise reduction; a
``max_over_t`` point propagates through its window.  One tail, ``_rows``,
serves both the scan and the optimizer: it completes the residuals of all
points together (``propagation.finish_nodes``), then one
``engine._decompose`` takes each run of records that share a Gibbs model:
the model of H0 at beta*, except in a temperature scan, which builds one per
point at its beta under the model's rank floor.  A point whose dual-path
mismatch exceeds ``engine.DUAL_PATH_TOL`` raises :class:`DriveThermError`.
"""

import math
from itertools import groupby, product
from typing import Mapping, NamedTuple

import numpy as np

from .drive import (CosineModulation, DriveProfile, GaussianEnvelope, TabulatedEnvelope,
                    TabulatedModulation, _Checked)
from .engine import QfiResult, _decompose, check_dual_path, increment_at
from .exceptions import DriveThermError, ExtrapolationError
from .operators import hermitize
from .propagation import (DRIFT_TOL, EvolutionTrace, NodeResidual, check_n_steps,
                          default_grid, default_n_steps, finish_nodes, propagate,
                          reduce_to_node)
from .thermal import GibbsModel, equilibrium_qfi, make_gibbs

AXES = ("frequency", "temperature", "time")
REDUCE_MODES = ("value_at_t", "max_over_t")


class ReduceSpec(_Checked, NamedTuple("ReduceSpec", [("mode", str), ("t", float | None),
                                                    ("window", tuple | None)])):
    """How a time series collapses to one scan row.

    ``value_at_t`` reads the QFI at a fixed evolution time (the default);
    ``max_over_t`` takes the best node inside a window.  Both are exposed
    because "maximum QFI at a fixed time" admits either reading.
    """

    def __new__(cls, mode="value_at_t", t=None, window=None):
        if mode not in REDUCE_MODES:
            raise ValueError(f"reduce mode must be one of {REDUCE_MODES}, got {mode!r}")
        if mode == "value_at_t" and (t is None or not math.inf > t >= 0.0):
            raise ValueError(f"value_at_t reduction needs a finite time t >= 0, got {t}")
        if mode == "max_over_t":
            if window is None or len(window) != 2 or not math.inf > window[1] > window[0] >= 0:
                raise ValueError("max_over_t reduction needs a window (t0, t1) with finite "
                                 "t1 > t0 >= 0")
        return super().__new__(cls, mode, t, window)


class ScanSpec(_Checked, NamedTuple("ScanSpec", [
        ("axis", str), ("values", tuple), ("model", GibbsModel), ("v", np.ndarray),
        ("drive", DriveProfile), ("reduce", ReduceSpec), ("drift_tol", float)])):
    """One sweep axis over an otherwise fixed model/drive configuration;
    ``model`` is the Gibbs model of H0 at beta*.  ``values`` is kept as a
    tuple of floats and ``v`` hermitized.  Every rule on the values is checked
    here, before any point runs: finite, >= 0 and strictly increasing, and on
    a temperature axis a last beta whose Gibbs model passes ``model``'s rank
    floor (:class:`FullRankViolation`) and a grid inside a tabulated envelope,
    every time a point reads inside a tabulated temporal table
    (:class:`ExtrapolationError`), and the largest point grid under the grid
    cap (``propagation.check_n_steps``)."""

    def __new__(cls, axis, values, model, v, drive, reduce, drift_tol=DRIFT_TOL):
        if axis not in AXES:
            raise ValueError(f"axis must be one of {AXES}, got {axis!r}")
        values = tuple(float(x) for x in values)
        if len(values) == 0:
            raise ValueError("scan grid must be nonempty")
        if not all(map(math.isfinite, values)):
            raise ValueError(f"scan grid must be finite, got {values}")
        if not all(b > a for a, b in zip(values, values[1:])):
            raise ValueError("scan grid must be strictly increasing")
        v = hermitize(v)
        if axis == "frequency" and not isinstance(drive.temporal, CosineModulation):
            raise ValueError("frequency scans need a cosine temporal modulation")
        if values[0] < 0.0:
            noun = {"temperature": "inverse temperatures",
                    "frequency": "driving frequencies", "time": "times"}[axis]
            raise ValueError(f"{noun} must be >= 0")
        if axis == "temperature":  # the smallest population falls with beta
            make_gibbs(model.h0, values[-1], rank_floor=model.rank_floor)
        env = drive.envelope
        if axis == "temperature" and isinstance(env, TabulatedEnvelope) and (
                values[0] < env.betas[0] or values[-1] > env.betas[-1]):
            raise ValueError("temperature grid leaves the tabulated envelope range "
                             f"[{env.betas[0]}, {env.betas[-1]}]")
        name, t = (("scan time", values[-1]) if axis == "time" else  # the last time read
                   ("scan.reduce.t", reduce.t) if reduce.mode == "value_at_t" else
                   ("scan.reduce.window end", reduce.window[1]))
        if isinstance(drive.temporal, TabulatedModulation) and t > drive.temporal.times[-1]:
            raise ExtrapolationError(f"{name}={t} exceeds the tabulated temporal range "
                                     f"(max t = {drive.temporal.times[-1]})")
        # the largest point grid: the last time read, at the last frequency of a frequency scan
        omega_d = values[-1] if axis == "frequency" else drive.omega_d
        check_n_steps(default_n_steps(t, model.spread, omega_d), model.dim)
        return super().__new__(cls, axis, values, model, v, drive, reduce, drift_tol)


class ScanPoint(NamedTuple):
    axis_value: float
    f_eq: float
    i_t: float
    f_total: float
    f_spectral: float


class ScanResult(NamedTuple):
    """Scan rows in axis order, the argmax of F_total (ties -> smallest), the
    worst unitarity drift and dual-path mismatch, and the (min, max) steps."""

    axis: str
    points: tuple
    argmax: float
    max_unitarity_drift: float
    max_rel_disagreement: float
    n_steps: tuple


class _Record(NamedTuple):
    """What a point keeps of its propagation, so that no trace outlives it:
    U and M at the node read, as (d, d) copies, that node's time, the step
    count and the drift.  A one-node point keeps its ``residual`` instead of
    U, M and the drift until ``_rows`` finishes it."""

    model: GibbsModel
    u: np.ndarray | None
    m: np.ndarray | None
    t: float
    n_steps: int
    unitarity_drift: float | None
    residual: NodeResidual | None = None


def _best_node(trace: EvolutionTrace) -> int:
    """Held node of the largest F_eq + I_t (ties -> earliest); ``_record``
    holds exactly the window's nodes."""
    i_t = increment_at(trace.model, trace.M)[0]
    return trace.first + int(np.argmax(equilibrium_qfi(trace.model) + i_t))


def _record(model: GibbsModel, v: np.ndarray, drive: DriveProfile, t_end: float,
            *, window: tuple | None = None, drift_tol: float = DRIFT_TOL) -> _Record:
    """One propagation on the default grid, held from the first node read,
    recorded at one node: the final one, left as a residual for ``_rows``
    (which applies its drift guard), or the best node inside ``window``."""
    grid = default_grid(t_end, model.spread, drive.omega_d)
    if window is None:
        n = grid.n_steps
        return _Record(model, None, None, float(grid.nodes[n]), n, None,
                       reduce_to_node(model, v, drive, grid))
    # t_end is the window's end, so the held nodes first..n are the window's
    first = int(np.searchsorted(grid.nodes, window[0]))
    trace = propagate(model, v, drive, grid, first=first, drift_tol=drift_tol)
    at = _best_node(trace)
    return _Record(model, trace.propagators[at - first].copy(), trace.M[at - first].copy(),
                   float(grid.nodes[at]), grid.n_steps, trace.unitarity_drift)


def _rows(records: list, failure: Exception | None, v: np.ndarray, drift_tol: float,
          wheres: list) -> tuple[list, QfiResult]:
    """The records with their residuals finished together (a scan's points
    are all one-node points or all windowed ones), and their rows, one
    ``_decompose`` per run of records that share a Gibbs model.  Raises the
    first failure in axis order: a dual-path mismatch over ``DUAL_PATH_TOL``
    at its entry of ``wheres``, a guard of ``propagate`` that a residual
    fails as it is finished, or ``failure``, that of the point after the
    last record (or None)."""
    if records and records[0].residual is not None:
        u, m, drift, finish_failure = finish_nodes(v, [r.residual for r in records], drift_tol)
        records = [r._replace(u=u[k], m=m[k], unitarity_drift=float(drift[k]), residual=None)
                   for k, r in enumerate(records[:len(drift)])]
        failure = finish_failure or failure
    if not records:
        raise failure
    groups = [list(run) for _, run in groupby(records, key=lambda r: id(r.model))]
    columns = [_decompose(g[0].model, np.array([r.u for r in g]), np.array([r.m for r in g]),
                          np.array([r.t for r in g])) for g in groups]
    rows = QfiResult._make(map(np.concatenate, zip(*columns)))
    for rel, where in zip(rows.rel_disagreement, wheres):
        check_dual_path(rel, where)
    if failure is not None:
        raise failure
    return records, rows


def _record_point(spec: ScanSpec, value: float) -> _Record:
    model = spec.model
    drive = spec.drive
    if spec.axis == "frequency":
        drive = drive._replace(temporal=drive.temporal._replace(omega_d=value))
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
    return _record(model, spec.v, drive, t_eval, window=window, drift_tol=spec.drift_tol)


def run_scan(spec: ScanSpec) -> ScanResult:
    """Record every grid point in axis order, finish the one-node records
    together, then decompose the records.  A point that fails to propagate,
    as it is recorded or as it is finished, raises once the points before it
    have passed their checks: the first failure in axis order is the one
    raised."""
    records, failure = [], None
    for x in spec.values:
        try:
            records.append(_record_point(spec, x))
        except (DriveThermError, np.linalg.LinAlgError) as exc:
            failure = exc
            break
    records, rows = _rows(records, failure, spec.v, spec.drift_tol,
                          [f"{spec.axis} scan point {x:g}" for x in spec.values])
    points = tuple(map(ScanPoint, spec.values, rows.f_eq.tolist(), rows.i_t.tolist(),
                       rows.f_total.tolist(), rows.f_spectral.tolist()))
    steps = [r.n_steps for r in records]
    return ScanResult(spec.axis, points, spec.values[int(np.argmax(rows.f_total))],  # first max
                      max(r.unitarity_drift for r in records),
                      float(rows.rel_disagreement.max()), (min(steps), max(steps)))


# --------------------------------------------------------------------------
# Drive optimization: coarse grid + coordinate-wise golden-section refinement
# --------------------------------------------------------------------------

_PARAM_ORDER = ("omega_d", "beta0", "s_beta", "lambda0")
_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0

#: lambda0/spread cap above which analytic resonance seeding is refused.
WEAK_FIELD_CAP = 0.2


class OptimizeResult(NamedTuple):
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
    if not math.isfinite(t_eval):
        raise ValueError(f"t_eval must be finite, got {t_eval}")
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
        if not (math.isfinite(lo) and math.isfinite(hi)):
            raise ValueError(f"bounds for {name!r} must be finite, got ({lo}, {hi})")
        if hi < lo:
            raise ValueError(f"empty bounds for {name!r}: ({lo}, {hi})")
        params[name] = min(max(params[name], lo), hi)
    for corner in product(*[[(name, lo), (name, hi)] for name, (lo, hi) in bounds.items()]):
        current({**params, **dict(corner)})  # the drive's rules hold on the whole box

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
            _, rows = _rows([_record(model, v, current(p), t_eval)], None, v, DRIFT_TOL, [where])
            f_total = float(rows.f_total[0])
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
