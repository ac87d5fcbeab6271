"""Run configuration: YAML parsing, validation, and resolution of defaults.

The configuration file is a single YAML document with nested sections
(model / drive / grid / scan / estimation / output / tolerances).
Validation errors carry ``file:line`` anchors; rules on a drive, grid, scan
or Gibbs model are stated once, in the domain constructor, and the loader
anchors their errors.  The full-rank rule of :func:`thermal.make_gibbs` is
applied here, once, for every command.  All defaults (grid resolution,
tolerances, sampled envelope center) are resolved here so that a run is
fully reproducible from the resolved record stored in the manifest; the
``tolerances`` section is the only place a tolerance is set.  The loader
returns the record together with the domain objects it built, and the
commands run those objects (:class:`LoadedRun`).
"""

import math
import os
import re
from typing import NamedTuple

import numpy as np
import yaml

from .drive import (ConstantEnvelope, ConstantModulation, CosineModulation,
                    DriveProfile, GaussianEnvelope, TabulatedEnvelope,
                    TabulatedModulation, sample_envelope_center)
from .exceptions import ConfigValidationError, FullRankViolation
from .operators import PAULI, SIGMA_Z, hermitize
from .propagation import DRIFT_TOL, TimeGrid, default_n_steps
from .scans import AXES, REDUCE_MODES, ReduceSpec, ScanSpec
from .thermal import RANK_FLOOR, GibbsModel, equilibrium_qfi, make_gibbs


# --------------------------------------------------------------------------
# YAML loading with per-key line numbers
# --------------------------------------------------------------------------


class _Loader(yaml.SafeLoader):
    """SafeLoader that also resolves YAML 1.2 floats, which YAML 1.1 reads as
    strings: an exponent without a dot (1e-1) or without a sign (1.0e5)."""


_Loader.add_implicit_resolver(
    "tag:yaml.org,2002:float",
    re.compile(r"^[-+]?(?:\.[0-9]+|[0-9]+(?:\.[0-9]*)?)(?:[eE][-+]?[0-9]+)?$"),
    list("-+.0123456789"))


def _load_yaml_with_lines(path: str):
    """Parse YAML returning (data, {dotted.path: 1-based line})."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigValidationError(f"cannot read the file: {exc}", path=path) from exc
    try:  # the loader rejects control characters as it is built
        loader = _Loader(text)
        node = loader.get_single_node()
        data = loader.construct_document(node) if node is not None else None
        loader.dispose()
    except yaml.YAMLError as exc:
        raise ConfigValidationError(f"not valid YAML: {exc}", path=path) from exc
    lines: dict[str, int] = {}

    def walk(nd, prefix):
        if isinstance(nd, yaml.MappingNode):
            for key_node, value_node in nd.value:
                key = str(key_node.value)
                dotted = f"{prefix}.{key}" if prefix else key
                lines[dotted] = key_node.start_mark.line + 1
                walk(value_node, dotted)
        elif isinstance(nd, yaml.SequenceNode):
            for i, item in enumerate(nd.value):
                walk(item, f"{prefix}[{i}]")

    if node is not None:
        walk(node, "")
    return data, lines


def _finite_number(x) -> bool:
    """A YAML int or float (not a bool) with a finite value."""
    return isinstance(x, (int, float)) and not isinstance(x, bool) and math.isfinite(x)


#: The keys each section takes; a section with a ``kind`` (``scan.reduce``:
#: ``mode``) takes those of the kind it names, listed with the tag first.
_KEYS = {
    "": ("model", "drive", "grid", "scan", "estimation", "output", "seed", "tolerances"),
    "model": {"qubit": ("kind", "omega", "v", "beta_star"),
              "diagonal": ("kind", "energies", "v", "beta_star"),
              "dense": ("kind", "h0", "v", "beta_star")},
    "drive": ("lambda0", "envelope", "temporal"),
    "drive.envelope": {"gaussian": ("kind", "beta0", "s_beta"), "constant": ("kind",),
                       "tabulated": ("kind", "points")},
    "drive.temporal": {"cosine": ("kind", "omega_d", "phi"), "constant": ("kind",),
                       "tabulated": ("kind", "points")},
    "grid": ("t_end", "n_steps"),
    "scan": ("axis", "values", "reduce"),
    "scan.values": ("start", "stop", "num"),
    "scan.reduce": {"value_at_t": ("mode", "t"), "max_over_t": ("mode", "window")},
    "estimation": ("n_measurements",),
    "output": ("csv", "manifest", "kernel"),
    "tolerances": ("step_drift", "rank_floor"),
}


class _Section:
    """A mapping view that raises line-anchored errors on bad access."""

    def __init__(self, data, lines, path, prefix=""):
        if data is None:
            data = {}
        if not isinstance(data, dict):
            raise ConfigValidationError(
                f"section '{prefix or '<root>'}' must be a mapping",
                path=path, line=lines.get(prefix),
            )
        self.data = data
        self.lines = lines
        self.path = path
        self.prefix = prefix
        allowed, of_kind = _KEYS[prefix], ""
        if isinstance(allowed, dict):  # an unknown kind fails its tag's own check
            tag = next(iter(allowed.values()))[0]
            kind = str(data.get(tag))
            allowed, of_kind = allowed.get(kind, data), f" for {tag} {kind!r}"
        for key in data:
            if key not in allowed:
                raise self.error(f"unknown {prefix or 'top-level'} key {key!r}{of_kind}; "
                                 f"expected one of {sorted(allowed)}", key)

    def _dotted(self, key):
        return f"{self.prefix}.{key}" if self.prefix else key

    def line(self, key=None):
        return self.lines.get(self._dotted(key) if key else self.prefix)

    def error(self, message, key=None):
        return ConfigValidationError(message, path=self.path, line=self.line(key))

    def section(self, key, required=False):
        """The sub-mapping at ``key``; empty when absent and not required."""
        if required and self.data.get(key) is None:
            raise self.error(f"missing required section '{self._dotted(key)}'", key)
        return _Section(self.data.get(key), self.lines, self.path, self._dotted(key))

    def get(self, key, default=None):
        return self.data.get(key, default)

    def number(self, key, default=None, *, required=False, minimum=None, strict_min=None):
        if key not in self.data:
            if required:
                raise self.error(f"missing required key '{self._dotted(key)}'", key)
            return default
        value = self.data[key]
        if not _finite_number(value):
            raise self.error(f"'{self._dotted(key)}' must be a finite number, got {value!r}", key)
        value = float(value)
        if minimum is not None and value < minimum:
            raise self.error(f"'{self._dotted(key)}' must be >= {minimum}, got {value}", key)
        if strict_min is not None and value <= strict_min:
            raise self.error(f"'{self._dotted(key)}' must be > {strict_min}, got {value}", key)
        return value

    def integer(self, key, default=None, *, required=False, minimum=None):
        if key not in self.data:
            if required:
                raise self.error(f"missing required key '{self._dotted(key)}'", key)
            return default
        value = self.data[key]
        if isinstance(value, bool) or not isinstance(value, int):
            raise self.error(f"'{self._dotted(key)}' must be an integer, got {value!r}", key)
        if minimum is not None and value < minimum:
            raise self.error(f"'{self._dotted(key)}' must be >= {minimum}, got {value}", key)
        return value

    def string(self, key, default=None, *, required=False, choices=None):
        if key not in self.data:
            if required:
                raise self.error(f"missing required key '{self._dotted(key)}'", key)
            return default
        value = self.data[key]
        if not isinstance(value, str):
            raise self.error(f"'{self._dotted(key)}' must be a string, got {value!r}", key)
        if choices is not None and value not in choices:
            raise self.error(
                f"'{self._dotted(key)}' must be one of {sorted(choices)}, got {value!r}", key)
        return value


def _built(sec: _Section, key, build, *args, **kwargs):
    """``build(*args, **kwargs)``, reporting a constructor's ValueError or
    FullRankViolation at ``key``'s line."""
    try:
        return build(*args, **kwargs)
    except (ValueError, FullRankViolation) as exc:
        raise sec.error(str(exc), key) from exc


# --------------------------------------------------------------------------
# Resolved run
# --------------------------------------------------------------------------


class LoadedRun(NamedTuple):
    """A validated run: the resolved record and the domain objects built from
    it.  ``config`` is the record as JSON data, the manifest's ``config``:
    model (kind, omega, energies, h0, v, beta_star), drive (lambda0, envelope,
    temporal), grid (t_end, n_steps), scan (axis, values, reduce: {mode, t,
    window}), estimation (n_measurements), output (csv, manifest, kernel),
    seed, tolerances (step_drift, rank_floor) and resolved_defaults.
    ``model`` is the Gibbs model of H0 at beta*; ``scan``, here and in the
    record, is None for a config without a scan section."""

    config: dict
    model: GibbsModel
    v: np.ndarray
    drive: DriveProfile
    grid: TimeGrid
    scan: ScanSpec | None


def _dense_from_rows(rows) -> np.ndarray:
    return hermitize(np.array([[complex(re, im) for re, im in row] for row in rows]))


def _parse_matrix_rows(sec: _Section, key: str, dim: int | None) -> list:
    raw = sec.get(key)
    if not isinstance(raw, list) or not raw:
        raise sec.error(f"'{sec._dotted(key)}' must be a list of rows of [re, im] pairs", key)
    for row in raw:
        if not isinstance(row, list):
            raise sec.error(f"'{sec._dotted(key)}' rows must be lists", key)
        for cell in row:
            if not isinstance(cell, list) or len(cell) != 2 or not all(map(_finite_number, cell)):
                raise sec.error(
                    f"'{sec._dotted(key)}' entries must be [re, im] finite number pairs", key)
    n = len(raw)
    if any(len(r) != n for r in raw):
        raise sec.error(f"'{sec._dotted(key)}' must be square", key)
    if dim is not None and n != dim:
        raise sec.error(f"'{sec._dotted(key)}' must be {dim}x{dim}, got {n}x{n}", key)
    return [[[float(re), float(im)] for re, im in row] for row in raw]


def _parse_pairs(sec: _Section, key: str) -> list:
    raw = sec.get(key)
    if not isinstance(raw, list) or len(raw) < 2:
        raise sec.error(f"'{sec._dotted(key)}' must be a list of >= 2 [x, value] pairs", key)
    if not all(isinstance(item, list) and len(item) == 2 and all(map(_finite_number, item))
               for item in raw):
        raise sec.error(f"'{sec._dotted(key)}' entries must be finite [x, value] pairs", key)
    return [[float(x), float(value)] for x, value in raw]


def load_run_config(path: str) -> LoadedRun:
    """Parse and validate a run configuration file into the run it describes.

    Raises :class:`ConfigValidationError` with ``file:line`` anchors on any
    inconsistency (unknown keys, dimensions, malformed scan grids), including
    those the drive, grid and scan constructors reject.  The Gibbs model at
    ``beta_star``, and at the last value of a temperature scan, must pass the
    full-rank rule of :func:`thermal.make_gibbs` under
    ``tolerances.rank_floor``; since the smallest population falls with beta,
    that covers every scan point.
    """
    data, lines = _load_yaml_with_lines(path)
    root = _Section(data, lines, path)
    resolved: dict = {}

    # ---- model ----------------------------------------------------------
    model_sec = root.section("model", required=True)
    kind = model_sec.string("kind", required=True, choices=_KEYS["model"])
    model = {"kind": kind, "omega": None, "energies": None, "h0": None}
    # hermitize rejects a model above operators.MAX_DIM levels
    if kind == "qubit":
        model["omega"] = model_sec.number("omega", required=True, strict_min=0.0)
        h0 = 0.5 * model["omega"] * SIGMA_Z
    elif kind == "diagonal":
        raw = model_sec.get("energies")
        if not isinstance(raw, list) or len(raw) < 2 or not all(map(_finite_number, raw)):
            raise model_sec.error("'model.energies' must be a list of >= 2 finite numbers",
                                  "energies")
        model["energies"] = [float(x) for x in raw]
        h0 = _built(model_sec, "energies", hermitize,
                    np.diag(np.asarray(model["energies"], dtype=float)))
    else:
        model["h0"] = _parse_matrix_rows(model_sec, "h0", None)
        h0 = _built(model_sec, "h0", _dense_from_rows, model["h0"])

    v_raw = model_sec.get("v")
    if isinstance(v_raw, str):
        if v_raw not in PAULI:
            raise model_sec.error(f"'model.v' names an unknown operator {v_raw!r}; "
                                  f"expected one of {sorted(PAULI)}", "v")
        if len(h0) != 2:
            raise model_sec.error(
                f"Pauli perturbation needs a 2-level model, got dim {len(h0)}", "v")
        model["v"] = v_raw
        v = PAULI[v_raw].copy()
    else:
        model["v"] = _parse_matrix_rows(model_sec, "v", len(h0))
        v = _dense_from_rows(model["v"])

    beta_star = model["beta_star"] = model_sec.number("beta_star", required=True, minimum=0.0)

    # ---- tolerances / full-rank model -------------------------------------
    tol_sec = root.section("tolerances")
    tolerances = {"step_drift": DRIFT_TOL, "rank_floor": RANK_FLOOR}
    for key in tol_sec.data:
        # a drift bound of 0 fails every run; a population floor of 0 is allowed
        bound = {"minimum": 0.0} if key == "rank_floor" else {"strict_min": 0.0}
        tolerances[key] = tol_sec.number(key, **bound)
    gibbs = _built(model_sec, "beta_star", make_gibbs, h0, beta_star,
                   rank_floor=tolerances["rank_floor"])

    # ---- drive -----------------------------------------------------------
    drive_sec = root.section("drive", required=True)
    lambda0 = drive_sec.number("lambda0", required=True)
    seed = root.integer("seed")

    env_sec = drive_sec.section("envelope", required=True)
    env_kind = env_sec.string("kind", required=True, choices=_KEYS["drive.envelope"])
    envelope = {"kind": env_kind}
    if env_kind == "gaussian":
        s_beta = env_sec.number("s_beta", required=True)
        if env_sec.get("beta0") == "sample":
            if seed is None:
                raise env_sec.error(
                    "'drive.envelope.beta0: sample' needs a top-level 'seed'", "beta0")
            beta0 = resolved["sampled_beta0"] = sample_envelope_center(
                beta_star, equilibrium_qfi(gibbs), seed)
        else:
            beta0 = env_sec.number("beta0", required=True)
        envelope.update(beta0=beta0, s_beta=s_beta)
        env = _built(env_sec, "s_beta", GaussianEnvelope, beta0=beta0, s_beta=s_beta)
    elif env_kind == "tabulated":
        envelope["points"] = _parse_pairs(env_sec, "points")
        env = _built(env_sec, "points", TabulatedEnvelope, *zip(*envelope["points"]))
    else:
        env = ConstantEnvelope()
    if env_kind == "tabulated" and not env.betas[0] <= beta_star <= env.betas[-1]:
        raise env_sec.error(
            f"beta_star={beta_star} outside the tabulated envelope range "
            f"[{env.betas[0]}, {env.betas[-1]}]", "points")

    temp_sec = drive_sec.section("temporal", required=True)
    temp_kind = temp_sec.string("kind", required=True, choices=_KEYS["drive.temporal"])
    temporal = {"kind": temp_kind}
    if temp_kind == "cosine":
        temporal.update(omega_d=temp_sec.number("omega_d", required=True),
                        phi=temp_sec.number("phi", 0.0))
        temp = _built(temp_sec, "omega_d", CosineModulation, temporal["omega_d"],
                      temporal["phi"])
    elif temp_kind == "tabulated":
        temporal["points"] = _parse_pairs(temp_sec, "points")
        temp = _built(temp_sec, "points", TabulatedModulation, *zip(*temporal["points"]))
    else:
        temp = ConstantModulation()
    drive = {"lambda0": lambda0, "envelope": envelope, "temporal": temporal}
    profile = DriveProfile(lambda0, env, temp)
    t_max = temp.times[-1] if temp_kind == "tabulated" else math.inf

    def within_temporal_table(sec, key, name, t):
        if t > t_max:
            raise sec.error(
                f"{name}={t} exceeds the tabulated temporal range (max t = {t_max})", key)

    # ---- grid ------------------------------------------------------------
    grid_sec = root.section("grid", required=True)
    t_end = grid_sec.number("t_end", required=True)
    n_steps = grid_sec.integer("n_steps")
    if n_steps is None:
        n_steps = default_n_steps(t_end, gibbs.spread, profile.omega_d)
        resolved["auto_n_steps"] = n_steps
    time_grid = _built(grid_sec, "t_end", TimeGrid, t_end, n_steps)
    within_temporal_table(grid_sec, "t_end", "grid.t_end", t_end)
    grid = {"t_end": t_end, "n_steps": n_steps}

    # ---- scan (optional) ---------------------------------------------------
    scan = scan_spec = None
    if root.get("scan") is not None:
        scan_sec = root.section("scan")
        axis = scan_sec.string("axis", required=True, choices=AXES)
        if axis == "time" and scan_sec.get("reduce") is not None:
            raise scan_sec.error("a time scan reads each point at its own time; "
                                 "'scan.reduce' applies to frequency and temperature "
                                 "scans only", "reduce")
        values_raw = scan_sec.get("values")
        if isinstance(values_raw, dict):
            vsec = scan_sec.section("values")
            start = vsec.number("start", required=True)
            stop = vsec.number("stop", required=True)
            num = vsec.integer("num", required=True, minimum=1)
            values = [float(x) for x in np.linspace(start, stop, num)]
        elif isinstance(values_raw, list) and all(map(_finite_number, values_raw)):
            values = [float(x) for x in values_raw]
        else:
            raise scan_sec.error("'scan.values' must be a list of finite numbers "
                                 "or a {start, stop, num} mapping", "values")

        red_sec = scan_sec.section("reduce")
        if scan_sec.get("reduce") is None:
            reduce = {"mode": "value_at_t", "t": t_end, "window": None}
            resolved["auto_reduce"] = {"mode": "value_at_t", "t": t_end}
            reduce_spec = ReduceSpec("value_at_t", t_end)
        else:
            reduce = {"mode": red_sec.string("mode", required=True, choices=REDUCE_MODES),
                      "t": None, "window": None}
            if reduce["mode"] == "value_at_t":
                reduce["t"] = red_sec.number("t", t_end)
                within_temporal_table(red_sec, "t", "scan.reduce.t", reduce["t"])
                reduce_spec = _built(red_sec, "t", ReduceSpec, "value_at_t", reduce["t"])
            else:
                window = red_sec.get("window")
                if not (isinstance(window, list) and len(window) == 2
                        and all(map(_finite_number, window))):
                    raise red_sec.error(
                        "'scan.reduce.window' must be a [t0, t1] pair of finite numbers",
                        "window")
                reduce["window"] = window = [float(x) for x in window]
                within_temporal_table(red_sec, "window", "scan.reduce.window end", window[1])
                reduce_spec = _built(red_sec, "window", ReduceSpec, "max_over_t",
                                     window=tuple(window))
        scan_spec = _built(scan_sec, "values", ScanSpec, axis, values, gibbs, v, profile,
                           reduce_spec, drift_tol=tolerances["step_drift"])

        if values[0] < 0.0:
            noun = {"temperature": "inverse temperatures",
                    "frequency": "driving frequencies", "time": "times"}[axis]
            raise scan_sec.error(f"{noun} must be >= 0", "values")
        if axis == "temperature":
            _built(scan_sec, "values", make_gibbs, h0, values[-1],
                   rank_floor=tolerances["rank_floor"])
        if axis == "temperature" and env_kind == "tabulated" and (
                values[0] < env.betas[0] or values[-1] > env.betas[-1]):
            raise scan_sec.error(
                "temperature grid leaves the tabulated envelope range "
                f"[{env.betas[0]}, {env.betas[-1]}]", "values")
        if axis == "time":
            within_temporal_table(scan_sec, "values", "scan time", values[-1])
        scan = {"axis": axis, "values": values, "reduce": reduce}

    # ---- estimation / output --------------------------------------------
    # a scan writes no Cramer-Rao column and no kernel; its record keeps the defaults
    est_sec, out_sec = root.section("estimation"), root.section("output")
    for sec, key in ((est_sec, "n_measurements"), (out_sec, "kernel")):
        if scan is not None and key in sec.data:
            raise sec.error(f"a scan config takes no '{sec._dotted(key)}': 'scan' writes "
                            "neither the Cramer-Rao column nor a kernel", key)
    estimation = {"n_measurements": est_sec.integer("n_measurements", 1, minimum=1)}
    # each output is a plain file name inside --out (non-empty, no path
    # separator, not . or ..), and no two outputs name the same file
    output = {}
    for key, default in (("csv", "results.csv"), ("manifest", "manifest.json"),
                         ("kernel", None)):
        name = out_sec.string(key, default)
        if name is not None and (name in ("", ".", "..") or os.path.basename(name) != name):
            raise out_sec.error(f"'output.{key}' must be a plain file name, got {name!r}", key)
        if name is not None and name in output.values():
            other = next(k for k, v in output.items() if v == name)
            raise out_sec.error(f"'output.{key}' and 'output.{other}' name the same file "
                                f"{name!r}", key if key in out_sec.data else other)
        output[key] = name

    config = {"model": model, "drive": drive, "grid": grid, "scan": scan,
              "estimation": estimation, "output": output, "seed": seed,
              "tolerances": tolerances, "resolved_defaults": resolved}
    return LoadedRun(config, gibbs, v, profile, time_grid, scan_spec)
