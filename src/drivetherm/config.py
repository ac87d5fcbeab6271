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
import sys
from typing import NamedTuple

import numpy as np
import yaml

from .drive import (ConstantEnvelope, ConstantModulation, CosineModulation,
                    DriveProfile, GaussianEnvelope, TabulatedEnvelope,
                    TabulatedModulation, sample_envelope_center)
from .exceptions import ConfigValidationError, ExtrapolationError, FullRankViolation
from .operators import PAULI, SIGMA_Z, hermitize
from .propagation import DRIFT_TOL, TimeGrid, default_n_steps
from .scans import AXES, REDUCE_MODES, ReduceSpec, ScanSpec
from .thermal import RANK_FLOOR, GibbsModel, equilibrium_qfi, make_gibbs


# --------------------------------------------------------------------------
# YAML loading with per-key line numbers
# --------------------------------------------------------------------------


if not yaml.__with_libyaml__:
    raise ImportError("drivetherm.config needs PyYAML built with libyaml (yaml.CSafeLoader)")


class _Loader(yaml.CSafeLoader):
    """libyaml's SafeLoader that also resolves YAML 1.2 floats, which YAML 1.1
    reads as strings: an exponent without a dot (1e-1) or without a sign (1.0e5)."""


_Loader.add_implicit_resolver(
    "tag:yaml.org,2002:float",
    re.compile(r"^[-+]?(?:\.[0-9]+|[0-9]+(?:\.[0-9]*)?)(?:[eE][-+]?[0-9]+)?$"),
    list("-+.0123456789"))


def _load_yaml_with_lines(path: str):
    """Parse YAML returning (data, {dotted.path: 1-based line}); a key written
    twice in one mapping is an error at its second line."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigValidationError(f"cannot read the file: {exc}", path=path) from exc
    lines: dict[str, int] = {}
    flattened = set()  # an alias walks a mapping again, after its merge keys are gone

    def walk(nd, prefix):
        if isinstance(nd, yaml.MappingNode):
            written = set()
            for key_node, value_node in () if id(nd) in flattened else nd.value:  # as written
                dotted = f"{prefix}.{key_node.value}" if prefix else str(key_node.value)
                if dotted in written:
                    raise ConfigValidationError(f"duplicate key {dotted!r}", path=path,
                                                line=key_node.start_mark.line + 1)
                written.add(dotted)
                if key_node.tag == "tag:yaml.org,2002:merge":  # flattening hides a source's keys
                    many = isinstance(value_node, yaml.SequenceNode)  # <<: [*a, *b]
                    for source in value_node.value if many else [value_node]:
                        walk(source, prefix)
            loader.flatten_mapping(nd)  # merge keys (<<) first: a written key keeps its line
            flattened.add(id(nd))
            for key_node, value_node in nd.value:
                key = str(key_node.value)
                dotted = f"{prefix}.{key}" if prefix else key
                lines[dotted] = key_node.start_mark.line + 1
                walk(value_node, dotted)
        elif isinstance(nd, yaml.SequenceNode):
            for i, item in enumerate(nd.value):
                walk(item, f"{prefix}[{i}]")

    try:  # the loader rejects control characters as it is built
        loader = _Loader(text)
        node = loader.get_single_node()
        walk(node, "")
        data = loader.construct_document(node) if node is not None else None
        loader.dispose()
    except yaml.YAMLError as exc:  # one line, anchored where the parser stopped
        mark = getattr(exc, "problem_mark", None)
        if mark is not None:
            line, problem = mark.line + 1, exc.problem
        else:  # a ReaderError (control character) has a UTF-8 byte offset, not a mark
            position = getattr(exc, "position", None)
            line = None if position is None else text.encode("utf-8").count(b"\n", 0, position) + 1
            problem = str(exc).splitlines()[0]
        raise ConfigValidationError(f"not valid YAML: {problem}", path=path, line=line) from exc
    return data, lines


def _finite_number(x) -> bool:
    """A YAML int or float (not a bool) in the finite float range."""
    return isinstance(x, (int, float)) and not isinstance(x, bool) and abs(x) <= sys.float_info.max


#: Per scalar kind: the test a value passes, and the form its error names.
_SCALARS = {float: (_finite_number, "a finite number"),
            int: (lambda x: isinstance(x, int) and not isinstance(x, bool), "an integer"),
            str: (lambda x: isinstance(x, str), "a string")}


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
        data = {} if data is None else data
        if not isinstance(data, dict):
            raise ConfigValidationError(f"section '{prefix or '<root>'}' must be a mapping",
                                        path=path, line=lines.get(prefix))
        self.data, self.lines, self.path, self.prefix = data, lines, path, prefix
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

    def error(self, message, key=None):
        line = self.lines.get(self._dotted(key) if key else self.prefix)
        return ConfigValidationError(message, path=self.path, line=line)

    def section(self, key, required=False):
        """The sub-mapping at ``key``; empty when absent and not required."""
        if required and self.data.get(key) is None:
            raise self.error(f"missing required section '{self._dotted(key)}'", key)
        return _Section(self.data.get(key), self.lines, self.path, self._dotted(key))

    def value(self, key, default=None, *, kind=float, required=False, minimum=None,
              strict_min=None, choices=None):
        """The scalar at ``key``: a finite number as a float (``kind=float``), an
        integer or a string; ``default`` when absent and not required."""
        if key not in self.data:
            if required:
                raise self.error(f"missing required key '{self._dotted(key)}'", key)
            return default
        value, (accepts, form) = self.data[key], _SCALARS[kind]
        name = f"'{self._dotted(key)}'"
        if not accepts(value):
            raise self.error(f"{name} must be {form}, got {value!r}", key)
        value = kind(value)
        if minimum is not None and value < minimum:
            raise self.error(f"{name} must be >= {minimum}, got {value}", key)
        if strict_min is not None and value <= strict_min:
            raise self.error(f"{name} must be > {strict_min}, got {value}", key)
        if choices is not None and value not in choices:
            raise self.error(f"{name} must be one of {sorted(choices)}, got {value!r}", key)
        return value

    def floats(self, key, form, fits):
        """The nested list at ``key`` as a float array whose shape ``fits``.

        Every leaf must be a finite number (not a bool, NaN or string) and no
        list may be ragged; otherwise the error says the key "must be <form>".
        """
        def finite(x):
            return all(map(finite, x)) if isinstance(x, list) else _finite_number(x)

        raw = self.data.get(key)
        try:  # numpy rejects a ragged list
            array = np.array(raw, dtype=float) if isinstance(raw, list) and finite(raw) else None
        except ValueError:
            array = None
        if array is None or not fits(array.shape):
            raise self.error(f"'{self._dotted(key)}' must be {form}", key)
        return array


def _built(sec: _Section, key, build, *args, **kwargs):
    """``build(*args, **kwargs)``, reporting a constructor's ValueError,
    FullRankViolation or ExtrapolationError at ``key``'s line."""
    try:
        return build(*args, **kwargs)
    except (ValueError, FullRankViolation, ExtrapolationError) as exc:
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


def _dense(sec: _Section, key: str, dim: int | None, model: dict) -> np.ndarray:
    """The complex matrix at ``key``, written as d x d rows of [re, im] pairs
    (any d >= 1, or ``dim``); the rows go into the ``model`` record."""
    size = "a square" if dim is None else f"a {dim}x{dim}"
    rows = sec.floats(key, f"{size} list of rows of finite [re, im] pairs",
                      lambda s: len(s) == 3 and s[0] == s[1] >= 1 and s[2] == 2
                      and dim in (None, s[0]))
    model[key] = rows.tolist()
    return rows.view(complex)[..., 0]


def _hermitian(sec: _Section, key: str, a: np.ndarray) -> np.ndarray:
    """``hermitize(a)`` reported at ``key``, which rejects an overflowing ``a``."""
    with np.errstate(over="ignore"):
        if not (np.isfinite(a + a.conj().T).all() and np.isfinite(np.linalg.norm(a))):
            raise sec.error(f"'{sec._dotted(key)}' is too large: its Hermitian part or "
                            "Frobenius norm is not finite", key)
    return _built(sec, key, hermitize, a)


def _points(sec: _Section, record: dict) -> np.ndarray:
    """The (x, value) columns of the table at ``points``; the pairs go into ``record``."""
    points = sec.floats("points", "a list of >= 2 finite [x, value] pairs",
                        lambda s: len(s) == 2 and s[0] >= 2 and s[1] == 2)
    record["points"] = points.tolist()
    return points.T


def load_run_config(path: str) -> LoadedRun:
    """Parse and validate a run configuration file into the run it describes.

    Raises :class:`ConfigValidationError` with ``file:line`` anchors on any
    inconsistency (unknown keys, dimensions, malformed scan grids), including
    those the drive, grid and scan constructors reject; a rule of
    :class:`scans.ScanSpec` on the scan's values reports at ``scan.values``.
    The Gibbs model at ``beta_star`` must pass the full-rank rule of
    :func:`thermal.make_gibbs` under ``tolerances.rank_floor``, and
    ``ScanSpec`` applies it to the last value of a temperature scan; since the
    smallest population falls with beta, that covers every scan point.
    """
    data, lines = _load_yaml_with_lines(path)
    root = _Section(data, lines, path)
    resolved: dict = {}

    # ---- model ----------------------------------------------------------
    model_sec = root.section("model", required=True)
    kind = model_sec.value("kind", kind=str, required=True, choices=_KEYS["model"])
    model = {"kind": kind, "omega": None, "energies": None, "h0": None}
    # hermitize rejects a model above operators.MAX_DIM levels
    if kind == "qubit":
        model["omega"] = model_sec.value("omega", required=True, strict_min=0.0)
        h0 = 0.5 * model["omega"] * SIGMA_Z
    elif kind == "diagonal":
        energies = model_sec.floats("energies", "a list of >= 2 finite numbers",
                                    lambda s: len(s) == 1 and s[0] >= 2)
        model["energies"] = energies.tolist()
        h0 = _hermitian(model_sec, "energies", np.diag(energies))
    else:
        h0 = _hermitian(model_sec, "h0", _dense(model_sec, "h0", None, model))

    v_raw = model_sec.data.get("v")
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
        v = _hermitian(model_sec, "v", _dense(model_sec, "v", len(h0), model))

    beta_star = model["beta_star"] = model_sec.value("beta_star", required=True, minimum=0.0)

    # ---- tolerances / full-rank model -------------------------------------
    tol_sec = root.section("tolerances")
    tolerances = {"step_drift": DRIFT_TOL, "rank_floor": RANK_FLOOR}
    for key in tol_sec.data:
        # a drift bound of 0 fails every run; a population floor of 0 is allowed
        bound = {"minimum": 0.0} if key == "rank_floor" else {"strict_min": 0.0}
        tolerances[key] = tol_sec.value(key, **bound)
    gibbs = _built(model_sec, "beta_star", make_gibbs, h0, beta_star,
                   rank_floor=tolerances["rank_floor"])

    # ---- drive -----------------------------------------------------------
    drive_sec = root.section("drive", required=True)
    lambda0 = drive_sec.value("lambda0", required=True)
    seed = root.value("seed", kind=int)

    env_sec = drive_sec.section("envelope", required=True)
    env_kind = env_sec.value("kind", kind=str, required=True, choices=_KEYS["drive.envelope"])
    envelope = {"kind": env_kind}
    if env_kind == "gaussian":
        s_beta = env_sec.value("s_beta", required=True)
        if env_sec.data.get("beta0") == "sample":
            if seed is None:
                raise env_sec.error(
                    "'drive.envelope.beta0: sample' needs a top-level 'seed'", "beta0")
            beta0 = resolved["sampled_beta0"] = sample_envelope_center(
                beta_star, equilibrium_qfi(gibbs), seed)
        else:
            beta0 = env_sec.value("beta0", required=True)
        envelope.update(beta0=beta0, s_beta=s_beta)
        env = _built(env_sec, "s_beta", GaussianEnvelope, beta0=beta0, s_beta=s_beta)
    elif env_kind == "tabulated":
        env = _built(env_sec, "points", TabulatedEnvelope, *_points(env_sec, envelope))
    else:
        env = ConstantEnvelope()
    if env_kind == "tabulated" and not env.betas[0] <= beta_star <= env.betas[-1]:
        raise env_sec.error(
            f"beta_star={beta_star} outside the tabulated envelope range "
            f"[{env.betas[0]}, {env.betas[-1]}]", "points")

    temp_sec = drive_sec.section("temporal", required=True)
    temp_kind = temp_sec.value("kind", kind=str, required=True, choices=_KEYS["drive.temporal"])
    temporal = {"kind": temp_kind}
    if temp_kind == "cosine":
        temporal.update(omega_d=temp_sec.value("omega_d", required=True),
                        phi=temp_sec.value("phi", 0.0))
        temp = _built(temp_sec, "omega_d", CosineModulation, temporal["omega_d"],
                      temporal["phi"])
    elif temp_kind == "tabulated":
        temp = _built(temp_sec, "points", TabulatedModulation, *_points(temp_sec, temporal))
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
    t_end = grid_sec.value("t_end", required=True)
    n_steps = grid_sec.value("n_steps", kind=int)
    if n_steps is None:
        n_steps = default_n_steps(t_end, gibbs.spread, profile.omega_d)
        resolved["auto_n_steps"] = n_steps
    time_grid = _built(grid_sec, "t_end", TimeGrid, t_end, n_steps)
    within_temporal_table(grid_sec, "t_end", "grid.t_end", t_end)
    grid = {"t_end": t_end, "n_steps": n_steps}

    # ---- scan (optional) ---------------------------------------------------
    scan = scan_spec = None
    if root.data.get("scan") is not None:
        scan_sec = root.section("scan")
        axis = scan_sec.value("axis", kind=str, required=True, choices=AXES)
        if axis == "time" and scan_sec.data.get("reduce") is not None:
            raise scan_sec.error("a time scan reads each point at its own time; "
                                 "'scan.reduce' applies to frequency and temperature "
                                 "scans only", "reduce")
        if isinstance(scan_sec.data.get("values"), dict):
            vsec = scan_sec.section("values")
            start = vsec.value("start", required=True)
            stop = vsec.value("stop", required=True)
            num = vsec.value("num", kind=int, required=True, minimum=1)
            values = np.linspace(start, stop, num).tolist()
        else:
            values = scan_sec.floats("values", "a list of finite numbers or a {start, stop, "
                                     "num} mapping", lambda s: len(s) == 1).tolist()

        red_sec = scan_sec.section("reduce")
        if scan_sec.data.get("reduce") is None:
            reduce = {"mode": "value_at_t", "t": t_end, "window": None}
            resolved["auto_reduce"] = {"mode": "value_at_t", "t": t_end}
            reduce_spec = ReduceSpec("value_at_t", t_end)
        else:
            mode = red_sec.value("mode", kind=str, required=True, choices=REDUCE_MODES)
            reduce = {"mode": mode, "t": None, "window": None}
            if reduce["mode"] == "value_at_t":
                reduce["t"] = red_sec.value("t", t_end)
                within_temporal_table(red_sec, "t", "scan.reduce.t", reduce["t"])
                reduce_spec = _built(red_sec, "t", ReduceSpec, "value_at_t", reduce["t"])
            else:
                reduce["window"] = window = red_sec.floats(
                    "window", "a [t0, t1] pair of finite numbers", lambda s: s == (2,)).tolist()
                within_temporal_table(red_sec, "window", "scan.reduce.window end", window[1])
                reduce_spec = _built(red_sec, "window", ReduceSpec, "max_over_t",
                                     window=tuple(window))
        scan_spec = _built(scan_sec, "values", ScanSpec, axis, values, gibbs, v, profile,
                           reduce_spec, drift_tol=tolerances["step_drift"])
        scan = {"axis": axis, "values": values, "reduce": reduce}

    # ---- estimation / output --------------------------------------------
    # a scan reads no step count, and writes no Cramer-Rao column and no
    # kernel; its record keeps the defaults
    est_sec, out_sec = root.section("estimation"), root.section("output")
    if scan is not None and "n_steps" in grid_sec.data:
        raise grid_sec.error("a scan config takes no 'grid.n_steps': each scan point "
                             "propagates on the default rule at its own evaluation time "
                             "and omega_d", "n_steps")
    for sec, key in ((est_sec, "n_measurements"), (out_sec, "kernel")):
        if scan is not None and key in sec.data:
            raise sec.error(f"a scan config takes no '{sec._dotted(key)}': 'scan' writes "
                            "neither the Cramer-Rao column nor a kernel", key)
    estimation = {"n_measurements": est_sec.value("n_measurements", 1, kind=int, minimum=1)}
    # each output is a plain file name inside --out (non-empty, no path
    # separator, not . or ..), and no two outputs name the same file
    output = {}
    for key, default in (("csv", "results.csv"), ("manifest", "manifest.json"),
                         ("kernel", None)):
        name = out_sec.value(key, default, kind=str)
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
