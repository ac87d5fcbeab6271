"""Run configuration: YAML parsing, validation, and resolution of defaults.

The configuration file is a single YAML document with nested sections
(model / drive / grid / scan / estimation / output).  Validation errors
carry ``file:line`` anchors.  All defaults (grid resolution, beta guard,
tolerances, sampled envelope center) are resolved here so that a run is
fully reproducible from the resolved snapshot stored in the manifest.
"""

import math
import os
from dataclasses import asdict, dataclass, field

import numpy as np
import yaml

from .drive import (ConstantEnvelope, ConstantModulation, CosineModulation,
                    DriveProfile, GaussianEnvelope, TabulatedEnvelope,
                    TabulatedModulation, sample_envelope_center)
from .exceptions import ConfigValidationError
from .operators import PAULI, SIGMA_Z, hermitize
from .propagation import DRIFT_TOL, TimeGrid, default_n_steps
from .scans import AXES, REDUCE_MODES, ReduceSpec, ScanSpec
from .thermal import (RANK_FLOOR, default_beta_max, equilibrium_qfi, make_gibbs,
                      spectral_spread)

TOLERANCE_SCALE_ENV = "DRIVETHERM_TOLERANCE_SCALE"


@dataclass(frozen=True)
class Tolerances:
    """Numerical tolerances; all scaled by the env multiplier on load.

    ``step_drift`` bounds the unitarity drift of every propagation and
    ``rank_floor`` the smallest thermal population, in ``simulate`` and
    ``scan`` alike.
    """

    step_drift: float = DRIFT_TOL
    rank_floor: float = RANK_FLOOR
    scale: float = 1.0

    @classmethod
    def resolve(cls, overrides: dict | None = None) -> "Tolerances":
        """Scaled defaults, then ``overrides`` (range-checked by the loader)."""
        raw = os.environ.get(TOLERANCE_SCALE_ENV, "1.0")
        try:
            scale = float(raw)
        except ValueError:
            scale = math.nan
        if not (math.isfinite(scale) and scale > 0.0):
            raise ValueError(f"{TOLERANCE_SCALE_ENV} must be a finite number > 0, got {raw!r}")
        base = {"step_drift": DRIFT_TOL * scale, "rank_floor": RANK_FLOOR * scale}
        return cls(scale=scale, **{**base, **(overrides or {})})

    def as_dict(self) -> dict:
        return asdict(self)


# --------------------------------------------------------------------------
# YAML loading with per-key line numbers
# --------------------------------------------------------------------------


def _load_yaml_with_lines(path: str):
    """Parse YAML returning (data, {dotted.path: 1-based line})."""
    with open(path, "r", encoding="utf-8") as fh:
        loader = yaml.SafeLoader(fh.read())
    try:
        node = loader.get_single_node()
        data = loader.construct_document(node) if node is not None else None
    except yaml.YAMLError as exc:
        raise ConfigValidationError(f"not valid YAML: {exc}", path=path) from exc
    finally:
        loader.dispose()
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

    def _dotted(self, key):
        return f"{self.prefix}.{key}" if self.prefix else key

    def line(self, key=None):
        return self.lines.get(self._dotted(key) if key else self.prefix)

    def error(self, message, key=None):
        return ConfigValidationError(message, path=self.path, line=self.line(key))

    def __contains__(self, key):
        return key in self.data

    def section(self, key, required=False):
        if key not in self.data or self.data[key] is None:
            if required:
                raise self.error(f"missing required section '{self._dotted(key)}'", key)
            return None
        return _Section(self.data[key], self.lines, self.path, self._dotted(key))

    def get(self, key, default=None):
        return self.data.get(key, default)

    def number(self, key, default=None, *, required=False, minimum=None,
               maximum=None, strict_min=None):
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
        if maximum is not None and value > maximum:
            raise self.error(f"'{self._dotted(key)}' must be <= {maximum}, got {value}", key)
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


# --------------------------------------------------------------------------
# Resolved run configuration
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class RunConfig:
    """Fully resolved run configuration (plain data; objects built on demand)."""

    model_kind: str                      # qubit | diagonal | dense
    omega: float | None
    energies: tuple | None
    h0_dense: tuple | None               # ((re, im), ...) rows, or None
    v_spec: object                       # pauli name or dense rows
    beta_star: float
    lambda0: float
    envelope: dict
    temporal: dict
    t_end: float
    n_steps: int
    scan: dict | None
    n_measurements: int
    csv_name: str
    manifest_name: str
    kernel_csv_name: str | None
    seed: int | None
    tolerances: Tolerances
    resolved_defaults: dict = field(default_factory=dict)

    # ---- builders -------------------------------------------------------

    def build_h0(self) -> np.ndarray:
        return _build_h0(self.model_kind, self.omega, self.energies, self.h0_dense)

    def build_v(self) -> np.ndarray:
        if isinstance(self.v_spec, str):
            return PAULI[self.v_spec].copy()
        return _dense_from_rows(self.v_spec)

    def build_model(self):
        return make_gibbs(self.build_h0(), self.beta_star,
                          rank_floor=self.tolerances.rank_floor)

    def build_drive(self) -> DriveProfile:
        return DriveProfile(
            lambda0=self.lambda0,
            envelope=_build_envelope(self.envelope),
            temporal=_build_temporal(self.temporal),
        )

    def build_grid(self) -> TimeGrid:
        return TimeGrid(self.t_end, self.n_steps)

    def build_scan_spec(self) -> ScanSpec:
        if self.scan is None:
            raise ValueError("configuration has no scan section")
        reduce_spec = ReduceSpec(
            mode=self.scan["reduce"]["mode"],
            t=self.scan["reduce"].get("t"),
            window=tuple(self.scan["reduce"]["window"]) if self.scan["reduce"].get("window") else None,
        )
        return ScanSpec(
            axis=self.scan["axis"],
            values=tuple(self.scan["values"]),
            h0=self.build_h0(),
            v=self.build_v(),
            beta_star=self.beta_star,
            drive=self.build_drive(),
            reduce=reduce_spec,
            drift_tol=self.tolerances.step_drift,
            rank_floor=self.tolerances.rank_floor,
        )

    # ---- round trip ------------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "model": {
                "kind": self.model_kind,
                "omega": self.omega,
                "energies": list(self.energies) if self.energies else None,
                "h0": [list(map(list, row)) for row in self.h0_dense] if self.h0_dense else None,
                "v": self.v_spec if isinstance(self.v_spec, str)
                     else [list(map(list, row)) for row in self.v_spec],
                "beta_star": self.beta_star,
            },
            "drive": {
                "lambda0": self.lambda0,
                "envelope": dict(self.envelope),
                "temporal": dict(self.temporal),
            },
            "grid": {"t_end": self.t_end, "n_steps": self.n_steps},
            "scan": self.scan,
            "estimation": {"n_measurements": self.n_measurements},
            "output": {
                "csv": self.csv_name,
                "manifest": self.manifest_name,
                "kernel": self.kernel_csv_name,
            },
            "seed": self.seed,
            "tolerances": self.tolerances.as_dict(),
            "resolved_defaults": dict(self.resolved_defaults),
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "RunConfig":
        model = payload["model"]
        drive = payload["drive"]
        tol = payload["tolerances"]
        tolerances = Tolerances(step_drift=tol["step_drift"],
                                rank_floor=tol["rank_floor"], scale=tol["scale"])
        return cls(
            model_kind=model["kind"],
            omega=model["omega"],
            energies=tuple(model["energies"]) if model["energies"] else None,
            h0_dense=tuple(tuple(tuple(c) for c in row) for row in model["h0"]) if model["h0"] else None,
            v_spec=model["v"] if isinstance(model["v"], str)
                   else tuple(tuple(tuple(c) for c in row) for row in model["v"]),
            beta_star=model["beta_star"],
            lambda0=drive["lambda0"],
            envelope=dict(drive["envelope"]),
            temporal=dict(drive["temporal"]),
            t_end=payload["grid"]["t_end"],
            n_steps=payload["grid"]["n_steps"],
            scan=payload["scan"],
            n_measurements=payload["estimation"]["n_measurements"],
            csv_name=payload["output"]["csv"],
            manifest_name=payload["output"]["manifest"],
            kernel_csv_name=payload["output"]["kernel"],
            seed=payload["seed"],
            tolerances=tolerances,
            resolved_defaults=dict(payload["resolved_defaults"]),
        )


def _dense_from_rows(rows) -> np.ndarray:
    mat = np.array([[complex(re, im) for re, im in row] for row in rows])
    return hermitize(mat)


def _build_h0(kind: str, omega, energies, rows) -> np.ndarray:
    if kind == "qubit":
        return 0.5 * omega * SIGMA_Z
    if kind == "diagonal":
        return np.diag(np.asarray(energies, dtype=float)).astype(complex)
    return _dense_from_rows(rows)


def _build_envelope(env: dict):
    kind = env["kind"]
    if kind == "gaussian":
        return GaussianEnvelope(beta0=env["beta0"], s_beta=env["s_beta"])
    if kind == "constant":
        return ConstantEnvelope()
    return TabulatedEnvelope(
        betas=tuple(p[0] for p in env["points"]),
        values=tuple(p[1] for p in env["points"]),
    )


def _build_temporal(temp: dict):
    kind = temp["kind"]
    if kind == "cosine":
        return CosineModulation(omega_d=temp["omega_d"], phi=temp["phi"])
    if kind == "constant":
        return ConstantModulation()
    return TabulatedModulation(
        times=tuple(p[0] for p in temp["points"]),
        values=tuple(p[1] for p in temp["points"]),
    )


def _parse_matrix_rows(sec: _Section, key: str, dim: int | None):
    raw = sec.get(key)
    if not isinstance(raw, list) or not raw:
        raise sec.error(f"'{sec._dotted(key)}' must be a list of rows of [re, im] pairs", key)
    rows = []
    for row in raw:
        if not isinstance(row, list):
            raise sec.error(f"'{sec._dotted(key)}' rows must be lists", key)
        entries = []
        for cell in row:
            if not isinstance(cell, list) or len(cell) != 2 or not all(map(_finite_number, cell)):
                raise sec.error(
                    f"'{sec._dotted(key)}' entries must be [re, im] finite number pairs", key)
            entries.append((float(cell[0]), float(cell[1])))
        rows.append(tuple(entries))
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise sec.error(f"'{sec._dotted(key)}' must be square", key)
    if dim is not None and n != dim:
        raise sec.error(f"'{sec._dotted(key)}' must be {dim}x{dim}, got {n}x{n}", key)
    return tuple(rows)


def _parse_pairs(sec: _Section, key: str):
    raw = sec.get(key)
    if not isinstance(raw, list) or len(raw) < 2:
        raise sec.error(f"'{sec._dotted(key)}' must be a list of >= 2 [x, value] pairs", key)
    pairs = []
    for item in raw:
        if not isinstance(item, list) or len(item) != 2 or not all(map(_finite_number, item)):
            raise sec.error(f"'{sec._dotted(key)}' entries must be finite [x, value] pairs", key)
        pairs.append([float(item[0]), float(item[1])])
    if not all(b[0] > a[0] for a, b in zip(pairs, pairs[1:])):
        raise sec.error(f"'{sec._dotted(key)}' abscissa must be strictly increasing", key)
    return pairs


def load_run_config(path: str, *, enforce_guard: bool = True) -> RunConfig:
    """Parse and validate a run configuration file.

    Raises :class:`ConfigValidationError` with ``file:line`` anchors on any
    inconsistency (dimensions, guard violations, malformed scan grids).
    With ``enforce_guard=False`` a beta_star beyond the full-rank guard is
    admitted at parse time so the violation can surface downstream as a
    FullRankViolation (used by ``validate`` to report it as a failed check
    with a remediation hint).
    """
    data, lines = _load_yaml_with_lines(path)
    root = _Section(data, lines, path)
    resolved: dict = {}

    # ---- model ----------------------------------------------------------
    model = root.section("model", required=True)
    kind = model.string("kind", required=True, choices=("qubit", "diagonal", "dense"))
    omega = None
    energies = None
    h0_rows = None
    if kind == "qubit":
        omega = model.number("omega", required=True, strict_min=0.0)
        dim = 2
    elif kind == "diagonal":
        raw = model.get("energies")
        if not isinstance(raw, list) or len(raw) < 2 or not all(map(_finite_number, raw)):
            raise model.error("'model.energies' must be a list of >= 2 finite numbers",
                              "energies")
        energies = tuple(float(x) for x in raw)
        dim = len(energies)
    else:
        h0_rows = _parse_matrix_rows(model, "h0", None)
        dim = len(h0_rows)

    v_raw = model.get("v")
    if isinstance(v_raw, str):
        if v_raw not in PAULI:
            raise model.error(f"'model.v' names an unknown operator {v_raw!r}; "
                              f"expected one of {sorted(PAULI)}", "v")
        if dim != 2:
            raise model.error(f"Pauli perturbation needs a 2-level model, got dim {dim}", "v")
        v_spec: object = v_raw
    else:
        v_spec = _parse_matrix_rows(model, "v", dim)

    beta_star = model.number("beta_star", required=True, minimum=0.0)

    # ---- tolerances / guard ---------------------------------------------
    tol_sec = root.section("tolerances")
    overrides = {}
    for key in tol_sec.data if tol_sec else ():
        if key not in ("rank_floor", "step_drift"):
            raise tol_sec.error(f"unknown tolerance {key!r}; expected one of "
                                "['rank_floor', 'step_drift']", key)
        # a drift bound of 0 fails every run; a population floor of 0 is allowed
        bound = {"minimum": 0.0} if key == "rank_floor" else {"strict_min": 0.0}
        overrides[key] = tol_sec.number(key, **bound)
    try:
        tolerances = Tolerances.resolve(overrides)
    except ValueError as exc:
        raise ConfigValidationError(str(exc), path=path,
                                    line=root.line("tolerances")) from exc

    h0 = _build_h0(kind, omega, energies, h0_rows)
    beta_max = default_beta_max(h0)
    resolved["beta_max"] = beta_max if math.isfinite(beta_max) else None
    if enforce_guard and beta_star > beta_max:
        raise model.error(
            f"beta_star={beta_star} exceeds the full-rank guard beta_max={beta_max:.6g} "
            "(reduce beta_star, or override tolerances.rank_floor knowingly)",
            "beta_star")

    spread = spectral_spread(h0)

    # ---- drive -----------------------------------------------------------
    drive_sec = root.section("drive", required=True)
    lambda0 = drive_sec.number("lambda0", required=True)
    seed = root.integer("seed")

    env_sec = drive_sec.section("envelope", required=True)
    env_kind = env_sec.string("kind", required=True,
                              choices=("gaussian", "constant", "tabulated"))
    env_points = None
    if env_kind == "gaussian":
        s_beta = env_sec.number("s_beta", required=True, strict_min=0.0)
        beta0_raw = env_sec.get("beta0")
        if beta0_raw == "sample":
            if seed is None:
                raise env_sec.error(
                    "'drive.envelope.beta0: sample' needs a top-level 'seed'", "beta0")
            f_eq = equilibrium_qfi(make_gibbs(h0, beta_star,
                                              rank_floor=tolerances.rank_floor))
            beta0 = sample_envelope_center(beta_star, f_eq, seed)
            resolved["sampled_beta0"] = beta0
        else:
            beta0 = env_sec.number("beta0", required=True)
        envelope = {"kind": "gaussian", "beta0": beta0, "s_beta": s_beta}
    elif env_kind == "constant":
        envelope = {"kind": "constant"}
    else:
        env_points = _parse_pairs(env_sec, "points")
        envelope = {"kind": "tabulated", "points": env_points}
        if not env_points[0][0] <= beta_star <= env_points[-1][0]:
            raise env_sec.error(
                f"beta_star={beta_star} outside the tabulated envelope range "
                f"[{env_points[0][0]}, {env_points[-1][0]}]", "points")

    temp_sec = drive_sec.section("temporal", required=True)
    temp_kind = temp_sec.string("kind", required=True,
                                choices=("cosine", "constant", "tabulated"))
    if temp_kind == "cosine":
        temporal = {
            "kind": "cosine",
            "omega_d": temp_sec.number("omega_d", required=True, minimum=0.0),
            "phi": temp_sec.number("phi", 0.0),
        }
    elif temp_kind == "constant":
        temporal = {"kind": "constant"}
    else:
        temporal = {"kind": "tabulated", "points": _parse_pairs(temp_sec, "points")}

    omega_d = temporal.get("omega_d", 0.0)
    t_max = temporal["points"][-1][0] if temp_kind == "tabulated" else math.inf

    def within_temporal_table(sec, key, name, t):
        if t > t_max:
            raise sec.error(
                f"{name}={t} exceeds the tabulated temporal range (max t = {t_max})", key)

    # ---- grid ------------------------------------------------------------
    grid_sec = root.section("grid", required=True)
    t_end = grid_sec.number("t_end", required=True, minimum=0.0)
    n_steps = grid_sec.integer("n_steps", minimum=0)
    if n_steps is None:
        n_steps = default_n_steps(t_end, spread, omega_d)
        resolved["auto_n_steps"] = n_steps
    if (t_end == 0.0) != (n_steps == 0):
        raise grid_sec.error("t_end == 0 requires n_steps == 0 and vice versa", "t_end")
    within_temporal_table(grid_sec, "t_end", "grid.t_end", t_end)

    # ---- scan (optional) ---------------------------------------------------
    scan = None
    scan_sec = root.section("scan")
    if scan_sec is not None:
        axis = scan_sec.string("axis", required=True, choices=AXES)
        if axis == "frequency" and temp_kind != "cosine":
            raise scan_sec.error("frequency scans need a cosine temporal modulation", "axis")
        values_raw = scan_sec.get("values")
        if isinstance(values_raw, dict):
            vsec = scan_sec.section("values")
            start = vsec.number("start", required=True)
            stop = vsec.number("stop", required=True)
            num = vsec.integer("num", required=True, minimum=1)
            if num > 1 and stop <= start:
                raise vsec.error("'scan.values.stop' must exceed 'start'", "stop")
            values = [float(x) for x in np.linspace(start, stop, num)]
        elif isinstance(values_raw, list):
            if not values_raw or not all(map(_finite_number, values_raw)):
                raise scan_sec.error("'scan.values' must be a nonempty list of finite numbers",
                                     "values")
            values = [float(x) for x in values_raw]
        else:
            raise scan_sec.error(
                "'scan.values' must be a list or a {start, stop, num} mapping", "values")
        if not all(b > a for a, b in zip(values, values[1:])):
            raise scan_sec.error("'scan.values' must be strictly increasing", "values")
        if axis == "temperature" and values[0] < 0.0:
            raise scan_sec.error("inverse temperatures must be >= 0", "values")
        if enforce_guard and axis == "temperature" and values[-1] > beta_max:
            raise scan_sec.error(
                f"temperature grid reaches beta={values[-1]} beyond the full-rank "
                f"guard beta_max={beta_max:.6g}", "values")
        if axis == "temperature" and env_points is not None and (
                values[0] < env_points[0][0] or values[-1] > env_points[-1][0]):
            raise scan_sec.error(
                "temperature grid leaves the tabulated envelope range "
                f"[{env_points[0][0]}, {env_points[-1][0]}]", "values")
        if axis == "frequency" and values[0] < 0.0:
            raise scan_sec.error("driving frequencies must be >= 0", "values")
        if axis == "time" and values[0] < 0.0:
            raise scan_sec.error("times must be >= 0", "values")
        if axis == "time":
            within_temporal_table(scan_sec, "values", "scan time", values[-1])

        red_sec = scan_sec.section("reduce")
        if red_sec is None:
            mode = "value_at_t"
            red_t = t_end
            window = None
            resolved["auto_reduce"] = {"mode": mode, "t": red_t}
        else:
            mode = red_sec.string("mode", required=True, choices=REDUCE_MODES)
            red_t = red_sec.number("t") if mode == "value_at_t" else None
            if mode == "value_at_t" and red_t is None:
                red_t = t_end
            window = None
            if mode == "max_over_t":
                raw_window = red_sec.get("window")
                if (not isinstance(raw_window, list) or len(raw_window) != 2
                        or not all(map(_finite_number, raw_window))
                        or not raw_window[1] > raw_window[0] >= 0):
                    raise red_sec.error(
                        "'scan.reduce.window' must be [t0, t1] with t1 > t0 >= 0", "window")
                window = [float(raw_window[0]), float(raw_window[1])]
                within_temporal_table(red_sec, "window", "scan.reduce.window end", window[1])
            if red_t is not None:
                within_temporal_table(red_sec, "t", "scan.reduce.t", red_t)
        scan = {"axis": axis, "values": values,
                "reduce": {"mode": mode, "t": red_t, "window": window}}

    # ---- estimation / output / seed -------------------------------------
    est_sec = root.section("estimation")
    n_measurements = est_sec.integer("n_measurements", 1, minimum=1) if est_sec else 1

    out_sec = root.section("output")
    csv_name = out_sec.string("csv", "results.csv") if out_sec else "results.csv"
    manifest_name = out_sec.string("manifest", "manifest.json") if out_sec else "manifest.json"
    kernel_name = out_sec.string("kernel") if out_sec else None

    return RunConfig(
        model_kind=kind,
        omega=omega,
        energies=energies,
        h0_dense=h0_rows,
        v_spec=v_spec,
        beta_star=beta_star,
        lambda0=lambda0,
        envelope=envelope,
        temporal=temporal,
        t_end=t_end,
        n_steps=n_steps,
        scan=scan,
        n_measurements=n_measurements,
        csv_name=csv_name,
        manifest_name=manifest_name,
        kernel_csv_name=kernel_name,
        seed=seed,
        tolerances=tolerances,
        resolved_defaults=resolved,
    )
