"""The package's public names: the name list stays in step with what it
exports, and its records are immutable and check their rules on `_replace`."""

import ast
import importlib
from pathlib import Path

import numpy as np
import pytest

import drivetherm
from drivetherm import (ConstantEnvelope, ConstantModulation, CosineModulation, DriveProfile,
                        GaussianEnvelope, ReduceSpec, SIGMA_X, SIGMA_Z, ScanSpec,
                        TabulatedEnvelope, TabulatedModulation, TimeGrid, build_current_trace,
                        make_gibbs, optimize_drive, propagate, qfi_time_series, run_scan)
from drivetherm.drive import _Checked
from drivetherm.operators import HermiticityWarning
from drivetherm.validation import CheckResult

ORACLES = Path(__file__).resolve().parent / "oracles.py"
PACKAGE = Path(__file__).resolve().parent.parent / "src" / "drivetherm"


def test_all_names_resolve():
    missing = [name for name in drivetherm.__all__ if not hasattr(drivetherm, name)]
    assert missing == []
    assert len(set(drivetherm.__all__)) == len(drivetherm.__all__)


def test_star_import():
    namespace = {}
    exec("from drivetherm import *", namespace)
    assert set(drivetherm.__all__) <= set(namespace)


def test_test_oracles_are_not_exported():
    # the reference computations the tests check against live only in tests/
    body = ast.parse(ORACLES.read_text(encoding="utf-8")).body
    defined = {node.name for node in body if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
    defined |= {t.id for node in body if isinstance(node, ast.Assign) for t in node.targets}
    public = {name for name in defined if not name.startswith("_")}
    assert "bloch_precess" in public
    assert public.isdisjoint(set(drivetherm.__all__) | set(vars(drivetherm)))


def test_reference_route_is_called_only_in_engine():
    # build_current_trace and increment_series are the lab-frame reference the
    # tests compare against; no other module of the package calls them
    callers = {}
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            func = getattr(node, "func", None)
            name = getattr(func, "attr", getattr(func, "id", None))
            if name in ("build_current_trace", "increment_series"):
                callers.setdefault(path.name, []).append(node.lineno)
    assert (PACKAGE / "engine.py").is_file()
    assert set(callers) <= {"engine.py"}, callers


def _public_records():
    """One instance of each public record type, built as the package builds it."""
    model = make_gibbs(0.5 * SIGMA_Z, 5.0)
    drive = DriveProfile(0.1, GaussianEnvelope(10.0, 3.0), CosineModulation(1.0))
    trace = propagate(model, SIGMA_X, drive, TimeGrid(1.0, 8))
    spec = ScanSpec("frequency", (0.5, 1.0), model, SIGMA_X, drive, ReduceSpec("value_at_t", 1.0))
    scan = run_scan(spec)
    return [model, drive, drive.envelope, drive.temporal, ConstantEnvelope(), ConstantModulation(),
            TabulatedEnvelope((4.0, 5.0, 6.0), (0.5, 1.0, 0.5)),
            TabulatedModulation((0.0, 1.0), (1.0, 0.0)), trace.grid, trace,
            build_current_trace(trace), qfi_time_series(trace), spec, spec.reduce, scan,
            scan.points[0], optimize_drive(model, SIGMA_X, 1.0, {"omega_d": (1.0, 1.0)},
                                           base_drive=drive),
            CheckResult("check", True, 0.0, 1.0)]


def test_public_records_are_immutable():
    records = _public_records()
    exported = {obj for obj in vars(drivetherm).values()
                if isinstance(obj, type) and issubclass(obj, tuple)}
    assert exported <= {type(r) for r in records}
    for record in records:
        for name in (*record._fields, "_interp", "extra"):
            with pytest.raises(AttributeError):
                setattr(record, name, None)
    # the field-less profiles are objects, not empty tuples, to a truth test
    assert ConstantEnvelope() and ConstantModulation()


def test_checked_records_share_one_policy():
    # every record that checks its rules in __new__ takes the one record
    # policy (drive._Checked), and no class restates a part of that policy
    policy = {"_make", "__eq__", "__ne__", "__hash__", "__setattr__", "__delattr__", "__bool__"}
    checked = []
    for path in sorted(PACKAGE.glob("*.py")):
        module = importlib.import_module(f"drivetherm.{path.stem}".removesuffix(".__init__"))
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if not isinstance(node, ast.ClassDef):
                continue
            cls = getattr(module, node.name)
            defined = {stmt.name for stmt in node.body if isinstance(stmt, ast.FunctionDef)}
            defined |= {target.id for stmt in node.body if isinstance(stmt, ast.Assign)
                        for target in stmt.targets if isinstance(target, ast.Name)}
            if issubclass(cls, tuple) and "__new__" in defined:
                assert issubclass(cls, _Checked), cls
                checked.append(node.name)
            assert cls is _Checked or not defined & policy, (cls, defined & policy)
    assert {"TimeGrid", "ReduceSpec", "ScanSpec", "GaussianEnvelope", "_Tabulated"} <= set(checked)


def _checked_records():
    drive = DriveProfile(0.1, GaussianEnvelope(10.0, 3.0), CosineModulation(1.0))
    spec = ScanSpec("frequency", (0.5, 1.0), make_gibbs(0.5 * SIGMA_Z, 5.0), SIGMA_X, drive,
                    ReduceSpec("value_at_t", 1.0))
    return {
        "GaussianEnvelope": (drive.envelope, {"s_beta": 0.0}),
        "CosineModulation": (drive.temporal, {"omega_d": -1.0}),
        "TimeGrid": (TimeGrid(1.0, 5), {"t_end": 0.0}),
        "ReduceSpec": (spec.reduce, {"mode": "max_over_t"}),
        "ScanSpec": (spec, {"values": (1.0, 0.5)}),
        "TabulatedEnvelope": (TabulatedEnvelope((4.0, 5.0), (0.5, 1.0)), {"betas": (5.0, 4.0)}),
        "TabulatedModulation": (TabulatedModulation((0.0, 1.0), (1.0, 0.0)), {"values": (1.0,)}),
    }


@pytest.mark.parametrize("name", list(_checked_records()))
def test_checks_run_on_replace(name):
    record, bad = _checked_records()[name]
    with pytest.raises(ValueError) as built:
        type(record)(**{**record._asdict(), **bad})
    with pytest.raises(ValueError) as replaced:
        record._replace(**bad)
    assert str(replaced.value) == str(built.value)
    if name == "ScanSpec":  # the normalisations run too
        with pytest.warns(HermiticityWarning):
            spec = record._replace(v=np.array([[0.0, 2.0], [0.0, 0.0]]), values=[1, 2])
        assert np.array_equal(spec.v, [[0.0, 1.0], [1.0, 0.0]])
        assert spec.values == (1.0, 2.0) and all(type(x) is float for x in spec.values)
    if name.startswith("Tabulated"):  # a new table gets its own interpolant
        double = record._replace(values=tuple(2.0 * y for y in record.values))
        mid = 0.5 * (record[0][0] + record[0][1])
        assert double.value(mid) == 2.0 * record.value(mid)
