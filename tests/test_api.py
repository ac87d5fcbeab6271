"""The package's public name list stays in step with what it exports."""

import ast
from pathlib import Path

import drivetherm

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
