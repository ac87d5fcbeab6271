"""The package's public name list stays in step with what it exports."""

import ast
from pathlib import Path

import drivetherm

ORACLES = Path(__file__).resolve().parent / "oracles.py"


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
