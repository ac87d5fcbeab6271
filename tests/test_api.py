"""The package's public name list stays in step with what it exports."""

import drivetherm


def test_all_names_resolve():
    missing = [name for name in drivetherm.__all__ if not hasattr(drivetherm, name)]
    assert missing == []
    assert len(set(drivetherm.__all__)) == len(drivetherm.__all__)


def test_star_import():
    namespace = {}
    exec("from drivetherm import *", namespace)
    assert set(drivetherm.__all__) <= set(namespace)
