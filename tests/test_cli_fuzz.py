"""Fuzzed configs: one key of a shipped config set to a bad or edge value.

Whatever the value, ``main`` returns 0, 1 or 2, lets no exception escape,
prints exactly one line to stderr when it fails, and writes only inside
``--out``.  Huge numbers stay out of the pool, so that no fuzzed grid comes
near the memory cap; the grids past it are explicit cases below.
"""

import contextlib
import copy
import io
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from drivetherm.cli import main
from drivetherm.config import _KEYS, _load_yaml_with_lines

CONFIGS = Path(__file__).resolve().parent.parent / "configs"

#: Stands for an absolute path outside ``--out``, filled in per example.
ABSOLUTE = "<absolute>"

POOL = [True, None, "sigma_q", [1.0, 2.0], [[1.0, 2.0], [3.0]], [True, 1.0],
        {"kind": "unknown"}, 0, 0.0, -1, -0.5, 1e-300, math.nan, "", ".", "../escape.csv",
        "sub/x.csv", ABSOLUTE]


def shortened(config):
    """The config with every time it runs to cut to at most 2 pi."""
    config["grid"]["t_end"] = min(config["grid"]["t_end"], 2.0 * math.pi)
    reduce = config.get("scan", {}).get("reduce", {})
    if "t" in reduce:
        reduce["t"] = min(reduce["t"], 2.0 * math.pi)
    return config


BASES = {path.name: shortened(yaml.safe_load(path.read_text(encoding="utf-8")))
         for path in sorted(CONFIGS.glob("*.yaml"))}


def key_paths(section, prefix=""):
    """Every dotted key of ``section``, and every key the loader allows beside them."""
    allowed = _KEYS.get(prefix, ())
    if isinstance(allowed, dict):  # keys of the named kind
        tag = next(iter(allowed.values()))[0]
        allowed = allowed.get(section.get(tag), ())
    paths = []
    for key in dict.fromkeys([*section, *allowed]):
        path = f"{prefix}.{key}" if prefix else key
        paths.append(path)
        if isinstance(section.get(key), dict):
            paths += key_paths(section[key], path)
    return paths


def mutated(config, path, value):
    config = copy.deepcopy(config)
    *parents, key = path.split(".")
    section = config
    for name in parents:
        section = section[name]
    section[key] = value
    return config


@st.composite
def mutations(draw):
    name = draw(st.sampled_from(sorted(BASES)))
    base = BASES[name]
    command = draw(st.sampled_from(["scan" if "scan" in base else "simulate", "validate"]))
    return name, command, draw(st.sampled_from(key_paths(base))), draw(st.sampled_from(POOL))


@settings(max_examples=150)
@given(mutations())
def test_mutated_config_fails_cleanly_inside_out(tmp_path_factory, mutation):
    name, command, path, value = mutation
    root = tmp_path_factory.mktemp("fuzz")
    if value == ABSOLUTE:
        value = str(root / "escape.csv")
    cfg = root / "run.yaml"
    cfg.write_text(yaml.safe_dump(mutated(BASES[name], path, value)), encoding="utf-8")
    work = root / "work"
    work.mkdir()
    argv = [command, "--config", str(cfg)]
    if command != "validate":
        argv += ["--out", str(work / "out")]
    stderr = io.StringIO()
    cwd = os.getcwd()
    os.chdir(work)
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr):
            code = main(argv)
    finally:
        os.chdir(cwd)
    assert code in (0, 1, 2)
    err = stderr.getvalue()
    if code:
        assert err.endswith("\n") and err.count("\n") == 1, err
    written = [p for p in root.rglob("*") if p.is_file() and p != cfg]
    assert all((work / "out") in p.parents for p in written), written


#: (config, command, key set, value, key the error is reported at): grids
#: past propagation.MAX_STACK_BYTES, set directly or through the auto rule.
HUGE_GRIDS = [
    ("fig2b.yaml", "simulate", "grid.n_steps", 10**12, "grid.n_steps"),
    ("fig2b.yaml", "simulate", "grid.t_end", 1.0e9, "grid.t_end"),
    ("fig2b.yaml", "validate", "grid.t_end", 1.0e9, "grid.t_end"),
    ("fig2b.yaml", "simulate", "drive.temporal.omega_d", 1.0e12, "grid.t_end"),
    # 200 steps per period of 1e308 overflows to inf, which saturates
    ("fig2a.yaml", "simulate", "drive.temporal.omega_d", 1.0e308, "grid.t_end"),
    ("fig3.yaml", "scan", "scan.reduce.t", 1.0e9, "scan.values"),
    ("fig3.yaml", "scan", "grid.t_end", 1.0e9, "grid.t_end"),
]


@pytest.mark.parametrize("name, command, path, value, reported", HUGE_GRIDS)
def test_grid_past_the_cap_is_a_config_error(tmp_path, capsys, name, command, path, value,
                                             reported):
    cfg = tmp_path / "run.yaml"
    cfg.write_text(yaml.safe_dump(mutated(BASES[name], path, value)), encoding="utf-8")
    argv = [command, "--config", str(cfg)]
    if command != "validate":
        argv += ["--out", str(tmp_path / "out")]
    tracemalloc.start()
    try:
        code = main(argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 2
    err = capsys.readouterr().err
    line = _load_yaml_with_lines(str(cfg))[1][reported]
    assert err.startswith(f"configuration error: {cfg}:{line}: a grid of ")
    assert err.count("\n") == 1
    assert "exceeds the cap of 8,388,607 steps at d = 2" in err
    assert peak < 16 << 20  # no stack was allocated: one qubit stack at the cap is 512 MiB
    assert not (tmp_path / "out").exists()


FAILING_GIVEN = """\
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(x):
    assert x < 5
"""


def test_failing_given_prints_its_falsifying_example(tmp_path):
    # under the project's warning filters, a failing @given test reports its
    # example rather than ending in an internal error of the plugin
    (tmp_path / "test_failing_given.py").write_text(FAILING_GIVEN, encoding="utf-8")
    pyproject = Path(__file__).resolve().parent.parent / "pyproject.toml"
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(pyproject), "--rootdir", str(tmp_path),
         "-p", "no:cacheprovider", "test_failing_given.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 1, proc.stdout + proc.stderr
    assert "Falsifying example" in proc.stdout
    assert "INTERNALERROR" not in proc.stdout + proc.stderr
