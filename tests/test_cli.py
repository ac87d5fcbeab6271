import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from drivetherm import cli, engine, propagation
from drivetherm.cli import main
from drivetherm.config import RunConfig, load_run_config
from drivetherm.exceptions import ConfigValidationError, DriveThermError
from drivetherm.reporting import (config_content_hash, config_from_manifest,
                                  read_csv, read_manifest, sha256_file)

ROOT = Path(__file__).resolve().parent.parent

BASE_CONFIG = """\
# minimal resonant run
model:
  kind: qubit
  omega: 1.0
  v: sigma_x
  beta_star: 5.0
drive:
  lambda0: 0.1
  envelope: {kind: gaussian, beta0: 10.0, s_beta: 3.0}
  temporal: {kind: cosine, omega_d: 1.0, phi: 0.0}
grid:
  t_end: 6.283185307179586
output:
  csv: run.csv
  manifest: run.json
"""

SCAN_CONFIG = """\
model:
  kind: qubit
  omega: 1.0
  v: sigma_x
  beta_star: 5.0
drive:
  lambda0: 0.1
  envelope: {kind: gaussian, beta0: 10.0, s_beta: 3.0}
  temporal: {kind: cosine, omega_d: 1.0, phi: 0.0}
grid:
  t_end: 6.283185307179586
scan:
  axis: frequency
  values: [0.5, 1.0, 2.0]
  reduce: {mode: value_at_t, t: 6.283185307179586}
output:
  csv: scan.csv
  manifest: scan.json
"""


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


def test_simulate_end_to_end(tmp_path):
    cfg = write(tmp_path, "run.yaml", BASE_CONFIG)
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0

    manifest = read_manifest(out / "run.json")
    manifest_hash, header, rows = read_csv(out / "run.csv")
    assert manifest_hash == manifest["content_hash"]
    assert header == ["t", "F_eq", "I_t", "F_total", "F_spectral",
                      "rel_disagreement", "crb_sigma"]
    assert len(rows) == manifest["diagnostics"]["rows"] == 201
    assert manifest["files"]["run.csv"] == sha256_file(out / "run.csv")
    for row in rows:
        t, f_eq, i_t, f_total, f_spec, rel, crb = row
        assert abs(f_total - (f_eq + i_t)) < 1e-16
        assert rel <= 1e-6
        assert abs(crb - 1.0 / math.sqrt(f_total)) < 1e-12
    # first row: no drive accumulated yet
    assert rows[0][0] == 0.0 and rows[0][2] == 0.0


def test_simulate_17_digit_round_trip(tmp_path):
    cfg = write(tmp_path, "run.yaml", BASE_CONFIG)
    out = tmp_path / "out"
    main(["simulate", "--config", str(cfg), "--out", str(out)])
    text = (out / "run.csv").read_text().splitlines()
    cell = text[2].split(",")[1]  # F_eq of the first row
    import drivetherm
    model = drivetherm.make_gibbs(0.5 * drivetherm.SIGMA_Z, 5.0)
    exact = drivetherm.equilibrium_qfi(model)
    assert float(cell) == exact  # lossless double round trip


def test_manifest_round_trips_config(tmp_path):
    cfg = write(tmp_path, "run.yaml", BASE_CONFIG)
    out = tmp_path / "out"
    main(["simulate", "--config", str(cfg), "--out", str(out)])
    manifest = read_manifest(out / "run.json")
    loaded = load_run_config(str(cfg))
    rebuilt = config_from_manifest(manifest)
    assert rebuilt == loaded
    assert config_content_hash(rebuilt) == manifest["content_hash"]


def test_simulate_zero_drive_rows(tmp_path):
    cfg = write(tmp_path, "run.yaml", BASE_CONFIG.replace("lambda0: 0.1", "lambda0: 0.0"))
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
    _, _, rows = read_csv(out / "run.csv")
    for row in rows:
        assert row[2] == 0.0          # I_t
        assert row[3] == row[1]       # F_total == F_eq


def test_simulate_degenerate_time_grid(tmp_path):
    text = BASE_CONFIG.replace("t_end: 6.283185307179586", "t_end: 0.0")
    cfg = write(tmp_path, "run.yaml", text)
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
    _, _, rows = read_csv(out / "run.csv")
    assert len(rows) == 1 and rows[0][3] == rows[0][1]


def test_simulate_rejects_scan_config(tmp_path):
    cfg = write(tmp_path, "scan.yaml", SCAN_CONFIG)
    assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2


def test_simulate_numerical_failure_exit_code(tmp_path):
    # absurdly tight drift tolerance turns roundoff into a numerical failure
    text = BASE_CONFIG + "tolerances: {step_drift: 1.0e-30}\n"
    cfg = write(tmp_path, "run.yaml", text)
    assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1


def test_scan_end_to_end(tmp_path):
    cfg = write(tmp_path, "scan.yaml", SCAN_CONFIG)
    out = tmp_path / "out"
    assert main(["scan", "--config", str(cfg), "--out", str(out)]) == 0
    manifest = read_manifest(out / "scan.json")
    manifest_hash, header, rows = read_csv(out / "scan.csv")
    assert header == ["omega_d", "F_eq", "I_t", "F_total", "F_spectral"]
    assert [r[0] for r in rows] == [0.5, 1.0, 2.0]
    assert manifest["diagnostics"]["argmax"] == 1.0
    assert manifest_hash == manifest["content_hash"]


def test_scan_parallelism_deterministic(tmp_path):
    cfg = write(tmp_path, "scan.yaml", SCAN_CONFIG)
    out1, out2 = tmp_path / "o1", tmp_path / "o2"
    assert main(["scan", "--config", str(cfg), "--out", str(out1),
                 "--parallelism", "1"]) == 0
    assert main(["scan", "--config", str(cfg), "--out", str(out2),
                 "--parallelism", "4"]) == 0
    assert (out1 / "scan.csv").read_bytes() == (out2 / "scan.csv").read_bytes()


def test_scan_requires_scan_section(tmp_path):
    cfg = write(tmp_path, "run.yaml", BASE_CONFIG)
    assert main(["scan", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2


def test_scan_empty_grid_rejected(tmp_path):
    cfg = write(tmp_path, "scan.yaml", SCAN_CONFIG.replace("[0.5, 1.0, 2.0]", "[]"))
    assert main(["scan", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2


def test_config_errors_carry_line_numbers(tmp_path):
    bad = BASE_CONFIG.replace("lambda0: 0.1", "lambda0: strong")
    cfg = write(tmp_path, "bad.yaml", bad)
    with pytest.raises(ConfigValidationError) as err:
        load_run_config(str(cfg))
    assert "bad.yaml:8" in str(err.value)
    assert "lambda0" in str(err.value)


def test_config_guard_violation_is_validation_error(tmp_path):
    cfg = write(tmp_path, "bad.yaml", BASE_CONFIG.replace("beta_star: 5.0",
                                                          "beta_star: 80.0"))
    assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    with pytest.raises(ConfigValidationError, match="beta_max"):
        load_run_config(str(cfg))
    # validate admits the config at parse time and reports the violation
    loaded = load_run_config(str(cfg), enforce_guard=False)
    assert loaded.model["beta_star"] == 80.0


def test_config_auto_grid_resolution(tmp_path):
    cfg = write(tmp_path, "run.yaml", BASE_CONFIG)
    loaded = load_run_config(str(cfg))
    assert loaded.grid["n_steps"] == 200  # one period at 200 steps/period
    assert loaded.resolved_defaults["auto_n_steps"] == 200


def test_config_envelope_center_sampler(tmp_path):
    text = BASE_CONFIG.replace("beta0: 10.0", "beta0: sample") + "seed: 42\n"
    cfg = write(tmp_path, "run.yaml", text)
    loaded = load_run_config(str(cfg))
    drawn = loaded.drive["envelope"]["beta0"]
    assert loaded.resolved_defaults["sampled_beta0"] == drawn
    f_eq = 0.25 / np.cosh(2.5) ** 2
    half = 1.0 / math.sqrt(f_eq)
    assert max(0.0, 5.0 - half) <= drawn <= 5.0 + half
    assert load_run_config(str(cfg)).drive["envelope"]["beta0"] == drawn  # deterministic
    # sampling without a seed is rejected
    nosave = write(tmp_path, "apt.yaml",
                   BASE_CONFIG.replace("beta0: 10.0", "beta0: sample"))
    with pytest.raises(ConfigValidationError, match="seed"):
        load_run_config(str(nosave))


def test_tolerance_scale_env(tmp_path, monkeypatch):
    monkeypatch.setenv("DRIVETHERM_TOLERANCE_SCALE", "10.0")
    cfg = write(tmp_path, "run.yaml", BASE_CONFIG)
    loaded = load_run_config(str(cfg))
    assert loaded.tolerances.scale == 10.0
    assert loaded.tolerances.step_drift == 1e-7
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
    manifest = read_manifest(out / "run.json")
    assert manifest["config"]["tolerances"]["scale"] == 10.0


@pytest.mark.parametrize("scale", ["nan", "inf", "-1", "0", "abc"])
def test_tolerance_scale_must_be_finite_positive(tmp_path, monkeypatch, capsys, scale):
    monkeypatch.setenv("DRIVETHERM_TOLERANCE_SCALE", scale)
    cfg = write(tmp_path, "run.yaml", BASE_CONFIG)
    assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error")
    assert "DRIVETHERM_TOLERANCE_SCALE must be a finite number > 0" in err


def test_kernel_output(tmp_path):
    text = BASE_CONFIG.replace("manifest: run.json",
                               "manifest: run.json\n  kernel: kern.csv")
    cfg = write(tmp_path, "run.yaml", text)
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
    _, header, rows = read_csv(out / "kern.csv")
    assert header == ["s", "u", "K_S"]
    diag = {(r[0], r[1]): r[2] for r in rows}
    for (s, u), val in diag.items():
        assert abs(val - diag[(u, s)]) < 1e-12  # symmetrized kernel


def test_dense_model_config(tmp_path):
    text = """\
model:
  kind: dense
  h0:
    - [[0.5, 0.0], [0.1, 0.2]]
    - [[0.1, -0.2], [-0.5, 0.0]]
  v:
    - [[0.0, 0.0], [1.0, 0.0]]
    - [[1.0, 0.0], [0.0, 0.0]]
  beta_star: 2.0
drive:
  lambda0: 0.05
  envelope: {kind: gaussian, beta0: 4.0, s_beta: 2.0}
  temporal: {kind: cosine, omega_d: 1.0, phi: 0.0}
grid: {t_end: 3.0}
"""
    cfg = write(tmp_path, "dense.yaml", text)
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
    _, _, rows = read_csv(out / "results.csv")
    assert all(r[5] <= 1e-6 for r in rows)
    loaded = load_run_config(str(cfg))
    rebuilt = config_from_manifest(read_manifest(out / "manifest.json"))
    assert rebuilt == loaded  # dense matrices survive the round trip exactly


def test_tabulated_envelope_must_cover_beta_star(tmp_path):
    text = """\
model: {kind: qubit, omega: 1.0, v: sigma_x, beta_star: 9.0}
drive:
  lambda0: 0.05
  envelope:
    kind: tabulated
    points: [[0.0, 0.2], [4.0, 1.0]]
  temporal: {kind: cosine, omega_d: 1.0, phi: 0.0}
grid: {t_end: 1.0}
"""
    cfg = write(tmp_path, "out.yaml", text)
    with pytest.raises(ConfigValidationError, match="tabulated envelope range"):
        load_run_config(str(cfg))


def test_diagonal_model_config(tmp_path):
    text = """\
model:
  kind: diagonal
  energies: [-0.6, 0.1, 0.5]
  v:
    - [[0.0, 0.0], [1.0, 0.0], [0.0, 0.5]]
    - [[1.0, 0.0], [0.0, 0.0], [1.0, 0.0]]
    - [[0.0, -0.5], [1.0, 0.0], [0.0, 0.0]]
  beta_star: 1.5
drive:
  lambda0: 0.05
  envelope: {kind: gaussian, beta0: 3.0, s_beta: 2.0}
  temporal: {kind: cosine, omega_d: 0.9, phi: 0.3}
grid: {t_end: 4.0}
"""
    cfg = write(tmp_path, "diag.yaml", text)
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
    _, _, rows = read_csv(out / "results.csv")
    assert all(r[5] <= 1e-6 for r in rows)


def test_config_dimension_mismatch_rejected(tmp_path):
    text = """\
model:
  kind: diagonal
  energies: [-0.5, 0.5]
  v:
    - [[0.0, 0.0], [1.0, 0.0], [0.0, 0.0]]
    - [[1.0, 0.0], [0.0, 0.0], [0.0, 0.0]]
    - [[0.0, 0.0], [0.0, 0.0], [0.0, 0.0]]
  beta_star: 1.0
drive:
  lambda0: 0.1
  envelope: {kind: constant}
  temporal: {kind: constant}
grid: {t_end: 1.0}
"""
    cfg = write(tmp_path, "bad.yaml", text)
    with pytest.raises(ConfigValidationError, match="2x2"):
        load_run_config(str(cfg))


def test_round_trip_from_dict_identity(tmp_path):
    cfg = write(tmp_path, "scan.yaml", SCAN_CONFIG)
    loaded = load_run_config(str(cfg))
    assert RunConfig.from_dict(json.loads(json.dumps(loaded.to_dict()))) == loaded


def test_tabulated_profiles_through_config(tmp_path):
    text = """\
model:
  kind: qubit
  omega: 1.0
  v: sigma_x
  beta_star: 2.0
drive:
  lambda0: 0.05
  envelope:
    kind: tabulated
    points: [[0.0, 0.2], [2.0, 1.0], [4.0, 0.3], [8.0, 0.1]]
  temporal:
    kind: tabulated
    points: [[0.0, 1.0], [2.0, 0.3], [5.0, -0.8], [8.0, 0.2]]
grid: {t_end: 6.0, n_steps: 600}
"""
    cfg = write(tmp_path, "tab.yaml", text)
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
    _, _, rows = read_csv(out / "results.csv")
    assert all(r[5] <= 1e-6 for r in rows)
    # round trip preserves the tabulated points exactly
    loaded = load_run_config(str(cfg))
    manifest = read_manifest(out / "results.json") if (out / "results.json").exists() \
        else read_manifest(out / "manifest.json")
    assert config_from_manifest(manifest) == loaded


def test_tabulated_temporal_must_cover_grid(tmp_path):
    text = """\
model: {kind: qubit, omega: 1.0, v: sigma_x, beta_star: 2.0}
drive:
  lambda0: 0.05
  envelope: {kind: constant}
  temporal:
    kind: tabulated
    points: [[0.0, 1.0], [2.0, 0.5]]
grid: {t_end: 6.0}
"""
    cfg = write(tmp_path, "short.yaml", text)
    with pytest.raises(ConfigValidationError, match="tabulated temporal range"):
        load_run_config(str(cfg))


TABULATED_TEMPORAL = """\
model: {kind: qubit, omega: 1.0, v: sigma_x, beta_star: 2.0}
drive:
  lambda0: 0.05
  envelope: {kind: gaussian, beta0: 4.0, s_beta: 2.0}
  temporal:
    kind: tabulated
    points: [[0, 1], [1, 0.5], [2, 0]]
"""


def test_validate_numerical_failure_exits_cleanly(tmp_path, capsys, monkeypatch):
    def fail(config):
        raise DriveThermError("t outside tabulated range")

    monkeypatch.setattr(cli, "run_checks", fail)
    cfg = write(tmp_path, "short.yaml", TABULATED_TEMPORAL + "grid: {t_end: 0}\n")
    assert main(["validate", "--config", str(cfg)]) == 1
    assert capsys.readouterr().err.startswith("numerical failure")


def test_validate_runs_on_short_tabulated_temporal_table(tmp_path, capsys):
    # t_end = 0 lets validate pick its horizon: 4 pi, cut to the table's end
    cfg = write(tmp_path, "short.yaml", TABULATED_TEMPORAL + "grid: {t_end: 0}\n")
    assert main(["validate", "--config", str(cfg)]) == 0
    assert "checks passed" in capsys.readouterr().out


def test_validate_honours_configured_step_drift(tmp_path, capsys):
    # the configured model's propagations obey tolerances.step_drift, as in simulate
    text = (ROOT / "configs" / "fig2a.yaml").read_text(encoding="utf-8")
    cfg = write(tmp_path, "tight.yaml", text + "tolerances: {step_drift: 1.0e-20}\n")
    assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
    assert main(["validate", "--config", str(cfg)]) == 1
    assert "exceeds 1.0e-20" in capsys.readouterr().err


@pytest.mark.parametrize("scan, key", [
    ("axis: time\n  values: [0.5, 1.0, 3.0]\n", "values"),
    ("axis: temperature\n  values: [1.0, 2.0]\n  reduce:\n    mode: value_at_t\n"
     "    t: 3.0\n", "t"),
    ("axis: temperature\n  values: [1.0, 2.0]\n  reduce:\n    mode: max_over_t\n"
     "    window: [0.5, 3.0]\n", "window"),
], ids=["time-axis", "reduce.t", "reduce.window"])
def test_scan_times_past_tabulated_temporal_table_rejected(tmp_path, capsys, scan, key):
    text = TABULATED_TEMPORAL + "grid: {t_end: 2.0}\nscan:\n  " + scan
    line = next(i for i, x in enumerate(text.splitlines(), 1) if x.strip().startswith(f"{key}:"))
    cfg = write(tmp_path, "scan.yaml", text)
    assert main(["scan", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert f"scan.yaml:{line}:" in err and "tabulated temporal range" in err


def test_cli_loads_no_scipy(tmp_path):
    # scipy is a test-only dependency: a fresh CLI run must not import it
    script = (
        "import sys\n"
        "from drivetherm.cli import main\n"
        f"code = main(['simulate', '--config', {str(ROOT / 'configs' / 'fig2a.yaml')!r},"
        f" '--out', {str(tmp_path)!r}])\n"
        "print(code, sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, timeout=300, check=False)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "0 []"


def test_unknown_tolerance_key_rejected(tmp_path):
    cfg = write(tmp_path, "bad.yaml", BASE_CONFIG + "tolerances: {fuzziness: 1.0}\n")
    with pytest.raises(ConfigValidationError, match="unknown tolerance"):
        load_run_config(str(cfg))
    # keys that nothing read are gone from the schema
    for key in ("unitarity", "hermiticity_warn", "bloch_norm"):
        cfg = write(tmp_path, f"{key}.yaml", BASE_CONFIG + f"tolerances: {{{key}: 1.0e-10}}\n")
        assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2


DIAGONAL_CONFIG = """\
model:
  kind: diagonal
  energies: [0.0, 1.0]
  v:
    - [[0.0, 0.0], [1.0, 0.0]]
    - [[1.0, 0.0], [0.0, 0.0]]
  beta_star: 1.0
drive:
  lambda0: 0.1
  envelope: {kind: gaussian, beta0: 2.0, s_beta: 1.0}
  temporal: {kind: cosine, omega_d: 1.0, phi: 0.0}
grid: {t_end: 1.0}
"""


@pytest.mark.parametrize("base, old, new", [
    (BASE_CONFIG, "lambda0: 0.1", "lambda0: .nan"),
    (BASE_CONFIG, "beta_star: 5.0", "beta_star: .nan"),
    (BASE_CONFIG, "t_end: 6.283185307179586", "t_end: .inf"),
    (DIAGONAL_CONFIG, "energies: [0.0, 1.0]", "energies: [0, .nan]"),
    (SCAN_CONFIG, "values: [0.5, 1.0, 2.0]", "values: [.nan]"),
    (SCAN_CONFIG, "reduce: {mode: value_at_t, t: 6.283185307179586}",
     "reduce: {mode: max_over_t, window: [0.0, .inf]}"),
    (BASE_CONFIG + "tolerances: {step_drift: 1.0e-8}\n", "1.0e-8", ".nan"),
], ids=["lambda0", "beta_star", "t_end", "energies", "scan.values",
        "scan.reduce.window", "tolerances.step_drift"])
def test_non_finite_config_number_rejected(tmp_path, capsys, base, old, new):
    text = base.replace(old, new)
    line = text.splitlines().index(next(x for x in text.splitlines() if new in x)) + 1
    cfg = write(tmp_path, "bad.yaml", text)
    command = "scan" if "scan:" in text else "simulate"
    assert main([command, "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    assert f"bad.yaml:{line}:" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("override", ["step_drift: -1.0e-8", "step_drift: 0.0",
                                      "rank_floor: -1.0"])
def test_out_of_range_tolerance_rejected(tmp_path, capsys, override):
    text = BASE_CONFIG + f"tolerances: {{{override}}}\n"
    cfg = write(tmp_path, "bad.yaml", text)
    assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    assert f"bad.yaml:{len(text.splitlines())}:" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_tolerance_range_error_points_at_its_key(tmp_path, capsys):
    # block style: the error names the key's own line, not the section's
    lines = BASE_CONFIG.splitlines()
    text = "\n".join(lines[:10] + ["grid: {t_end: 6.283185307179586}", "tolerances:",
                                    "  rank_floor: 1.0e-18", "  step_drift: -1.0"]
                      + lines[-3:]) + "\n"
    assert text.splitlines()[11] == "tolerances:"
    cfg = write(tmp_path, "anchor.yaml", text)
    assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert "anchor.yaml:14:" in err and "step_drift" in err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("value", ["true", "'1e-8'", "[1]"],
                         ids=["bool", "string", "list"])
def test_tolerance_override_must_be_a_number(tmp_path, capsys, value):
    text = BASE_CONFIG + f"tolerances:\n  step_drift: {value}\n"
    cfg = write(tmp_path, "bad.yaml", text)
    assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert f"bad.yaml:{len(text.splitlines())}:" in err and "finite number" in err
    assert not (tmp_path / "o").exists()


def test_scan_honours_rank_floor(tmp_path):
    # beta = 44 leaves a smallest population of 7.8e-20: below the default
    # rank floor, above the configured one, as simulate already allows
    text = (SCAN_CONFIG.replace("axis: frequency", "axis: temperature")
            .replace("[0.5, 1.0, 2.0]", "[43.0, 44.0]")
            + "tolerances: {rank_floor: 1.0e-30}\n")
    cfg = write(tmp_path, "scan.yaml", text)
    out = tmp_path / "out"
    assert main(["scan", "--config", str(cfg), "--out", str(out)]) == 0
    _, _, rows = read_csv(out / "scan.csv")
    assert [r[0] for r in rows] == [43.0, 44.0]
    tolerances = read_manifest(out / "scan.json")["config"]["tolerances"]
    assert tolerances["rank_floor"] == 1e-30


def test_simulate_with_kernel_propagates_once(tmp_path, monkeypatch):
    calls = []
    original = propagation.propagate

    def counted(*args, **kwargs):
        calls.append(args[3].n_steps)
        return original(*args, **kwargs)

    for module in (cli, engine, propagation):
        if getattr(module, "propagate", None) is original:
            monkeypatch.setattr(module, "propagate", counted)
    text = BASE_CONFIG.replace("manifest: run.json",
                               "manifest: run.json\n  kernel: kern.csv")
    cfg = write(tmp_path, "run.yaml", text)
    assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 0
    assert calls == [200]


def test_pauli_perturbation_needs_two_levels(tmp_path):
    text = """\
model:
  kind: diagonal
  energies: [-0.5, 0.0, 0.5]
  v: sigma_x
  beta_star: 1.0
drive:
  lambda0: 0.1
  envelope: {kind: constant}
  temporal: {kind: constant}
grid: {t_end: 1.0}
"""
    cfg = write(tmp_path, "bad.yaml", text)
    with pytest.raises(ConfigValidationError, match="2-level"):
        load_run_config(str(cfg))


@pytest.mark.parametrize("old, new, key", [
    ("output:", "outputs:", "outputs"),
    ("t_end: 6.283185307179586", "t_end: 6.283185307179586\n  n_step: 7", "n_step"),
    ("s_beta: 3.0}", "s_beta: 3.0, width: 2.0}", "envelope"),
], ids=["root", "grid", "envelope"])
def test_unknown_config_key_rejected(tmp_path, capsys, old, new, key):
    text = BASE_CONFIG.replace(old, new)
    line = next(i for i, x in enumerate(text.splitlines(), 1) if x.strip().startswith(key))
    cfg = write(tmp_path, "typo.yaml", text)
    assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert f"typo.yaml:{line}:" in err and "unknown" in err
    assert not (tmp_path / "o").exists()


#: config_content_hash prefixes of the shipped recipes; a change to either the
#: resolved record or its serialization shows up here.
SHIPPED_CONFIG_HASHES = {
    "fig2a": "fa60735d2ac3",
    "fig2b": "a21f8dc6338a",
    "fig2c": "4d969c51ea29",
    "fig3": "5514796fd51f",
    "fig3_shifted": "b3e3d694c1ce",
}


@pytest.mark.parametrize("path", sorted((ROOT / "configs").glob("*.yaml")),
                         ids=lambda p: p.stem)
def test_shipped_config_keeps_its_identity(path):
    loaded = load_run_config(str(path))
    assert RunConfig.from_dict(json.loads(json.dumps(loaded.to_dict()))) == loaded
    assert config_content_hash(loaded)[:12] == SHIPPED_CONFIG_HASHES[path.stem]


BLOCK_SCAN_CONFIG = """\
model:
  kind: qubit
  omega: 1.0
  v: sigma_x
  beta_star: 5.0
drive:
  lambda0: 0.1
  envelope:
    kind: gaussian
    beta0: 10.0
    s_beta: 3.0
  temporal:
    kind: cosine
    omega_d: 1.0
    phi: 0.0
grid:
  t_end: 6.0
  n_steps: 60
scan:
  axis: frequency
  values: [0.5, 1.0]
  reduce:
    mode: value_at_t
    t: 6.0
"""


@pytest.mark.parametrize("old, new, line, message", [
    ("    kind: gaussian\n    beta0: 10.0\n    s_beta: 3.0\n",
     "    kind: tabulated\n    points: [[0.0, 0.2], [8.0, 1.0], [4.0, 0.3]]\n",
     10, "strictly increasing"),
    ("    kind: cosine\n    omega_d: 1.0\n    phi: 0.0\n",
     "    kind: tabulated\n    points: [[0.0, 1.0], [9.0, 0.5], [7.0, 0.0]]\n",
     14, "strictly increasing"),
    ("t_end: 6.0", "t_end: 0.0", 17, "t_end == 0 requires n_steps == 0"),
    ("t_end: 6.0", "t_end: -1.0", 17, "t_end must be >= 0"),
    ("n_steps: 60", "n_steps: -5", 17, "n_steps must be >= 0"),
    ("    kind: cosine\n    omega_d: 1.0\n    phi: 0.0\n", "    kind: constant\n",
     19, "cosine"),
    ("values: [0.5, 1.0]", "values: [1.0, 0.5]", 21, "strictly increasing"),
    ("values: [0.5, 1.0]", "values:\n    start: 1.0\n    stop: 0.5\n    num: 3",
     21, "strictly increasing"),
    ("mode: value_at_t\n    t: 6.0", "mode: max_over_t\n    window: [3.0, 1.0]",
     24, "t1 > t0 >= 0"),
    ("    t: 6.0", "    t: -1.0", 24, "t >= 0"),
    ("s_beta: 3.0", "s_beta: 0.0", 11, "s_beta must be > 0"),
    ("omega_d: 1.0", "omega_d: -1.0", 14, "omega_d must be >= 0"),
], ids=["envelope-abscissa", "temporal-abscissa", "t_end-iff-n_steps", "t_end-sign",
        "n_steps-sign", "frequency-needs-cosine", "values-increasing",
        "values-stop-le-start", "max_over_t-window", "reduce-t-sign", "s_beta", "omega_d"])
def test_constructor_rules_fail_at_load_time(tmp_path, capsys, old, new, line, message):
    # each rule lives in its domain constructor; the loader anchors its error
    text = BLOCK_SCAN_CONFIG.replace(old, new)
    assert text != BLOCK_SCAN_CONFIG
    cfg = write(tmp_path, "rule.yaml", text)
    assert main(["scan", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert f"rule.yaml:{line}:" in err and message in err
    assert not (tmp_path / "o").exists()
