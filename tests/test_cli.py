import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from drivetherm import (cli, config, drive, engine, propagation, scans, thermal,
                        validation)
from drivetherm.cli import main
from drivetherm.config import load_run_config
from drivetherm.exceptions import ConfigValidationError, DriveThermError
from drivetherm.reporting import config_content_hash, read_csv, sha256_file

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


def read_json(path):
    return json.loads(Path(path).read_text(encoding="utf-8"))


def test_simulate_end_to_end(tmp_path):
    cfg = write(tmp_path, "run.yaml", BASE_CONFIG)
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0

    manifest = read_json(out / "run.json")
    manifest_hash, header, rows = read_csv(out / "run.csv")
    assert manifest_hash == manifest["content_hash"]
    assert header == ["t", "F_eq", "I_t", "F_total", "F_spectral",
                      "rel_disagreement", "crb_sigma"]
    assert len(rows) == manifest["diagnostics"]["rows"] == 201
    assert manifest["files"]["run.csv"] == sha256_file(out / "run.csv")
    assert manifest["config"]["tolerances"] == {"step_drift": 1e-8, "rank_floor": 1e-18}
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
    manifest = read_json(out / "run.json")
    loaded = load_run_config(str(cfg)).config
    assert manifest["config"] == loaded
    assert config_content_hash(manifest["config"]) == manifest["content_hash"]


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
    manifest = read_json(out / "scan.json")
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
    with pytest.raises(ConfigValidationError, match="bad.yaml:6: .* rank floor"):
        load_run_config(str(cfg))


@pytest.mark.parametrize("command, base, edits, extra, code, anchor", [
    ("simulate", BASE_CONFIG, {"beta_star: 5.0": "beta_star: 45.0"}, "", 2, "beta_star"),
    ("simulate", BASE_CONFIG, {"beta_star: 5.0": "beta_star: 45.0",
                               "beta0: 10.0": "beta0: sample"}, "seed: 3\n", 2, "beta_star"),
    ("validate", BASE_CONFIG, {"beta_star: 5.0": "beta_star: 100.0",
                               "beta0: 10.0": "beta0: sample"}, "seed: 3\n", 2, "beta_star"),
    ("validate", BASE_CONFIG, {"beta_star: 5.0": "beta_star: 80.0"}, "", 2, "beta_star"),
    ("scan", SCAN_CONFIG, {"axis: frequency": "axis: temperature",
                           "[0.5, 1.0, 2.0]": "[5.0, 45.0]"}, "", 2, "values"),
    ("simulate", BASE_CONFIG, {"beta_star: 5.0": "beta_star: 60.0"},
     "tolerances: {rank_floor: 1.0e-30}\n", 1, None),
], ids=["simulate", "simulate-sampled-beta0", "validate-sampled-beta0", "validate",
        "temperature-scan", "lowered-rank-floor"])
def test_full_rank_rule_applies_once_at_load(tmp_path, capsys, command, base, edits,
                                             extra, code, anchor):
    # one rule, the Gibbs population floor, for every command: a cold model is a
    # configuration error at its line, and a lowered floor admits it
    # (the result is then refused by the dual-path check, not by the floor)
    text = base
    for old, new in edits.items():
        text = text.replace(old, new)
    cfg = write(tmp_path, "cold.yaml", text + extra)
    out = tmp_path / "o"
    argv = [command, "--config", str(cfg)] + ([] if command == "validate" else ["--out", str(out)])
    assert main(argv) == code
    err = capsys.readouterr().err
    if anchor is None:
        # the t = 0 row has F_total = F_eq ~ 8.8e-27, whose populations the
        # spectral route cannot resolve: the run fails on the mismatch
        assert "dual-path mismatch" in err and "at t=0 " in err
        assert "rank floor" not in err
        return
    line = next(i for i, x in enumerate(text.splitlines(), 1)
                if x.strip().startswith(f"{anchor}:"))
    assert f"cold.yaml:{line}:" in err and "rank floor" in err
    assert not out.exists()


def test_config_auto_grid_resolution(tmp_path):
    cfg = write(tmp_path, "run.yaml", BASE_CONFIG)
    loaded = load_run_config(str(cfg)).config
    assert loaded["grid"]["n_steps"] == 200  # one period at 200 steps/period
    assert loaded["resolved_defaults"]["auto_n_steps"] == 200


def test_config_envelope_center_sampler(tmp_path):
    text = BASE_CONFIG.replace("beta0: 10.0", "beta0: sample") + "seed: 42\n"
    cfg = write(tmp_path, "run.yaml", text)
    loaded = load_run_config(str(cfg)).config
    drawn = loaded["drive"]["envelope"]["beta0"]
    assert loaded["resolved_defaults"]["sampled_beta0"] == drawn
    f_eq = 0.25 / np.cosh(2.5) ** 2
    half = 1.0 / math.sqrt(f_eq)
    assert max(0.0, 5.0 - half) <= drawn <= 5.0 + half
    again = load_run_config(str(cfg))
    assert again.config["drive"]["envelope"]["beta0"] == drawn  # deterministic
    assert again.drive.envelope.beta0 == drawn  # the run's drive has the drawn center
    # sampling without a seed is rejected
    nosave = write(tmp_path, "apt.yaml",
                   BASE_CONFIG.replace("beta0: 10.0", "beta0: sample"))
    with pytest.raises(ConfigValidationError, match="seed"):
        load_run_config(str(nosave))


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


def test_kernel_output_honours_its_node_cap(tmp_path):
    # 2,001 nodes, more than the cap: the sample keeps both ends of the grid
    text = BASE_CONFIG.replace("t_end: 6.283185307179586",
                               "t_end: 6.283185307179586\n  n_steps: 2000")
    text = text.replace("manifest: run.json", "manifest: run.json\n  kernel: kern.csv")
    cfg = write(tmp_path, "run.yaml", text)
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
    _, _, rows = read_csv(out / "kern.csv")
    times = {r[0] for r in rows}
    assert 1 < len(times) <= cli.KERNEL_MAX_NODES
    assert len(rows) == len(times) ** 2
    assert rows[0][0] == 0.0 and rows[-1][0] == 6.283185307179586  # both ends of the grid


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
    loaded = load_run_config(str(cfg)).config
    assert read_json(out / "manifest.json")["config"] == loaded  # dense matrices exactly


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


def test_record_round_trips_through_json(tmp_path):
    cfg = write(tmp_path, "scan.yaml", SCAN_CONFIG)
    loaded = load_run_config(str(cfg)).config
    assert json.loads(json.dumps(loaded)) == loaded


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
    loaded = load_run_config(str(cfg)).config
    assert read_json(out / "manifest.json")["config"] == loaded


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


@pytest.mark.parametrize("error", [DriveThermError, np.linalg.LinAlgError],
                         ids=["DriveThermError", "LinAlgError"])
@pytest.mark.parametrize("command, target, text", [
    ("simulate", "propagate", BASE_CONFIG),
    ("scan", "run_scan", SCAN_CONFIG),
    ("validate", "run_checks", BASE_CONFIG),
], ids=["simulate", "scan", "validate"])
def test_numerical_failure_exits_cleanly(tmp_path, capsys, monkeypatch, command, target,
                                         text, error):
    def fail(*args, **kwargs):
        raise error("injected failure")

    monkeypatch.setattr(cli, target, fail)
    cfg = write(tmp_path, "run.yaml", text)
    argv = [command, "--config", str(cfg)]
    if command != "validate":
        argv += ["--out", str(tmp_path / "o")]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err == "numerical failure: injected failure\n"


def test_non_finite_drive_fails_in_one_line(tmp_path, capsys):
    # s_beta**2 underflows to 0, so dlambda/dbeta = -inf * G = -inf * 0 at every node
    cfg = write(tmp_path, "run.yaml", BASE_CONFIG.replace("s_beta: 3.0", "s_beta: 1.0e-300"))
    assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("numerical failure:"), err


@pytest.mark.parametrize("out", ["afile", "afile/sub"], ids=["file", "inside-file"])
@pytest.mark.parametrize("command, text", [("simulate", BASE_CONFIG), ("scan", SCAN_CONFIG)],
                         ids=["simulate", "scan"])
def test_out_naming_a_file_is_a_configuration_error(tmp_path, capsys, command, text, out):
    cfg = write(tmp_path, "run.yaml", text)
    afile = write(tmp_path, "afile", "keep\n")
    assert main([command, "--config", str(cfg), "--out", str(tmp_path / out)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("configuration error:"), err
    assert "not a directory" in err[0]
    assert afile.read_text(encoding="utf-8") == "keep\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["afile", "run.yaml"]


@pytest.mark.parametrize("argv", [
    ["simulate", "--config", "missing.yaml", "--out", "o"],
    ["simulate", "--config", "adir", "--out", "o"],
    ["simulate", "--config", "latin1.yaml", "--out", "o"],
    ["validate", "--report", "missing/report.json"],
    ["validate", "--report", "adir"],
    ["validate", "--report", "afile/report.json"],
], ids=["config-missing", "config-directory", "config-not-utf8", "report-missing-directory",
        "report-directory", "report-below-file"])
def test_unusable_path_is_one_line_configuration_error(tmp_path, capsys, monkeypatch, argv):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(cli, "run_checks", lambda run: pytest.fail("checks ran"))
    (tmp_path / "adir").mkdir()
    write(tmp_path, "afile", "keep\n")
    (tmp_path / "latin1.yaml").write_bytes(BASE_CONFIG.replace("# minimal", "# d\xe9j\xe0")
                                           .encode("latin-1"))
    before = sorted(tmp_path.rglob("*"))
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error:") and err.count("\n") == 1, err
    assert sorted(tmp_path.rglob("*")) == before
    assert (tmp_path / "afile").read_text(encoding="utf-8") == "keep\n"


def test_control_character_in_config_is_a_configuration_error(tmp_path, capsys):
    cfg = write(tmp_path, "run.yaml", BASE_CONFIG.replace("# minimal", "# \x07 minimal"))
    assert main(["validate", "--config", str(cfg)]) == 2
    assert capsys.readouterr().err.startswith(f"configuration error: {cfg}: not valid YAML:")


@pytest.mark.parametrize("extra, line", [
    ("  kernel: k.csv\n", 19),
    ("estimation:\n  n_measurements: 50\n", 20),
], ids=["kernel", "n_measurements"])
def test_scan_config_rejects_simulate_only_keys(tmp_path, capsys, extra, line):
    # a scan writes neither a kernel nor the Cramer-Rao column
    cfg = write(tmp_path, "scan.yaml", SCAN_CONFIG + extra)
    out = tmp_path / "out"
    assert main(["scan", "--config", str(cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"configuration error: {cfg}:{line}:") and err.count("\n") == 1, err
    assert "scan" in err and not out.exists()
    # the same keys on a simulate config run
    cfg = write(tmp_path, "run.yaml", BASE_CONFIG + extra)
    assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0


@pytest.mark.parametrize("old, new, line", [
    ("manifest: run.json", "manifest: run.csv", 15),
    ("manifest: run.json", "manifest: run.json\n  kernel: run.csv", 16),
    ("csv: run.csv", "csv: /abs/x.csv", 14),
    ("csv: run.csv", "csv: ../x.csv", 14),
    ("csv: run.csv", "csv: sub/x.csv", 14),
    ("csv: run.csv", 'csv: ""', 14),
    ("csv: run.csv", 'csv: "."', 14),
    ("csv: run.csv", 'csv: ".."', 14),
    ("csv: run.csv", "csv: 1e5", 14),
], ids=["csv-is-manifest", "kernel-is-csv", "absolute", "parent", "subdirectory", "empty",
        "dot", "dot-dot", "number"])
def test_output_names_are_plain_distinct_file_names(tmp_path, capsys, old, new, line):
    text = BASE_CONFIG.replace(old, new)
    assert text != BASE_CONFIG
    cfg = write(tmp_path, "run.yaml", text)
    out = tmp_path / "o"
    assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"configuration error: {cfg}:{line}:"), err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["run.yaml"]


def test_yaml_exponent_without_a_dot_is_a_number(tmp_path):
    # YAML 1.2 floats: 1e-1 reads as the number 0.1, not as a string
    text = (ROOT / "configs" / "fig2a.yaml").read_text(encoding="utf-8")
    written = []
    for spelling in ("1e-1", "1.0e-1"):
        edited = text.replace("lambda0: 0.1 ", f"lambda0: {spelling} ")
        assert edited != text
        out = tmp_path / spelling
        assert main(["simulate", "--config", str(write(tmp_path, f"{spelling}.yaml", edited)),
                     "--out", str(out)]) == 0
        written.append((out / "fig2a.csv").read_bytes())
    assert written[0] == written[1]


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


def test_time_scan_rejects_reduce(tmp_path, capsys):
    # a time scan reads each point at its own time, so a reduction would be ignored
    text = (SCAN_CONFIG.replace("axis: frequency", "axis: time")
            .replace("{mode: value_at_t, t: 6.283185307179586}",
                     "{mode: max_over_t, window: [0.0, 0.5]}"))
    line = next(i for i, x in enumerate(text.splitlines(), 1) if x.strip().startswith("reduce:"))
    cfg = write(tmp_path, "time.yaml", text)
    assert main(["scan", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert f"time.yaml:{line}:" in err and "scan.reduce" in err
    assert not (tmp_path / "o").exists()
    without = write(tmp_path, "ok.yaml", "\n".join(x for x in text.splitlines()
                                                    if "reduce:" not in x) + "\n")
    assert main(["scan", "--config", str(without), "--out", str(tmp_path / "o")]) == 0
    _, _, rows = read_csv(tmp_path / "o" / "scan.csv")
    assert [r[0] for r in rows] == [0.5, 1.0, 2.0]


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


def cold_scan(tmp_path, beta0):
    """A temperature scan over beta = 43, 44 under a rank floor of 1e-30: the
    smallest population at beta = 44 is 7.8e-20, below the default floor."""
    text = (SCAN_CONFIG.replace("axis: frequency", "axis: temperature")
            .replace("[0.5, 1.0, 2.0]", "[43.0, 44.0]")
            .replace("beta0: 10.0", f"beta0: {beta0}")
            + "tolerances: {rank_floor: 1.0e-30}\n")
    return write(tmp_path, "scan.yaml", text)


def test_scan_honours_rank_floor(tmp_path, capsys):
    # the floor admits the model; with the envelope centred at beta0 = 10 the
    # drive adds almost nothing at beta = 43, so F_total ~ F_eq ~ 2e-19 lies
    # below the spectral route's cutoff and the scan fails on the mismatch
    cfg = cold_scan(tmp_path, 10.0)
    assert main(["scan", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert "dual-path mismatch" in err and "temperature scan point 43 " in err
    assert "rank floor" not in err


def test_scan_below_default_floor_runs_when_resolved(tmp_path):
    # centred at beta0 = 47 the drive lifts F_total to ~1e-2, which both
    # routes resolve (mismatch 4e-16 and 1.9e-15 at t = 2 pi)
    cfg = cold_scan(tmp_path, 47.0)
    out = tmp_path / "out"
    assert main(["scan", "--config", str(cfg), "--out", str(out)]) == 0
    _, _, rows = read_csv(out / "scan.csv")
    assert [r[0] for r in rows] == [43.0, 44.0]
    assert all(abs(r[3] - r[4]) <= 1e-14 * r[4] for r in rows)
    tolerances = read_json(out / "scan.json")["config"]["tolerances"]
    assert tolerances["rank_floor"] == 1e-30


@pytest.fixture
def propagated_steps(monkeypatch):
    """The n_steps of every propagation the CLI runs, in call order."""
    calls = []
    original = propagation.propagate

    def counted(*args, **kwargs):
        calls.append(args[3].n_steps)
        return original(*args, **kwargs)

    for module in (cli, engine, propagation, validation):
        if getattr(module, "propagate", None) is original:
            monkeypatch.setattr(module, "propagate", counted)
    return calls


def test_simulate_with_kernel_propagates_once(tmp_path, propagated_steps):
    text = BASE_CONFIG.replace("manifest: run.json",
                               "manifest: run.json\n  kernel: kern.csv")
    cfg = write(tmp_path, "run.yaml", text)
    assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 0
    assert propagated_steps == [200]


@pytest.fixture
def weight_evaluations(monkeypatch):
    """The number of nodes of every dlambda/dbeta evaluation, in call order."""
    calls = []
    original = drive.dlambda_dbeta

    def counted(profile, t, beta):
        calls.append(np.size(t))
        return original(profile, t, beta)

    for module in (cli, drive, engine, propagation, validation):
        if getattr(module, "dlambda_dbeta", None) is original:
            monkeypatch.setattr(module, "dlambda_dbeta", counted)
    return calls


def test_simulate_with_kernel_evaluates_weights_once(tmp_path, weight_evaluations):
    # propagate's weights of M are the ones the kernel route reads
    text = BASE_CONFIG.replace("manifest: run.json",
                               "manifest: run.json\n  kernel: kern.csv")
    cfg = write(tmp_path, "run.yaml", text)
    assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 0
    assert weight_evaluations == [201]


@pytest.fixture
def gibbs_betas(monkeypatch):
    """The beta of every Gibbs model the CLI builds, in call order."""
    calls = []
    original = thermal.make_gibbs

    def counted(h0, beta, **kwargs):
        calls.append(beta)
        return original(h0, beta, **kwargs)

    for module in (config, propagation, scans, thermal, validation):
        if getattr(module, "make_gibbs", None) is original:
            monkeypatch.setattr(module, "make_gibbs", counted)
    return calls


@pytest.mark.parametrize("command, text, betas", [
    ("simulate", BASE_CONFIG, [5.0]),
    ("scan", SCAN_CONFIG, [5.0]),
    ("scan", SCAN_CONFIG.replace("axis: frequency", "axis: time")
     .replace("  reduce: {mode: value_at_t, t: 6.283185307179586}\n", ""), [5.0]),
    # beta*, the last scan value (the load-time floor check), then one per point
    ("scan", SCAN_CONFIG.replace("axis: frequency", "axis: temperature")
     .replace("[0.5, 1.0, 2.0]", "[4.0, 5.0, 6.0]"), [5.0, 6.0, 4.0, 5.0, 6.0]),
], ids=["simulate", "frequency-scan", "time-scan", "temperature-scan"])
def test_one_gibbs_model_per_run(tmp_path, gibbs_betas, command, text, betas):
    # the loader's model is the one every command runs; only a temperature
    # scan builds a model per point
    cfg = write(tmp_path, "run.yaml", text)
    assert main([command, "--config", str(cfg), "--out", str(tmp_path / "o")]) == 0
    assert gibbs_betas == betas


@pytest.mark.parametrize("command, text, csv, where", [
    # beta* = 38 passes the 1e-18 floor (smallest population 3.1e-17), but the
    # spectral route drops populations that small: every row's mismatch is 3e13
    ("simulate", (ROOT / "configs" / "fig2b.yaml").read_text(encoding="utf-8")
     .replace("beta_star: 5.0", "beta_star: 38.0"), "fig2b.csv", " at t="),
    # F_total = 3.1e-17 against F_spectral = 5.6e-38 at beta = 38
    ("scan", SCAN_CONFIG.replace("axis: frequency", "axis: temperature")
     .replace("[0.5, 1.0, 2.0]", "[5.0, 38.0]"), "scan.csv", " at temperature scan point 38 "),
], ids=["simulate", "scan"])
def test_unresolved_cold_result_exits_1(tmp_path, capsys, command, text, csv, where):
    out = tmp_path / "o"
    cfg = write(tmp_path, "cold.yaml", text)
    assert main([command, "--config", str(cfg), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("numerical failure: dual-path mismatch") and where in err
    assert not (out / csv).exists()
    assert not out.exists()  # the run made the directory, so it removes it again
    out.mkdir()
    (out / "keep.txt").write_text("kept", encoding="utf-8")
    assert main([command, "--config", str(cfg), "--out", str(out)]) == 1
    assert sorted(p.name for p in out.iterdir()) == ["keep.txt"]  # left as it was


@pytest.mark.parametrize("grid, main_steps", [
    ("t_end: 6.283185307179586", 200),
    ("t_end: 6.283185307179586\n  n_steps: 37", 37),
], ids=["auto", "configured"])
def test_validate_propagates_on_the_configured_grid(tmp_path, propagated_steps, grid,
                                                     main_steps):
    # the main trace and both no-go runs use the config's grid; the kernel
    # check (to 2 pi) and the reference-qubit checks keep their own grids
    cfg = write(tmp_path, "run.yaml", BASE_CONFIG.replace("t_end: 6.283185307179586", grid))
    assert main(["validate", "--config", str(cfg)]) == 0
    assert propagated_steps == [main_steps, 200, main_steps, main_steps, 200, 64, 128, 3184,
                                4000]


@pytest.mark.parametrize("kind, key, levels", [
    ("diagonal", "energies", "[" + ", ".join(["0.0"] * 32) + ", 1.0]"),
    ("dense", "h0", "[" + ", ".join(["[" + ", ".join(["[0.0, 0.0]"] * 33) + "]"] * 33) + "]"),
], ids=["diagonal", "dense"])
def test_model_above_max_dim_is_a_config_error(tmp_path, capsys, kind, key, levels):
    text = BASE_CONFIG.replace("kind: qubit\n  omega: 1.0", f"kind: {kind}\n  {key}: {levels}")
    cfg = write(tmp_path, "big.yaml", text)
    assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error: ") and "big.yaml:4:" in err
    assert "dimension 33 exceeds supported maximum 32" in err


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
    "fig2a": "d508a63576a0",
    "fig2b": "a294bc503196",
    "fig2c": "224de62c94f1",
    "fig3": "261a26480e50",
    "fig3_shifted": "cc69b9d0579f",
}


@pytest.mark.parametrize("path", sorted((ROOT / "configs").glob("*.yaml")),
                         ids=lambda p: p.stem)
def test_shipped_config_keeps_its_identity(path):
    loaded = load_run_config(str(path)).config
    assert json.loads(json.dumps(loaded)) == loaded
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


@pytest.mark.parametrize("old, new, key, kind", [
    ("  omega: 1.0\n", "  omega: 1.0\n  energies: [0.0, 7.0]\n", "energies", "kind 'qubit'"),
    ("    s_beta: 3.0\n", "    s_beta: 3.0\n    points: [[0.0, 1.0], [20.0, 1.0]]\n",
     "points", "kind 'gaussian'"),
    ("    phi: 0.0\n", "    phi: 0.0\n    points: [[0.0, 1.0], [9.0, 0.5]]\n",
     "points", "kind 'cosine'"),
    ("    t: 6.0\n", "    t: 6.0\n    window: [100.0, -3.0]\n", "window",
     "mode 'value_at_t'"),
], ids=["model", "drive.envelope", "drive.temporal", "scan.reduce"])
def test_key_of_another_kind_rejected(tmp_path, capsys, old, new, key, kind):
    # a key that only another kind reads would be dropped, so it is an error
    text = BLOCK_SCAN_CONFIG.replace(old, new)
    assert text != BLOCK_SCAN_CONFIG
    line = next(i for i, x in enumerate(text.splitlines(), 1) if x.strip().startswith(f"{key}:"))
    cfg = write(tmp_path, "kind.yaml", text)
    assert main(["scan", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert f"kind.yaml:{line}:" in err and "unknown" in err and kind in err
    assert not (tmp_path / "o").exists()
