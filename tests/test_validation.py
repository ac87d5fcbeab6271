import json

from drivetherm import engine
from drivetherm.cli import main
from drivetherm.validation import run_checks, summarize

GUARDED_CONFIG = """\
model:
  kind: qubit
  omega: 1.0
  v: sigma_x
  beta_star: 80.0
drive:
  lambda0: 0.1
  envelope: {kind: gaussian, beta0: 10.0, s_beta: 3.0}
  temporal: {kind: cosine, omega_d: 1.0, phi: 0.0}
grid: {t_end: 6.283185307179586}
"""


CHECK_NAMES = [
    "equilibrium-baseline-closed-form",
    "jordan-inverse-round-trip",
    "current-thermal-overlap",
    "unitarity-and-spectrum-preservation",
    "dual-path-agreement",
    "mixed-term-vanishing",
    "kernel-vs-accumulated-increment",
    "increment-nonnegative",
    "no-go-constant-envelope",
    "no-go-commuting-perturbation",
    "qubit-current-closed-form",
    "short-time-quadratic-law",
    "weak-field-kernel-closed-form",
]


def test_default_suite_passes():
    checks = run_checks()
    assert all(c.passed for c in checks)
    assert [c.name for c in checks] == CHECK_NAMES


def test_summarize_mentions_failures():
    checks = run_checks()
    text = summarize(checks)
    assert f"{len(checks)}/{len(checks)} checks passed" in text


def test_injected_current_sign_error_fails_mixed_term(monkeypatch):
    # mutation hook: flipping the commutator sign turns the current's
    # commutator into an anticommutator; the mixed term no longer vanishes
    monkeypatch.setattr(engine, "_COMMUTATOR_SIGN", 1.0)
    checks = {c.name: c for c in run_checks()}
    assert not checks["mixed-term-vanishing"].passed


def test_cli_validate_passes(tmp_path):
    report = tmp_path / "report.json"
    assert main(["validate", "--report", str(report)]) == 0
    payload = json.loads(report.read_text())
    assert payload["all_passed"] is True
    assert any(c["name"] == "dual-path-agreement" for c in payload["checks"])


def test_cli_validate_fails_under_mutation(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(engine, "_COMMUTATOR_SIGN", 1.0)
    report = tmp_path / "report.json"
    assert main(["validate", "--report", str(report)]) == 1
    err = capsys.readouterr().err
    assert "mixed-term-vanishing" in err
    payload = json.loads(report.read_text())
    assert payload["all_passed"] is False


def test_cli_validate_surfaces_guard_violation(tmp_path, capsys):
    cfg = tmp_path / "guarded.yaml"
    cfg.write_text(GUARDED_CONFIG, encoding="utf-8")
    # the loader applies the full-rank rule: a configuration error at beta_star
    assert main(["validate", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert "guarded.yaml:5:" in err and "rank floor" in err


def test_cli_validate_with_explicit_config(tmp_path):
    cfg = tmp_path / "ok.yaml"
    cfg.write_text(GUARDED_CONFIG.replace("beta_star: 80.0", "beta_star: 4.0"),
                   encoding="utf-8")
    assert main(["validate", "--config", str(cfg)]) == 0


def test_cli_validate_rejects_unparseable_config(tmp_path):
    cfg = tmp_path / "broken.yaml"
    cfg.write_text("model: [unclosed", encoding="utf-8")
    assert main(["validate", "--config", str(cfg)]) == 2
