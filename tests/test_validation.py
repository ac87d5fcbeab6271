import json
from pathlib import Path

from drivetherm import engine
from drivetherm.cli import main
from drivetherm.config import load_run_config
from drivetherm.operators import stack_mul
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
    "kernel-positive-semidefinite",
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
    "resonant-long-time-law",
    "detuned-bounded-law",
]


def test_default_suite_passes():
    checks = run_checks()
    assert all(c.passed for c in checks)
    assert [c.name for c in checks] == CHECK_NAMES


def test_summarize_mentions_failures():
    checks = run_checks()
    text = summarize(checks)
    assert f"{len(checks)}/{len(checks)} checks passed" in text


def anticommutator_coherences(model, x):
    """The eigenbasis current with the sign of the commutator flipped, ratio
    (p_j + p_i)/(p_i + p_j) = 1: an injected sign error that makes the
    current an anticommutator."""
    q = model.basis
    return -2j * stack_mul(stack_mul(q.conj().T, x), q)


def test_injected_current_sign_error_fails_mixed_term(monkeypatch):
    # with an anticommutator in the current the mixed term no longer vanishes
    monkeypatch.setattr(engine, "_coherences", anticommutator_coherences)
    checks = {c.name: c for c in run_checks()}
    assert not checks["mixed-term-vanishing"].passed


def test_negated_kernel_fails_psd_check(monkeypatch):
    kernel_matrix = engine.kernel_matrix
    monkeypatch.setattr(engine, "kernel_matrix", lambda model, vh: -kernel_matrix(model, vh))
    checks = {c.name: c for c in run_checks()}
    assert not checks["kernel-positive-semidefinite"].passed
    assert checks["kernel-positive-semidefinite"].measured <= -0.99


def test_commuting_perturbation_gives_zero_kernel_and_passes(tmp_path):
    # V = sigma_z commutes with H0: every current and the kernel are zero
    cfg = tmp_path / "commuting.yaml"
    cfg.write_text(GUARDED_CONFIG.replace("beta_star: 80.0", "beta_star: 4.0")
                   .replace("v: sigma_x", "v: sigma_z"), encoding="utf-8")
    checks = {c.name: c for c in run_checks(load_run_config(cfg))}
    assert checks["kernel-positive-semidefinite"].passed
    assert checks["kernel-positive-semidefinite"].measured == 0.0
    assert checks["kernel-vs-accumulated-increment"].measured == 0.0


def test_kernel_increment_check_is_scaled_by_its_terms():
    # fig2c's I_t is small: divided by I_t the round-off read 2.8e-11
    fig2c = Path(__file__).parents[1] / "configs" / "fig2c.yaml"
    checks = {c.name: c for c in run_checks(load_run_config(fig2c))}
    assert checks["kernel-vs-accumulated-increment"].measured <= 1e-14


def test_cli_validate_passes(tmp_path):
    report = tmp_path / "report.json"
    assert main(["validate", "--report", str(report)]) == 0
    payload = json.loads(report.read_text())
    assert payload["all_passed"] is True
    assert any(c["name"] == "dual-path-agreement" for c in payload["checks"])


def test_cli_validate_fails_under_mutation(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(engine, "_coherences", anticommutator_coherences)
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


def test_cli_validate_with_explicit_config(tmp_path, capsys):
    # a written config and every shipped one pass all checks
    cfg = tmp_path / "ok.yaml"
    cfg.write_text(GUARDED_CONFIG.replace("beta_star: 80.0", "beta_star: 4.0"),
                   encoding="utf-8")
    shipped = sorted((Path(__file__).parents[1] / "configs").glob("*.yaml"))
    assert len(shipped) >= 5
    for path in [cfg, *shipped]:
        assert main(["validate", "--config", str(path)]) == 0, path.name
        assert f"{len(CHECK_NAMES)}/{len(CHECK_NAMES)} checks passed" \
            in capsys.readouterr().out, path.name


def test_cli_validate_rejects_unparseable_config(tmp_path):
    cfg = tmp_path / "broken.yaml"
    cfg.write_text("model: [unclosed", encoding="utf-8")
    assert main(["validate", "--config", str(cfg)]) == 2
