"""Source mutations that `validate` must catch.

Each mutant is a `monkeypatch` of one function the run reads, the kind of
defect a plausible edit could make, and each test names the checks that
must then fail on the setup the mutant targets.
"""

from pathlib import Path

import numpy as np

from drivetherm import bures, propagation
from drivetherm.cli import main
from drivetherm.validation import run_checks

FIG2B = Path(__file__).parents[1] / "configs" / "fig2b.yaml"


def failed_checks() -> set:
    return {c.name for c in run_checks() if not c.passed}


def test_scaled_weight_fails_the_closed_form_laws(monkeypatch):
    # w = 1.01 dlambda/dbeta moves I_t on both routes alike, so only the
    # reference qubit's closed forms can see it
    dlambda_dbeta = propagation.dlambda_dbeta
    monkeypatch.setattr(propagation, "dlambda_dbeta",
                        lambda *args: 1.01 * dlambda_dbeta(*args))
    assert {"short-time-quadratic-law", "resonant-long-time-law",
            "detuned-bounded-law"} <= failed_checks()


def left_riemann(values, dt):
    """A first-order running integral in place of the trapezoid."""
    out = np.zeros_like(values)
    np.cumsum(dt * values[:-1], axis=0, out=out[1:])
    return out


def test_left_riemann_integral_fails_the_kernel_checks(monkeypatch):
    monkeypatch.setattr(propagation, "cumulative_trapezoid", left_riemann)
    assert {"kernel-vs-accumulated-increment", "resonant-long-time-law"} <= failed_checks()


def conjugated_qubit_sigma(monkeypatch):
    """The closed-form qubit QFI of the conjugated state, whose eigenvectors
    are the conjugated eigenvectors of the state."""
    qubit_qfi = bures._qubit_qfi
    monkeypatch.setattr(bures, "_qubit_qfi",
                        lambda sigmas, dsigmas: qubit_qfi(sigmas.conj(), dsigmas))


def test_conjugated_eigenvectors_fail_the_spectral_checks(monkeypatch):
    conjugated_qubit_sigma(monkeypatch)
    assert {"dual-path-agreement", "no-go-constant-envelope"} <= failed_checks()


def test_conjugated_eigenvectors_stop_simulate(tmp_path, monkeypatch, capsys):
    conjugated_qubit_sigma(monkeypatch)
    assert main(["simulate", "--config", str(FIG2B), "--out", str(tmp_path)]) == 1
    assert "dual-path mismatch" in capsys.readouterr().err
    assert list(tmp_path.glob("*.csv")) == []
