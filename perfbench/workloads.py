"""Benchmark inputs, generated from the workload seed.

Each workload is one CLI command on one generated YAML config.  The seed
varies the physical parameters (temperatures, envelope, phase, and for the
six-level probe the Hamiltonians themselves) but never the amount of work:
grid sizes, scan lengths and dimensions are fixed per workload, so runs with
different seeds are comparable.
"""

import math
from dataclasses import dataclass, field

import numpy as np

TWO_PI = 2.0 * math.pi

#: The CLI's documented default resolution: at least this many steps per
#: fastest period (README, "Configuration").  Only used to bound the step
#: the program may take, never to predict its grid exactly.
STEPS_PER_PERIOD = 200

SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)

WORKLOADS = ("simulate-long", "scan-frequency", "scan-temperature-multilevel")


@dataclass
class Inputs:
    """Everything the benchmark knows about one generated run."""

    workload: str
    command: str                 # "simulate" or "scan"
    qubit: bool                  # config as `kind: qubit` (omega 1, sigma_x)
    h0: np.ndarray
    v: np.ndarray
    beta_star: float
    lambda0: float
    beta0: float
    s_beta: float
    omega_d: float
    phi: float
    t_end: float
    n_steps: int | None          # explicit simulate grid; None = CLI default
    axis: str | None = None      # scan axis
    values: tuple = ()           # scan grid
    reduce: dict = field(default_factory=dict)
    csv_name: str = "results.csv"
    manifest_name: str = "manifest.json"
    kernel_name: str | None = None

    @property
    def spread(self) -> float:
        e = np.linalg.eigvalsh(self.h0)
        return float(e[-1] - e[0])

    def omega_fast(self, omega_d: float | None = None) -> float:
        """Fastest frequency the CLI resolves: max(spectral spread, omega_d)."""
        return max(self.spread, self.omega_d if omega_d is None else omega_d)

    def config_text(self) -> str:
        lines = ["model:"]
        if self.qubit:
            lines += ["  kind: qubit", "  omega: 1.0", "  v: sigma_x"]
        else:
            lines += ["  kind: dense", f"  h0: {_rows(self.h0)}", f"  v: {_rows(self.v)}"]
        lines += [
            f"  beta_star: {_f(self.beta_star)}",
            "drive:",
            f"  lambda0: {_f(self.lambda0)}",
            f"  envelope: {{kind: gaussian, beta0: {_f(self.beta0)}, s_beta: {_f(self.s_beta)}}}",
            f"  temporal: {{kind: cosine, omega_d: {_f(self.omega_d)}, phi: {_f(self.phi)}}}",
            "grid:",
            f"  t_end: {_f(self.t_end)}",
        ]
        if self.n_steps is not None:
            lines.append(f"  n_steps: {self.n_steps}")
        if self.axis is not None:
            lines += ["scan:", f"  axis: {self.axis}", f"  values: {self._values_text()}"]
            if self.reduce["mode"] == "value_at_t":
                lines.append(f"  reduce: {{mode: value_at_t, t: {_f(self.reduce['t'])}}}")
            else:
                t0, t1 = self.reduce["window"]
                lines.append(f"  reduce: {{mode: max_over_t, window: [{_f(t0)}, {_f(t1)}]}}")
        lines += ["output:", f"  csv: {self.csv_name}", f"  manifest: {self.manifest_name}"]
        if self.kernel_name:
            lines.append(f"  kernel: {self.kernel_name}")
        return "\n".join(lines) + "\n"

    def _values_text(self) -> str:
        return "[" + ", ".join(_f(x) for x in self.values) + "]"

    def argv(self, config_path, out_dir) -> list:
        return [self.command, "--config", str(config_path), "--out", str(out_dir),
                "--parallelism", "1"]


def _f(x: float) -> str:
    # 17 significant digits round-trip a double; the exponent form keeps a
    # decimal point, which YAML 1.1 needs to read the value as a float.
    return f"{float(x):.16e}"


def _rows(m: np.ndarray) -> str:
    return "[" + ", ".join(
        "[" + ", ".join(f"[{_f(c.real)}, {_f(c.imag)}]" for c in row) + "]" for row in m
    ) + "]"


def _qubit_h0() -> np.ndarray:
    return np.diag([0.5, -0.5]).astype(complex)


def _random_hermitian(rng, d: int) -> np.ndarray:
    a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    return 0.5 * (a + a.conj().T)


def _qubit_drive(rng) -> dict:
    return {
        "beta_star": float(rng.uniform(4.0, 6.0)),
        "beta0": float(rng.uniform(8.0, 12.0)),
        "s_beta": float(rng.uniform(2.5, 3.5)),
        "phi": float(rng.uniform(0.0, TWO_PI)),
    }


def simulate_long(rng) -> Inputs:
    """Fig. 2b resonant qubit over 100 drive periods, kernel CSV written."""
    return Inputs(
        workload="simulate-long", command="simulate", qubit=True, h0=_qubit_h0(), v=SIGMA_X.copy(),
        lambda0=0.1, omega_d=1.0, t_end=100 * TWO_PI, n_steps=20_000,
        csv_name="sim.csv", manifest_name="sim_manifest.json",
        kernel_name="kernel.csv", **_qubit_drive(rng),
    )


def scan_frequency(rng) -> Inputs:
    """The README resonance recipe: omega_d in [0.5, 2] read at t = 20 pi."""
    t = 10 * TWO_PI
    return Inputs(
        workload="scan-frequency", command="scan", qubit=True, h0=_qubit_h0(), v=SIGMA_X.copy(),
        lambda0=0.1, omega_d=1.0, t_end=t, n_steps=None, axis="frequency",
        values=tuple(float(x) for x in np.linspace(0.5, 2.0, 61)),
        reduce={"mode": "value_at_t", "t": t},
        csv_name="freq.csv", manifest_name="freq_manifest.json", **_qubit_drive(rng),
    )


#: Six-level probe: dimension, spectral spread, drive and beta grid.
ML_DIM = 6
ML_SPREAD = 3.0
ML_BETAS = tuple(float(x) for x in np.linspace(0.25, 4.0, 13))


def scan_temperature_multilevel(rng) -> Inputs:
    """Seeded dense six-level H0 and V; beta sweep with max_over_t.

    H0 is shifted to a zero ground energy and scaled to a fixed spread, so
    the CLI's default grid, and with it the work per point, is the same for
    every seed.  The envelope centre beta0 is one of the grid values.
    """
    h0 = _random_hermitian(rng, ML_DIM)
    e = np.linalg.eigvalsh(h0)
    h0 = (h0 - e[0] * np.eye(ML_DIM)) * (ML_SPREAD / (e[-1] - e[0]))
    v = _random_hermitian(rng, ML_DIM)
    v = v / np.linalg.norm(v, 2)
    beta0 = ML_BETAS[int(rng.integers(3, 10))]
    return Inputs(
        workload="scan-temperature-multilevel", command="scan", qubit=False, h0=h0, v=v,
        beta_star=1.0, lambda0=0.2, beta0=beta0, s_beta=1.0,
        omega_d=ML_SPREAD / (ML_DIM - 1), phi=float(rng.uniform(0.0, TWO_PI)),
        t_end=12.0, n_steps=None, axis="temperature", values=ML_BETAS,
        reduce={"mode": "max_over_t", "window": (6.0, 12.0)},
        csv_name="temp.csv", manifest_name="temp_manifest.json",
    )


_MAKERS = {
    "simulate-long": simulate_long,
    "scan-frequency": scan_frequency,
    "scan-temperature-multilevel": scan_temperature_multilevel,
}


def make_inputs(workload: str, seed: int) -> Inputs:
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    return _MAKERS[workload](rng)
