"""drivetherm: Fisher-information analysis of thermal probes under
temperature-dependent unitary driving.

The total sensitivity of the driven probe decomposes exactly as
F(t) = F_eq + I_t, where F_eq is the static energy-fluctuation baseline and
I_t >= 0 is a double time integral of the information-current kernel.  The
package computes both sides of the decomposition and cross-checks them
against the spectral Fisher information of the evolved state.

Units: hbar = k_B = 1 throughout; energies in units of the probe gap,
times in its inverse, beta likewise.
"""

__version__ = "0.1.0"

from .bures import jordan_apply, jordan_inverse_apply
from .drive import (ConstantEnvelope, ConstantModulation, CosineModulation,
                    DriveProfile, GaussianEnvelope, TabulatedEnvelope,
                    TabulatedModulation, dlambda_dbeta, lambda_at)
from .engine import (CurrentTrace, QfiResult, build_current_trace,
                     increment_series, increment_via_kernel,
                     information_current, kernel_matrix, qfi_driven,
                     qfi_time_series)
from .exceptions import (ConfigValidationError, DriveThermError,
                         ExtrapolationError, FullRankViolation,
                         StepSizeTooCoarse)
from .operators import SIGMA_X, SIGMA_Y, SIGMA_Z, hermitize
from .propagation import (EvolutionTrace, TimeGrid, beta_generator,
                          default_grid, default_n_steps, drho_dbeta_analytic,
                          propagate)
from .scans import (OptimizeResult, ReduceSpec, ScanPoint, ScanResult,
                    ScanSpec, optimize_drive, run_scan)
from .thermal import (GibbsModel, dpi_dbeta, equilibrium_qfi,
                      equilibrium_sld, make_gibbs)

__all__ = [
    "__version__",
    # operators
    "hermitize", "SIGMA_X", "SIGMA_Y", "SIGMA_Z",
    # thermal
    "GibbsModel", "dpi_dbeta", "equilibrium_qfi", "equilibrium_sld",
    "make_gibbs",
    # bures
    "jordan_apply", "jordan_inverse_apply",
    # drive
    "DriveProfile", "GaussianEnvelope", "ConstantEnvelope",
    "TabulatedEnvelope", "CosineModulation", "ConstantModulation",
    "TabulatedModulation", "lambda_at", "dlambda_dbeta",
    # propagation
    "TimeGrid", "EvolutionTrace", "propagate", "beta_generator",
    "drho_dbeta_analytic", "default_grid", "default_n_steps",
    # engine
    "CurrentTrace", "QfiResult", "information_current", "build_current_trace",
    "kernel_matrix", "increment_via_kernel", "increment_series", "qfi_driven",
    "qfi_time_series",
    # spin analytics
    "magnetization", "qubit_equilibrium_qfi", "weak_field_kernel",
    "short_time_coefficient", "detuned_amplitude", "detuned_increment",
    "resonant_amplitude", "resonant_increment",
    # scans
    "ScanSpec", "ScanPoint", "ScanResult", "ReduceSpec", "run_scan",
    "optimize_drive", "OptimizeResult",
    # errors
    "DriveThermError", "FullRankViolation", "StepSizeTooCoarse",
    "ExtrapolationError", "ConfigValidationError",
]

#: The closed-form spin-1/2 laws, which only ``validate`` and the tests read:
#: ``drivetherm.spin`` loads on their first use (PEP 562).
_SPIN = ("magnetization", "qubit_equilibrium_qfi", "weak_field_kernel",
         "short_time_coefficient", "detuned_amplitude", "detuned_increment",
         "resonant_amplitude", "resonant_increment")


def __getattr__(name):
    if name in _SPIN:
        from . import spin
        return getattr(spin, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | set(_SPIN))
