"""Exception types shared across the package."""


class DriveThermError(Exception):
    """Base class for all package-specific errors."""


class FullRankViolation(DriveThermError):
    """State is (numerically) rank deficient where full rank is required.

    The inverse Bures superoperator and the SLD are only defined for
    full-rank states; thermal states lose full rank numerically once
    exp(-beta * spread) drops below the configured rank floor.
    """


class StepSizeTooCoarse(DriveThermError):
    """Integration step too coarse to meet the accuracy budget."""

    def __init__(self, message, suggested_n_steps=None):
        super().__init__(message)
        self.suggested_n_steps = suggested_n_steps


class ExtrapolationError(DriveThermError):
    """Tabulated profile evaluated outside its abscissa range."""


class ConfigValidationError(DriveThermError):
    """Invalid run configuration; carries a file/line anchor when known."""

    def __init__(self, message, path=None, line=None):
        prefix = ""
        if path is not None:
            prefix = f"{path}:" if line is None else f"{path}:{line}:"
        super().__init__(f"{prefix} {message}".strip())
        self.path = path
        self.line = line
