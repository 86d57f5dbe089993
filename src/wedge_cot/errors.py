"""Exception hierarchy.

Every error carries a short machine-parseable ``code`` so the command-line
front end can print ``error[<code>] <message>`` on a single line and map the
class to an exit status (validation -> 2, numeric failure -> 3).
"""


class WedgeCotError(Exception):
    """Base class for all package errors."""

    code = "error"

    def __init__(self, message: str):
        super().__init__(message)
        self.message = message


class ValidationError(WedgeCotError):
    """Invalid input parameters (CLI exit status 2)."""

    code = "invalid-input"


class NumericError(WedgeCotError):
    """Failure while computing (CLI exit status 3)."""

    code = "numeric-failure"


class BetaRangeError(ValidationError):
    code = "beta-out-of-range"


class BelowThresholdError(ValidationError):
    code = "below-threshold"


class DegenerateIncidenceError(ValidationError):
    code = "degenerate-incidence"


class ZeroLengthOrbitError(ValidationError):
    code = "zero-length-orbit"


class GridError(ValidationError):
    code = "invalid-grid"


class ApexSingularityError(NumericError):
    """Trajectory hit the wedge apex, where the dynamics is undefined."""

    code = "apex-singularity"


class ConvergenceError(NumericError):
    code = "quadrature-not-converged"


class OutputError(NumericError):
    code = "unwritable-output"
