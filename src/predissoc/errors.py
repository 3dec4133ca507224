"""Exception types shared across the package.

Everything raised deliberately by this package derives from
:class:`PredissocError`, so callers can catch one base class at the
boundary (the run driver maps these onto process exit codes).
"""


class PredissocError(Exception):
    """Base class for all errors raised by this package."""


class ExpressionError(PredissocError):
    """Problem while parsing an expression; carries a character offset."""

    def __init__(self, message, offset=None):
        if offset is not None:
            message = f"{message} (offset {offset})"
        super().__init__(message)
        self.offset = offset


class EvalDomainError(PredissocError):
    """Expression evaluation hit a singular point (division by zero)."""


class CrossingMismatch(PredissocError):
    """The two potentials do not cross at x = 0 within tolerance."""


class NoWell(PredissocError):
    """No classically allowed well region exists at the requested energy."""


class NoExit(PredissocError):
    """No exit point of the open channel exists at the requested energy."""


class BracketFailure(PredissocError):
    """Root bracketing found an unexpected number of sign changes."""


class NewtonDivergence(PredissocError):
    """Newton iteration failed to converge or left the expected root basin."""


class DegenerateEnergy(PredissocError):
    """Energy too close to the well bottom or to the crossing value."""


class EmptyInterval(PredissocError, ValueError):
    """An integration interval with its ends reversed.

    Also a ValueError, which the quadrature raised for it before.
    """


class BarrierViolation(PredissocError):
    """An integrand that must stay positive on the barrier went negative."""


class InvalidAngle(PredissocError):
    """Scaling-angle stability check requested at theta = 0."""


class InsufficientData(PredissocError):
    """Not enough accepted data points for the requested fit."""


class EigensolveFailure(PredissocError):
    """The eigensolver failed or could not deliver its whole target disc; no silent fallback."""


class ContourEvaluationError(PredissocError):
    """A potential or coupling could not be evaluated on the scaled contour."""


class ConfigError(PredissocError, ValueError):
    """Bad run configuration; carries the offending line number.

    Also a ValueError: the library raises it for a discretization interval
    that its window makes unusable, where callers may catch ValueError.
    """

    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line
