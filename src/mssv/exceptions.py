"""Typed errors raised by the pricing and calibration machinery."""


class MssvError(Exception):
    """Base class for all package errors."""


class InfeasibleStateError(MssvError):
    """A hidden-state inversion produced a negative variance.

    Raised instead of clamping so that calibration loops can catch and
    penalize infeasible parameter regions explicitly.
    """


class DomainError(MssvError):
    """An input lies outside the mathematical domain of an operation."""


class QuadratureError(MssvError):
    """Numerical integration failed to reach the requested tolerance.

    Carries the best available estimate and the achieved error bound.
    """

    def __init__(self, message, estimate=None, error_estimate=None):
        super().__init__(message)
        self.estimate = estimate
        self.error_estimate = error_estimate


class CharFnOverflowError(MssvError):
    """The characteristic-function exponent left the double range.

    Usually means a state or parameter set far outside the model's
    range.
    """


class NoRootError(MssvError):
    """An implied-volatility inversion has no root in the admissible band."""


class DataError(MssvError):
    """Quote data could not be read or fails schema validation."""
