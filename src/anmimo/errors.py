"""Exception types shared by every layer of the package.

Domain violations (bad arguments, impossible geometry) raise ``DomainError``.
Failures that appear only at runtime inside an otherwise valid call (a root
bracket that never closes, a scan that hits its cap) raise subclasses of
``NumericError`` so callers can distinguish "you asked a malformed question"
from "the computation could not be completed".

Every public entry checks its arguments with two helpers, so a message
reads the same whichever layer raises it: ``_finite`` for a real that
must be finite and >= 0 (or > 0), ``_integer`` for a count or index that
must be an integer at or above a minimum.
"""

import math
import numbers


class DomainError(ValueError):
    """An argument is outside the mathematical domain of the operation."""


class NumericError(ArithmeticError):
    """Base class for runtime numeric failures inside a valid call."""


class NoRootError(NumericError):
    """A root bracket could not be established or refined to tolerance."""


class UnboundedRangeError(NumericError):
    """A scan reached its cap without the sought sign change."""


def _finite(name: str, value, positive: bool = False) -> float:
    """float(value); DomainError unless it is finite and >= 0 (> 0 if positive)."""
    try:
        v = float(value)
    except OverflowError:  # an int past the double range rounds to inf
        v = math.inf if value > 0 else -math.inf
    if not math.isfinite(v) or v < 0.0 or (positive and v == 0.0):
        bound = ">" if positive else ">="
        raise DomainError(f"{name} must be finite and {bound} 0, got {v!r}")
    return v


def _integer(name: str, value, minimum: int) -> int:
    """int(value); DomainError unless it is an integer (not a bool) >= minimum.

    Any numbers.Integral (numpy integers too) is accepted and returned as
    a plain int.
    """
    if type(value) is not int:  # the common case skips the ABC check
        if isinstance(value, bool) or not isinstance(value, numbers.Integral):
            raise DomainError(f"{name} must be an integer, got {value!r}")
        value = int(value)
    if value < minimum:
        raise DomainError(f"{name} must be >= {minimum}, got {value}")
    return value


class ConfigError(ValueError):
    """A config file or CLI parameter set is malformed or inconsistent."""


class SweepError(RuntimeError):
    """A sweep aborted part-way; ``partial_rows`` holds completed rows."""

    def __init__(self, message: str, partial_rows=None):
        super().__init__(message)
        self.partial_rows = list(partial_rows) if partial_rows is not None else []
