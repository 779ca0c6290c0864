"""Exception types shared by every layer of the package.

Domain violations (bad arguments, impossible geometry) raise ``DomainError``.
Failures that appear only at runtime inside an otherwise valid call (a root
bracket that never closes, a scan that hits its cap) raise subclasses of
``NumericError`` so callers can distinguish "you asked a malformed question"
from "the computation could not be completed".

Every layer checks a real argument that must be finite and >= 0 (or > 0)
with ``_finite``, at its public entry, so the message reads the same.
"""

import math


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
    v = float(value)
    if not math.isfinite(v) or v < 0.0 or (positive and v == 0.0):
        bound = ">" if positive else ">="
        raise DomainError(f"{name} must be finite and {bound} 0, got {v!r}")
    return v


class ConfigError(ValueError):
    """A config file or CLI parameter set is malformed or inconsistent."""


class SweepError(RuntimeError):
    """A sweep aborted part-way; ``partial_rows`` holds completed rows."""

    def __init__(self, message: str, partial_rows=None):
        super().__init__(message)
        self.partial_rows = list(partial_rows) if partial_rows is not None else []
