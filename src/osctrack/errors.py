"""Exception types shared across the package, and its one range check."""

from __future__ import annotations

import numpy as np


class OscTrackError(Exception):
    """Base class for all errors raised by this package."""


class UsageError(OscTrackError, ValueError):
    """Invalid arguments or configuration supplied by the caller."""


def in_range(name: str, value, *, zero_ok: bool = False):
    """``value`` when it is finite and positive, or finite and nonnegative
    with ``zero_ok``; otherwise ``UsageError`` naming it.  NaN is refused."""
    if not ((0 <= value if zero_ok else 0 < value) and value < np.inf):
        wanted = "nonnegative and finite" if zero_ok else "finite and positive"
        raise UsageError(f"{name} must be {wanted}, got {value}")
    return value


class DimensionMismatchError(UsageError):
    """Arrays whose shapes do not fit the declared system dimensions."""


class DomainError(OscTrackError):
    """A state left the open domain on which the vector fields are defined."""


class RankConditionError(OscTrackError):
    """The bracket-extended gain matrix is singular at some state.

    ``singular`` has the states' batch shape and marks the states whose
    matrix is singular, so a batch can stop just those members.
    """

    def __init__(self, message: str, singular: np.ndarray):
        super().__init__(message)
        self.singular = singular


class UnsupportedSchemeError(OscTrackError):
    """A bracket structure outside what the control synthesis covers."""


class SimulationError(OscTrackError):
    """Numerical integration had to abort before the horizon.

    Attributes
    ----------
    reason : str
        Machine-readable cause: ``"domain-exit"``, ``"non-finite-state"``
        or ``"rank-deficient"``.
    time : float
        Time at which integration stopped.
    partial : Trajectory or None
        Whatever prefix of the trajectory was completed, for diagnosis.
    """

    def __init__(self, message: str, reason: str, time: float, partial=None):
        super().__init__(message)
        self.reason = reason
        self.time = time
        self.partial = partial


class CertificationError(OscTrackError):
    """Bound estimation could not produce usable constants."""
