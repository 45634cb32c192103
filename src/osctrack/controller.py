"""Coefficient solve and oscillating control synthesis.

At each sampling instant the tracking error x - gamma is pushed through
the inverse of the gain matrix to get one coefficient per spanned
direction.  Directions reachable directly get their coefficient as a
constant control component; bracket directions are realized on average
by sinusoidal components whose amplitude grows like 1/sqrt(epsilon)
(first-order brackets) or 1/epsilon^(2/3) (nested brackets).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DimensionMismatchError, UsageError
from .systems import BracketScheme, ControlSystem, build_gain_matrix


@dataclass(frozen=True)
class ControllerParams:
    """Feedback gain alpha and sampling period epsilon, both finite and positive.
    ``alpha`` may also be a 1-D array of gains, one per start of a sampled
    batch; two params are equal when their gains are, element by element."""

    alpha: float | np.ndarray
    epsilon: float

    def __post_init__(self):
        object.__setattr__(self, "alpha", _gain(self.alpha))
        if not 0 < self.epsilon < np.inf:
            raise UsageError(f"epsilon must be finite and positive, got {self.epsilon}")

    def _key(self) -> tuple:
        alpha = tuple(self.alpha.tolist()) if np.ndim(self.alpha) else self.alpha
        return np.ndim(self.alpha), alpha, self.epsilon

    def __eq__(self, other):
        if not isinstance(other, ControllerParams):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())


@dataclass(frozen=True)
class CoefficientVector:
    """Solved direction coefficients, sliced by bracket degree.

    ``values`` follows the gain-matrix column order: direct fields
    first, then first-order bracket pairs, then nested terms.  It has
    shape (..., n_columns): one row per state of a batch.
    """

    values: np.ndarray
    scheme: BracketScheme

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", values)
        if values.shape[-1:] != (self.scheme.n_columns,):
            raise DimensionMismatchError(
                f"expected {self.scheme.n_columns} coefficients, got {values.shape}")

    @property
    def first_order(self) -> np.ndarray:
        return self.values[..., :len(self.scheme.s1)]

    @property
    def pair(self) -> np.ndarray:
        k = len(self.scheme.s1)
        return self.values[..., k:k + len(self.scheme.s2)]

    @property
    def nested(self) -> np.ndarray:
        return self.values[..., len(self.scheme.s1) + len(self.scheme.s2):]


def coefficients(sys: ControlSystem, scheme: BracketScheme,
                 params: ControllerParams, x: np.ndarray,
                 gamma: np.ndarray) -> CoefficientVector:
    """Solve F(x) a = -alpha (x - gamma) for the direction coefficients:
    ``x`` is one state (n,) or a batch (..., n), ``gamma`` has its shape or
    is one point (n,), and a gain array (B,) takes states (B, n), one gain
    each (negation is exact, so each row has the bits of its scalar gain)."""
    x = np.asarray(x, dtype=float)
    gamma = np.asarray(gamma, dtype=float)
    if gamma.shape not in (x.shape, x.shape[-1:]):
        raise DimensionMismatchError(
            f"state and reference shapes differ: {x.shape} vs {gamma.shape}")
    alpha = np.asarray(params.alpha)
    if alpha.shape not in ((), x.shape[:-1]):
        raise DimensionMismatchError(
            f"{alpha.size} gains need a batch of {alpha.size} states, got shape {x.shape}")
    gain = build_gain_matrix(sys, scheme, x)
    rhs = -alpha[..., None] * (x - gamma)
    return CoefficientVector(np.linalg.solve(gain, rhs[..., None])[..., 0], scheme)


def make_control_function(scheme: BracketScheme, params: ControllerParams,
                          coeffs: CoefficientVector
                          ) -> Callable[[float | np.ndarray], np.ndarray]:
    """Control u(t) realizing the solved coefficients over one period.

    The returned function takes absolute time (the trigonometric phases
    are not reset at sampling instants): a scalar t gives the m-vector
    of control values, an array of times of shape (k,) gives shape
    (k, m).  Coefficients of a batch (B, n_columns) add their batch axis
    in front of the control index: (B, m) for a scalar t, (k, B, m) for
    times (k,).  All amplitudes are precomputed; only the sines and
    cosines are evaluated per call.  The cube-root amplitude of a nested
    term keeps the sign of its coefficient, so a negative coefficient
    flips the whole oscillation.
    """
    m = scheme.m
    batch = coeffs.values.shape[:-1]
    static = np.zeros(batch + (m,))
    for i, a in zip(scheme.s1, np.moveaxis(coeffs.first_order, -1, 0)):
        static[..., i - 1] = a

    omega0 = 2.0 * np.pi / params.epsilon
    root = np.sqrt(4.0 * np.pi / params.epsilon)
    osc = []
    for (i, j), kap, a in zip(scheme.s2, scheme.kappa, np.moveaxis(coeffs.pair, -1, 0)):
        amp = root * np.sqrt(kap * abs(a))
        osc.append((i - 1, j - 1, kap * omega0, amp, np.sign(a)))

    deg2 = []
    for term, a in zip(scheme.degree2, np.moveaxis(coeffs.nested, -1, 0)):
        j1, j2, _ = term.triple
        amp = np.cbrt(16.0 * np.pi ** 2 * (term.k2 ** 2 - term.k1 ** 2)
                      * a / params.epsilon ** 2)
        deg2.append((j1 - 1, j2 - 1, term.k1 * omega0, term.k2 * omega0, amp))

    def control(t: float | np.ndarray) -> np.ndarray:
        t = np.asarray(t, dtype=float)
        u = np.broadcast_to(static, t.shape + static.shape).copy()
        t = t.reshape(t.shape + (1,) * len(batch))  # one column per batch member
        for i, j, w, amp, sgn in osc:
            u[..., i] += amp * np.cos(w * t)
            u[..., j] += amp * sgn * np.sin(w * t)
        for j1, j2, w1, w2, amp in deg2:
            s2 = np.sin(w2 * t)
            u[..., j1] += amp * np.cos(w1 * t) * (1.0 + s2)
            u[..., j2] += amp * s2
        return u

    return control


def _gain(alpha):
    """``alpha`` when it is one finite positive gain, or a read-only float
    copy when it is a nonempty 1-D array of them: only a sampled
    ``simulate`` of a batch of as many starts takes an array, while the
    classic semantics and the certificate functions need one gain.  Any
    other value is refused with ``UsageError``."""
    if not np.ndim(alpha):
        if not 0 < alpha < np.inf:
            raise UsageError(f"alpha must be finite and positive, got {alpha}")
        return alpha
    gains = np.array(alpha, dtype=float)
    gains.flags.writeable = False
    if gains.ndim != 1 or not gains.size or not np.all((0 < gains) & (gains < np.inf)):
        raise UsageError("alpha must be one gain or a 1-D array of finite positive "
                         f"gains, got {gains}")
    return gains
