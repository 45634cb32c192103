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

from .errors import DimensionMismatchError, UsageError, in_range
from .systems import BracketScheme, ControlSystem, build_gain_matrix


@dataclass(frozen=True)
class ControllerParams:
    """Feedback gain alpha and sampling period epsilon, both finite and positive.
    ``alpha`` may also be a 1-D array of gains, one per start of a sampled
    batch, kept as a tuple of floats, so params compare and hash by value."""

    alpha: float | tuple[float, ...]
    epsilon: float

    def __post_init__(self):
        object.__setattr__(self, "alpha", _gain(self.alpha))
        in_range("epsilon", self.epsilon)


def coefficients(sys: ControlSystem, scheme: BracketScheme,
                 params: ControllerParams, x: np.ndarray,
                 gamma: np.ndarray) -> np.ndarray:
    """Solve F(x) a = -alpha (x - gamma) for the coefficients a (..., n_columns):
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
    return np.linalg.solve(gain, rhs[..., None])[..., 0]


def make_control_function(scheme: BracketScheme, params: ControllerParams,
                          coeffs: np.ndarray
                          ) -> Callable[[float | np.ndarray], np.ndarray]:
    """Control u(t) realizing the solved coefficients over one period.

    ``coeffs`` (..., n_columns) follows the gain-matrix column order: direct
    fields, then first-order bracket pairs, then nested terms; another width
    raises ``DimensionMismatchError``.

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
    coeffs = np.asarray(coeffs, dtype=float)
    if coeffs.shape[-1:] != (scheme.n_columns,):
        raise DimensionMismatchError(
            f"expected {scheme.n_columns} coefficients, got {coeffs.shape}")
    columns = np.moveaxis(coeffs, -1, 0)  # a row per gain-matrix column
    direct, pair, nested = np.split(columns, np.cumsum([len(scheme.s1), len(scheme.s2)]))
    m = scheme.m
    batch = coeffs.shape[:-1]
    static = np.zeros(batch + (m,))
    for i, a in zip(scheme.s1, direct):
        static[..., i - 1] = a

    omega0 = 2.0 * np.pi / params.epsilon
    root = np.sqrt(4.0 * np.pi / params.epsilon)
    osc = []
    for (i, j), kap, a in zip(scheme.s2, scheme.kappa, pair):
        amp = root * np.sqrt(kap * abs(a))
        osc.append((i - 1, j - 1, kap * omega0, amp, np.sign(a)))

    deg2 = []
    for term, a in zip(scheme.degree2, nested):
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
    """``alpha`` when it is one finite positive gain, or a tuple of floats
    when it is a nonempty 1-D array of them: only a sampled
    ``simulate`` of a batch of as many starts takes an array, while the
    classic semantics and the certificate functions need one gain.  Any
    other value is refused with ``UsageError``."""
    if not np.ndim(alpha):
        return in_range("alpha", alpha)
    gains = np.asarray(alpha, dtype=float)
    if gains.ndim != 1 or not gains.size or not np.all((0 < gains) & (gains < np.inf)):
        raise UsageError("alpha must be one gain or a 1-D array of finite positive "
                         f"gains, got {gains}")
    return tuple(gains.tolist())
