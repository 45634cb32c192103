"""Reference curves and curve utilities.

A reference curve is any smooth map t -> gamma(t) into the state space;
it does not need to be a trajectory the system can actually follow.
Curves carry their dimension, first derivative, the horizon their bounds
cover, and a bound nu on the velocity norm over [0, horizon], which feeds
the sampling-period certificates.

Evaluation convention: a scalar t yields shape (n,), an array of shape
(k,) yields shape (k, n).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import numpy as np

from .errors import in_range


def _stacked(components):
    """Vector-valued function of t from ``components(t)``, which returns
    the components as a sequence, so that they can share factors."""
    def ev(t):
        t_arr = np.asarray(t, dtype=float)
        cols = [np.broadcast_to(np.asarray(c, dtype=float), t_arr.shape)
                for c in components(t_arr)]
        return np.stack(cols, axis=-1)
    return ev


def vector_norms(v: np.ndarray) -> np.ndarray:
    """Euclidean norms along the last axis.  The squares are summed one
    component at a time, each a long loop over all points, where
    ``np.linalg.norm`` over the short last axis would loop once per point;
    below 8 components the two agree to the last bit."""
    out = v[..., 0] * v[..., 0]
    for component in range(1, v.shape[-1]):
        out += v[..., component] * v[..., component]
    return np.sqrt(out, out=out)


@dataclass(frozen=True)
class ReferenceCurve:
    """Smooth curve in R^n with derivative data, over [0, horizon].

    ``horizon`` must be finite and positive; the curve's bounds cover
    [0, horizon]: ``nu`` bounds the velocity norm there, and the
    certificate's tube sample is drawn there.
    """

    dim: int
    eval: Callable[[np.ndarray], np.ndarray]
    deriv: Callable[[np.ndarray], np.ndarray]
    horizon: float
    name: str = ""

    def __post_init__(self):
        in_range("horizon", self.horizon)

    def __call__(self, t):
        return self.eval(t)

    @cached_property
    def nu(self) -> float:
        """``velocity_bound`` over [0, horizon], computed the first time it
        is read, since most callers never read it."""
        return velocity_bound(self.deriv, self.horizon)


# Points of the uniform grid on [0, horizon] that velocity_bound samples.
VELOCITY_SAMPLES = 100_000

# Grid points per block: the curve data of one block is held at a time.
_GRID_BLOCK_POINTS = 4096


def _grid_blocks(horizon: float):
    """The ``VELOCITY_SAMPLES``-point uniform grid on [0, horizon], in
    consecutive blocks of ``_GRID_BLOCK_POINTS`` points."""
    ts = np.linspace(0.0, horizon, VELOCITY_SAMPLES)
    return (ts[lo:lo + _GRID_BLOCK_POINTS]
            for lo in range(0, VELOCITY_SAMPLES, _GRID_BLOCK_POINTS))


def velocity_bound(deriv, horizon: float) -> float:
    """Sampled sup of the velocity norm over [0, horizon], inflated by 1%.

    The sample is ``VELOCITY_SAMPLES`` evenly spaced times, evaluated in
    blocks of ``_GRID_BLOCK_POINTS`` so that only one block of velocities
    is held at a time; the sup is an exact maximum, so it does not depend
    on the block size, and a NaN speed anywhere makes it NaN.  The margin
    covers what the sample can miss between grid points.
    """
    in_range("horizon", horizon)
    speeds = [np.max(vector_norms(np.asarray(deriv(ts), dtype=float)))
              for ts in _grid_blocks(horizon)]
    return 1.01 * float(np.max(speeds))


def _gamma1_planar_velocity(t):
    """gamma1's planar velocity components, sharing their sines and cosines."""
    s2, c2, s1, c1 = np.sin(t / 2), np.cos(t / 2), np.sin(t), np.cos(t)
    return -s2 * c1 - 2 * c2 * s1, -s2 * s1 + 2 * c2 * c1


def curve_gamma1(horizon: float = 40.0) -> ReferenceCurve:
    """Flower-shaped planar curve with a slowly rocking third component.

    Not admissible for the unicycle: the heading coordinate moves
    independently of the planar direction of travel.
    """
    # Each sine and cosine is computed once per call and shared.
    @_stacked
    def ev(t):
        c2 = np.cos(t / 2)
        return 2 * c2 * np.cos(t), 2 * c2 * np.sin(t), np.cos(t / 10)

    @_stacked
    def dv(t):
        return *_gamma1_planar_velocity(t), -np.sin(t / 10) / 10

    return ReferenceCurve(3, ev, dv, horizon, name="gamma1")


def curve_gamma2(horizon: float = 40.0) -> ReferenceCurve:
    """Curve whose velocity decays to zero, settling at (3, 0, 0)."""
    @_stacked
    def ev(t):
        return 3 - np.exp(1 - t), np.exp(-t ** 2), 0.0

    @_stacked
    def dv(t):
        return np.exp(1 - t), -2 * t * np.exp(-t ** 2), 0.0

    return ReferenceCurve(3, ev, dv, horizon, name="gamma2")


def curve_gamma3(horizon: float = 40.0) -> ReferenceCurve:
    """gamma1's planar path with its tangent heading: admissible for the
    unicycle, which can follow it exactly.

    gamma1's planar velocity is (-sin(t/2), 2 cos(t/2)) turned by the
    angle t, so its heading atan2(y', x') has the continuous branch
    3t/2 + pi/2 - atan(sin t / (3 + cos t)) and the rate
    1 + 2/(5 + 3 cos t).  The heading is the exact atan2 shifted by the
    multiple of 2 pi that puts it nearest that branch.
    """
    @_stacked
    def ev(t):
        c2 = np.cos(t / 2)
        dx, dy = _gamma1_planar_velocity(t)
        raw = np.arctan2(dy, dx)
        branch = 1.5 * t + np.pi / 2 - np.arctan(np.sin(t) / (3 + np.cos(t)))
        turns = np.round((branch - raw) / (2 * np.pi))
        return 2 * c2 * np.cos(t), 2 * c2 * np.sin(t), raw + 2 * np.pi * turns

    @_stacked
    def dv(t):
        return *_gamma1_planar_velocity(t), 1 + 2 / (5 + 3 * np.cos(t))

    return ReferenceCurve(3, ev, dv, horizon, name="gamma1-heading")


def curve_gamma4_underwater(horizon: float = 40.0) -> ReferenceCurve:
    """Helical position reference for the six-state underwater vehicle."""
    @_stacked
    def ev(t):
        return np.cos(t / 4), t / 4, np.sin(t / 4), 0.0, 0.0, 0.0

    @_stacked
    def dv(t):
        return -np.sin(t / 4) / 4, 0.25, np.cos(t / 4) / 4, 0.0, 0.0, 0.0

    return ReferenceCurve(6, ev, dv, horizon, name="gamma4_underwater")


def curve_gamma4_car(horizon: float = 60.0) -> ReferenceCurve:
    """Figure-eight position reference for the rear-wheel car."""
    @_stacked
    def ev(t):
        s4 = np.sin(t / 4)
        return 5 * s4, 5 * s4 * np.cos(t / 4), 0.0, 0.0

    @_stacked
    def dv(t):
        return 1.25 * np.cos(t / 4), 1.25 * np.cos(t / 2), 0.0, 0.0

    return ReferenceCurve(4, ev, dv, horizon, name="gamma4_car")


CURVE_REGISTRY: dict[str, Callable[[float], ReferenceCurve]] = {
    "gamma1": curve_gamma1,
    "gamma2": curve_gamma2,
    "gamma3": curve_gamma3,
    "gamma4_underwater": curve_gamma4_underwater,
    "gamma4_car": curve_gamma4_car,
}


def get_curve(name: str, horizon: float = 40.0) -> ReferenceCurve:
    """Build the curve a spec names: a registry name first, otherwise a
    component expression in t, with or without an ``expr:`` prefix."""
    if name in CURVE_REGISTRY:
        return CURVE_REGISTRY[name](horizon)
    from .expressions import curve_from_expression
    return curve_from_expression(name.removeprefix("expr:"), horizon=horizon)
