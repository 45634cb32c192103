"""Reference curves and curve utilities.

A reference curve is any smooth map t -> gamma(t) into the state space;
it does not need to be a trajectory the system can actually follow.
Curves carry their dimension, first (and optionally second) derivative,
the horizon their bounds cover, and a bound nu on the velocity norm over
[0, horizon], which feeds the sampling-period certificates.

Evaluation convention: a scalar t yields shape (n,), an array of shape
(k,) yields shape (k, n).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import numpy as np

from .errors import DegenerateCurveError, UsageError, in_range


def _stacked(components):
    """Vector-valued function of t from ``components(t)``, which returns
    the components as a sequence, so that they can share factors."""
    def ev(t):
        t_arr = np.asarray(t, dtype=float)
        cols = [np.broadcast_to(np.asarray(c, dtype=float), t_arr.shape)
                for c in components(t_arr)]
        return np.stack(cols, axis=-1)
    return ev


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
    deriv2: Callable[[np.ndarray], np.ndarray] | None = None

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
    speeds = [np.max(np.linalg.norm(np.asarray(deriv(ts), dtype=float), axis=-1))
              for ts in _grid_blocks(horizon)]
    return 1.01 * float(np.max(speeds))


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
        s2, c2, s1, c1 = np.sin(t / 2), np.cos(t / 2), np.sin(t), np.cos(t)
        return -s2 * c1 - 2 * c2 * s1, -s2 * s1 + 2 * c2 * c1, -np.sin(t / 10) / 10

    @_stacked
    def dv2(t):
        s2, c2, s1, c1 = np.sin(t / 2), np.cos(t / 2), np.sin(t), np.cos(t)
        return (-2.5 * c2 * c1 + 2 * s2 * s1, -2.5 * c2 * s1 - 2 * s2 * c1,
                -np.cos(t / 10) / 100)

    return ReferenceCurve(3, ev, dv, horizon, name="gamma1", deriv2=dv2)


def curve_gamma2(horizon: float = 40.0) -> ReferenceCurve:
    """Curve whose velocity decays to zero, settling at (3, 0, 0)."""
    @_stacked
    def ev(t):
        return 3 - np.exp(1 - t), np.exp(-t ** 2), 0.0

    @_stacked
    def dv(t):
        return np.exp(1 - t), -2 * t * np.exp(-t ** 2), 0.0

    @_stacked
    def dv2(t):
        return -np.exp(1 - t), (4 * t ** 2 - 2) * np.exp(-t ** 2), 0.0

    return ReferenceCurve(3, ev, dv, horizon, name="gamma2", deriv2=dv2)


# The heading table of curve_gamma3_admissible: the heading turns by at
# most _HEADING_TURN between grid points, whose step lies between the two
# bounds; a planar speed below _SPEED_MIN on the grid is degenerate.
_HEADING_STEP_MAX = 1e-2
_HEADING_STEP_MIN = 1e-4
_HEADING_TURN = np.pi / 32
_SPEED_MIN = 1e-4


def curve_gamma3_admissible(base: ReferenceCurve) -> ReferenceCurve:
    """Admissible companion of a planar curve for the unicycle.

    Keeps the first two components of ``base`` and replaces the third by
    the heading angle of the planar path, so the result can be followed
    exactly by a unicycle.  The heading is atan2(y', x') taken on its
    continuous branch: a grid tabulates the unwrapped angle, and at a query
    time the exact atan2 is shifted by the multiple of 2 pi that puts it
    nearest the interpolated table, which starts at atan2 at t = 0.  Its
    rate, the heading component of ``deriv``, is

        theta' = (x' y'' - y' x'') / (x'^2 + y'^2).

    The grid's step is chosen from that rate on a probe grid of step 0.01:
    between grid points the heading turns by at most pi/32 at the largest
    rate probed, far below the pi at which unwrapping or the rounding
    could pick another branch; the step is at most 0.01 and at least
    1e-4, the step taken wherever the planar speed may come near 1e-4
    between probe points.  So, wherever the probe resolves the rate, the
    branch and the heading are those a table of step 1e-4 gives.  The
    result keeps the horizon of ``base``; the grid extends past it by a
    safety pad so the closed-loop simulation can sample slightly beyond it.
    """
    if base.deriv2 is None:
        raise UsageError("heading construction needs second derivatives of the base curve")

    t_end = base.horizon + 0.05 * base.horizon + 2.0

    def grid(step):
        ts = np.linspace(0.0, t_end, int(np.ceil(t_end / step)) + 1)
        return ts, np.asarray(base.deriv(ts), dtype=float)

    ts, d = grid(_HEADING_STEP_MAX)
    dd = np.asarray(base.deriv2(ts), dtype=float)
    speed = np.hypot(d[:, 0], d[:, 1])
    if np.min(speed - 2 * _HEADING_STEP_MAX * np.hypot(dd[:, 0], dd[:, 1])) < _SPEED_MIN:
        step = _HEADING_STEP_MIN
    else:
        rate = np.max(np.abs(d[:, 0] * dd[:, 1] - d[:, 1] * dd[:, 0]) / speed ** 2)
        step = max(_HEADING_STEP_MIN,
                   _HEADING_TURN / max(rate, _HEADING_TURN / _HEADING_STEP_MAX))
    if step < _HEADING_STEP_MAX:
        ts, d = grid(step)
    if float(np.min(d[:, 0] ** 2 + d[:, 1] ** 2)) < _SPEED_MIN ** 2:
        raise DegenerateCurveError(
            "planar speed vanishes; the path has no well-defined heading")
    branch = np.unwrap(np.arctan2(d[:, 1], d[:, 0]))

    def heading(t_arr):
        dv = np.asarray(base.deriv(t_arr), dtype=float)
        raw = np.arctan2(dv[..., 1], dv[..., 0])
        turns = np.round((np.interp(t_arr, ts, branch) - raw) / (2 * np.pi))
        return raw + 2 * np.pi * turns

    def heading_rate(t):
        t_arr = np.asarray(t, dtype=float)
        dv = np.asarray(base.deriv(t_arr), dtype=float)
        dv2 = np.asarray(base.deriv2(t_arr), dtype=float)
        return ((dv[..., 0] * dv2[..., 1] - dv[..., 1] * dv2[..., 0])
                / (dv[..., 0] ** 2 + dv[..., 1] ** 2))

    def _check_range(t_arr):
        if np.any(t_arr < -1e-6) or np.any(t_arr > t_end + 1e-9):
            raise UsageError(
                f"heading curve only tabulated on [0, {t_end:.6g}], got time outside it")

    def ev(t):
        t_arr = np.asarray(t, dtype=float)
        _check_range(t_arr)
        planar = np.asarray(base.eval(t_arr), dtype=float)[..., :2]
        return np.concatenate(
            [planar, heading(t_arr)[..., None]], axis=-1)

    def dv_full(t):
        t_arr = np.asarray(t, dtype=float)
        _check_range(t_arr)
        planar = np.asarray(base.deriv(t_arr), dtype=float)[..., :2]
        return np.concatenate(
            [planar, heading_rate(t_arr)[..., None]], axis=-1)

    return ReferenceCurve(3, ev, dv_full, base.horizon,
                          name=f"{base.name or 'base'}-heading")


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
    "gamma3": lambda horizon: curve_gamma3_admissible(curve_gamma1(horizon)),
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
