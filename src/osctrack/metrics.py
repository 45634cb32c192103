"""Tracking-quality metrics computed from recorded trajectories.

Practical stabilization to a curve means: the distance to the moving
reference enters a tube of radius rho in finite time and stays there.
The metrics below measure exactly that, plus the size of the residual
steady-state wobble and an exponential fit of the transient.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import UsageError, in_range
from .integrator import Trajectory

# Relative slack when deciding whether a distance sits inside the tube,
# so states that graze the boundary do not flip the verdict.
TUBE_EDGE_RTOL = 1e-9

# Steps of the record that ``entry_time`` compares with the tube at a time.
_BLOCK_ROWS = 2048


def entry_time(traj: Trajectory, rho: float) -> float:
    """First time after which the trajectory never leaves the rho-tube.

    The trajectory is read at its nodes and at the points inside every
    step (``traj.dense_dist``), in time order; the entry time is the
    first of these points after the last one outside the tube.  Returns
    0.0 when it never leaves the tube at all, and inf when it is still
    outside at the end of the record.  The record is searched from its
    end, ``_BLOCK_ROWS`` steps at a time.  ``rho`` must be finite and
    nonnegative.
    """
    threshold = in_range("tube radius", rho, zero_ok=True) * (1.0 + TUBE_EDGE_RTOL)
    if traj.dist[-1] > threshold:
        return np.inf
    # Point p of step i is at times[i] + offsets[p], its node being p = 0.
    offsets = np.append(0.0, traj.dense_offsets())
    for stop in range(traj.times.size - 1, 0, -_BLOCK_ROWS):
        start = max(0, stop - _BLOCK_ROWS)
        outside = np.column_stack((traj.dist[start:stop] > threshold,
                                   traj.dense_dist[start:stop] > threshold)).ravel()
        if outside.any():
            after = outside.size - int(np.argmax(outside[::-1]))  # past the last one out
            step, point = divmod(after, offsets.size)
            return float(traj.times[start + step] + offsets[point])
    return 0.0


def steady_amplitude(traj: Trajectory) -> float:
    """Largest raw distance over the last quarter of the record."""
    return tail_error(traj, 0.75 * traj.times[-1])


def tail_error(traj: Trajectory, t_start: float) -> float:
    """Largest raw distance over times >= t_start, at the nodes and at the
    points inside the steps."""
    first = int(np.searchsorted(traj.times, t_start))
    if first == traj.times.size:
        raise UsageError(f"no recorded times at or after {t_start}")
    peaks = [np.max(traj.dist[first:]), np.max(traj.dense_dist[first:], initial=-np.inf)]
    if first:  # the points of the step that holds t_start
        late = traj.times[first - 1] + traj.dense_offsets() >= t_start
        peaks.append(np.max(traj.dense_dist[first - 1, late], initial=-np.inf))
    return float(np.max(peaks))


@dataclass(frozen=True)
class StabilityReport:
    """Tube verdict for one trajectory at tube radius rho.

    ``fitted_lambda``/``fitted_C`` describe a least-squares fit of
    C*exp(-lambda*t) to the distance-above-tube during the transient,
    evaluated at sampling instants; both are None when fewer than two
    usable points exist.
    """

    rho: float
    entry_time: float
    steady_amplitude: float
    fitted_lambda: float | None
    fitted_C: float | None

    @property
    def entered(self) -> bool:
        return np.isfinite(self.entry_time)


def stability_report(traj: Trajectory, rho: float) -> StabilityReport:
    t_enter = entry_time(traj, rho)
    # The fit reads only the sampling instants, so only they are formed.
    idx = traj.sample_indices()
    times, tube = traj.times[idx], np.maximum(0.0, traj.dist[idx] - rho)
    transient = (times < t_enter) & (tube > 0)
    fitted_lambda = fitted_C = None
    if np.count_nonzero(transient) >= 2:
        ts = times[transient]
        logs = np.log(tube[transient])
        slope, intercept = np.polyfit(ts, logs, 1)
        fitted_lambda = float(-slope)
        fitted_C = float(np.exp(intercept))
    return StabilityReport(
        rho=rho,
        entry_time=t_enter,
        steady_amplitude=steady_amplitude(traj),
        fitted_lambda=fitted_lambda,
        fitted_C=fitted_C,
    )


@dataclass(frozen=True)
class GapReport:
    """Steady-state error comparison between two runs on the same grid."""

    tail_admissible: float
    tail_nonadmissible: float
    ratio: float


def admissible_vs_nonadmissible_gap(traj_adm: Trajectory,
                                    traj_nonadm: Trajectory) -> GapReport:
    """How much worse a non-admissible reference tracks than an admissible one.

    Both runs must share the same time grid so the comparison is
    apples-to-apples; the ratio is non-admissible over admissible
    steady amplitude.
    """
    if traj_adm.times.shape != traj_nonadm.times.shape or \
            not np.allclose(traj_adm.times, traj_nonadm.times, atol=1e-12):
        raise UsageError("gap comparison needs runs on identical time grids")
    tail_adm = steady_amplitude(traj_adm)
    tail_nonadm = steady_amplitude(traj_nonadm)
    ratio = np.inf if tail_adm == 0 else tail_nonadm / tail_adm
    return GapReport(tail_admissible=tail_adm, tail_nonadmissible=tail_nonadm,
                     ratio=float(ratio))
