"""A fixed reference loop that measures how fast the machine is right now.

On a shared host the speed of a core swings by more than half for tens
of seconds to minutes at a time, as other tenants come and go, and all
CPU-bound work slows alike (CPU time with it).  A raw repetition time
then says as much about the neighbours as about the program.  The
end-to-end timing of a repetition is therefore reported relative to
this loop, run just before and just after it.

The loop does the same kind of work the package does (a small RK4
integration on numpy 3-vectors, float formatting, small dense solves
and SVDs) and never changes with the package: it imports nothing from
``osctrack``, so a change to the program moves the ratio, not the loop.
"""

from __future__ import annotations

import gc
import math
import multiprocessing
from time import perf_counter

import numpy as np

STEPS = 12000
# About the loop's median time on the 2-CPU Intel Xeon machine the bounds
# were set on.  It only fixes the scale of ``setup_s``, which must read in
# seconds; timings are compared between runs at the same value.
REFERENCE_S = 0.3
TASKS_PER_JOB = 3          # as the sweep's 6 cells on its 2 workers
_A = np.array([[-0.5, 1.0, 0.2], [-1.0, -0.3, 0.4], [0.1, -0.2, -0.8]])


def _field(t: float, x: np.ndarray) -> np.ndarray:
    return _A @ x + np.array([math.sin(t), math.cos(t) * x[0], x[1] * x[2]])


def loop(steps: int = STEPS) -> np.ndarray:
    """RK4 on a fixed 3-state system; returns the final state."""
    x = np.array([1.0, 0.5, -0.25])
    t, h = 0.0, 1e-3
    rows = []
    for i in range(steps):
        k1 = _field(t, x)
        k2 = _field(t + h / 2, x + h / 2 * k1)
        k3 = _field(t + h / 2, x + h / 2 * k2)
        k4 = _field(t + h, x + h * k3)
        x = x + h / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
        t += h
        if i % 5 == 0:
            rows.append(",".join(repr(float(v)) for v in x))
        if i % 50 == 0:
            np.linalg.solve(_A + np.eye(3) * t, x)
            np.linalg.svd(_A * x[0])
    return x


class Reference:
    """Times the loop on ``jobs`` processes at once, as many as the workload
    keeps busy, so that the time reads the speed of every CPU it uses.
    With more than one job, the work of ``jobs`` loops is cut into
    ``TASKS_PER_JOB`` tasks per process and handed out one at a time, as
    the sweep hands out its cells, so that a CPU slowed for a while does
    less of it; the time is the wall time until the last task is done.
    One job runs in this process."""

    def __init__(self, jobs: int = 1):
        self.jobs = jobs
        self._pool = (multiprocessing.get_context("fork").Pool(jobs)
                      if jobs > 1 else None)

    def timed(self) -> float:
        """Wall time of one run of the loop, after a garbage collection."""
        gc.collect()
        t0 = perf_counter()
        if self._pool is None:
            loop()
        else:
            tasks = TASKS_PER_JOB * self.jobs
            self._pool.map(loop, [STEPS // TASKS_PER_JOB] * tasks, chunksize=1)
        return perf_counter() - t0

    def close(self) -> None:
        if self._pool is not None:
            self._pool.close()
            self._pool.join()

    def __enter__(self) -> "Reference":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def ratios(refs: list[float], walls: list[float]) -> list[float]:
    """Each repetition's wall time over the mean of the reference loops
    run just before and just after it (``refs`` has one more entry)."""
    if len(refs) != len(walls) + 1:
        raise ValueError("need one reference time before and after each repetition")
    return [w / ((a + b) / 2) for w, a, b in zip(walls, refs, refs[1:])]
