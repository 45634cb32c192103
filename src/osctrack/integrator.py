"""Fixed-step simulation under sampled and classical semantics.

The sampled semantics is the one the stability guarantees are stated
for: time is partitioned into intervals of length epsilon, the
coefficient solve happens once per interval using the state and
reference at the left endpoint, and the resulting open-loop control
(continuous in t, with absolute trigonometric phases) drives the system
until the next sampling instant.

The classical semantics instead lets the coefficients depend on the
current state at every instant, which is the textbook closed-loop ODE.
Both are integrated with the classical fourth-order Runge-Kutta scheme
on a fixed grid of ``substeps`` nodes per sampling interval.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np

from .controller import (
    ControllerParams,
    coefficients,
    make_control_function,
)
from .curves import ReferenceCurve
from .errors import (
    DimensionMismatchError,
    DomainError,
    RankConditionError,
    SimulationError,
    UsageError,
)
from .systems import BracketScheme, ControlSystem, gain_matrices

# Integration nodes per sampling interval must resolve the fastest
# oscillation with at least this many nodes per period.
MIN_NODES_PER_PERIOD = 40

# Rows of the record whose distance to the reference is formed at a time.
_DIST_BLOCK_ROWS = 4096


def default_substeps(scheme: BracketScheme) -> int:
    """Substeps per sampling interval when none are given:
    ``max(120, MIN_NODES_PER_PERIOD * scheme.max_frequency)``.

    That is 120 for the unicycle, the underwater vehicle and the car.
    Doubling it moves the endpoint by at most 4.9e-8 relative over 50
    benchmark unicycle starts (gamma1, alpha=15, epsilon=0.1, H=10), by at
    most 1.6e-8 on car sweep cells and by 2.2e-9 on the underwater
    vehicle's defaults (H=5); criterion 9 allows 1e-6.  At the 40-node
    floor alone the worst unicycle start moves 3.9e-6.
    """
    return max(120, MIN_NODES_PER_PERIOD * scheme.max_frequency)


@dataclass(frozen=True)
class SamplerGrid:
    """Sampling period, horizon, and integration resolution.

    ``epsilon`` and ``horizon`` must be finite and positive.
    ``substeps``, an integer, is the number of integration nodes per
    sampling interval, at least ``MIN_NODES_PER_PERIOD`` per period of
    the scheme's fastest harmonic.  None picks ``default_substeps(scheme)``:
    ``max(120, MIN_NODES_PER_PERIOD * max_frequency)``, at which doubling
    the substeps moves the endpoint of the built-in scenarios by at most
    4.9e-8 relative (criterion 9 allows 1e-6).
    """

    epsilon: float
    horizon: float
    substeps: int | None = None

    def __post_init__(self):
        if not 0 < self.epsilon < np.inf:
            raise UsageError(f"epsilon must be finite and positive, got {self.epsilon}")
        if not 0 < self.horizon < np.inf:
            raise UsageError(f"horizon must be finite and positive, got {self.horizon}")
        if self.substeps is not None and not (
                isinstance(self.substeps, (int, np.integer)) and self.substeps >= 1):
            raise UsageError(f"substeps must be a positive integer, got {self.substeps}")

    def resolve(self, scheme: BracketScheme, params: ControllerParams) -> int:
        """Validate against the scheme and params, return the substep count."""
        if abs(self.epsilon - params.epsilon) > 1e-12 * max(1.0, params.epsilon):
            raise UsageError(
                f"grid epsilon {self.epsilon} does not match controller epsilon "
                f"{params.epsilon}")
        substeps = self.substeps if self.substeps is not None else default_substeps(scheme)
        needed = MIN_NODES_PER_PERIOD * scheme.max_frequency
        if substeps < needed:
            raise UsageError(
                f"{substeps} substeps cannot resolve oscillations up to harmonic "
                f"{scheme.max_frequency}; need at least {needed}")
        return substeps

    @property
    def n_intervals(self) -> int:
        """Sampling intervals a run takes to reach the horizon."""
        return max(1, int(np.ceil(self.horizon / self.epsilon - 1e-9)))


@dataclass(frozen=True)
class Trajectory:
    """Recorded closed-loop run on the integration grid.

    ``controls[i]`` holds the control in effect at ``times[i]``; at
    sampling instants that is the incoming interval's value (the record
    is right-continuous), except for the very last row, which keeps the
    final interval's control.  ``dist`` is the raw distance to the
    reference, row by row.  In the partial trace of a failed run the last
    row holds the state reached and NaN for any control never computed.

    A run of one start has ``states`` (rows, n), ``controls`` (rows, m)
    and ``dist`` (rows,).  A batch of B starts adds the batch axis after
    the row axis: ``states[:, b]`` is the run of start b.  A member that
    stopped early keeps NaN in every row it did not reach, and
    ``failures[b]`` holds the ``SimulationError`` it raises when run
    alone, partial trace included; the other members are unaffected.
    ``coefficient_evals`` counts the solves of each member that reached
    the horizon.
    """

    times: np.ndarray
    states: np.ndarray
    reference: np.ndarray
    controls: np.ndarray
    dist: np.ndarray
    epsilon: float
    substeps: int
    n_intervals: int
    coefficient_evals: int
    semantics: str
    failures: dict[int, SimulationError] = field(default_factory=dict)

    def sample_indices(self) -> np.ndarray:
        """Row indices of the sampling instants present in the record."""
        return np.arange(0, self.times.size, self.substeps)

    @property
    def horizon(self) -> float:
        return float(self.times[-1])


class _Stopped(Exception):
    """Every member of the run has stopped."""


def _drift(terms, u, made, x: np.ndarray) -> np.ndarray:
    """Right-hand side u_1 f_1(x) + u_2 f_2(x) + ..., summed left to right.

    ``terms[i]`` is ``(f_i.eval, i)`` for a field that depends on the
    state and ``(None, j)`` for the j-th constant field, whose term
    u_i f_i was formed beforehand as ``made[j]``.  ``u[i]`` is a scalar
    for one state, a column (B, 1) for states (B, n).
    """
    out = None
    for ev, j in terms:
        term = made[j] if ev is None else u[j] * ev(x)
        out = term if out is None else out + term
    return out


def _rk4_step(rhs: Callable, x: np.ndarray, h: float, half_h: float,
              sixth_h: float) -> np.ndarray:
    """A classical Runge-Kutta step of length h from x.

    ``half_h`` and ``sixth_h`` are 0.5 * h and h / 6.  ``rhs(s, state)``
    is the right-hand side at stage s: 0 the left node, 1 the midpoint,
    2 the right node.
    """
    k1 = rhs(0, x)
    xa = x + half_h * k1
    k2 = rhs(1, xa)
    xb = x + half_h * k2
    k3 = rhs(1, xb)
    xc = x + h * k3
    k4 = rhs(2, xc)
    return x + sixth_h * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def _integrate(sys: ControlSystem, scheme: BracketScheme, params: ControllerParams,
               curve: ReferenceCurve, x0: np.ndarray, grid: SamplerGrid,
               freeze: bool, on_coefficients=None) -> Trajectory:
    substeps = grid.resolve(scheme, params)
    if curve.dim != sys.n:
        raise DimensionMismatchError(
            f"curve has dim {curve.dim}, system has n={sys.n}")
    x0 = np.asarray(x0, dtype=float)
    if x0.ndim not in (1, 2) or x0.shape[-1] != sys.n or x0.size == 0:
        raise DimensionMismatchError(
            f"x0 must have shape ({sys.n},) or (B, {sys.n}) with B >= 1, got {x0.shape}")
    if x0.ndim == 2 and (not freeze or on_coefficients is not None):
        raise UsageError("classic semantics and on_coefficients take a single start; "
                         f"x0 must have shape ({sys.n},)")
    if not np.isfinite(x0).all():
        raise UsageError("x0 must be finite")
    outside = np.logical_not(sys.in_domain(x0)) & np.ones(x0.shape[:-1], bool)
    if outside.any():
        first = x0.reshape(-1, sys.n)[np.argmax(outside)]
        raise DomainError(f"initial state {first} outside the system domain")

    eps = params.epsilon
    h = eps / substeps
    half_h, sixth_h = 0.5 * h, h / 6.0
    n_int = grid.n_intervals
    rows = n_int * substeps + 1
    # Row j * substeps + k is at j * eps + k * h.
    times = (np.arange(n_int + 1)[:, None] * eps + np.arange(substeps) * h).ravel()[:rows]
    gamma_all = np.asarray(curve.eval(times), dtype=float)

    # Axis 1 is the member; a single start is member 0 (x keeps the start's shape).
    # NaN-filled, so a partial trace never shows a value that was not computed.
    states = np.full((rows, x0.size // sys.n, sys.n), np.nan)
    controls = np.full(states.shape[:2] + (scheme.m,), np.nan)
    # Each constant field's term u_i * value is formed from the control
    # table, once per interval; only the other fields are evaluated per stage.
    const = [i for i, f in enumerate(sys.fields) if f.value is not None]
    values = np.array([sys.fields[i].value for i in const]).reshape(-1, sys.n)
    terms = tuple((None, const.index(i)) if i in const else (f.eval, i)
                  for i, f in enumerate(sys.fields))
    semantics = "sampled" if freeze else "classic"
    # The per-step check: bool on one start, since np.all costs about 4 us a step.
    whole = np.all if x0.ndim == 2 else bool
    eval_count = 0
    members = np.arange(states.shape[1])
    live = slice(None)  # the members still running; an index array once one stops
    stopped = {}  # member -> (message, reason, time, rows kept, solves)

    def stop(bad, reason: str, what: str, kept: int, t_fail: float):
        """Stop the live members marked in ``bad``, keeping rows up to kept - 1."""
        running = members[live]
        running = running[np.broadcast_to(bad, running.shape)]
        for b in running:
            stopped[int(b)] = (f"{what} t={t_fail:.6g}", reason, t_fail, kept, eval_count)
        states[kept:, running] = np.nan
        controls[kept:, running] = np.nan

    def go_on(keep):
        """Carry on with the live members marked in ``keep``, and their gains."""
        nonlocal x, live, table, made, u_func, params
        if not np.any(keep):
            raise _Stopped
        if not np.all(keep):
            x, live = x[keep], members[live][keep]
            if np.ndim(params.alpha):
                params = replace(params, alpha=params.alpha[keep])
            if table is not None:
                table, made = table[:, :, :, keep], made[:, :, :, keep]
                u_func = lambda t, f=u_func: f(t)[..., keep, :]

    def solve(t, state):
        # Classic semantics: coefficients from the stage's own state and time.
        nonlocal eval_count
        c = coefficients(sys, scheme, params, state, curve.eval(t))
        eval_count += 1
        return make_control_function(scheme, params, c)(t)

    def sampled(s, state):
        # The controls and constant-field terms were tabulated for the interval.
        return _drift(terms, table[k, s], made[k, s], state)

    def classic(s, state):
        # The constant-field terms are formed on the spot; the left-node
        # control is recorded first, so a step that fails on a later stage
        # still leaves it in the trace.
        u = solve(table[k, s], state)
        if s == 0:
            controls[i] = u
        return _drift(terms, u, u[const, None] * values, state)

    rhs = sampled if freeze else classic
    x = states[0] = x0
    table = made = u_func = None
    i = 0  # the row being computed
    try:
        for j in range(n_int):
            base = i = j * substeps
            # Row k: the left node, midpoint and right node of step k.
            left = times[base:base + substeps]
            stages = np.stack((left, left + half_h, left + h), axis=1)
            if freeze:
                try:
                    coeffs = coefficients(sys, scheme, params, x, gamma_all[base])
                except RankConditionError:  # the singular members stop here
                    singular = gain_matrices(sys, scheme, x).singular
                    stop(singular, "rank-deficient", "gain matrix singular near",
                         base + 1, float(times[base]))
                    go_on(~singular)
                    coeffs = coefficients(sys, scheme, params, x, gamma_all[base])
                eval_count += 1
                if on_coefficients is not None:
                    on_coefficients(j, float(times[base]), x.copy(), coeffs)
                u_func = make_control_function(scheme, params, coeffs)
                stages = u_func(stages)  # (substeps, 3) + batch axes + (m,)
                controls[base:base + substeps, live] = stages[:, 0].reshape(
                    substeps, -1, scheme.m)
                made = np.moveaxis(stages[..., const, None] * values, -2, 2)
                # Per field, a scalar control or a column (B, 1) of member values.
                stages = np.moveaxis(stages, -1, 2)[(...,) + (None,) * (x0.ndim - 1)]
            table = stages

            for k in range(substeps):
                i = base + k
                x_prev, x = x, _rk4_step(rhs, x, h, half_h, sixth_h)
                states[i + 1, live] = x
                if not (np.isfinite(x).all() and whole(sys.in_domain(x))):
                    t_next = float(times[i + 1])
                    finite = np.isfinite(x).all(-1)
                    inside = finite & np.asarray(
                        sys.in_domain(np.where(finite[..., None], x, x_prev)))
                    stop(~finite, "non-finite-state", "state became non-finite by",
                         i + 1, t_next)
                    stop(finite & ~inside, "domain-exit", "state left the domain by",
                         i + 1, t_next)
                    go_on(inside)
    except DomainError:
        stop(True, "domain-exit", "state left the domain near", i + 1, float(times[i]))
    except RankConditionError:
        stop(True, "rank-deficient", "gain matrix singular near", i + 1, float(times[i]))
    except _Stopped:
        pass
    else:  # the last row keeps the final interval's control
        try:
            controls[-1, live] = u_func(times[-1]) if freeze else solve(times[-1], x)
        except (DomainError, RankConditionError):
            controls[-1, live] = controls[-2, live]

    # Formed a block of rows at a time, for every member alike, so the
    # differences to the reference never exist for the whole record.
    dist = np.empty(states.shape[:2])
    for start in range(0, rows, _DIST_BLOCK_ROWS):
        block = slice(start, start + _DIST_BLOCK_ROWS)
        dist[block] = np.linalg.norm(states[block] - gamma_all[block, None], axis=-1)

    def record(member, kept: int, n_intervals: int, evals: int, failed: dict):
        return Trajectory(
            times=times[:kept], states=states[:kept, member], reference=gamma_all[:kept],
            controls=controls[:kept, member], dist=dist[:kept, member], epsilon=eps,
            substeps=substeps, n_intervals=n_intervals, coefficient_evals=evals,
            semantics=semantics, failures=failed)

    failures = {b: SimulationError(message, reason=reason, time=t_fail,
                                   partial=record(b, kept, (kept - 1) // substeps + 1,
                                                  evals, {}))
                for b, (message, reason, t_fail, kept, evals) in stopped.items()}
    if failures and x0.ndim == 1:  # a single start is member 0 and raises its failure
        raise failures[0]
    keep = int(np.searchsorted(times, grid.horizon + 1e-9, side="right"))
    return record(0 if x0.ndim == 1 else slice(None), keep, n_int, eval_count, failures)


def simulate(sys: ControlSystem, scheme: BracketScheme, params: ControllerParams,
             curve: ReferenceCurve, x0: np.ndarray, grid: SamplerGrid,
             on_coefficients: Callable | None = None) -> Trajectory:
    """Closed-loop run under sampled semantics.

    Coefficients are solved exactly once per sampling interval, at its
    left endpoint; ``on_coefficients(j, t_j, x_j, coeffs)`` is invoked
    for each solve when given.

    ``x0`` of shape (n,) runs one start and raises ``SimulationError``,
    with the partial trace, if the run stops early.  ``x0`` of shape
    (B, n) runs B starts as one batch, with one gain-matrix build, solve
    and Runge-Kutta step per interval or step for all of them; member b
    equals the run of ``x0[b]`` alone, to the last bit.  A batch may
    carry one gain per member, ``params.alpha`` of shape (B,); member b
    then equals the run of ``x0[b]`` alone at gain ``alpha[b]``.  A
    member that stops early is masked and its error kept in
    ``failures``; the others go on with their own gains, and the batch
    raises only for bad input.  A gain array with a single start, or
    with a length other than B, is refused with ``UsageError``, as is
    ``on_coefficients`` with a batch.
    """
    return _integrate(sys, scheme, params, curve, x0, grid,
                      freeze=True, on_coefficients=on_coefficients)


def classic_solution_simulate(sys: ControlSystem, scheme: BracketScheme,
                              params: ControllerParams, curve: ReferenceCurve,
                              x0: np.ndarray, grid: SamplerGrid) -> Trajectory:
    """Closed-loop run where the coefficients track the state continuously.

    Every Runge-Kutta stage re-solves the coefficient system at the
    stage's own state and time, so the result converges to the
    classical solution of the instantaneous-feedback ODE as the grid is
    refined.  It takes a single start x0 (n,) and a single gain.
    """
    return _integrate(sys, scheme, params, curve, x0, grid, freeze=False)
