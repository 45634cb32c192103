"""Fixed-step simulation under sampled and classical semantics.

The sampled semantics is the one the stability guarantees are stated
for: time is partitioned into intervals of length epsilon, the
coefficient solve happens once per interval using the state and
reference at the left endpoint, and the resulting open-loop control
(continuous in t, with absolute trigonometric phases) drives the system
until the next sampling instant.

The classical semantics instead lets the coefficients depend on the
current state at every instant, which is the textbook closed-loop ODE.
Both take ``substeps`` steps per sampling interval of one explicit
Runge-Kutta step over a Butcher tableau held as data: the twelve-stage
method of order 8 of Dormand and Prince's DOP853 (Hairer, Norsett &
Wanner, *Solving Ordinary Differential Equations I*, section II.5).  Its
stages also give a continuous extension of order 5 (section II.6) at no
extra field evaluation, from which the distance to the reference is
recorded at ``DENSE_POINTS`` inside every step as well as at the nodes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np

from .controller import (
    ControllerParams,
    coefficients,
    make_control_function,
)
from .curves import ReferenceCurve, vector_norms
from .errors import (
    DimensionMismatchError,
    DomainError,
    RankConditionError,
    SimulationError,
    UsageError,
    in_range,
)
from .systems import BracketScheme, ControlSystem

# The twelve-stage propagating method of order 8 of Dormand and Prince's
# DOP853 (Prince & Dormand, J. Comput. Appl. Math. 7, 1981; Hairer,
# Norsett & Wanner, section II.5): nodes c, coefficients A (strictly lower
# triangular, so the method is explicit) and weights b, as published.
_C = np.array([
    0.0, 0.526001519587677318785587544488e-01, 0.789002279381515978178381316732e-01,
    0.118350341907227396726757197510, 0.281649658092772603273242802490,
    0.333333333333333333333333333333, 0.25, 0.307692307692307692307692307692,
    0.651282051282051282051282051282, 0.6, 0.857142857142857142857142857142, 1.0])
_A = np.zeros((12, 12))
_A[1, :1] = [5.26001519587677318785587544488e-2]
_A[2, :2] = [1.97250569845378994544595329183e-2, 5.91751709536136983633785987549e-2]
_A[3, :3] = [2.95875854768068491816892993775e-2, 0.0, 8.87627564304205475450678981324e-2]
_A[4, :4] = [2.41365134159266685502369798665e-1, 0.0,
             -8.84549479328286085344864962717e-1, 9.24834003261792003115737966543e-1]
_A[5, :5] = [3.7037037037037037037037037037e-2, 0.0, 0.0,
             1.70828608729473871279604482173e-1, 1.25467687566822425016691814123e-1]
_A[6, :6] = [3.7109375e-2, 0.0, 0.0, 1.70252211019544039314978060272e-1,
             6.02165389804559606850219397283e-2, -1.7578125e-2]
_A[7, :7] = [3.70920001185047927108779319836e-2, 0.0, 0.0,
             1.70383925712239993810214054705e-1, 1.07262030446373284651809199168e-1,
             -1.53194377486244017527936158236e-2, 8.27378916381402288758473766002e-3]
_A[8, :8] = [6.24110958716075717114429577812e-1, 0.0, 0.0,
             -3.36089262944694129406857109825, -8.68219346841726006818189891453e-1,
             2.75920996994467083049415600797e1, 2.01540675504778934086186788979e1,
             -4.34898841810699588477366255144e1]
_A[9, :9] = [4.77662536438264365890433908527e-1, 0.0, 0.0,
             -2.48811461997166764192642586468, -5.90290826836842996371446475743e-1,
             2.12300514481811942347288949897e1, 1.52792336328824235832596922938e1,
             -3.32882109689848629194453265587e1, -2.03312017085086261358222928593e-2]
_A[10, :10] = [-9.3714243008598732571704021658e-1, 0.0, 0.0,
               5.18637242884406370830023853209, 1.09143734899672957818500254654,
               -8.14978701074692612513997267357, -1.85200656599969598641566180701e1,
               2.27394870993505042818970056734e1, 2.49360555267965238987089396762,
               -3.0467644718982195003823669022]
_A[11, :11] = [2.27331014751653820792359768449, 0.0, 0.0,
               -1.05344954667372501984066689879e1, -2.00087205822486249909675718444,
               -1.79589318631187989172765950534e1, 2.79488845294199600508499808837e1,
               -2.85899827713502369474065508674, -8.87285693353062954433549289258,
               1.23605671757943030647266201528e1, 6.43392746015763530355970484046e-1]
_B = np.array([
    5.42937341165687622380535766363e-2, 0.0, 0.0, 0.0, 0.0,
    4.45031289275240888144113950566, 1.89151789931450038304281599044,
    -5.8012039600105847814672114227, 3.1116436695781989440891606237e-1,
    -1.52160949662516078556178806805e-1, 2.01365400804030348374776537501e-1,
    4.47106157277725905176885569043e-2])
# Dense weights b_i(theta) = sum_k _B_DENSE[i, k] theta^(k+1), with b(1) = b:
# they satisfy the 17 order conditions of order 5 in every power of theta,
# a continuous extension of order 5 (section II.6) from the same stages.
# The conditions leave a family of solutions; this is its least-norm
# member among those that, like b, give stages 2 to 5 no weight, with
# the theta^5 column set to b minus the other four so that b(1) rounds to b.
_B_DENSE = np.zeros((12, 5))
_B_DENSE[[0, 5, 6, 7, 8, 9, 10, 11]] = [
    [0.9902843968894829, -3.779014552237294, 6.49143186328308, -5.231554932211787,
     1.5831469583930868],
    [0.8411152682098915, 1.3944829909274017, 1.8835998859856438, -2.1258643803111306,
     2.456979127940603],
    [0.3790961564114951, 4.753429361668012, -13.442482047867447, 15.452865355796822,
     -5.251390926694382],
    [-1.2012980079329851, 0.5588752075048233, -4.705370686491869, 1.3046310724011148,
     -1.7580415454916691],
    [0.04751020015235289, -2.2281803872552843, 7.93680308157763, -8.316108874106531,
     2.871140346589652],
    [-0.04345394484796931, -3.8258999257890274, 14.123690391930204, -16.618125948173663,
     6.211628477217939],
    [-0.02007779405267318, 4.933180439869872, -19.774447770328834, 25.92218660981417,
     -10.859476084498503],
    [0.006823725170405245, -1.8068731346885025, 7.486775281911592, -10.388028903208992,
     4.746013646543271],
]
# The distinct nodes, here all twelve, at which the control is tabulated,
# and the one each stage reads.
_NODES, _STAGE_NODE = np.unique(_C, return_inverse=True)
_STAGE_NODE = tuple(_STAGE_NODE.tolist())

# Fractions of a step at which the distance to the reference is also
# recorded, inside every step.
DENSE_POINTS = tuple(k / 8 for k in range(1, 8))
# b_i(theta) at those fractions, shape (points, stages).
_W_DENSE = (np.array(DENSE_POINTS)[:, None] ** np.arange(1, 6)) @ _B_DENSE.T
# The weights of the sums a step forms, one row each: the states stages
# 1, 2, ... read, the new state, and the states at DENSE_POINTS.
_SUMS = np.vstack((_A[1:], _B, _W_DENSE))


def _point_offsets(h: float, count: int = len(DENSE_POINTS)) -> np.ndarray:
    """Times after the start of a step of length h of its first ``count``
    ``DENSE_POINTS``."""
    return h * np.array(DENSE_POINTS[:count])


# Rows of the record whose distance to the reference is formed at a time.
_DIST_BLOCK_ROWS = 4096


def default_substeps(sys: ControlSystem, scheme: BracketScheme) -> int:
    """Substeps per sampling interval when none are given, and the least
    a grid accepts: ``max(12, 4 * (f + 1) * coupled + 10 * (coupled - 1))``,
    f being ``scheme.max_frequency``.

    ``coupled`` counts the oscillating controls (those in a bracket pair
    or a nested triple) whose field depends on the state: each couples a
    fast oscillation to the state, while one on a constant field only
    adds a forcing term.  So 4 steps per harmonic up to the fastest, plus
    4, for each coupled control, 10 more for each coupled control past
    the first, and at least 12: 12 for the unicycle (harmonic 1, one
    coupled control), 16 for the car (harmonic 3, one) and 56 for the
    underwater vehicle (harmonic 2; surge, pitch and yaw).  The floors
    were measured per scenario; criterion 9 allows an endpoint shift of
    1e-6 when the substeps double, the tests hold the default grid to
    1e-7, and the tracking metrics to 3e-4 relative (steady amplitude)
    and 1e-3 s (entry time) against four times its substeps:

    - unicycle: doubling moves the endpoint by at most 3.9e-8 relative
      over 50 benchmark starts (gamma1, alpha=15, epsilon=0.1, H=10), by
      2.1e-7 from 11 substeps and by 1.1e-6 from 10.
    - car: doubling moves the endpoints of the benchmark's sweep cells
      (alpha 3 to 10, epsilon 0.1 and 0.05, H=6) by at most 3.9e-9, and
      by 4.3e-8 from 12 substeps, but at 12 and 14 the steady amplitude
      moves by 4.6e-4 and 3.3e-4 relative (2.1e-4 at 16).
    - underwater vehicle: from its default start the pitch comes within
      0.053 of pi/2 in the first interval, where the fields grow like
      1/cos(pitch).  There the nodes are 8.4e-5 off an adaptive solution
      at 56 substeps and the points inside the steps 6.6e-4, against
      2.9e-4 and 7.8e-3 at 48 and 1.1e-4 and 2.5e-3 at 52.

    The rule is fitted to these three systems, and no scenario measures
    a floor beyond harmonic 3 or three coupled controls.
    """
    if scheme.m != sys.m:
        raise UsageError(f"scheme is for m={scheme.m}, system has m={sys.m}")
    oscillating = {i for pair in scheme.s2 for i in pair}
    oscillating.update(i for term in scheme.degree2 for i in term.triple)
    coupled = sum(sys.fields[i - 1].value is None for i in oscillating)
    return max(12, 4 * (scheme.max_frequency + 1) * coupled + 10 * (coupled - 1))


@dataclass(frozen=True)
class SamplerGrid:
    """Sampling period, horizon, and integration resolution.

    ``epsilon`` and ``horizon`` must be finite and positive.
    ``substeps``, an integer, is the number of Runge-Kutta steps per
    sampling interval, at least ``default_substeps(sys, scheme)``; None
    picks that least count, at which doubling the substeps moves the
    endpoint of the built-in scenarios' runs by at most 3.9e-8 relative
    (criterion 9 allows 1e-6).
    """

    epsilon: float
    horizon: float
    substeps: int | None = None

    def __post_init__(self):
        in_range("epsilon", self.epsilon)
        in_range("horizon", self.horizon)
        if self.substeps is not None and not (
                isinstance(self.substeps, (int, np.integer)) and self.substeps >= 1):
            raise UsageError(f"substeps must be a positive integer, got {self.substeps}")

    def resolve(self, sys: ControlSystem, scheme: BracketScheme,
                params: ControllerParams) -> int:
        """Validate against the system, scheme and params, return the
        substep count."""
        if abs(self.epsilon - params.epsilon) > 1e-12 * max(1.0, params.epsilon):
            raise UsageError(
                f"grid epsilon {self.epsilon} does not match controller epsilon "
                f"{params.epsilon}")
        needed = default_substeps(sys, scheme)
        substeps = needed if self.substeps is None else self.substeps
        if substeps < needed:
            raise UsageError(
                f"{substeps} substeps cannot resolve oscillations up to harmonic "
                f"{scheme.max_frequency}; need at least {needed}")
        # Times j * epsilon + k * h (h = epsilon / substeps) stay below
        # horizon + epsilon and are rounded twice: rows a step apart are
        # distinct floats where h exceeds twice the float spacing there.
        end = self.horizon + self.epsilon
        if not math.isfinite(end):
            raise UsageError(
                f"horizon {self.horizon} plus epsilon {self.epsilon} overflows float64")
        if not self.epsilon / substeps > 2 * np.spacing(end):
            raise UsageError(
                f"epsilon {self.epsilon} is too fine for horizon {self.horizon}: at "
                f"{substeps} steps an interval, the step times are not distinct floats")
        return substeps

    @property
    def n_intervals(self) -> int:
        """Sampling intervals a run takes to reach the horizon."""
        return max(1, int(np.ceil(self.horizon / self.epsilon - 1e-9)))


@dataclass(frozen=True)
class Trajectory:
    """Recorded closed-loop run: one row per integration node.

    ``controls[i]`` holds the control in effect at ``times[i]``; at
    sampling instants that is the incoming interval's value (the record
    is right-continuous), except for the very last row, which keeps the
    final interval's control.  ``dist`` is the raw distance to the
    reference, row by row.  ``dense_dist[i, p]`` is that distance inside
    step i, at ``times[i] + dense_offsets()[p]``, read from the step's
    continuous extension; a run records it at all ``DENSE_POINTS``, and
    the tracking metrics read it with ``dist``.  In
    the partial trace of a failed run the last row holds the state
    reached and NaN for any control never computed.

    A run of one start has ``states`` (rows, n), ``controls`` (rows, m),
    ``dist`` (rows,) and ``dense_dist`` (rows - 1, points).  A batch of B
    starts adds the batch axis after the row axis: ``states[:, b]`` is
    the run of start b.  A member that stopped early keeps NaN in every
    row and step it did not reach, and ``failures[b]`` holds the
    ``SimulationError`` it raises when run alone, partial trace included;
    the other members are unaffected.  ``coefficient_evals`` counts the
    solves of each member that reached the horizon.
    """

    times: np.ndarray
    states: np.ndarray
    reference: np.ndarray
    controls: np.ndarray
    dist: np.ndarray
    dense_dist: np.ndarray
    epsilon: float
    substeps: int
    n_intervals: int
    coefficient_evals: int
    semantics: str
    failures: dict[int, SimulationError] = field(default_factory=dict)

    def sample_indices(self) -> np.ndarray:
        """Row indices of the sampling instants present in the record."""
        return np.arange(0, self.times.size, self.substeps)

    def dense_offsets(self) -> np.ndarray:
        """Times after the start of a step of the columns of ``dense_dist``,
        which hold the first of ``DENSE_POINTS``, as many as there are
        columns; a record without columns has none."""
        return _point_offsets(self.epsilon / self.substeps, self.dense_dist.shape[-1])


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


def _stage_shares(h: float, ndim: int) -> list:
    """Per stage j, h times its weights in the sums from row j of ``_SUMS``
    on (the rows before it do not read it), with ndim unit axes appended."""
    return [h * _SUMS[j:, j][(...,) + (None,) * ndim] for j in range(_B.size)]


def _stage_views(acc: np.ndarray) -> list:
    """Per stage j, the views of ``acc`` it reads and writes: the sums from
    row j on, and row j, the state stage j + 1 starts from.  Made once per
    buffer, so that a step slices nothing."""
    return [(acc[j:], acc[j]) for j in range(_B.size)]


def _rk_step(rhs: Callable, x: np.ndarray, shares: list, views: list) -> np.ndarray:
    """One step of the tableau from x; returns the new state, a view of
    the step's sums.

    ``shares`` is ``_stage_shares(h, x.ndim)``, ``views`` is
    ``_stage_views(acc)``.  ``acc``, of shape (len(_SUMS),) + x.shape,
    receives the step's sums: row ``stages - 1`` the new state, the rows
    after it the states at ``DENSE_POINTS``.  ``rhs(node, state)`` is the
    right-hand side at one of the distinct nodes ``_NODES``.  Each stage's
    derivative is added to every sum as soon as it is known, element by
    element and in stage order, so no stage derivative is kept and a
    member of a batch gets the bits of its run alone (a BLAS product
    would not).
    """
    views[0][0][...] = x
    state = x
    for (sums_from, row), share, node in zip(views, shares, _STAGE_NODE):
        sums_from += share * rhs(node, state)
        state = row
    return state


def _integrate(sys: ControlSystem, scheme: BracketScheme, params: ControllerParams,
               curve: ReferenceCurve, x0: np.ndarray, grid: SamplerGrid,
               freeze: bool) -> Trajectory:
    substeps = grid.resolve(sys, scheme, params)
    if curve.dim != sys.n:
        raise DimensionMismatchError(
            f"curve has dim {curve.dim}, system has n={sys.n}")
    x0 = np.asarray(x0, dtype=float)
    if x0.ndim not in (1, 2) or x0.shape[-1] != sys.n or x0.size == 0:
        raise DimensionMismatchError(
            f"x0 must have shape ({sys.n},) or (B, {sys.n}) with B >= 1, got {x0.shape}")
    if x0.ndim == 2 and not freeze:
        raise UsageError("classic semantics takes a single start; "
                         f"x0 must have shape ({sys.n},)")
    if not np.isfinite(x0).all():
        raise UsageError("x0 must be finite")
    outside = np.logical_not(sys.in_domain(x0)) & np.ones(x0.shape[:-1], bool)
    if outside.any():
        first = x0.reshape(-1, sys.n)[np.argmax(outside)]
        raise DomainError(f"initial state {first} outside the system domain")

    eps = params.epsilon
    h = eps / substeps
    shares = _stage_shares(h, x0.ndim)
    offsets = _point_offsets(h)  # of the points inside a step
    n_int = grid.n_intervals
    rows = n_int * substeps + 1
    # Row j * substeps + k is at j * eps + k * h.
    times = (np.arange(n_int + 1)[:, None] * eps + np.arange(substeps) * h).ravel()[:rows]
    gamma_all = np.asarray(curve.eval(times), dtype=float)

    # Axis 1 is the member; a single start is member 0 (x keeps the start's shape).
    # NaN-filled, so a partial trace never shows a value that was not computed.
    states = np.full((rows, x0.size // sys.n, sys.n), np.nan)
    controls = np.full(states.shape[:2] + (scheme.m,), np.nan)
    dense = np.full((rows - 1, states.shape[1], len(DENSE_POINTS)), np.nan)
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
        dense[kept - 1:, running] = np.nan

    def go_on(keep):
        """Carry on with the live members marked in ``keep``, and their gains."""
        nonlocal x, live, table, made, sums, views, u_func, params
        if not np.any(keep):
            raise _Stopped
        if not np.all(keep):
            x, live = x[keep], members[live][keep]
            sums = np.empty(sums.shape[:2] + x.shape)  # its steps are formed
            views = [_stage_views(acc) for acc in sums]
            if np.ndim(params.alpha):
                params = replace(params, alpha=np.asarray(params.alpha)[keep])
            if table is not None:
                table, made = table[:, :, :, keep], made[:, :, :, keep]
                u_func = lambda t, f=u_func: f(t)[..., keep, :]

    def form_dense(upto: int):
        """The distances inside the steps from ``formed`` up to step ``upto``."""
        nonlocal formed
        if upto > formed:
            steps = slice(formed - base, upto - base)
            points = sums[steps, _B.size:].reshape(upto - formed, offsets.size, -1, sys.n)
            gap = points - gamma_dense[steps]
            dense[formed:upto, live] = vector_norms(gap).swapaxes(1, 2)
            formed = upto

    def solve(t, state):
        # Classic semantics: coefficients from the stage's own state and time.
        nonlocal eval_count
        c = coefficients(sys, scheme, params, state, curve.eval(t))
        eval_count += 1
        return make_control_function(scheme, params, c)(t)

    def sampled(s, state):
        # The controls and constant-field terms were tabulated for the interval.
        return _drift(terms, table[k][s], made[k, s], state)

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
    sums = np.empty((substeps, len(_SUMS)) + x.shape)  # one interval's step sums
    views = [_stage_views(acc) for acc in sums]
    i = formed = base = 0  # the row being computed, the steps formed
    try:
        for j in range(n_int):
            base = i = j * substeps
            left = times[base:base + substeps]
            # Row k: the distinct nodes of step k, and the reference inside it.
            nodes = left[:, None] + h * _NODES
            gamma_dense = np.asarray(curve.eval((left[:, None] + offsets).ravel()),
                                     dtype=float).reshape(substeps, offsets.size, 1, sys.n)
            if freeze:
                try:
                    coeffs = coefficients(sys, scheme, params, x, gamma_all[base])
                except RankConditionError as exc:  # the singular members stop here
                    stop(exc.singular, "rank-deficient", "gain matrix singular near",
                         base + 1, float(times[base]))
                    go_on(~exc.singular)
                    coeffs = coefficients(sys, scheme, params, x, gamma_all[base])
                eval_count += 1
                u_func = make_control_function(scheme, params, coeffs)
                nodes = u_func(nodes)  # (substeps, nodes) + batch axes + (m,)
                controls[base:base + substeps, live] = nodes[:, 0].reshape(
                    substeps, -1, scheme.m)
                made = np.moveaxis(nodes[..., const, None] * values, -2, 2)
                # Per field, a scalar control or a column (B, 1) of member values.
                nodes = np.moveaxis(nodes, -1, 2)[(...,) + (None,) * (x0.ndim - 1)]
                if x0.ndim == 1:  # floats, which a stage reads without indexing an array
                    nodes = nodes.tolist()
            table = nodes

            for k in range(substeps):
                i = base + k
                x_prev, x = x, _rk_step(rhs, x, shares, views[k])
                states[i + 1, live] = x
                # x . x is finite exactly when x is, unless it overflows;
                # then the members are checked one by one below.
                if not (math.isfinite(np.vdot(x, x)) and whole(sys.in_domain(x))):
                    t_next = float(times[i + 1])
                    finite = np.isfinite(x).all(-1)
                    inside = finite & np.asarray(
                        sys.in_domain(np.where(finite[..., None], x, x_prev)))
                    form_dense(i + 1)
                    stop(~finite, "non-finite-state", "state became non-finite by",
                         i + 1, t_next)
                    stop(finite & ~inside, "domain-exit", "state left the domain by",
                         i + 1, t_next)
                    go_on(inside)
            form_dense(base + substeps)
    except DomainError:
        form_dense(i)
        stop(True, "domain-exit", "state left the domain near", i + 1, float(times[i]))
    except RankConditionError:
        form_dense(i)
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
        dist[block] = vector_norms(states[block] - gamma_all[block, None])

    def record(member, kept: int, n_intervals: int, evals: int, failed: dict):
        return Trajectory(
            times=times[:kept], states=states[:kept, member], reference=gamma_all[:kept],
            controls=controls[:kept, member], dist=dist[:kept, member],
            dense_dist=dense[:kept - 1, member], epsilon=eps, substeps=substeps,
            n_intervals=n_intervals, coefficient_evals=evals, semantics=semantics,
            failures=failed)

    failures = {b: SimulationError(message, reason=reason, time=t_fail,
                                   partial=record(b, kept, (kept - 1) // substeps + 1,
                                                  evals, {}))
                for b, (message, reason, t_fail, kept, evals) in stopped.items()}
    if failures and x0.ndim == 1:  # a single start is member 0 and raises its failure
        raise failures[0]
    keep = int(np.searchsorted(times, grid.horizon + 1e-9, side="right"))
    return record(0 if x0.ndim == 1 else slice(None), keep, n_int, eval_count, failures)


def simulate(sys: ControlSystem, scheme: BracketScheme, params: ControllerParams,
             curve: ReferenceCurve, x0: np.ndarray, grid: SamplerGrid) -> Trajectory:
    """Closed-loop run under sampled semantics.

    Coefficients are solved exactly once per sampling interval, at its
    left endpoint, from the state and reference the record holds at that
    row.

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
    with a length other than B, is refused with ``UsageError``.
    """
    return _integrate(sys, scheme, params, curve, x0, grid, freeze=True)


def classic_solution_simulate(sys: ControlSystem, scheme: BracketScheme,
                              params: ControllerParams, curve: ReferenceCurve,
                              x0: np.ndarray, grid: SamplerGrid) -> Trajectory:
    """Closed-loop run where the coefficients track the state continuously.

    Every Runge-Kutta stage re-solves the coefficient system at the
    stage's own state and time, twelve solves a step, so the result
    converges to the classical solution of the instantaneous-feedback
    ODE as the grid is refined.  It takes a single start x0 (n,) and a
    single gain.

    The right-hand side is only as smooth as that solve, and out of the
    controller's regime the convergence is poor: on the car at alpha=5,
    epsilon=0.5 (horizon 3) a stage state leaves the steering chart at
    the default 16 substeps (t=0.19) and at 20; 24 substeps end 2.8e-2
    off a run at 384 (largest component), and the runs at 96, 192 and
    384 still differ by 4.2e-3 and 1.3e-3.  Sampled semantics shows no
    such effect.
    """
    return _integrate(sys, scheme, params, curve, x0, grid, freeze=False)
