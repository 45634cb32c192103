"""Sampled and classical closed-loop integration.

The independent oracles here: an adaptive scipy solver on the same
frozen-coefficient right-hand side, exact recursions for systems with
constant fields, and the averaged bracket displacement over one period.
"""

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from osctrack import (
    BracketScheme,
    ControllerParams,
    ControlSystem,
    DimensionMismatchError,
    DomainError,
    NestedBracketTerm,
    SamplerGrid,
    SimulationError,
    UsageError,
    VectorField,
    classic_solution_simulate,
    coefficients,
    default_substeps,
    get_curve,
    get_scenario,
    integrator,
    make_control_function,
    simulate,
)
from osctrack.curves import curve_gamma1, curve_gamma4_car

from conftest import fixed_target
from test_systems import (
    car_domain,
    car_fields,
    components,
    constant,
    unicycle_fields,
    zero_jacobian,
)


def make_unicycle():
    f1, f2 = unicycle_fields()
    sys = ControlSystem(3, 2, (f1, f2), name="unicycle")
    scheme = BracketScheme(m=2, s1=(1, 2), s2=((1, 2),), kappa=(1,))
    return sys, scheme


def make_translation():
    """Two decoupled integrators: constant fields, no brackets needed."""
    f1 = VectorField(2, constant(1.0, 0.0), jacobian=zero_jacobian)
    f2 = VectorField(2, constant(0.0, 1.0), jacobian=zero_jacobian)
    sys = ControlSystem(2, 2, (f1, f2), name="translation")
    scheme = BracketScheme(m=2, s1=(1, 2))
    return sys, scheme


def test_single_interval_against_adaptive_solver():
    """Frozen-coefficient dynamics integrated two independent ways: the
    states at every node and the distances inside every step, on the
    unicycle at 200 substeps and on each built-in scenario's default grid.

    From starts 0.1 off the defaults, the default grids' nodes are 1.7e-9
    (unicycle), 8.3e-8 (car) and 1.0e-8 (underwater) off the adaptive
    solution, the points inside the steps, of order 5, 3.5e-6, 8.9e-6
    and 5.3e-6.  The underwater vehicle's default start is its hard case:
    its pitch peaks 0.053 below pi/2 in the first interval, and the nodes
    are 8.4e-5 off (the classical fourth-order step at 120: 5.4e-4), the
    points inside 6.6e-4."""
    sys, scheme = make_unicycle()
    cases = [(sys, scheme, ControllerParams(alpha=15.0, epsilon=0.1), curve_gamma1(),
              np.array([0.0, 0.0, 1.0]), 200, 1e-8, 1e-8)]
    for name, offset, atol, atol_inside in (
            ("unicycle", 0.1, 1e-7, 1e-5), ("car", 0.1, 1e-7, 1e-5),
            ("underwater", 0.1, 1e-7, 1e-5), ("underwater", 0.0, 5e-4, 5e-3)):
        scenario = get_scenario(name)
        params = scenario.default_params
        cases.append((scenario.system, scenario.scheme, params,
                      get_curve(scenario.default_curve, horizon=params.epsilon),
                      scenario.default_x0 + offset, None, atol, atol_inside))
    for sys, scheme, params, curve, x0, substeps, atol, atol_inside in cases:
        eps = params.epsilon
        traj = simulate(sys, scheme, params, curve, x0,
                        SamplerGrid(eps, eps, substeps=substeps))

        coeffs = coefficients(sys, scheme, params, x0, curve(0.0))
        u = make_control_function(scheme, params, coeffs)

        def rhs(t, x):
            ut = u(t)
            return sum(ut[i] * f.eval(x) for i, f in enumerate(sys.fields))

        sol = solve_ivp(rhs, (0.0, eps), x0, rtol=1e-11, atol=1e-13,
                        dense_output=True)
        assert np.allclose(traj.states[-1], sol.y[:, -1], rtol=0, atol=atol)
        assert np.allclose(traj.states, sol.sol(traj.times).T, rtol=0, atol=atol)
        inside = (traj.times[:-1, None] + traj.dense_offsets()).ravel()
        want = np.linalg.norm(sol.sol(inside).T - curve.eval(inside), axis=-1)
        assert np.allclose(traj.dense_dist.ravel(), want, rtol=0, atol=atol_inside)


def test_tableau_rows_sum_to_the_nodes():
    """A 1 = c, A strictly lower triangular (explicit), b(1) = b, and the
    control is tabulated at the twelve distinct nodes."""
    A, c = integrator._A, integrator._C
    np.testing.assert_allclose(A.sum(axis=1), c, rtol=0, atol=1e-15)
    assert not np.triu(A).any()
    np.testing.assert_allclose(integrator._B_DENSE.sum(axis=1), integrator._B,
                               rtol=0, atol=1e-15)
    assert integrator._NODES.size == 12
    np.testing.assert_array_equal(integrator._NODES, np.sort(c))
    np.testing.assert_array_equal(integrator._NODES[list(integrator._STAGE_NODE)], c)


def test_tableau_is_that_of_dop853():
    """The literals are scipy's DOP853 coefficients, bit for bit: its first
    twelve stages, which propagate the solution."""
    from scipy.integrate._ivp import dop853_coefficients as dop853

    for ours, theirs in ((integrator._A, dop853.A[:12, :12]),
                         (integrator._B, dop853.B), (integrator._C, dop853.C[:12])):
        assert ours.shape == theirs.shape
        assert ours.tobytes() == theirs.tobytes()


def rooted_trees(order):
    """The rooted trees with ``order`` vertices, each the sorted tuple of
    the subtrees at its root."""
    if order == 1:
        return [()]

    def forests(size, largest):
        # Multisets of trees of ``size`` vertices in all, none above ``largest``.
        if size == 0:
            yield ()
            return
        for first in range(min(size, largest), 0, -1):
            for tree in rooted_trees(first):
                for rest in forests(size - first, first):
                    yield (tree,) + rest

    return sorted({tuple(sorted(forest)) for forest in forests(order - 1, order - 1)})


def tree_order(tree):
    return 1 + sum(map(tree_order, tree))


def tree_density(tree):
    """gamma(t): the order of t times the densities of its subtrees."""
    return tree_order(tree) * int(np.prod([tree_density(sub) for sub in tree]))


def elementary_weights(tree, A):
    """Phi_i(t) per stage i: the product over the root's subtrees s of
    sum_j a_ij Phi_j(s)."""
    out = np.ones(A.shape[0])
    for sub in tree:
        out = out * (A @ elementary_weights(sub, A))
    return out


def test_weights_meet_every_order_condition_up_to_8():
    """b . Phi(t) = 1 / gamma(t) for all 200 rooted trees of order 8 or
    less; the counts per order are those of OEIS A000081."""
    trees = [rooted_trees(order) for order in range(1, 9)]
    assert [len(level) for level in trees] == [1, 1, 2, 4, 9, 20, 48, 115]
    for level in trees:
        for tree in level:
            weight = integrator._B @ elementary_weights(tree, integrator._A)
            assert abs(weight - 1 / tree_density(tree)) < 1e-14, tree


def test_dense_weights_meet_every_order_5_condition_in_every_power():
    """b(theta) . Phi(t) = theta^|t| / gamma(t) for every theta, for the 17
    trees of order 5 or less: each power of theta on its own."""
    for order in range(1, 6):
        for tree in rooted_trees(order):
            per_power = integrator._B_DENSE.T @ elementary_weights(tree, integrator._A)
            want = np.zeros(5)
            want[order - 1] = 1 / tree_density(tree)
            np.testing.assert_allclose(per_power, want, rtol=0, atol=1e-12, err_msg=str(tree))


def fixed_step_errors(n_steps, semantics, horizon=1.0):
    """Errors of the integrator's step on y' = (y + 1) cos t, y(0) = 1, whose
    solution is 2 exp(sin t) - 1: at the end, and the largest at the points
    inside the steps.

    Sampled, the equation is the open-loop control cos t on the field y
    and on the constant field 1, whose term is formed before the step;
    classic, it is the feedback (y + 1) cos t on the constant field alone,
    formed at each stage from the stage's state."""
    h = horizon / n_steps
    shares = integrator._stage_shares(h, 1)
    acc = np.empty((len(integrator._SUMS), 1))
    views = integrator._stage_views(acc)
    one = np.ones(1)
    terms = ((lambda x: x, 0), (None, 0))  # the field y, the constant field 1
    y, worst_inside = np.ones(1), 0.0
    for i in range(n_steps):
        t = i * h
        u = np.cos(t + h * integrator._NODES)
        if semantics == "sampled":
            rhs = lambda node, state: integrator._drift(terms, (u[node],),
                                                        (u[node] * one,), state)
        else:
            rhs = lambda node, state: integrator._drift(
                terms[1:], (), ((state[0] + 1) * u[node] * one,), state)
        y = integrator._rk_step(rhs, y, shares, views).copy()
        inside = t + integrator._point_offsets(h)
        worst_inside = max(worst_inside, float(np.max(np.abs(
            acc[integrator._B.size:, 0] - (2 * np.exp(np.sin(inside)) - 1)))))
    return abs(float(y[0]) - (2 * np.exp(np.sin(horizon)) - 1)), worst_inside


def test_step_has_order_8_and_its_dense_points_order_5():
    """Under both semantics, halving the step divides the end error by
    about 2^8; the error at the points inside the steps by at least 2^5."""
    for semantics in ("sampled", "classic"):
        errors = [fixed_step_errors(n, semantics, horizon=2.0) for n in (4, 8, 16)]
        for (end, inside), (end_half, inside_half) in zip(errors, errors[1:]):
            assert 7.5 < np.log2(end / end_half) < 8.5, semantics
            assert np.log2(inside / inside_half) >= 5.0, semantics
        assert errors[-1][0] < 1e-11, semantics


def test_bracket_direction_displacement():
    """One period moves the state by epsilon * a * [f1, f2] to leading order."""
    sys, scheme = make_unicycle()
    alpha, delta = 2.0, 0.5
    curve = fixed_target(np.array([0.0, delta, 0.0]))
    x0 = np.zeros(3)
    # Error is purely along the bracket direction: a = (0, 0, -alpha*delta).
    eps = 1e-3
    params = ControllerParams(alpha=alpha, epsilon=eps)
    traj = simulate(sys, scheme, params, curve, x0, SamplerGrid(eps, eps))
    disp = traj.states[-1] - x0
    expected = eps * (-alpha * delta) * np.array([0.0, -1.0, 0.0])
    assert np.isclose(disp[1], expected[1], rtol=2e-2)
    assert abs(disp[0]) < 0.1 * abs(disp[1])
    assert abs(disp[2]) < 1e-12  # heading returns to zero after a full period

    # The displacement scales linearly in epsilon as epsilon -> 0.
    eps2 = eps / 4
    params2 = ControllerParams(alpha=alpha, epsilon=eps2)
    traj2 = simulate(sys, scheme, params2, curve, x0, SamplerGrid(eps2, eps2))
    disp2 = traj2.states[-1] - x0
    assert np.isclose(disp2[1] / disp[1], 0.25, rtol=2e-2)


@pytest.mark.parametrize("coeff", [0.8, -0.8])
def test_nested_bracket_displacement(coeff):
    """A pure nested coefficient moves the state by epsilon * c * [[f1,f2],f1].

    Oracle: an adaptive solver driven by the oscillatory control for a
    single period, started where the nested bracket of the car fields is
    (0, -1, 0, 0).  The two-frequency amplitude makes this the only
    surviving first-order term.
    """
    f1, f2 = car_fields()
    sys = ControlSystem(4, 2, (f1, f2), name="car")
    scheme = BracketScheme(m=2, s1=(1, 2), s2=((1, 2),), kappa=(3,),
                           degree2=(NestedBracketTerm((1, 2, 1), k1=1, k2=2),))
    eps = 0.005
    params = ControllerParams(alpha=1.0, epsilon=eps)
    coeffs = np.array([0.0, 0.0, 0.0, coeff])
    control_fn = make_control_function(scheme, params, coeffs)

    def rhs(t, x):
        u = control_fn(t)
        return u[0] * f1.eval(x) + u[1] * f2.eval(x)

    sol = solve_ivp(rhs, (0.0, eps), np.zeros(4), rtol=1e-10, atol=1e-12,
                    max_step=eps / 400)
    disp = sol.y[:, -1]
    expected = eps * coeff * np.array([0.0, -1.0, 0.0, 0.0])
    assert np.isclose(disp[1], expected[1], rtol=2.5e-2)
    # Transverse components stay an order below the bracket displacement.
    assert abs(disp[0]) < 0.1 * abs(disp[1])
    assert abs(disp[2]) < 0.1 * abs(disp[1])
    assert abs(disp[3]) < 0.1 * abs(disp[1])


def test_constant_field_recursion_exact():
    """With constant fields each interval is linear, so the sampled loop
    reduces to x_{j+1} = (1 - eps*alpha) x_j, which the Runge-Kutta step
    reproduces exactly."""
    sys, scheme = make_translation()
    alpha, eps = 1.0, 0.1
    params = ControllerParams(alpha=alpha, epsilon=eps)
    curve = fixed_target(np.zeros(2))
    x0 = np.array([1.0, -2.0])
    traj = simulate(sys, scheme, params, curve, x0, SamplerGrid(eps, 1.0))

    samples = traj.states[traj.sample_indices()]
    factors = (1 - eps * alpha) ** np.arange(11)
    assert np.allclose(samples, x0 * factors[:, None], atol=1e-12)

    # Controls are recorded right-open: the boundary row already belongs
    # to the incoming interval.
    assert np.allclose(traj.controls[0], -alpha * x0, atol=1e-14)
    assert np.allclose(traj.controls[traj.substeps],
                       -alpha * x0 * (1 - eps * alpha), atol=1e-13)
    assert np.allclose(traj.controls[-1],
                       -alpha * x0 * (1 - eps * alpha) ** 9, atol=1e-12)


def test_classic_semantics_matches_exponential():
    """Instantaneous feedback on constant fields is a pure exponential."""
    sys, scheme = make_translation()
    alpha = 1.5
    params = ControllerParams(alpha=alpha, epsilon=0.1)
    target = np.array([0.3, -0.7])
    curve = fixed_target(target)
    x0 = np.array([2.0, 1.0])
    traj = classic_solution_simulate(sys, scheme, params, curve, x0,
                                     SamplerGrid(0.1, 1.0))
    expected = target + np.exp(-alpha * traj.times)[:, None] * (x0 - target)
    assert np.allclose(traj.states, expected, atol=1e-9)
    assert traj.semantics == "classic"
    stages = integrator._B.size
    assert traj.coefficient_evals == stages * traj.n_intervals * traj.substeps + 1


def test_equilibrium_hold():
    sys, scheme = make_unicycle()
    params = ControllerParams(alpha=15.0, epsilon=0.1)
    point = np.array([0.4, -0.1, 0.8])
    traj = simulate(sys, scheme, params, fixed_target(point), point,
                    SamplerGrid(0.1, 2.0))
    assert np.max(traj.dist) < 1e-9


def test_coefficients_frozen_once_per_interval(monkeypatch):
    """One solve per sampling interval, from the state and reference the
    record holds at the interval's left endpoint."""
    sys, scheme = make_unicycle()
    params = ControllerParams(alpha=15.0, epsilon=0.1)
    solved = []

    def counted(sys, scheme, params, x, gamma):
        solved.append((np.copy(x), np.copy(gamma)))
        return coefficients(sys, scheme, params, x, gamma)

    monkeypatch.setattr(integrator, "coefficients", counted)
    traj = simulate(sys, scheme, params, curve_gamma1(), np.array([0.0, 0.0, 1.0]),
                    SamplerGrid(0.1, 1.0))
    assert traj.coefficient_evals == traj.n_intervals == len(solved) == 10
    left = traj.sample_indices()[:-1]
    assert np.array_equal(traj.times[left], 0.1 * np.arange(10))
    for row, (x, gamma) in zip(left, solved):
        assert np.array_equal(x, traj.states[row])
        assert np.array_equal(gamma, traj.reference[row])
    assert traj.semantics == "sampled"


def make_car():
    f1, f2 = car_fields()
    sys = ControlSystem(4, 2, (f1, f2), domain=car_domain)
    scheme = BracketScheme(m=2, s1=(1, 2), s2=((1, 2),), kappa=(3,),
                           degree2=(NestedBracketTerm((1, 2, 1), 1, 2),))
    return sys, scheme


@pytest.mark.parametrize("system, curve, x0, params, substeps", [
    (make_unicycle(), curve_gamma1(), np.array([0.5, 1.2, 0.3]),
     ControllerParams(alpha=15.0, epsilon=0.1), 40),
    (make_car(), curve_gamma4_car(), np.array([0.5, 0.0, 0.0, 0.0]),
     ControllerParams(alpha=10.0, epsilon=0.05), 120),
], ids=["unicycle", "car"])
def test_recorded_controls_are_the_interval_synthesis(system, curve, x0, params,
                                                      substeps):
    """Each interval's recorded control rows are exactly its own synthesis
    evaluated at the interval's grid times, the last row included.  The
    coefficients are solved again from the record: its state and reference
    at the interval's sampling row."""
    sys, scheme = system
    traj = simulate(sys, scheme, params, curve, x0,
                    SamplerGrid(params.epsilon, 0.5, substeps=substeps))
    left = traj.sample_indices()[:-1]
    assert left.size == traj.n_intervals
    for row in left:
        coeffs = coefficients(sys, scheme, params, traj.states[row], traj.reference[row])
        rows = slice(row, row + substeps)
        u = make_control_function(scheme, params, coeffs)
        assert np.array_equal(traj.controls[rows], u(traj.times[rows]))
    assert np.array_equal(traj.controls[-1], u(traj.times[-1]))


def test_sample_grid_times_are_exact():
    sys, scheme = make_unicycle()
    params = ControllerParams(alpha=15.0, epsilon=0.1)
    traj = simulate(sys, scheme, params, curve_gamma1(), np.array([0.0, 0.0, 1.0]),
                    SamplerGrid(0.1, 1.0))
    idx = traj.sample_indices()
    assert np.array_equal(traj.times[idx], 0.1 * np.arange(11))
    assert traj.times.size == traj.n_intervals * traj.substeps + 1
    assert np.allclose(traj.dist,
                       np.linalg.norm(traj.states - traj.reference, axis=1))


def record_formulas(traj):
    """``times`` and ``dist`` as once formed over the whole record: the times
    from integer row indices, the distance from the whole difference array."""
    idx = np.arange(traj.n_intervals * traj.substeps + 1)
    times = (idx // traj.substeps) * traj.epsilon + (idx % traj.substeps) * (
        traj.epsilon / traj.substeps)
    states = traj.states if traj.states.ndim == 3 else traj.states[:, None]
    dist = np.linalg.norm(states - traj.reference[:, None], axis=-1)
    return times[:traj.times.size], dist.reshape(traj.dist.shape)


@pytest.mark.parametrize("block", [None, 7], ids=["default-blocks", "7-row-blocks"])
@pytest.mark.parametrize("case", ["single", "batch-with-stops", "horizon-off-grid"])
def test_times_and_dist_equal_whole_record_formulas(monkeypatch, case, block):
    """Bit for bit, NaN rows of stopped members included, over records that
    span several blocks of the distance computation."""
    if block is not None:
        monkeypatch.setattr(integrator, "_DIST_BLOCK_ROWS", block)
    if case == "batch-with-stops":
        # Starts 0 and 2 leave the car's steering chart before t = 1.
        scenario = get_scenario("car")
        params, horizon = ControllerParams(alpha=5.0, epsilon=0.5), 1.0
        x0 = np.array([[1.0, 1.0, 0.0, 0.0], [8.0, 0.0, 0.0, 0.0], [0.0, 0.5, 0.0, 0.0]])
        grid = SamplerGrid(0.5, horizon, substeps=2100)
    else:
        scenario = get_scenario("unicycle")
        params = scenario.default_params
        horizon = 36.0 if case == "single" else 36.37
        x0, grid = scenario.default_x0, SamplerGrid(params.epsilon, horizon)
    traj = simulate(scenario.system, scenario.scheme, params,
                    get_curve(scenario.default_curve, horizon=horizon), x0, grid)
    assert traj.times.size > integrator._DIST_BLOCK_ROWS
    if case == "batch-with-stops":
        assert sorted(traj.failures) == [0, 2] and np.isnan(traj.dist[:, 0]).any()
    if case == "horizon-off-grid":
        assert traj.times.size < traj.n_intervals * traj.substeps + 1
    times, dist = record_formulas(traj)
    assert traj.times.tobytes() == times.tobytes()
    assert traj.dist.tobytes() == dist.tobytes()
    for b, error in traj.failures.items():
        times, dist = record_formulas(error.partial)
        assert error.partial.times.tobytes() == times.tobytes()
        assert error.partial.dist.tobytes() == dist.tobytes()
        # Inside the steps too, the member has values up to its last row only.
        steps = error.partial.times.size - 1
        assert error.partial.dense_dist.tobytes() == traj.dense_dist[:steps, b].tobytes()
        assert np.isfinite(traj.dense_dist[:steps, b]).all()
        assert np.isnan(traj.dense_dist[steps:, b]).all()


def test_horizon_truncation_mid_interval():
    sys, scheme = make_translation()
    params = ControllerParams(alpha=1.0, epsilon=0.1)
    traj = simulate(sys, scheme, params, fixed_target(np.zeros(2)),
                    np.ones(2), SamplerGrid(0.1, 0.95))
    assert traj.n_intervals == 10
    assert np.isclose(traj.times[-1], 0.95, atol=1e-12)
    assert traj.states.shape[0] == traj.times.size


def test_horizon_below_grid_tolerance_keeps_initial_row():
    """A horizon that rounds to zero intervals still runs one and records t = 0."""
    sys, scheme = make_unicycle()
    traj = simulate(sys, scheme, ControllerParams(alpha=15.0, epsilon=0.1),
                    curve_gamma1(), np.zeros(3), SamplerGrid(0.1, 1e-12))
    assert traj.times.tolist() == [0.0]
    assert traj.n_intervals == 1
    assert np.all(np.isfinite(traj.controls))


def test_substep_refinement_converges():
    sys, scheme = make_unicycle()
    params = ControllerParams(alpha=15.0, epsilon=0.1)
    x0 = np.array([0.0, 0.0, 1.0])
    curve = curve_gamma1()
    end_a = simulate(sys, scheme, params, curve, x0,
                     SamplerGrid(0.1, 2.0, substeps=200)).states[-1]
    end_b = simulate(sys, scheme, params, curve, x0,
                     SamplerGrid(0.1, 2.0, substeps=400)).states[-1]
    rel = np.linalg.norm(end_a - end_b) / max(1.0, np.linalg.norm(end_b))
    assert rel < 1e-6


def test_grid_validation():
    sys, scheme = make_unicycle()
    params = ControllerParams(alpha=15.0, epsilon=0.1)
    with pytest.raises(UsageError):
        SamplerGrid(0.0, 1.0)
    with pytest.raises(UsageError):
        SamplerGrid(0.1, -1.0)
    for bad in (np.inf, np.nan):
        with pytest.raises(UsageError):
            SamplerGrid(bad, 1.0)
        with pytest.raises(UsageError):
            SamplerGrid(0.1, bad)
    for bad in (120.5, 120.0, np.nan, np.inf, "120", 0, -1, np.int64(0)):
        with pytest.raises(UsageError, match="substeps must be a positive integer"):
            SamplerGrid(0.1, 1.0, substeps=bad)
    assert SamplerGrid(0.1, 1.0, substeps=np.int64(120)).resolve(sys, scheme,
                                                                 params) == 120
    with pytest.raises(UsageError):
        simulate(sys, scheme, params, curve_gamma1(), np.zeros(3),
                 SamplerGrid(0.2, 1.0))  # epsilon mismatch
    with pytest.raises(UsageError):
        simulate(sys, scheme, params, curve_gamma1(), np.zeros(3),
                 SamplerGrid(0.1, 1.0, substeps=10))  # cannot resolve oscillation
    with pytest.raises(UsageError):
        simulate(sys, scheme, params, curve_gamma1(), np.array([np.inf, 0, 0]),
                 SamplerGrid(0.1, 1.0))
    for eps, horizon in ((1e-300, 1.0), (1e-300, 1e10), (1e-13, 1e4)):
        with pytest.raises(UsageError, match="not distinct floats"):
            SamplerGrid(eps, horizon).resolve(sys, scheme, ControllerParams(15.0, eps))
    # Where horizon + epsilon overflows, that is the reason given.
    with pytest.raises(UsageError, match="plus epsilon 1e[+]308 overflows float64"):
        SamplerGrid(1e308, 1e308).resolve(sys, scheme, ControllerParams(15.0, 1e308))


def test_default_substeps_scale_with_frequency():
    """4 steps per harmonic up to the fastest, plus 4, per oscillating
    control on a field that may depend on the state (one not given by its
    value), 10 more per such control past the first, and at least 12."""
    sys = get_scenario("unicycle").system
    assert default_substeps(sys, BracketScheme(m=2, s1=(1, 2))) == 12
    fast = BracketScheme(m=2, s1=(1, 2), s2=((1, 2),), kappa=(7,))
    assert default_substeps(sys, fast) == 32
    constant = ControlSystem(3, 2, tuple(VectorField(dim=3, value=v)
                                         for v in np.eye(3)[:2]))
    assert default_substeps(constant, fast) == 12
    assert default_substeps(make_unicycle()[0], fast) == 74  # turn given by eval
    assert [default_substeps(get_scenario(name).system, get_scenario(name).scheme)
            for name in ("unicycle", "underwater", "car")] == [12, 56, 16]
    with pytest.raises(UsageError, match="scheme is for m=4"):
        default_substeps(sys, get_scenario("underwater").scheme)


def _unicycle_seed_1009_start():
    """The benchmark's unicycle start for seed 1009: gamma1(0) plus an
    error of radius 2 in a normal direction.  On this start doubling the
    substeps moves the endpoint 25 times as far as on a typical one."""
    direction = np.random.default_rng(1009).normal(size=3)
    gamma0 = get_curve("gamma1", horizon=10.0).eval(0.0)
    return gamma0 + 2.0 * direction / np.linalg.norm(direction)


@pytest.mark.parametrize("name, curve, alpha, epsilon, horizon, x0", [
    ("unicycle", "gamma1", 15.0, 0.1, 10.0, _unicycle_seed_1009_start()),
    ("car", "5*sin(t/4), 5*sin(t/4)*cos(t/4), 0, 0", 7.3, 0.05, 6.0, None),
    ("underwater", "gamma4_underwater", 15.0, 0.1, 5.0, None),
])
def test_default_grid_meets_the_doubled_substep_tolerance(name, curve, alpha, epsilon,
                                                           horizon, x0):
    """Criterion 9's oracle at the default grid, with margin: doubling the
    substeps moves the endpoint by less than 1e-7 relative (criterion 9
    allows 1e-6).  From 16 substeps the unicycle case moves 9.2e-8."""
    scenario = get_scenario(name)
    params = ControllerParams(alpha=alpha, epsilon=epsilon)
    ref = get_curve(curve, horizon=horizon)
    x0 = scenario.default_x0 if x0 is None else x0
    default = SamplerGrid(params.epsilon, horizon)
    doubled = SamplerGrid(params.epsilon, horizon,
                          substeps=2 * default_substeps(scenario.system, scenario.scheme))
    end = simulate(scenario.system, scenario.scheme, params, ref, x0,
                   default).states[-1]
    end_fine = simulate(scenario.system, scenario.scheme, params, ref, x0,
                        doubled).states[-1]
    shift = np.linalg.norm(end - end_fine) / max(1.0, np.linalg.norm(end_fine))
    assert shift < 1e-7


def test_initial_state_outside_domain():
    f1, f2 = car_fields()
    sys = ControlSystem(4, 2, (f1, f2), domain=car_domain)
    scheme = BracketScheme(m=2, s1=(1, 2), s2=((1, 2),), kappa=(3,),
                           degree2=(NestedBracketTerm((1, 2, 1), 1, 2),))
    params = ControllerParams(alpha=1.0, epsilon=0.1)
    with pytest.raises(DomainError):
        simulate(sys, scheme, params, fixed_target(np.zeros(4)),
                 np.array([0.0, 0.0, 2.0, 0.0]), SamplerGrid(0.1, 1.0))


@pytest.mark.parametrize("integrate", [simulate, classic_solution_simulate])
def test_wrong_dimension_inputs_rejected(integrate):
    sys, scheme = make_unicycle()
    params = ControllerParams(alpha=1.0, epsilon=0.1)
    grid = SamplerGrid(0.1, 1.0)
    with pytest.raises(DimensionMismatchError, match="x0 must have shape"):
        integrate(sys, scheme, params, curve_gamma1(), np.zeros(4), grid)
    with pytest.raises(DimensionMismatchError, match="curve has dim 4"):
        integrate(sys, scheme, params, curve_gamma4_car(), np.zeros(3), grid)


def test_blow_up_aborts_with_partial_trajectory():
    """An absurd gain overflows within a couple of intervals."""
    sys, scheme = make_unicycle()
    params = ControllerParams(alpha=1e160, epsilon=0.1)
    with np.errstate(all="ignore"), pytest.raises(SimulationError) as exc:
        simulate(sys, scheme, params, curve_gamma1(), np.array([0.0, 0.0, 1.0]),
                 SamplerGrid(0.1, 4.0))
    err = exc.value
    assert err.reason == "non-finite-state"
    assert err.partial is not None
    assert err.partial.times.size >= 1
    assert np.all(np.isfinite(err.partial.states))
    assert err.time <= 4.0


def test_domain_exit_aborts_with_partial_trajectory():
    """Driving the car's steering column toward its joint limit."""
    sys, scheme = make_car()
    params = ControllerParams(alpha=2.0, epsilon=0.1)
    target = fixed_target(np.array([0.0, 0.0, 2.0, 0.0]))
    with pytest.raises(SimulationError) as exc:
        simulate(sys, scheme, params, target, np.zeros(4),
                 SamplerGrid(0.1, 20.0))
    err = exc.value
    assert err.reason == "domain-exit"
    assert err.partial is not None
    assert abs(err.partial.states[-1][2]) < np.pi / 2
    assert err.time <= 20.0


def test_classic_stage_outside_the_domain_stops_the_run():
    """Under classic semantics a stage state outside the domain fails the
    stage's own solve: the run stops at the step's left node, whose finite
    control the one-row trace keeps.  Sampled semantics stops a row later,
    at the step's check."""
    fields = (VectorField(dim=2, value=(1.0, 0.0)), VectorField(dim=2, value=(0.0, 1.0)))
    sys = ControlSystem(2, 2, fields, domain=lambda x: x[..., 0] < 1)
    scheme = BracketScheme(m=2, s1=(1, 2))
    params = ControllerParams(alpha=20.0, epsilon=0.1)
    run = (sys, scheme, params, get_curve("2; 0", horizon=1.0), np.array([0.996, 0.0]),
           SamplerGrid(0.1, 1.0))
    with pytest.raises(SimulationError, match="left the domain near t=0$") as exc:
        classic_solution_simulate(*run)
    err = exc.value
    assert err.reason == "domain-exit"
    assert err.partial.times.size == 1
    np.testing.assert_array_equal(err.partial.controls, [[20.08, -0.0]])
    assert err.partial.coefficient_evals == 1
    with pytest.raises(SimulationError, match="left the domain by t=0.00833333$"):
        simulate(*run)


def make_vanishing_bracket():
    """[f1, f2] = (0, 0, 2 x1) spans the third direction except on x1 = 0."""
    def f2_jac(x):
        jac = np.zeros(x.shape + (3,))
        jac[..., 2, 0] = 2.0 * x[..., 0]
        return jac

    f1 = VectorField(3, constant(1.0, 0.0, 0.0), jacobian=zero_jacobian)
    f2 = VectorField(3, lambda x: components(0.0, 1.0, x[..., 0] ** 2),
                     jacobian=f2_jac)
    sys = ControlSystem(3, 2, (f1, f2), name="vanishing-bracket")
    scheme = BracketScheme(m=2, s1=(1, 2), s2=((1, 2),), kappa=(1,))
    return sys, scheme


def _assert_rows_before_failure_complete(partial):
    assert np.all(np.isfinite(partial.states[:-1]))
    assert np.all(np.isfinite(partial.controls[:-1]))


@pytest.mark.parametrize("integrate", [simulate, classic_solution_simulate])
def test_rank_failure_at_start_keeps_initial_state(integrate):
    """A singular gain matrix at x0 leaves a one-row trace holding x0 itself."""
    sys, scheme = make_vanishing_bracket()
    params = ControllerParams(alpha=1.0, epsilon=0.1)
    x0 = np.zeros(3)
    with pytest.raises(SimulationError) as exc:
        integrate(sys, scheme, params, fixed_target(np.zeros(3)), x0,
                  SamplerGrid(0.1, 1.0))
    err = exc.value
    assert err.reason == "rank-deficient"
    assert err.time == 0.0
    assert err.partial.times.size == 1
    np.testing.assert_array_equal(err.partial.states[0], x0)
    assert np.all(np.isnan(err.partial.controls[0]))


def test_rank_failure_at_sampling_instant_keeps_reached_state():
    """alpha * epsilon = 1 drives x1 to zero in one interval, where the
    bracket vanishes, while x2 and x3 already sit on the target; the
    failing row holds that reached state, not stale memory."""
    sys, scheme = make_vanishing_bracket()
    params = ControllerParams(alpha=10.0, epsilon=0.1)
    target = np.array([0.0, 0.5, 0.5])
    with pytest.raises(SimulationError) as exc:
        simulate(sys, scheme, params, fixed_target(target),
                 np.array([0.3, 0.5, 0.5]), SamplerGrid(0.1, 1.0))
    err = exc.value
    assert err.reason == "rank-deficient"
    assert err.time == pytest.approx(0.1)
    assert err.partial.times.size == default_substeps(sys, scheme) + 1
    np.testing.assert_allclose(err.partial.states[-1], target, rtol=0, atol=1e-12)
    _assert_rows_before_failure_complete(err.partial)
