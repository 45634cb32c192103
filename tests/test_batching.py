"""Fields, brackets, gain matrices and simulations on batches of states.

Every scenario's fields take states of shape (..., n).  Property tests
draw random batches and compare the batched calls with the stacked
single-state calls (exactly) and with a per-state central-difference
oracle that uses no library Jacobian.  A batched ``simulate`` is
compared with one run per start, to the last bit, including members
that stop early and members that each carry their own gain.
"""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from osctrack import (
    SCENARIO_REGISTRY,
    BracketScheme,
    CertificateInputs,
    ControllerParams,
    ControlSystem,
    DimensionMismatchError,
    DomainError,
    SamplerGrid,
    SimulationError,
    UsageError,
    VectorField,
    bound_constants,
    bracket_field,
    build_gain_matrix,
    classic_solution_simulate,
    coefficients,
    contraction_check,
    default_substeps,
    finite_difference_jacobian,
    get_curve,
    get_scenario,
    lie_bracket,
    simulate,
)
from osctrack.curves import curve_gamma1
from osctrack.systems import gain_matrices
from conftest import fixed_target
from tests.test_systems import (
    components,
    constant,
    fd_bracket,
    fd_jacobian,
    unicycle_fields,
    zero_jacobian,
)

SCENARIO_NAMES = sorted(SCENARIO_REGISTRY)

# Per-coordinate scale applied to draws from [-3, 3]: keeps the car's
# steering angle and the vehicle's pitch inside |x| <= 1.2 < pi/2.
SCALES = {
    "unicycle": np.array([1.0, 1.0, 1.0]),
    "underwater": np.array([1.0, 1.0, 1.0, 1.0, 0.4, 1.0]),
    "car": np.array([3.0, 3.0, 0.4, 1.0]),
}

PROPERTY = settings(max_examples=40, deadline=None, database=None)


@st.composite
def batches(draw, name):
    """A (B, n) batch of in-domain states, 1 <= B <= 12."""
    n = SCALES[name].size
    size = draw(st.integers(1, 12))
    raw = draw(arrays(np.float64, (size, n),
                      elements=st.floats(-3.0, 3.0, allow_subnormal=False)))
    return raw * SCALES[name]


def stacked(func, xs):
    return np.stack([func(x) for x in xs])


@pytest.mark.parametrize("name", SCENARIO_NAMES)
@PROPERTY
@given(data=st.data())
def test_fields_on_a_batch_equal_single_state_calls(name, data):
    xs = data.draw(batches(name))
    system = get_scenario(name).system
    for f in system.fields:
        assert np.array_equal(f.eval(xs), stacked(f.eval, xs))
        assert np.array_equal(f.jacobian(xs), stacked(f.jacobian, xs))
        # More leading axes are more batch axes.
        assert np.array_equal(f.eval(xs[None]), f.eval(xs)[None])
        assert np.array_equal(f.jacobian(xs[None]), f.jacobian(xs)[None])
    inside = np.broadcast_to(system.in_domain(xs), xs.shape[:-1])
    assert np.array_equal(inside, stacked(system.in_domain, xs))


@pytest.mark.parametrize("name, index, angle", [
    ("car", 2, 0.2943), ("car", 2, -0.5944),
    ("underwater", 4, 0.155), ("underwater", 4, -0.891)])
def test_secant_squared_equal_alone_and_in_a_batch(name, index, angle):
    """Angles at which a numpy scalar's ``** 2`` (pow) and an array's
    square differ in the last bit; the Jacobians must not."""
    system = get_scenario(name).system
    x = np.zeros(system.n)
    x[index] = angle
    for f in system.fields:
        assert np.array_equal(f.jacobian(x[None])[0], f.jacobian(x))


@pytest.mark.parametrize("name", SCENARIO_NAMES)
@PROPERTY
@given(data=st.data())
def test_batched_brackets_and_gains_equal_single_state_builds(name, data):
    xs = data.draw(batches(name))
    scenario = get_scenario(name)
    fields = scenario.system.fields
    for i, j in scenario.scheme.s2:
        f, g = fields[i - 1], fields[j - 1]
        assert np.array_equal(lie_bracket(f, g, xs),
                              stacked(lambda x: lie_bracket(f, g, x), xs))

    gains = gain_matrices(scenario.system, scenario.scheme, xs)
    single = stacked(
        lambda x: build_gain_matrix(scenario.system, scenario.scheme, x), xs)
    assert np.array_equal(gains.matrices, single)
    assert np.array_equal(gains.singular_values,
                          stacked(lambda a: np.linalg.svd(a, compute_uv=False), single))
    assert not gains.singular.any()


@pytest.mark.parametrize("name", SCENARIO_NAMES)
@PROPERTY
@given(data=st.data())
def test_batched_jacobians_match_central_differences(name, data):
    xs = data.draw(batches(name))
    scenario = get_scenario(name)
    fields = scenario.system.fields
    for f in fields:
        want = stacked(lambda x: fd_jacobian(f.eval, x), xs)
        np.testing.assert_allclose(f.jacobian(xs), want, rtol=1e-5, atol=1e-6)
        np.testing.assert_allclose(finite_difference_jacobian(f.eval, xs), want,
                                   rtol=1e-5, atol=1e-6)
    for i, j in scenario.scheme.s2:
        f, g = fields[i - 1], fields[j - 1]
        want = stacked(lambda x: fd_bracket(f.eval, g.eval, x), xs)
        np.testing.assert_allclose(lie_bracket(f, g, xs), want, rtol=1e-6, atol=1e-6)


def test_gain_matrices_name_the_first_state_outside_the_domain():
    scenario = get_scenario("car")
    xs = np.zeros((5, 4))
    xs[2] = [1.0, 0.0, 1.6, 0.0]
    xs[4] = [2.0, 0.0, -1.7, 0.0]
    with pytest.raises(DomainError, match="outside the system domain") as exc:
        gain_matrices(scenario.system, scenario.scheme, xs)
    assert str(xs[2]) in str(exc.value)
    assert str(xs[4]) not in str(exc.value)


def test_non_finite_state_is_outside_the_domain():
    """The unicycle's domain is all of R^3, so only the finiteness test
    stands between a non-finite state and the SVD."""
    scenario = get_scenario("unicycle")
    state = np.array([0.0, 0.0, np.inf])
    with pytest.raises(DomainError, match="outside the system domain") as exc:
        build_gain_matrix(scenario.system, scenario.scheme, state)
    assert str(state) in str(exc.value)

    samples = np.zeros((4, 3))
    samples[1, 2] = np.nan
    samples[3, 0] = -np.inf
    with pytest.raises(DomainError, match="outside the system domain") as exc:
        gain_matrices(scenario.system, scenario.scheme, samples)
    assert str(samples[1]) in str(exc.value)
    assert str(samples[3]) not in str(exc.value)


# ---------------------------------------------------------------------------
# simulate on a batch of starts.

# Horizons of a few sampling intervals at each scenario's default period.
BATCH_HORIZONS = {"unicycle": 1.0, "underwater": 0.5, "car": 0.2}


def run_alone(sys, scheme, params, curve, x0, grid):
    """The single run of x0: its trajectory, or the SimulationError it raises."""
    try:
        return simulate(sys, scheme, params, curve, x0, grid)
    except SimulationError as exc:
        return exc


def assert_same_run(batch, b, alone):
    """Member b of a batch equals the run of its start alone, bit for bit."""
    assert np.array_equal(batch.states[:, b], alone.states)
    assert np.array_equal(batch.controls[:, b], alone.controls)
    assert np.array_equal(batch.dist[:, b], alone.dist)
    assert np.array_equal(batch.dense_dist[:, b], alone.dense_dist)
    assert np.array_equal(batch.times, alone.times)
    assert np.array_equal(batch.reference, alone.reference)
    assert batch.n_intervals == alone.n_intervals
    assert batch.coefficient_evals == alone.coefficient_evals


def assert_same_failure(got, want):
    """A stopped member's error equals the one its start raises alone."""
    assert (got.reason, got.time, str(got)) == (want.reason, want.time, str(want))
    a, b = got.partial, want.partial
    for name in ("times", "states", "reference", "controls", "dist", "dense_dist"):
        assert np.array_equal(getattr(a, name), getattr(b, name), equal_nan=True), name
    assert (a.n_intervals, a.coefficient_evals) == (b.n_intervals, b.coefficient_evals)


@pytest.mark.parametrize("name, size", [
    *(pytest.param(name, 4, id=name) for name in SCENARIO_NAMES),
    *(pytest.param(name, 1, id=f"{name}-batch-of-one") for name in SCENARIO_NAMES)])
def test_batch_members_equal_single_runs(name, size):
    scenario = get_scenario(name)
    horizon = BATCH_HORIZONS[name]
    params = scenario.default_params
    curve = get_curve(scenario.default_curve, horizon=horizon)
    grid = SamplerGrid(params.epsilon, horizon)
    rng = np.random.default_rng(7)
    x0 = scenario.default_x0 + 0.3 * rng.uniform(-1.0, 1.0, (4, scenario.system.n))
    x0 = x0[:size]
    args = (scenario.system, scenario.scheme, params, curve)
    batch = simulate(*args, x0, grid)
    assert batch.states.shape == (batch.times.size, size, scenario.system.n)
    assert batch.failures == {}
    for b in range(size):
        alone = run_alone(*args, x0[b], grid)
        assert not isinstance(alone, SimulationError)
        assert_same_run(batch, b, alone)


def test_batch_members_leaving_the_domain_stop_alone():
    """The car at alpha=5, eps=0.5 leaves its steering chart: from (1, 1, 0, 0)
    in the first interval, from (0, 0.5, 0, 0) in the second.  The default
    start (8, 0, 0, 0) exits only after t=1, so it reaches the horizon.  The
    first start alone in a batch of one stops the same way."""
    scenario = get_scenario("car")
    params = ControllerParams(alpha=5.0, epsilon=0.5)
    curve = get_curve(scenario.default_curve, horizon=1.0)
    grid = SamplerGrid(0.5, 1.0)
    x0 = np.array([[1.0, 1.0, 0.0, 0.0], [8.0, 0.0, 0.0, 0.0], [0.0, 0.5, 0.0, 0.0]])
    args = (scenario.system, scenario.scheme, params, curve)
    batch = simulate(*args, x0, grid)
    assert sorted(batch.failures) == [0, 2]
    assert_same_run(batch, 1, run_alone(*args, x0[1], grid))
    for b in (0, 2):
        alone = run_alone(*args, x0[b], grid)
        assert isinstance(alone, SimulationError) and alone.reason == "domain-exit"
        assert_same_failure(batch.failures[b], alone)
        kept = alone.partial.times.size
        assert np.isnan(batch.states[kept:, b]).all()
        assert np.isnan(batch.controls[kept:, b]).all()
    assert batch.failures[0].time < 0.5 < batch.failures[2].time
    one = simulate(*args, x0[[0]], grid)
    assert list(one.failures) == [0]
    alone = run_alone(*args, x0[0], grid)
    assert_same_failure(one.failures[0], alone)
    kept = alone.partial.times.size
    assert np.array_equal(one.states[:kept, 0], alone.partial.states)
    assert np.isnan(one.states[kept:]).all() and np.isnan(one.controls[kept:]).all()


def with_plain_fields(system):
    """The system with each constant field rebuilt as a plain eval, which the
    integrator evaluates in every Runge-Kutta stage."""
    fields = tuple(f if f.value is None else
                   VectorField(f.dim, constant(*f.value), jacobian=zero_jacobian,
                               name=f.name)
                   for f in system.fields)
    return replace(system, fields=fields)


def assert_same_trajectory(got, want):
    for name in ("states", "controls", "dist", "dense_dist"):
        assert np.array_equal(getattr(got, name), getattr(want, name),
                              equal_nan=True), name
    assert sorted(got.failures) == sorted(want.failures)
    for b, error in want.failures.items():
        assert_same_failure(got.failures[b], error)


@pytest.mark.parametrize("case", ["unicycle", "underwater", "car-batch", "classic"])
def test_constant_fields_formed_per_interval_equal_plain_evals(case):
    """Oracle for the constant-field path: the same system with its constant
    field written as a plain eval gives the same run, bit for bit.  The
    vehicle's constant field sits between fields that depend on the state,
    so its term must be added in field order."""
    scenario = get_scenario({"car-batch": "car", "classic": "unicycle"}.get(case, case))
    params, horizon, x0 = scenario.default_params, 1.0, scenario.default_x0
    if case == "car-batch":  # two members leave the chart, as in the test above
        params = ControllerParams(alpha=5.0, epsilon=0.5)
        x0 = np.array([[1.0, 1.0, 0.0, 0.0], [8.0, 0.0, 0.0, 0.0],
                       [0.0, 0.5, 0.0, 0.0]])
    elif case == "classic":
        horizon = 0.5
    system = scenario.system
    plain = with_plain_fields(system)
    assert sum(f.value is not None for f in system.fields) == 1
    assert all(f.value is None for f in plain.fields)
    curve = get_curve(scenario.default_curve, horizon=horizon)
    # Both on the plain system's default grid: it counts every field not
    # given by its value as depending on the state, so it is the finer one.
    grid = SamplerGrid(params.epsilon, horizon,
                       substeps=default_substeps(plain, scenario.scheme))
    integrate = classic_solution_simulate if case == "classic" else simulate
    got, want = (integrate(sys, scenario.scheme, params, curve, x0, grid)
                 for sys in (system, plain))
    assert_same_trajectory(got, want)
    if case == "car-batch":
        assert sorted(got.failures) == [0, 2]


def test_a_wrapped_constant_field_stays_constant():
    """dataclasses.replace with a new eval and jacobian, as a tracer wraps
    fields, keeps the value, so the run is unchanged and the field is
    evaluated only in the gain-matrix builds: as often at 400 substeps as
    at 200."""
    scenario = get_scenario("unicycle")
    params = scenario.default_params
    curve = get_curve(scenario.default_curve, horizon=1.0)
    calls = []

    def counted(f):
        def wrapper(x):
            calls.append(1)
            return f(x)
        return wrapper

    turn = scenario.system.fields[1]
    wrapped = replace(turn, eval=counted(turn.eval), jacobian=counted(turn.jacobian))
    assert np.array_equal(wrapped.value, turn.value)
    system = replace(scenario.system, fields=(scenario.system.fields[0], wrapped))
    counts = []
    for substeps in (200, 400):
        grid = SamplerGrid(params.epsilon, 1.0, substeps=substeps)
        args = (scenario.scheme, params, curve, scenario.default_x0, grid)
        calls.clear()
        got = simulate(system, *args)
        counts.append(len(calls))
        assert_same_trajectory(got, simulate(scenario.system, *args))
    assert counts[0] == counts[1] > 0


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
    return sys, BracketScheme(m=2, s1=(1, 2), s2=((1, 2),), kappa=(1,))


def test_batch_member_with_a_singular_gain_stops_alone():
    """x1 = 0 makes the gain matrix singular.  (0, 0, 0) sits there at t=0;
    with alpha * eps = 1 every other start reaches it at t=0.1, with
    alpha * eps = 0.5 none does."""
    sys, scheme = make_vanishing_bracket()
    curve = fixed_target(np.array([0.0, 0.5, 0.5]))
    grid = SamplerGrid(0.1, 0.3)
    x0 = np.array([[0.3, 0.5, 0.5], [0.0, 0.0, 0.0], [0.3, 0.2, 0.4]])

    params = ControllerParams(alpha=10.0, epsilon=0.1)
    batch = simulate(sys, scheme, params, curve, x0, grid)
    assert sorted(batch.failures) == [0, 1, 2]
    for b in range(3):
        alone = run_alone(sys, scheme, params, curve, x0[b], grid)
        assert alone.reason == "rank-deficient"
        assert_same_failure(batch.failures[b], alone)
    assert [batch.failures[b].time for b in range(3)] == [
        pytest.approx(0.1), 0.0, pytest.approx(0.1)]

    params = ControllerParams(alpha=5.0, epsilon=0.1)
    batch = simulate(sys, scheme, params, curve, x0, grid)
    assert sorted(batch.failures) == [1]
    assert_same_failure(batch.failures[1],
                        run_alone(sys, scheme, params, curve, x0[1], grid))
    for b in (0, 2):
        assert_same_run(batch, b, run_alone(sys, scheme, params, curve, x0[b], grid))


def test_batch_where_every_member_stops():
    """An absurd gain overflows every start; each keeps its own error."""
    sys = ControlSystem(3, 2, unicycle_fields(), name="unicycle")
    scheme = BracketScheme(m=2, s1=(1, 2), s2=((1, 2),), kappa=(1,))
    params = ControllerParams(alpha=1e160, epsilon=0.1)
    curve = curve_gamma1()
    grid = SamplerGrid(0.1, 4.0)
    x0 = np.array([[0.0, 0.0, 1.0], [0.5, -0.5, 0.2]])
    with np.errstate(all="ignore"):
        batch = simulate(sys, scheme, params, curve, x0, grid)
        for b in range(2):
            alone = run_alone(sys, scheme, params, curve, x0[b], grid)
            assert alone.reason == "non-finite-state"
            assert_same_failure(batch.failures[b], alone)
    assert np.isnan(batch.controls[-1]).all()


def test_batch_input_checks():
    """A batch is (B, n) with B >= 1, starts inside the domain; only a
    single start takes the classic semantics (a batch is refused with
    UsageError)."""
    scenario = get_scenario("car")
    params = scenario.default_params
    curve = get_curve(scenario.default_curve, horizon=0.1)
    grid = SamplerGrid(params.epsilon, 0.1)
    args = (scenario.system, scenario.scheme, params, curve)
    x0 = np.array([[8.0, 0.0, 0.0, 0.0], [0.0, 0.0, 0.0, 0.0]])
    with pytest.raises(UsageError, match="classic semantics"):
        classic_solution_simulate(*args, x0, grid)
    for bad in (np.zeros((0, 4)), np.zeros((2, 2, 4)), np.zeros((2, 3))):
        with pytest.raises(DimensionMismatchError, match="x0 must have shape"):
            simulate(*args, bad, grid)
    outside = x0.copy()
    outside[1, 2] = 1.6
    with pytest.raises(DomainError, match=r"initial state \[0.  0.  1.6 0. \]"):
        simulate(*args, outside, grid)
    with pytest.raises(UsageError, match="finite"):
        simulate(*args, np.where(outside == 1.6, np.nan, outside), grid)


# ---------------------------------------------------------------------------
# One gain per member.

# Per scenario: gains around the default, each one tracking on its own.
MEMBER_GAINS = {"unicycle": (15.0, 3.7, 8.8, 22.5), "underwater": (15.0, 4.0, 9.5),
                "car": (10.0, 3.2, 6.1, 9.9)}


@pytest.mark.parametrize("name", SCENARIO_NAMES)
def test_gain_array_members_equal_single_runs_at_their_own_gain(name):
    scenario = get_scenario(name)
    horizon = BATCH_HORIZONS[name]
    eps = scenario.default_params.epsilon
    gains = MEMBER_GAINS[name]
    curve = get_curve(scenario.default_curve, horizon=horizon)
    grid = SamplerGrid(eps, horizon)
    rng = np.random.default_rng(11)
    x0 = scenario.default_x0 + 0.3 * rng.uniform(-1.0, 1.0, (len(gains), scenario.system.n))
    batch = simulate(scenario.system, scenario.scheme,
                     ControllerParams(alpha=np.array(gains), epsilon=eps), curve, x0, grid)
    assert batch.failures == {}
    for b, alpha in enumerate(gains):
        alone = run_alone(scenario.system, scenario.scheme,
                          ControllerParams(alpha=alpha, epsilon=eps), curve, x0[b], grid)
        assert not isinstance(alone, SimulationError)
        assert_same_run(batch, b, alone)


def test_gain_array_survivors_keep_their_own_gains():
    """The car from its default start at eps=0.5 and H=2 leaves its steering
    chart, at the default 16 steps an interval, at alpha=9.9 (t=0.625),
    3 (t=1.0625) and 2 (t=1.65625); alpha=1 reaches the horizon.  Each stop
    shrinks the batch, and the members after it go on with their own gains.
    alpha=2's exit depends on the grid: every count from 16 to 192 leaves
    the chart near t=1.64, while at 12 steps the run reaches the horizon
    with x4 = -248."""
    scenario = get_scenario("car")
    gains = (3.0, 9.9, 1.0, 2.0)
    curve = get_curve(scenario.default_curve, horizon=2.0)
    grid = SamplerGrid(0.5, 2.0)
    x0 = np.tile(scenario.default_x0, (len(gains), 1))
    batch = simulate(scenario.system, scenario.scheme,
                     ControllerParams(alpha=gains, epsilon=0.5), curve, x0, grid)
    assert sorted(batch.failures) == [0, 1, 3]
    times = [batch.failures[b].time for b in (1, 0, 3)]
    assert times == sorted(times) and len(set(times)) == 3
    for b, alpha in enumerate(gains):
        alone = run_alone(scenario.system, scenario.scheme,
                          ControllerParams(alpha=alpha, epsilon=0.5), curve, x0[b], grid)
        if b == 2:
            assert_same_run(batch, b, alone)
        else:
            assert alone.reason == "domain-exit"
            assert_same_failure(batch.failures[b], alone)


def test_gain_array_refusals():
    """A gain array needs a batch of as many starts, under sampled semantics;
    it must be 1-D with finite positive gains; the certificate functions
    take one gain."""
    scenario = get_scenario("car")
    curve = get_curve(scenario.default_curve, horizon=0.1)
    grid = SamplerGrid(0.02, 0.1)
    args = (scenario.system, scenario.scheme)
    x0 = np.tile(scenario.default_x0, (3, 1))
    gains = ControllerParams(alpha=[10.0, 5.0, 7.0], epsilon=0.02)
    with pytest.raises(UsageError, match="3 gains need a batch"):
        simulate(*args, gains, curve, scenario.default_x0, grid)
    with pytest.raises(UsageError, match="3 gains need a batch"):
        simulate(*args, gains, curve, x0[:2], grid)
    with pytest.raises(UsageError, match="3 gains need a batch"):
        classic_solution_simulate(*args, gains, curve, scenario.default_x0, grid)
    with pytest.raises(DimensionMismatchError, match="3 gains"):
        coefficients(*args, gains, x0[:2], curve.eval(0.0))
    for bad in ([[10.0, 5.0]], [10.0, np.nan], [10.0, 0.0], [-1.0, 5.0],
                [10.0, np.inf], []):
        with pytest.raises(UsageError, match="alpha"):
            ControllerParams(alpha=bad, epsilon=0.02)
    assert gains.alpha == (10.0, 5.0, 7.0)

    unicycle = get_scenario("unicycle")
    gains = ControllerParams(alpha=[15.0, 16.0], epsilon=0.01)
    inputs = CertificateInputs(r=3.0, rho=0.5, rho_prime=0.25, delta=2.0,
                               delta_prime=2.5, mu=1.0, nu=1.0, M1=1.0, M2=1.0,
                               M3=1.0, L=1.0, lam=1.0)
    with pytest.raises(UsageError, match="one gain"):
        bound_constants(unicycle.scheme, gains.alpha, inputs)
    with pytest.raises(UsageError, match="one gain"):
        contraction_check(unicycle.system, unicycle.scheme, gains, curve_gamma1(),
                          lam=1.0, nu=1.0, rho_prime=0.25, delta=2.0, n_draws=2)


def test_gain_array_params_compare_and_hash_by_value():
    """Params with gain arrays are equal when their gains are, element by
    element, and hash alike then; an array of one gain is not that gain."""
    params = ControllerParams(alpha=[10.0, 5.0], epsilon=0.1)
    same = ControllerParams(alpha=np.array([10, 5]), epsilon=0.1)
    assert params == same and hash(params) == hash(same)
    assert len({params, same}) == 1
    assert params != ControllerParams(alpha=[10.0, 6.0], epsilon=0.1)
    assert params != ControllerParams(alpha=[10.0, 5.0], epsilon=0.2)
    assert params != ControllerParams(alpha=[10.0], epsilon=0.1)
    assert ControllerParams(alpha=[10.0], epsilon=0.1) != ControllerParams(10.0, 0.1)
    assert ControllerParams(10, 0.1) == ControllerParams(10.0, 0.1)
    assert hash(ControllerParams(10, 0.1)) == hash(ControllerParams(10.0, 0.1))
    assert params != (10.0, 5.0)


@pytest.mark.parametrize("name", SCENARIO_NAMES)
def test_fallback_jacobian_in_two_calls_equals_the_per_column_form(name):
    """A field without a Jacobian, here each scenario's first bracket
    [f1, f2] (the field a nested bracket differentiates), gets central
    differences that pass the 2n shifted states to its eval in two calls.
    They equal finite_difference_jacobian, which calls it twice per
    column, on 500 states alone and as one batch."""
    scenario = get_scenario(name)
    f, g = scenario.system.fields[:2]
    inner = bracket_field(f, g)
    rng = np.random.default_rng(5)
    xs = rng.uniform(-3.0, 3.0, (500, scenario.system.n)) * SCALES[name]
    want = finite_difference_jacobian(inner.eval, xs, step=1e-5)
    assert np.array_equal(inner.jacobian(xs), want)
    assert np.array_equal(stacked(inner.jacobian, xs), want)
