"""Fields, brackets and gain matrices on batches of states.

Every scenario's fields take states of shape (..., n).  Property tests
draw random batches and compare the batched calls with the stacked
single-state calls (exactly) and with a per-state central-difference
oracle that uses no library Jacobian.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from osctrack import (
    SCENARIO_REGISTRY,
    DomainError,
    build_gain_matrix,
    check_rank_condition,
    finite_difference_jacobian,
    get_scenario,
    lie_bracket,
)
from osctrack.systems import gain_matrices
from tests.test_systems import fd_bracket, fd_jacobian

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
        check_rank_condition(scenario.system, scenario.scheme, samples)
    assert str(samples[1]) in str(exc.value)
    assert str(samples[3]) not in str(exc.value)
