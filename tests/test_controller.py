"""Coefficient solves and the oscillating control law."""

import numpy as np
import pytest

from osctrack import (
    BracketScheme,
    ControllerParams,
    ControlSystem,
    DimensionMismatchError,
    NestedBracketTerm,
    UsageError,
    VectorField,
    build_gain_matrix,
    coefficients,
    make_control_function,
)

from test_systems import car_domain, car_fields, unicycle_fields


@pytest.fixture
def unicycle():
    f1, f2 = unicycle_fields()
    sys = ControlSystem(3, 2, (f1, f2), name="unicycle")
    scheme = BracketScheme(m=2, s1=(1, 2), s2=((1, 2),), kappa=(1,))
    return sys, scheme


@pytest.fixture
def car():
    f1, f2 = car_fields()
    sys = ControlSystem(4, 2, (f1, f2),
                        domain=car_domain, name="car")
    scheme = BracketScheme(m=2, s1=(1, 2), s2=((1, 2),), kappa=(3,),
                           degree2=(NestedBracketTerm((1, 2, 1), 1, 2),))
    return sys, scheme


def test_params_validation():
    with pytest.raises(UsageError):
        ControllerParams(alpha=0.0, epsilon=0.1)
    with pytest.raises(UsageError):
        ControllerParams(alpha=1.0, epsilon=-0.1)
    for bad in (np.inf, np.nan):
        with pytest.raises(UsageError):
            ControllerParams(alpha=bad, epsilon=0.1)
        with pytest.raises(UsageError):
            ControllerParams(alpha=1.0, epsilon=bad)


def test_unicycle_coefficients_closed_form(unicycle):
    """Orthogonal gain matrix gives projections of -alpha * error."""
    sys, scheme = unicycle
    params = ControllerParams(alpha=15.0, epsilon=0.1)
    rng = np.random.default_rng(7)
    for _ in range(25):
        x = rng.normal(size=3)
        gamma = rng.normal(size=3)
        c = coefficients(sys, scheme, params, x, gamma)
        e1, e2, e3 = x - gamma
        th = x[2]
        expected = -params.alpha * np.array([
            e1 * np.cos(th) + e2 * np.sin(th),
            e3,
            e1 * np.sin(th) - e2 * np.cos(th),
        ])
        assert np.allclose(c, expected, atol=1e-10)


def test_coefficient_spot_value(unicycle):
    sys, scheme = unicycle
    params = ControllerParams(alpha=15.0, epsilon=0.1)
    c = coefficients(sys, scheme, params, np.array([1.0, 0.0, 0.0]), np.zeros(3))
    assert np.allclose(c, [-15.0, 0.0, 0.0], atol=1e-12)


def test_coefficient_round_trip(car):
    """Gain matrix times the solved coefficients reproduces -alpha * error."""
    sys, scheme = car
    params = ControllerParams(alpha=5.0, epsilon=0.5)
    rng = np.random.default_rng(8)
    for _ in range(25):
        x = rng.normal(size=4)
        x[2] = rng.uniform(-1.0, 1.0)
        gamma = rng.normal(size=4)
        c = coefficients(sys, scheme, params, x, gamma)
        gain = build_gain_matrix(sys, scheme, x)
        assert np.allclose(gain @ c, -params.alpha * (x - gamma), atol=1e-10)


def test_car_coefficient_spot_value(car):
    sys, scheme = car
    params = ControllerParams(alpha=5.0, epsilon=0.5)
    c = coefficients(sys, scheme, params, np.array([8.0, 0.0, 0.0, 0.0]), np.zeros(4))
    assert c.shape == (4,)
    assert np.allclose(c, [-40.0, 0.0, 0.0, 0.0], atol=1e-12)


def test_control_function_refuses_a_wrong_width(unicycle):
    """The coefficients must have one column per gain-matrix column, one
    state or a batch of them."""
    _, scheme = unicycle
    params = ControllerParams(alpha=1.0, epsilon=0.1)
    for bad in (np.zeros(5), np.zeros(2), np.zeros((2, 4))):
        with pytest.raises(DimensionMismatchError, match="expected 3 coefficients"):
            make_control_function(scheme, params, bad)
    assert make_control_function(scheme, params, np.zeros((2, 3)))(0.0).shape == (2, 2)


def test_coefficients_shape_mismatch(unicycle):
    sys, scheme = unicycle
    params = ControllerParams(alpha=1.0, epsilon=0.1)
    with pytest.raises(DimensionMismatchError):
        coefficients(sys, scheme, params, np.zeros(3), np.zeros(4))


def test_degree1_control_spot_values(unicycle):
    _, scheme = unicycle
    eps = 0.1
    params = ControllerParams(alpha=15.0, epsilon=eps)
    a1, a2, a12 = 2.0, -1.0, -3.0
    c = np.array([a1, a2, a12])
    u = make_control_function(scheme, params, c)
    amp = np.sqrt(4 * np.pi / eps) * np.sqrt(abs(a12))

    assert np.allclose(u(0.0), [a1 + amp, a2], atol=1e-12)
    # Quarter period: cosine gone, sine at full strength with the sign of a12.
    assert np.allclose(u(eps / 4), [a1, a2 - amp], atol=1e-9)
    assert np.allclose(u(eps / 2), [a1 - amp, a2], atol=1e-9)
    assert np.allclose(u(eps), u(0.0), atol=1e-9)


def test_zero_pair_coefficient_is_silent(unicycle):
    _, scheme = unicycle
    params = ControllerParams(alpha=15.0, epsilon=0.1)
    c = np.array([1.5, 0.5, 0.0])
    ts = np.linspace(0, 0.1, 101)
    prof = make_control_function(scheme, params, c)(ts)
    assert np.all(np.isfinite(prof))
    assert np.allclose(prof, np.array([1.5, 0.5]), atol=1e-14)


def test_amplitude_scales_inverse_sqrt_epsilon(unicycle):
    _, scheme = unicycle
    c = np.array([0.0, 0.0, 1.0])
    u_a = make_control_function(scheme, ControllerParams(15.0, 0.4), c)
    u_b = make_control_function(scheme, ControllerParams(15.0, 0.1), c)
    # Halving epsilon twice doubles the oscillation amplitude.
    assert np.isclose(u_b(0.0)[0], 2.0 * u_a(0.0)[0], rtol=1e-12)


def test_degree2_control_spot_values(car):
    """Nested term drives both channels through one shared cube-root amplitude."""
    _, scheme = car
    eps = 0.5
    params = ControllerParams(alpha=5.0, epsilon=eps)
    a121 = -2.0
    c = np.array([1.0, -0.5, 0.0, a121])
    amp = np.cbrt(16 * np.pi ** 2 * (2 ** 2 - 1 ** 2) * a121 / eps ** 2)
    assert amp < 0

    u = make_control_function(scheme, params, c)
    assert np.allclose(u(0.0), [1.0 + amp, -0.5], atol=1e-12)
    # At t = eps/8 the second harmonic peaks and the first sits at pi/4.
    t = eps / 8
    expected = [1.0 + amp * np.cos(np.pi / 4) * 2.0, -0.5 + amp]
    assert np.allclose(u(t), expected, atol=1e-9)


def test_degree2_amplitude_scales_epsilon_power(car):
    _, scheme = car
    c = np.array([0.0, 0.0, 0.0, 1.0])
    u_a = make_control_function(scheme, ControllerParams(5.0, 0.8), c)
    u_b = make_control_function(scheme, ControllerParams(5.0, 0.1), c)
    # epsilon / 8 multiplies the nested amplitude by 8^(2/3) = 4.
    assert np.isclose(u_b(0.0)[0], 4.0 * u_a(0.0)[0], rtol=1e-12)


def test_oscillations_average_out(car):
    """Mean control over one full period is exactly the static part."""
    _, scheme = car
    eps = 0.5
    params = ControllerParams(alpha=5.0, epsilon=eps)
    c = np.array([0.7, -0.2, 1.3, -0.8])
    ts = np.linspace(0.0, eps, 4097)
    prof = make_control_function(scheme, params, c)(ts)
    means = np.trapezoid(prof, ts, axis=0) / eps
    assert np.allclose(means, [0.7, -0.2], atol=1e-9)


def test_profile_matches_pointwise_closure(car):
    """An array of times gives exactly the stacked scalar calls."""
    _, scheme = car
    params = ControllerParams(alpha=5.0, epsilon=0.5)
    c = np.array([0.3, 0.9, -1.1, 0.4])
    u = make_control_function(scheme, params, c)
    ts = np.random.default_rng(9).uniform(0, 2, size=50)
    prof = u(ts)
    assert prof.shape == (50, 2)
    assert u(0.3).shape == (2,)
    stacked = np.stack([u(t) for t in ts])
    assert np.array_equal(prof, stacked)
    # A 2-d array of times keeps its shape in front of the control index.
    assert np.array_equal(u(ts.reshape(5, 10)), stacked.reshape(5, 10, 2))


def test_control_degree1_spot_value(unicycle):
    _, scheme = unicycle
    params = ControllerParams(alpha=15.0, epsilon=0.1)
    c = np.array([2.0, 0.0, 0.25])
    u = make_control_function(scheme, params, c)(0.0)
    assert np.allclose(u, [2.0 + np.sqrt(10 * np.pi), 0.0], atol=1e-12)


def test_control_degree2_spot_value_and_split(car):
    _, scheme = car
    eps = 0.5
    params = ControllerParams(alpha=5.0, epsilon=eps)
    c = np.array([0.0, 0.0, 0.0, -1.0])
    u = make_control_function(scheme, params, c)(0.0)
    assert np.allclose(u, [-np.cbrt(192 * np.pi ** 2), 0.0], atol=1e-12)


def test_phases_use_absolute_time(unicycle):
    """The trig arguments never reset: u(t + eps) = u(t) for any t."""
    _, scheme = unicycle
    eps = 0.1
    params = ControllerParams(alpha=15.0, epsilon=eps)
    c = np.array([0.2, -0.4, 0.9])
    u = make_control_function(scheme, params, c)
    for t in (0.013, 1.77, 12.4):
        assert np.allclose(u(t + eps), u(t), atol=1e-7)
