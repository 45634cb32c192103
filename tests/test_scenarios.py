"""Scenario registry: field formulas, Jacobians, brackets, rank checks."""

import numpy as np
import pytest

from osctrack import (
    DomainError,
    UsageError,
    build_gain_matrix,
    finite_difference_jacobian,
    get_curve,
    get_scenario,
    lie_bracket,
    SCENARIO_REGISTRY,
)
from osctrack.systems import gain_matrices
from tests.test_systems import fd_bracket

SCENARIO_NAMES = sorted(SCENARIO_REGISTRY)


def random_states(name, rng, count):
    """In-domain states spread over the region the scenarios operate in."""
    if name == "unicycle":
        return np.column_stack([
            rng.uniform(-3.0, 3.0, count),
            rng.uniform(-3.0, 3.0, count),
            rng.uniform(-np.pi, np.pi, count),
        ])
    if name == "underwater":
        return np.column_stack([
            rng.uniform(-3.0, 3.0, count),
            rng.uniform(-3.0, 3.0, count),
            rng.uniform(-3.0, 3.0, count),
            rng.uniform(-np.pi, np.pi, count),
            rng.uniform(-1.2, 1.2, count),
            rng.uniform(-np.pi, np.pi, count),
        ])
    if name == "car":
        return np.column_stack([
            rng.uniform(-9.0, 9.0, count),
            rng.uniform(-9.0, 9.0, count),
            rng.uniform(-1.2, 1.2, count),
            rng.uniform(-np.pi, np.pi, count),
        ])
    raise AssertionError(name)


def test_registry_roundtrip():
    for name in SCENARIO_NAMES:
        scenario = get_scenario(name)
        assert scenario.name == name
        assert scenario.system.n == scenario.default_x0.size
        assert scenario.scheme.n_columns == scenario.system.n
    with pytest.raises(UsageError):
        get_scenario("hovercraft")


@pytest.mark.parametrize("name", SCENARIO_NAMES)
def test_defaults_are_consistent(name):
    scenario = get_scenario(name)
    assert scenario.system.in_domain(scenario.default_x0)
    curve = get_curve(scenario.default_curve, horizon=scenario.horizon)
    assert curve.dim == scenario.system.n
    assert scenario.default_params.alpha > 0
    assert scenario.default_params.epsilon > 0
    assert scenario.horizon > 0


@pytest.mark.parametrize("name", SCENARIO_NAMES)
def test_analytic_jacobians_match_finite_differences(name):
    scenario = get_scenario(name)
    rng = np.random.default_rng(11)
    for x in random_states(name, rng, 200):
        for field in scenario.system.fields:
            got = field.jacobian(x)
            want = finite_difference_jacobian(field.eval, x)
            np.testing.assert_allclose(got, want, rtol=1e-5, atol=1e-6)


@pytest.mark.parametrize("name", SCENARIO_NAMES)
def test_scheme_brackets_match_fd_oracle(name):
    scenario = get_scenario(name)
    fields = scenario.system.fields
    rng = np.random.default_rng(13)
    for x in random_states(name, rng, 100):
        for i, j in scenario.scheme.s2:
            got = lie_bracket(fields[i - 1], fields[j - 1], x)
            want = fd_bracket(fields[i - 1].eval, fields[j - 1].eval, x)
            np.testing.assert_allclose(got, want, rtol=1e-6, atol=1e-6)


@pytest.mark.parametrize("name", SCENARIO_NAMES)
def test_rank_condition_on_default_tube(name):
    scenario = get_scenario(name)
    curve = get_curve(scenario.default_curve, horizon=scenario.horizon)
    rng = np.random.default_rng(17)
    ts = rng.uniform(0.0, scenario.horizon, 100)
    dirs = rng.normal(size=(100, scenario.system.n))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    radii = rng.uniform(0.0, 1.0, 100)[:, None]
    samples = np.asarray(curve.eval(ts)) + radii * dirs
    gains = gain_matrices(scenario.system, scenario.scheme, samples)
    assert not gains.singular.any()
    assert gains.singular_values.shape == (100, scenario.system.n)
    assert gains.singular_values[:, -1].min() > 0.0


class TestUnicycleScenario:
    def test_field_values(self):
        scenario = get_scenario("unicycle")
        f1, f2 = scenario.system.fields
        x = np.array([0.3, -0.7, np.pi / 2])
        np.testing.assert_allclose(f1(x), [0.0, 1.0, 0.0], atol=1e-15)
        np.testing.assert_allclose(f2(x), [0.0, 0.0, 1.0])

    def test_bracket_closed_form(self):
        scenario = get_scenario("unicycle")
        f1, f2 = scenario.system.fields
        for theta in (-2.0, 0.0, 0.9, 2.5):
            x = np.array([1.0, -1.0, theta])
            np.testing.assert_allclose(
                lie_bracket(f1, f2, x),
                [np.sin(theta), -np.cos(theta), 0.0], atol=1e-12)

    def test_gain_matrix_orthogonal_everywhere(self):
        scenario = get_scenario("unicycle")
        rng = np.random.default_rng(5)
        for x in random_states("unicycle", rng, 25):
            gain = build_gain_matrix(scenario.system, scenario.scheme, x)
            np.testing.assert_allclose(gain.T @ gain, np.eye(3), atol=1e-12)

    def test_default_parameters(self):
        scenario = get_scenario("unicycle")
        assert scenario.default_params.alpha == 15.0
        assert scenario.default_params.epsilon == 0.1
        assert scenario.default_curve == "gamma1"
        assert scenario.horizon == 40.0
        np.testing.assert_allclose(scenario.default_x0, [0.0, 0.0, 1.0])
        assert scenario.scheme.kappa == (1,)


class TestUnderwaterScenario:
    def test_field_values(self):
        scenario = get_scenario("underwater")
        f1, f2, f3, f4 = scenario.system.fields
        origin = np.zeros(6)
        np.testing.assert_allclose(f1(origin), [1, 0, 0, 0, 0, 0], atol=1e-15)
        np.testing.assert_allclose(f2(origin), [0, 0, 0, 1, 0, 0])
        # x4 = 0 kills every sin(x4) term regardless of pitch.
        tilted = np.array([0.5, -0.5, 2.0, 0.0, 0.8, -1.0])
        np.testing.assert_allclose(f3(tilted), [0, 0, 0, 0, 1, 0], atol=1e-15)
        f4_val = f4(tilted)
        np.testing.assert_allclose(
            f4_val, [0, 0, 0, np.tan(0.8), 0, 1 / np.cos(0.8)], atol=1e-15)

    def test_bracket_closed_forms(self):
        # [f1, f3] and [f1, f4] collapse to -Jf1 @ f3 and -Jf1 @ f4
        # because f3, f4 vary only in the angle block where f1 vanishes.
        scenario = get_scenario("underwater")
        f1, _, f3, f4 = scenario.system.fields
        rng = np.random.default_rng(23)
        for x in random_states("underwater", rng, 30):
            c4, s4 = np.cos(x[3]), np.sin(x[3])
            c5, s5 = np.cos(x[4]), np.sin(x[4])
            c6, s6 = np.cos(x[5]), np.sin(x[5])
            want13 = np.array([c4 * s5 * c6 + s4 * s6,
                               c4 * s5 * s6 - s4 * c6,
                               c4 * c5, 0.0, 0.0, 0.0])
            want14 = np.array([-s4 * s5 * c6 + c4 * s6,
                               -s4 * s5 * s6 - c4 * c6,
                               -s4 * c5, 0.0, 0.0, 0.0])
            np.testing.assert_allclose(lie_bracket(f1, f3, x), want13,
                                       atol=1e-12)
            np.testing.assert_allclose(lie_bracket(f1, f4, x), want14,
                                       atol=1e-12)

    def test_bracket_at_default_x0_matches_fd(self):
        scenario = get_scenario("underwater")
        f1, _, f3, _ = scenario.system.fields
        x0 = scenario.default_x0
        got = lie_bracket(f1, f3, x0)
        np.testing.assert_allclose(got, fd_bracket(f1.eval, f3.eval, x0),
                                   atol=1e-6)

    def test_gain_nonsingular_at_default_x0(self):
        scenario = get_scenario("underwater")
        gain = build_gain_matrix(scenario.system, scenario.scheme,
                                 scenario.default_x0)
        assert gain.shape == (6, 6)
        sigma_min = np.linalg.svd(gain, compute_uv=False)[-1]
        assert sigma_min > 0.1

    def test_near_pitch_singularity_flagged(self):
        scenario = get_scenario("underwater")
        boundary = np.array([0.0, 0.0, 0.0, 0.2, np.pi / 2 - 1e-9, 0.1])
        fine = np.zeros(6)
        gains = gain_matrices(scenario.system, scenario.scheme,
                              np.stack([fine, boundary]))
        assert not gains.singular.any()
        cond = gains.singular_values[:, 0] / gains.singular_values[:, -1]
        assert cond[1] >= 1e8
        assert cond[0] < 1e8

    def test_outside_pitch_domain(self):
        scenario = get_scenario("underwater")
        bad = np.array([0.0, 0.0, 0.0, 0.0, 1.7, 0.0])
        assert not scenario.system.in_domain(bad)
        with pytest.raises(DomainError):
            build_gain_matrix(scenario.system, scenario.scheme, bad)

    def test_default_parameters(self):
        scenario = get_scenario("underwater")
        assert scenario.default_params.alpha == 15.0
        assert scenario.default_params.epsilon == 0.1
        assert scenario.scheme.s2 == ((1, 3), (1, 4))
        assert scenario.scheme.kappa == (1, 2)
        np.testing.assert_allclose(
            scenario.default_x0,
            [0.0, 0.0, -1.0, np.pi / 4, np.pi / 4, np.pi / 4])

    def test_channel_two_never_oscillates(self):
        # Index 2 appears in no bracket pair, so its control is the bare
        # coefficient: constant across one period.
        from osctrack import coefficients, make_control_function
        scenario = get_scenario("underwater")
        params = scenario.default_params
        gamma = np.zeros(6)
        x = scenario.default_x0
        coeff = coefficients(scenario.system, scenario.scheme, params, x, gamma)
        ts = np.linspace(0.0, params.epsilon, 301)
        profile = make_control_function(scenario.scheme, params, coeff)(ts)
        assert np.ptp(profile[:, 1]) == 0.0
        assert np.ptp(profile[:, 0]) > 0.0


class TestCarScenario:
    def test_field_values_and_domain(self):
        scenario = get_scenario("car")
        f1, f2 = scenario.system.fields
        x = np.array([0.0, 0.0, 0.7, 1.2])
        np.testing.assert_allclose(
            f1(x), [np.cos(1.2), np.sin(1.2), 0.0, np.tan(0.7)], atol=1e-15)
        np.testing.assert_allclose(f2(x), [0.0, 0.0, 1.0, 0.0])
        steep = np.array([0.0, 0.0, 1.6, 0.0])
        assert not scenario.system.in_domain(steep)
        with pytest.raises(DomainError):
            build_gain_matrix(scenario.system, scenario.scheme, steep)

    def test_gain_columns_match_hand_formulas(self):
        scenario = get_scenario("car")
        rng = np.random.default_rng(29)
        for x in random_states("car", rng, 30):
            sec2 = 1.0 / np.cos(x[2]) ** 2
            want = np.column_stack([
                [np.cos(x[3]), np.sin(x[3]), 0.0, np.tan(x[2])],
                [0.0, 0.0, 1.0, 0.0],
                [0.0, 0.0, 0.0, -sec2],
                [np.sin(x[3]) * sec2, -np.cos(x[3]) * sec2, 0.0, 0.0],
            ])
            gain = build_gain_matrix(scenario.system, scenario.scheme, x)
            np.testing.assert_allclose(gain, want, rtol=1e-6, atol=1e-6)

    def test_span_at_default_x0(self):
        scenario = get_scenario("car")
        gain = build_gain_matrix(scenario.system, scenario.scheme,
                                 scenario.default_x0)
        assert np.linalg.matrix_rank(gain) == 4
        np.testing.assert_allclose(abs(np.linalg.det(gain)), 1.0, rtol=1e-6)

    def test_default_parameters(self):
        scenario = get_scenario("car")
        # Criterion 5's regime: alpha * epsilon = 0.2 < 1.
        assert scenario.default_params.alpha == 10.0
        assert scenario.default_params.epsilon == 0.02
        assert scenario.default_curve == "gamma4_car"
        assert scenario.horizon == 60.0
        np.testing.assert_allclose(scenario.default_x0, [8.0, 0.0, 0.0, 0.0])
        assert scenario.scheme.kappa == (3,)
        term = scenario.scheme.degree2[0]
        assert term.triple == (1, 2, 1)
        assert (term.k1, term.k2) == (1, 2)
