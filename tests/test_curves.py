"""Reference curves: derivatives, velocity bounds, gamma3's heading."""

import math
import tracemalloc

import numpy as np
import pytest
from scipy.integrate import quad, solve_ivp

from osctrack import curves
from osctrack import (
    CURVE_REGISTRY,
    ReferenceCurve,
    UsageError,
    get_curve,
)
from osctrack.curves import (
    curve_gamma1,
    curve_gamma2,
    curve_gamma4_car,
    curve_gamma4_underwater,
    velocity_bound,
)


def fd_deriv(ev, ts, h=1e-6):
    return (ev(ts + h) - ev(ts - h)) / (2 * h)


@pytest.mark.parametrize("factory, dim", [
    (curve_gamma1, 3),
    (curve_gamma2, 3),
    (curve_gamma4_underwater, 6),
    (curve_gamma4_car, 4),
])
def test_analytic_derivatives_match_fd(factory, dim):
    curve = factory(40.0)
    assert curve.dim == dim
    ts = np.linspace(0.1, 39.9, 57)
    assert np.allclose(curve.deriv(ts), fd_deriv(curve.eval, ts), atol=1e-6)


def test_eval_shape_conventions():
    curve = curve_gamma1()
    assert curve(0.0).shape == (3,)
    assert curve(np.linspace(0, 1, 7)).shape == (7, 3)
    assert curve.deriv(np.linspace(0, 1, 7)).shape == (7, 3)


def test_gamma1_spot_values():
    curve = curve_gamma1()
    assert np.allclose(curve(0.0), [2.0, 0.0, 1.0], atol=1e-14)
    # Initial tracking error used throughout: start at (0, 0, 1).
    assert np.isclose(np.linalg.norm(curve(0.0) - np.array([0.0, 0.0, 1.0])), 2.0)
    # Velocity norm squared is 1 + 3 cos^2(t/2) + 0.01 sin^2(t/10).
    speed_sq = 1 + 3 * np.cos(7.0 / 2) ** 2 + 0.01 * np.sin(0.7) ** 2
    assert np.isclose(np.linalg.norm(curve.deriv(7.0)), np.sqrt(speed_sq), atol=1e-12)
    assert 2.0 <= curve.nu <= 2.05


def test_gamma2_values_and_bound():
    curve = curve_gamma2()
    assert np.allclose(curve(0.0), [3 - np.e, 1.0, 0.0], atol=1e-14)
    # Fastest at t = 0, where the speed is exactly e; the sample grid
    # contains t = 0, so only the safety margin separates nu from e.
    assert np.isclose(curve.nu, 1.01 * np.e, rtol=1e-12)


def test_gamma4_bounds():
    under = curve_gamma4_underwater()
    assert np.isclose(under.nu, 1.01 * np.sqrt(2) / 4, rtol=1e-12)
    car = curve_gamma4_car(60.0)
    assert np.isclose(car.nu, 1.01 * 1.25 * np.sqrt(2), rtol=1e-12)


def test_velocity_bound_unit_speed():
    dv = lambda t: np.stack([np.cos(t), np.sin(t)], axis=-1)
    assert np.isclose(velocity_bound(dv, 10.0), 1.01, rtol=1e-12)
    with pytest.raises(UsageError):
        velocity_bound(dv, 0.0)


SWEEP_CURVE = "5*sin(t/4), 5*sin(t/4)*cos(t/4), 0, 0"


def whole_grid_bound(deriv, horizon):
    """velocity_bound with the whole grid evaluated at once."""
    ts = np.linspace(0.0, horizon, 100_000)
    return 1.01 * float(np.max(np.linalg.norm(deriv(ts), axis=-1)))


@pytest.mark.parametrize("block", [4096, 997])
@pytest.mark.parametrize("name, horizon", [
    *((name, 40.0) for name in CURVE_REGISTRY), ("expr:" + SWEEP_CURVE, 6.0)])
def test_velocity_bound_in_blocks_equals_the_whole_grid(monkeypatch, name, horizon,
                                                        block):
    monkeypatch.setattr(curves, "_GRID_BLOCK_POINTS", block)
    curve = get_curve(name, horizon=horizon)
    want = whole_grid_bound(curve.deriv, horizon)
    assert velocity_bound(curve.deriv, horizon) == want
    assert curve.nu == want


@pytest.mark.parametrize("block", [4096, 997])
def test_velocity_bound_nan_in_a_late_block(monkeypatch, block):
    """A NaN speed past t = 20 makes the bound NaN, as on the whole grid;
    Python's max() over the block maxima would drop it."""
    monkeypatch.setattr(curves, "_GRID_BLOCK_POINTS", block)

    def dv(t):
        speed = np.where(t > 20.0, np.nan, 1.0)
        return np.stack([speed * np.cos(t), speed * np.sin(t)], axis=-1)

    assert np.isnan(whole_grid_bound(dv, 40.0))
    assert np.isnan(velocity_bound(dv, 40.0))


# Each registry function written out one component at a time, each with
# its own sines and cosines: the oracle for the curves' shared factors.
# gamma1's acceleration, which no curve carries, is the heading oracles'.
PER_COMPONENT = {
    ("gamma1", "eval"): [
        lambda t: 2 * np.cos(t / 2) * np.cos(t),
        lambda t: 2 * np.cos(t / 2) * np.sin(t),
        lambda t: np.cos(t / 10)],
    ("gamma1", "deriv"): [
        lambda t: -np.sin(t / 2) * np.cos(t) - 2 * np.cos(t / 2) * np.sin(t),
        lambda t: -np.sin(t / 2) * np.sin(t) + 2 * np.cos(t / 2) * np.cos(t),
        lambda t: -np.sin(t / 10) / 10],
    ("gamma1", "deriv2"): [
        lambda t: -2.5 * np.cos(t / 2) * np.cos(t) + 2 * np.sin(t / 2) * np.sin(t),
        lambda t: -2.5 * np.cos(t / 2) * np.sin(t) - 2 * np.sin(t / 2) * np.cos(t),
        lambda t: -np.cos(t / 10) / 100],
    ("gamma3", "deriv"): [
        lambda t: -np.sin(t / 2) * np.cos(t) - 2 * np.cos(t / 2) * np.sin(t),
        lambda t: -np.sin(t / 2) * np.sin(t) + 2 * np.cos(t / 2) * np.cos(t),
        lambda t: 1 + 2 / (5 + 3 * np.cos(t))],
    ("gamma4_car", "eval"): [
        lambda t: 5 * np.sin(t / 4),
        lambda t: 5 * np.sin(t / 4) * np.cos(t / 4),
        lambda t: np.zeros_like(t),
        lambda t: np.zeros_like(t)],
}
SHARED = [key for key in PER_COMPONENT if key != ("gamma1", "deriv2")]


@pytest.mark.parametrize("name, what", SHARED,
                         ids=[f"{name}-{what}" for name, what in SHARED])
def test_shared_factors_keep_the_bits(name, what):
    """On the velocity bound's grid, and at a scalar time, a registry
    function equals its per-component formulas bit for bit."""
    func = getattr(get_curve(name, horizon=40.0), what)
    ts = np.linspace(0.0, 40.0, curves.VELOCITY_SAMPLES)
    want = np.stack([f(ts) for f in PER_COMPONENT[name, what]], axis=-1)
    assert np.array_equal(func(ts), want)
    scalar = np.array([f(7.3) for f in PER_COMPONENT[name, what]], dtype=float)
    assert np.array_equal(func(7.3), scalar)


def gamma1_turn_rate(t):
    """theta' = (x' y'' - y' x'') / (x'^2 + y'^2), the rate of gamma1's
    planar heading, from the per-component formulas."""
    dx, dy = (f(t) for f in PER_COMPONENT["gamma1", "deriv"][:2])
    ddx, ddy = (f(t) for f in PER_COMPONENT["gamma1", "deriv2"][:2])
    return (dx * ddy - dy * ddx) / (dx ** 2 + dy ** 2)


def heading_on_fine_table(horizon, t):
    """gamma1's heading as a table of step 1e-4 on [0, 2 horizon] gives it:
    the unwrapped atan2 tabulated on that grid picks the branch of the
    exact atan2 at t."""
    base = curve_gamma1(horizon)
    ts = np.linspace(0.0, 2 * horizon, int(np.ceil(2 * horizon / 1e-4)) + 1)
    d = base.deriv(ts)
    branch = np.unwrap(np.arctan2(d[:, 1], d[:, 0]))
    dv = base.deriv(t)
    raw = np.arctan2(dv[:, 1], dv[:, 0])
    return raw + 2 * np.pi * np.round((np.interp(t, ts, branch) - raw) / (2 * np.pi))


@pytest.mark.parametrize("horizon", [10.0, 40.0])
def test_heading_equals_that_of_the_fine_table(horizon):
    """On a dense grid over [0, 2 horizon], past the horizon, the closed-form
    branch picks the heading a table of step 1e-4 gives, bit for bit."""
    curve = get_curve("gamma3", horizon)
    t = np.linspace(0.0, 2 * horizon, 400_001)
    assert np.array_equal(curve(t)[:, 2], heading_on_fine_table(horizon, t))


def test_gamma3_build_allocates_no_table():
    """Building gamma3 holds nothing that grows with the horizon: at
    horizon 1e4 it peaks below 1 MB."""
    tracemalloc.start()
    try:
        get_curve("gamma3", horizon=1e4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1e6


@pytest.fixture(scope="module")
def gamma3():
    return get_curve("gamma3", 40.0)


class TestHeadingCurve:
    def test_initial_heading(self, gamma3):
        # Planar velocity at t = 0 is (0, 2), pointing straight up.
        assert np.isclose(gamma3(0.0)[2], np.pi / 2, atol=1e-12)

    def test_planar_components_unchanged(self, gamma3):
        base = curve_gamma1()
        ts = np.linspace(0, 40, 101)
        assert np.allclose(gamma3(ts)[:, :2], base(ts)[:, :2], atol=1e-14)

    def test_admissible_for_unicycle(self, gamma3):
        """Velocity must stay aligned with the heading it reports."""
        ts = np.linspace(0, 40, 20011)
        vals = gamma3(ts)
        dv = gamma3.deriv(ts)
        residual = dv[:, 0] * np.sin(vals[:, 2]) - dv[:, 1] * np.cos(vals[:, 2])
        assert np.max(np.abs(residual)) < 1e-6

    def test_rate_is_that_of_the_planar_derivatives(self, gamma3):
        ts = np.linspace(0, 80, 100_001)
        assert np.allclose(gamma3.deriv(ts)[:, 2], gamma1_turn_rate(ts),
                           rtol=1e-14, atol=0)

    def test_heading_against_independent_integration(self, gamma3):
        """Re-integrate the heading rate with an adaptive solver."""
        t_eval = np.linspace(0, 4 * np.pi, 41)
        sol = solve_ivp(lambda t, _: [gamma1_turn_rate(t)], (0, 4 * np.pi), [np.pi / 2],
                        t_eval=t_eval, rtol=1e-11, atol=1e-12)
        assert np.allclose(gamma3(t_eval)[:, 2], sol.y[0], atol=1e-6)

    @pytest.mark.parametrize("t_end", [7.3, 20.0, 39.9])
    def test_heading_matches_quadrature_of_its_rate(self, gamma3, t_end):
        """pi/2 plus the integral of theta' over unit pieces, each by
        adaptive Gauss-Kronrod quadrature."""
        knots = np.append(np.arange(0.0, t_end, 1.0), t_end)
        pieces = [quad(gamma1_turn_rate, a, b, epsabs=1e-13, epsrel=1e-13, limit=200)[0]
                  for a, b in zip(knots[:-1], knots[1:])]
        assert abs(gamma3(t_end)[2] - (np.pi / 2 + math.fsum(pieces))) < 1e-12

    def test_heading_rate_matches_spline_slope(self, gamma3):
        ts = np.linspace(0.5, 39.5, 301)
        fd = (gamma3(ts + 1e-6)[:, 2] - gamma3(ts - 1e-6)[:, 2]) / 2e-6
        assert np.allclose(gamma3.deriv(ts)[:, 2], fd, atol=1e-6)


def test_registry_lookup():
    curve = get_curve("gamma1", horizon=40.0)
    assert curve.name == "gamma1"
    heading = get_curve("gamma3", horizon=10.0)
    assert heading.dim == 3
    assert heading.horizon == 10.0
    assert heading.name == "gamma1-heading"
    with pytest.raises(UsageError):
        get_curve("gamma99")


def test_registry_expression_dispatch():
    curve = get_curve("expr:cos(t), sin(t)", horizon=10.0)
    assert curve.dim == 2
    assert np.allclose(curve(0.0), [1.0, 0.0])


def test_expression_spec_with_or_without_prefix():
    bare = get_curve("cos(t), sin(t)", horizon=10.0)
    prefixed = get_curve("expr:cos(t), sin(t)", horizon=10.0)
    assert bare.name == prefixed.name == "expr:cos(t), sin(t)"
    assert bare.dim == prefixed.dim == 2
    assert bare.horizon == prefixed.horizon == 10.0
    assert bare.nu == prefixed.nu
    ts = np.linspace(0.0, 10.0, 41)
    assert np.array_equal(bare(ts), prefixed(ts))


@pytest.mark.parametrize("name", CURVE_REGISTRY)
def test_registry_nu_is_the_sampled_velocity_bound(name):
    """nu, computed on first read, is the float velocity_bound returns
    over the horizon the curve keeps."""
    curve = get_curve(name, horizon=12.5)
    assert curve.horizon == 12.5
    assert curve.nu == velocity_bound(curve.deriv, 12.5)


def test_registry_nu_computed_once_on_first_read(monkeypatch):
    calls = []

    def counted(deriv, horizon):
        calls.append(horizon)
        return velocity_bound(deriv, horizon)

    monkeypatch.setattr(curves, "velocity_bound", counted)
    curve = get_curve("gamma1")
    assert calls == []
    nu = curve.nu
    assert calls == [40.0]
    assert curve.nu == nu
    assert calls == [40.0]


def test_unknown_curve_lists_the_registry():
    with pytest.raises(UsageError) as exc:
        get_curve("gamma99")
    for name in CURVE_REGISTRY:
        assert name in str(exc.value)


@pytest.mark.parametrize("name", [*CURVE_REGISTRY, "cos(t), sin(t)"])
@pytest.mark.parametrize("horizon", [0.0, -1.0, np.inf, np.nan])
def test_nonfinite_or_nonpositive_horizon_rejected(name, horizon):
    with pytest.raises(UsageError, match="horizon"):
        get_curve(name, horizon=horizon)


def test_reference_curve_refuses_a_bad_horizon():
    """Every curve is built through the constructor, which refuses a
    horizon that is not finite and positive before anything is sampled."""
    def never(t):
        raise AssertionError("the curve was evaluated")

    for horizon in (0.0, -1.0, np.inf, np.nan):
        with pytest.raises(UsageError, match="horizon must be finite and positive"):
            ReferenceCurve(2, never, never, horizon)
