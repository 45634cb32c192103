"""Expression-defined curves and the ast whitelist behind them."""

import numpy as np
import pytest

from osctrack import curves
from osctrack import UsageError, curve_from_expression
from osctrack.curves import curve_gamma2

TS = np.linspace(0, 5, 11)


def test_split_on_semicolons_and_top_level_commas():
    for src, components in [
        ("cos(t); sin(t); 0", [np.cos(TS), np.sin(TS), 0 * TS]),
        ("cos(t), sin(t), t/4", [np.cos(TS), np.sin(TS), TS / 4]),
        # Commas inside calls do not separate.
        ("pow(t, 2), 1", [TS ** 2, 1 + 0 * TS]),
        ("cos(t); sin(t), t/4", [np.cos(TS), np.sin(TS), TS / 4]),
        # A component may start on a new line.
        ("cos(t),\nsin(t)", [np.cos(TS), np.sin(TS)]),
        # A parenthesized component is not a parenthesized tuple.
        ("(t), 1", [TS, 1 + 0 * TS]),
    ]:
        curve = curve_from_expression(src)
        assert curve.dim == len(components), src
        assert np.allclose(curve(TS), np.column_stack(components), atol=1e-14), src


def test_split_rejects_bad_input():
    # Unbalanced or empty; then a parenthesized tuple, a trailing comma,
    # and a comment, which would hide the components after it.
    for src in ["cos(t,; 1", "cos(t)); 1", "cos(t);; 1", "(t, 1)", "sin(t),",
                "t, 1 # c, 2"]:
        with pytest.raises(UsageError):
            curve_from_expression(src)


def test_component_evaluation():
    for src, values in [
        ("2*cos(t/2)*cos(t)", 2 * np.cos(TS / 2) * np.cos(TS)),
        ("pi*t + e", np.pi * TS + np.e),
        ("pow(t, 3) - t**3", 0 * TS),
        ("+t", TS),
    ]:
        assert np.allclose(curve_from_expression(src)(TS)[:, 0], values, atol=1e-14), src


def test_expression_curve_matches_closed_form():
    expr = curve_from_expression("3 - exp(1 - t); exp(-t**2); 0", horizon=40.0)
    closed = curve_gamma2(40.0)
    ts = np.linspace(0, 40, 201)
    assert np.allclose(expr(ts), closed(ts), atol=1e-12)
    assert np.allclose(expr.deriv(ts), closed.deriv(ts), atol=1e-6)
    assert np.isclose(expr.nu, closed.nu, rtol=1e-4)


def test_expression_curve_shapes():
    curve = curve_from_expression("t, -t")
    assert curve.dim == 2
    assert curve(1.5).shape == (2,)
    assert curve(np.zeros(3)).shape == (3, 2)
    assert np.allclose(curve.deriv(np.linspace(1, 2, 5)), [1.0, -1.0], atol=1e-8)


@pytest.mark.parametrize("src", [
    "__import__('os')",
    "t.__class__",
    "lambda: 1",
    "[1, 2]",
    "x + 1",
    "sin(t, 2)",
    "pow(t)",
    "sin(t, key=1)",
    "getattr(t, 'real')",
    "t @ t",
    "1 if t else 2",
    "'abc'",
    "~t",
    "not t",
    "np.sin(t)",
])
def test_whitelist_rejects(src):
    with pytest.raises(UsageError):
        curve_from_expression(src)


def test_unparseable_component():
    with pytest.raises(UsageError):
        curve_from_expression("cos(")


def test_empty_component_rejected():
    with pytest.raises(UsageError):
        curve_from_expression("cos(t);; sin(t)")


@pytest.mark.parametrize("src", [
    "sqrt(t-5), 0, 0",   # nan before t=5
    "pow(10, t*40)",     # overflows to inf inside the horizon
    "1/t",               # infinite at t=0, with a finite difference quotient there
    "sqrt(t)",           # finite values, but the speed at t=0 is nan
])
def test_singular_expression_rejected_when_built(src):
    with pytest.raises(UsageError, match="finite"):
        curve_from_expression(src, horizon=10.0)


@pytest.mark.parametrize("block", [4096, 997])
def test_non_finite_last_grid_point_rejected(monkeypatch, block):
    """1/(t-6) on [0, 6] is finite at every grid point but the last, and
    its finite-difference speed is finite there too: the value check of
    the last block alone rejects it."""
    monkeypatch.setattr(curves, "_GRID_BLOCK_POINTS", block)
    with np.errstate(divide="ignore"):
        values = 1.0 / (np.linspace(0.0, 6.0, 100_000) - 6.0)
    assert np.flatnonzero(~np.isfinite(values)).tolist() == [99_999]
    with pytest.raises(UsageError, match="finite"):
        curve_from_expression("1/(t-6)", horizon=6.0)
