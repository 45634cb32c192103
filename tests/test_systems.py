"""Brackets and gain matrices.

Analytic bracket values are checked against a central finite-difference
oracle evaluated independently of the library's own Jacobian plumbing.
"""

from dataclasses import replace

import numpy as np
import pytest

from osctrack import (
    BracketScheme,
    ControlSystem,
    DimensionMismatchError,
    DomainError,
    NestedBracketTerm,
    RankConditionError,
    UsageError,
    VectorField,
    bracket_field,
    build_gain_matrix,
    finite_difference_jacobian,
    lie_bracket,
)
from osctrack.systems import gain_matrices


def fd_jacobian(f, x, h=1e-5):
    """Oracle: the Jacobian of f at one state from raw central differences."""
    x = np.asarray(x, dtype=float)
    n = x.size
    jac = np.empty((n, n))
    for k in range(n):
        e = np.zeros(n)
        e[k] = h
        jac[:, k] = (f(x + e) - f(x - e)) / (2 * h)
    return jac


def fd_bracket(f, g, x, h=1e-5):
    """Oracle: [f, g] from raw central differences, no library Jacobians."""
    x = np.asarray(x, dtype=float)
    return fd_jacobian(g, x, h) @ f(x) - fd_jacobian(f, x, h) @ g(x)


def constant(*values):
    """Batch-form eval of a constant field: states (..., n) to (..., n)."""
    return lambda x: np.broadcast_to(np.array(values), x.shape)


def zero_jacobian(x):
    return np.zeros(x.shape + x.shape[-1:])


def components(*values):
    """Stack scalar or (...)-shaped components along a new last axis."""
    return np.stack(np.broadcast_arrays(*values), axis=-1)


def unicycle_fields():
    def f1_jac(x):
        jac = np.zeros(x.shape + (3,))
        jac[..., 0, 2] = -np.sin(x[..., 2])
        jac[..., 1, 2] = np.cos(x[..., 2])
        return jac

    f1 = VectorField(
        3,
        lambda x: components(np.cos(x[..., 2]), np.sin(x[..., 2]), 0.0),
        jacobian=f1_jac,
        name="drive",
    )
    f2 = VectorField(3, constant(0.0, 0.0, 1.0), jacobian=zero_jacobian, name="steer")
    return f1, f2


def car_fields():
    def f1_eval(x):
        th = x[..., 3]
        return components(np.cos(th), np.sin(th), 0.0, np.tan(x[..., 2]))

    def f1_jac(x):
        jac = np.zeros(x.shape + (4,))
        jac[..., 0, 3] = -np.sin(x[..., 3])
        jac[..., 1, 3] = np.cos(x[..., 3])
        jac[..., 3, 2] = 1.0 / np.cos(x[..., 2]) ** 2
        return jac

    f1 = VectorField(4, f1_eval, jacobian=f1_jac, name="drive")
    f2 = VectorField(4, constant(0.0, 0.0, 1.0, 0.0), jacobian=zero_jacobian,
                     name="steer")
    return f1, f2


def car_domain(x):
    return np.abs(x[..., 2]) < np.pi / 2


def test_fd_jacobian_matches_analytic():
    def func(x):
        return np.array([x[0] * x[1], np.sin(x[1]) + x[0] ** 2])

    x = np.array([0.7, -1.3])
    expected = np.array([[x[1], x[0]], [2 * x[0], np.cos(x[1])]])
    assert np.allclose(finite_difference_jacobian(func, x), expected, atol=1e-8)


def test_unicycle_bracket_analytic():
    """[drive, steer] = (sin theta, -cos theta, 0)."""
    f1, f2 = unicycle_fields()
    rng = np.random.default_rng(1)
    for x in rng.normal(size=(20, 3)):
        expected = np.array([np.sin(x[2]), -np.cos(x[2]), 0.0])
        assert np.allclose(lie_bracket(f1, f2, x), expected, atol=1e-12)
        assert np.allclose(fd_bracket(f1.eval, f2.eval, x), expected, atol=1e-6)


def test_bracket_with_fd_jacobian_fallback():
    f1_fd = VectorField(
        3, lambda x: components(np.cos(x[..., 2]), np.sin(x[..., 2]), 0.0))
    f2_fd = VectorField(3, constant(0.0, 0.0, 1.0))
    x = np.array([0.3, -0.8, 1.1])
    expected = np.array([np.sin(x[2]), -np.cos(x[2]), 0.0])
    assert np.allclose(lie_bracket(f1_fd, f2_fd, x), expected, atol=1e-6)


def test_car_brackets_against_fd_oracle():
    f1, f2 = car_fields()
    rng = np.random.default_rng(2)
    for _ in range(20):
        x = rng.normal(size=4)
        x[2] = rng.uniform(-1.2, 1.2)
        sec2 = 1.0 / np.cos(x[2]) ** 2
        b12 = np.array([0.0, 0.0, 0.0, -sec2])
        assert np.allclose(lie_bracket(f1, f2, x), b12, atol=1e-12)
        assert np.allclose(fd_bracket(f1.eval, f2.eval, x), b12, atol=1e-6)

        nested = lie_bracket(bracket_field(f1, f2), f1, x)
        expected = np.array([np.sin(x[3]) * sec2, -np.cos(x[3]) * sec2, 0.0, 0.0])
        assert np.allclose(nested, expected, atol=1e-6)


def test_jacobi_identity_polynomial_fields():
    """Cyclic bracket sum vanishes; quadratic fields keep FD error tiny."""
    f = VectorField(3, lambda x: components(x[..., 1] ** 2, x[..., 0], 1.0))
    g = VectorField(3, lambda x: components(x[..., 2], x[..., 0] * x[..., 1],
                                            -x[..., 0]))
    h = VectorField(3, lambda x: components(1.0, x[..., 2] ** 2, x[..., 1]))
    rng = np.random.default_rng(3)
    for x in rng.uniform(-1, 1, size=(10, 3)):
        total = (lie_bracket(f, bracket_field(g, h), x)
                 + lie_bracket(g, bracket_field(h, f), x)
                 + lie_bracket(h, bracket_field(f, g), x))
        assert np.allclose(total, 0.0, atol=1e-7)


def test_unicycle_gain_matrix_is_orthogonal():
    f1, f2 = unicycle_fields()
    sys = ControlSystem(3, 2, (f1, f2), name="unicycle")
    scheme = BracketScheme(m=2, s1=(1, 2), s2=((1, 2),), kappa=(1,))
    rng = np.random.default_rng(4)
    for x in rng.normal(size=(10, 3)):
        gain = build_gain_matrix(sys, scheme, x)
        assert np.allclose(gain @ gain.T, np.eye(3), atol=1e-12)


def test_car_gain_matrix_determinant():
    """det F = sec^4(steering angle); sympy confirms the closed form."""
    sympy = pytest.importorskip("sympy")
    x1, x2, x3, x4 = sympy.symbols("x1 x2 x3 x4")
    f1 = sympy.Matrix([sympy.cos(x4), sympy.sin(x4), 0, sympy.tan(x3)])
    f2 = sympy.Matrix([0, 0, 1, 0])
    xs = sympy.Matrix([x1, x2, x3, x4])

    def br(a, b):
        return b.jacobian(xs) * a - a.jacobian(xs) * b

    gain_sym = sympy.Matrix.hstack(f1, f2, br(f1, f2), br(br(f1, f2), f1))
    det = sympy.simplify(gain_sym.det())
    assert sympy.simplify(det - 1 / sympy.cos(x3) ** 4) == 0

    f1n, f2n = car_fields()
    sys = ControlSystem(4, 2, (f1n, f2n),
                        domain=car_domain, name="car")
    scheme = BracketScheme(m=2, s1=(1, 2), s2=((1, 2),), kappa=(3,),
                           degree2=(NestedBracketTerm((1, 2, 1), 1, 2),))
    gain = build_gain_matrix(sys, scheme, np.array([8.0, 0.0, 0.0, 0.0]))
    expected = np.array([
        [1.0, 0.0, 0.0, 0.0],
        [0.0, 0.0, 0.0, -1.0],
        [0.0, 1.0, 0.0, 0.0],
        [0.0, 0.0, -1.0, 0.0],
    ])
    assert np.allclose(gain, expected, atol=1e-10)
    assert np.isclose(np.linalg.det(gain), 1.0, atol=1e-10)


def test_gain_matrix_rejects_out_of_domain_state():
    f1, f2 = car_fields()
    sys = ControlSystem(4, 2, (f1, f2),
                        domain=car_domain, name="car")
    scheme = BracketScheme(m=2, s1=(1, 2), s2=((1, 2),), kappa=(3,),
                           degree2=(NestedBracketTerm((1, 2, 1), 1, 2),))
    with pytest.raises(DomainError):
        build_gain_matrix(sys, scheme, np.array([0.0, 0.0, 2.0, 0.0]))


def test_singular_gain_matrix_raises():
    f1 = VectorField(2, constant(1.0, 0.0))
    f2 = VectorField(2, lambda x: components(x[..., 0], 0.0))
    sys = ControlSystem(2, 2, (f1, f2))
    scheme = BracketScheme(m=2, s1=(1, 2))
    with pytest.raises(RankConditionError) as exc:
        build_gain_matrix(sys, scheme, np.array([0.5, 0.0]))
    assert exc.value.singular.shape == ()
    assert exc.value.singular


def test_rank_error_marks_the_singular_states():
    """``RankConditionError.singular`` has the states' batch shape and marks
    exactly the states whose matrix ``gain_matrices`` finds singular: here
    f2 = (0, x1) vanishes at x1 = 0, and one state of four sits there."""
    f1 = VectorField(2, constant(1.0, 0.0))
    f2 = VectorField(2, lambda x: components(0.0, x[..., 0]))
    sys = ControlSystem(2, 2, (f1, f2))
    scheme = BracketScheme(m=2, s1=(1, 2))
    xs = np.array([[[0.5, 0.0], [0.0, 1.0]], [[1.0, 2.0], [-0.3, 0.4]]])
    expected = gain_matrices(sys, scheme, xs).singular
    assert np.array_equal(expected, [[False, True], [False, False]])
    with pytest.raises(RankConditionError, match=r"at state \[0\. 1\.\]") as exc:
        build_gain_matrix(sys, scheme, xs)
    assert np.array_equal(exc.value.singular, expected)


def test_vector_field_shape_checks():
    f1, _ = unicycle_fields()
    with pytest.raises(DimensionMismatchError):
        f1(np.zeros(4))
    with pytest.raises(UsageError):
        VectorField(0, lambda x: x)


def test_constant_field_from_its_value():
    """A field built from its value returns it at every state, with a zero
    Jacobian; dataclasses.replace keeps it constant, as a wrapped field
    needs; a bad value or no eval at all is refused."""
    f = VectorField(3, value=[0.0, 0.0, 1.0], name="turn")
    xs = np.arange(12.0).reshape(4, 3)
    assert np.array_equal(f(xs), np.tile([0.0, 0.0, 1.0], (4, 1)))
    assert np.array_equal(f.jacobian(xs), np.zeros((4, 3, 3)))
    assert not f.value.flags.writeable
    wrapped = replace(f, eval=lambda x: f.eval(x), jacobian=lambda x: f.jacobian(x))
    assert np.array_equal(wrapped.value, f.value)
    assert wrapped.eval is not f.eval
    assert VectorField(3, constant(0.0, 0.0, 1.0)).value is None
    for bad in ([0.0, 1.0], [0.0, np.nan, 1.0], [[0.0, 0.0, 1.0]]):
        with pytest.raises(UsageError, match="constant field turn"):
            VectorField(3, value=bad, name="turn")
    with pytest.raises(UsageError, match="eval"):
        VectorField(3)


def test_control_system_validation():
    f1, f2 = unicycle_fields()
    with pytest.raises(UsageError):
        ControlSystem(3, 3, (f1, f2))
    with pytest.raises(DimensionMismatchError):
        ControlSystem(2, 2, (f1, f2))
    sys = ControlSystem(3, 2, (f1, f2))
    assert sys.field(1) is f1
    with pytest.raises(UsageError):
        sys.field(0)
    with pytest.raises(UsageError):
        sys.field(3)


@pytest.mark.parametrize("triple, k1, k2", [
    ((1, 2, 2), 1, 2),
    ((1, 1, 1), 1, 2),
    ((1, 2, 1), 2, 2),
    ((1, 2, 1), 0, 1),
])
def test_nested_bracket_term_validation(triple, k1, k2):
    with pytest.raises(UsageError):
        NestedBracketTerm(triple, k1, k2)


def test_scheme_validation():
    with pytest.raises(UsageError):
        BracketScheme(m=2, s1=(1, 2), s2=((1, 2),), kappa=())
    with pytest.raises(UsageError):
        BracketScheme(m=2, s1=(1, 2), s2=((1, 2), (2, 1)), kappa=(1, 1))
    with pytest.raises(UsageError):
        BracketScheme(m=2, s1=(1, 1))
    with pytest.raises(UsageError):
        BracketScheme(m=2, s1=(1, 3))
    with pytest.raises(UsageError):
        BracketScheme(m=2, s1=(1,), s2=((2, 2),), kappa=(1,))


def test_scheme_properties():
    scheme = BracketScheme(m=4, s1=(1, 2, 3, 4), s2=((1, 3), (1, 4)), kappa=(1, 2))
    assert scheme.n_columns == 6
    assert scheme.max_frequency == 2

    car = BracketScheme(m=2, s1=(1, 2), s2=((1, 2),), kappa=(3,),
                        degree2=(NestedBracketTerm((1, 2, 1), 1, 2),))
    assert car.n_columns == 4
    assert car.max_frequency == 3

    plain = BracketScheme(m=2, s1=(1, 2))
    assert plain.max_frequency == 1


def test_scheme_size_must_match_state_dimension():
    f1, f2 = unicycle_fields()
    sys = ControlSystem(3, 2, (f1, f2))
    scheme = BracketScheme(m=2, s1=(1, 2))
    with pytest.raises(UsageError):
        build_gain_matrix(sys, scheme, np.zeros(3))
