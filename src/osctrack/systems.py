"""Vector fields, Lie brackets, and bracket-extended gain matrices.

A driftless control-affine system is a list of smooth vector fields
f_1, ..., f_m on an open subset of R^n; trajectories follow
dx/dt = sum_i u_i(t) f_i(x).  The feedback scheme needs, besides the
fields themselves, selected first-order brackets [f_i, f_j] and nested
brackets [[f_i, f_j], f_i], assembled column-wise into a square gain
matrix whose invertibility along the reference is the standing
assumption.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np

from .errors import (
    DimensionMismatchError,
    DomainError,
    RankConditionError,
    UsageError,
)

# Hard singularity threshold: smallest singular value below this multiple
# of the largest column norm means the gain matrix is treated as singular.
SINGULARITY_RTOL = 1e-12


def finite_difference_jacobian(func: Callable[[np.ndarray], np.ndarray],
                               x: np.ndarray,
                               step: float | np.ndarray | None = None) -> np.ndarray:
    """Central-difference Jacobian of ``func`` at states ``x`` of shape (..., n).

    ``func`` maps (..., n) to (..., p) and the result has shape
    (..., p, n).  The default step scales with the magnitude of each
    state so that the approximation stays balanced between truncation
    and round-off.  ``func`` is called twice per column, on states of the
    shape of ``x``, so a function of one state (n,) may be given one state.
    """
    x = np.asarray(x, dtype=float)
    if step is None:
        step = 1e-6 * np.maximum(1.0, np.linalg.norm(x, axis=-1))
    h = np.broadcast_to(step, x.shape[:-1])[..., None]
    cols = []
    for e in np.eye(x.shape[-1]):
        cols.append((np.asarray(func(x + h * e), dtype=float)
                     - np.asarray(func(x - h * e), dtype=float)) / (2.0 * h))
    return np.stack(cols, axis=-1)


def _two_call_jacobian(func: Callable[[np.ndarray], np.ndarray], x: np.ndarray,
                       step: float) -> np.ndarray:
    """``finite_difference_jacobian(func, x, step)``, to the last bit, for a
    ``func`` that takes states of any batch shape: the 2n shifted states go
    to it in two calls, as states (..., n, n) whose row k is x +- h e_k."""
    x = np.asarray(x, dtype=float)
    h = np.broadcast_to(step, x.shape[:-1])[..., None, None]
    shift = h * np.eye(x.shape[-1])
    x = x[..., None, :]
    diff = (np.asarray(func(x + shift), dtype=float)
            - np.asarray(func(x - shift), dtype=float)) / (2.0 * h)
    return np.swapaxes(diff, -1, -2)


@dataclass(frozen=True)
class VectorField:
    """A smooth vector field on R^n with an (optionally analytic) Jacobian.

    Both callables take a batch of states of shape (..., n), a single
    state being the batch shape (n,).

    Parameters
    ----------
    dim : int
        Dimension n of the state space.
    eval : callable, optional
        Maps states (..., n) to the field values (..., n).  It may be
        omitted for a constant field, whose ``eval`` then returns
        ``value`` at every state.
    jacobian : callable, optional
        Maps states (..., n) to the Jacobian matrices (..., n, n).  When
        omitted a central finite-difference fallback is installed, which
        passes the 2n shifted states to ``eval`` in two calls, or zeros
        for a constant field.
    name : str
        Label used in error messages.
    value : array_like, optional
        The field's value (n,) when it does not depend on the state.  An
        ``eval`` given with it must return it at every state, and a
        ``jacobian`` zeros.  The integrator forms u_i * value once per
        sampling interval instead of evaluating the field in every
        Runge-Kutta stage, and ``estimate_sup_bounds`` takes the field's
        Jacobian as zero without calling it.
    """

    dim: int
    eval: Callable[[np.ndarray], np.ndarray] | None = None
    jacobian: Callable[[np.ndarray], np.ndarray] | None = None
    name: str = ""
    value: np.ndarray | None = field(default=None, compare=False)

    def __post_init__(self):
        if self.dim <= 0:
            raise UsageError(f"vector field dimension must be positive, got {self.dim}")
        if self.value is not None:
            value = np.array(self.value, dtype=float)
            if value.shape != (self.dim,) or not np.isfinite(value).all():
                raise UsageError(
                    f"constant field {self.name or '?'} needs {self.dim} finite "
                    f"values, got {self.value!r}")
            value.flags.writeable = False
            object.__setattr__(self, "value", value)
            if self.eval is None:
                object.__setattr__(
                    self, "eval", lambda x: np.broadcast_to(value, x.shape).copy())
            if self.jacobian is None:
                object.__setattr__(
                    self, "jacobian", lambda x: np.zeros(x.shape + (self.dim,)))
        if self.eval is None:
            raise UsageError(
                f"field {self.name or '?'} needs an eval callable or a constant value")
        if self.jacobian is None:
            func = self.eval
            object.__setattr__(
                self, "jacobian",
                lambda x, _f=func: _two_call_jacobian(_f, x, 1e-5),
            )

    def __call__(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if x.shape[-1:] != (self.dim,):
            raise DimensionMismatchError(
                f"field {self.name or '?'} expects shape (..., {self.dim}), "
                f"got {x.shape}")
        return np.asarray(self.eval(x), dtype=float)


def lie_bracket(f: VectorField, g: VectorField, x: np.ndarray) -> np.ndarray:
    """Value of [f, g](x) = Dg(x) f(x) - Df(x) g(x) at states x of shape (..., n)."""
    if f.dim != g.dim:
        raise DimensionMismatchError(
            f"bracket of fields with dims {f.dim} and {g.dim}")
    x = np.asarray(x, dtype=float)
    return (g.jacobian(x) @ f(x)[..., None] - f.jacobian(x) @ g(x)[..., None])[..., 0]


def bracket_field(f: VectorField, g: VectorField) -> VectorField:
    """The bracket [f, g] packaged as a vector field of its own.

    Its Jacobian is finite-differenced; that is enough for the nested
    brackets the scheme uses, whose analytic Jacobians are rarely worth
    writing out.
    """
    if f.dim != g.dim:
        raise DimensionMismatchError(
            f"bracket of fields with dims {f.dim} and {g.dim}")
    return VectorField(
        dim=f.dim,
        eval=lambda x: lie_bracket(f, g, x),
        name=f"[{f.name},{g.name}]",
    )


@dataclass(frozen=True)
class ControlSystem:
    """Driftless control-affine system dx/dt = sum u_i f_i(x).

    ``domain`` maps states (..., n) to booleans broadcastable to (...),
    True where the state lies in the open set where the fields are
    defined; integration aborts when it turns False.  The default domain
    is the whole space.
    """

    n: int
    m: int
    fields: tuple[VectorField, ...]
    domain: Callable[[np.ndarray], np.ndarray | bool] = field(default=lambda x: True)
    name: str = ""

    def __post_init__(self):
        if self.m != len(self.fields):
            raise UsageError(
                f"system declares m={self.m} but has {len(self.fields)} fields")
        if self.m <= 0 or self.n <= 0:
            raise UsageError("system dimensions must be positive")
        for f in self.fields:
            if f.dim != self.n:
                raise DimensionMismatchError(
                    f"field {f.name or '?'} has dim {f.dim}, system has n={self.n}")

    def field(self, i: int) -> VectorField:
        """1-based accessor matching the usual f_1, ..., f_m numbering."""
        if not 1 <= i <= self.m:
            raise UsageError(f"field index {i} outside 1..{self.m}")
        return self.fields[i - 1]

    def in_domain(self, x: np.ndarray) -> np.ndarray | bool:
        """Domain membership of states (..., n), broadcastable to (...)."""
        return self.domain(np.asarray(x, dtype=float))


@dataclass(frozen=True)
class NestedBracketTerm:
    """A second-degree term [[f_j1, f_j2], f_j1] with its frequency pair.

    Only triples whose outer factor repeats the first inner index are
    supported by the synthesis; the two oscillation frequencies must be
    distinct positive integers.
    """

    triple: tuple[int, int, int]
    k1: int
    k2: int

    def __post_init__(self):
        if len(self.triple) != 3:
            raise UsageError(f"nested bracket triple must have 3 indices, got {self.triple}")
        j1, j2, j3 = self.triple
        if j3 != j1:
            raise UsageError(
                f"nested bracket {self.triple} is not of the form (j1, j2, j1); "
                "other triples are outside the supported synthesis")
        if j1 == j2:
            raise UsageError(f"nested bracket {self.triple} repeats its inner index")
        if not (isinstance(self.k1, int) and isinstance(self.k2, int)):
            raise UsageError("nested bracket frequencies must be integers")
        if self.k1 < 1 or self.k2 < 1 or self.k1 == self.k2:
            raise UsageError(
                f"nested bracket frequencies must be distinct positive integers, "
                f"got ({self.k1}, {self.k2})")


@dataclass(frozen=True)
class BracketScheme:
    """Which fields and brackets span the directions the feedback uses.

    ``s1`` lists direct field indices (1-based), ``s2`` lists ordered
    pairs (i, j) contributing the brackets [f_i, f_j], and ``kappa``
    gives one positive integer frequency per pair (pairwise distinct so
    the oscillations average independently).  ``degree2`` holds any
    nested-bracket terms.  The total column count must match the state
    dimension for the gain matrix to be square.
    """

    m: int
    s1: tuple[int, ...]
    s2: tuple[tuple[int, int], ...] = ()
    kappa: tuple[int, ...] = ()
    degree2: tuple[NestedBracketTerm, ...] = ()

    def __post_init__(self):
        if self.m <= 0:
            raise UsageError("scheme needs a positive number of controls")
        for i in self.s1:
            if not 1 <= i <= self.m:
                raise UsageError(f"direct index {i} outside 1..{self.m}")
        if len(set(self.s1)) != len(self.s1):
            raise UsageError("duplicate direct indices")
        for (i, j) in self.s2:
            if not (1 <= i <= self.m and 1 <= j <= self.m):
                raise UsageError(f"bracket pair ({i}, {j}) outside 1..{self.m}")
            if i == j:
                raise UsageError(f"bracket pair ({i}, {j}) is trivially zero")
        if len(set(self.s2)) != len(self.s2):
            raise UsageError("duplicate bracket pairs")
        if len(self.kappa) != len(self.s2):
            raise UsageError(
                f"{len(self.s2)} bracket pairs need {len(self.s2)} frequencies, "
                f"got {len(self.kappa)}")
        for k in self.kappa:
            if not isinstance(k, int) or k < 1:
                raise UsageError(f"bracket frequency {k} must be a positive integer")
        if len(set(self.kappa)) != len(self.kappa):
            raise UsageError("bracket frequencies must be pairwise distinct")
        for term in self.degree2:
            for idx in term.triple:
                if not 1 <= idx <= self.m:
                    raise UsageError(f"nested index {idx} outside 1..{self.m}")

    @property
    def n_columns(self) -> int:
        return len(self.s1) + len(self.s2) + len(self.degree2)

    @property
    def max_frequency(self) -> int:
        freqs = list(self.kappa)
        for term in self.degree2:
            freqs.extend((term.k1, term.k2, term.k1 + term.k2))
        return max(freqs, default=1)


class GainMatrices(NamedTuple):
    """Gain matrices at a batch of states and their singular values."""

    matrices: np.ndarray
    singular_values: np.ndarray

    @property
    def singular(self) -> np.ndarray:
        """True where the smallest singular value falls below
        SINGULARITY_RTOL times the largest column norm; shape (...)."""
        col_norm = np.max(np.linalg.norm(self.matrices, axis=-2), axis=-1)
        floor = SINGULARITY_RTOL * np.maximum(col_norm, 1e-300)
        return self.singular_values[..., -1] < floor


def gain_matrices(sys: ControlSystem, scheme: BracketScheme,
                  xs: np.ndarray) -> GainMatrices:
    """Columns [f_i | [f_i, f_j] | [[f_j1, f_j2], f_j1]] at states xs (..., n).

    Returns the matrices (..., n, n) with their singular values (..., n),
    largest first, from one batched SVD.  Raises DomainError naming the
    first state that is not finite or lies outside the system domain.
    """
    if scheme.m != sys.m:
        raise UsageError(f"scheme is for m={scheme.m}, system has m={sys.m}")
    if scheme.n_columns != sys.n:
        raise UsageError(
            f"scheme spans {scheme.n_columns} directions, state space has n={sys.n}")
    xs = np.asarray(xs, dtype=float)
    if xs.shape[-1:] != (sys.n,):
        raise DimensionMismatchError(
            f"states must have shape (..., {sys.n}), got {xs.shape}")
    outside = ~(np.isfinite(xs).all(-1) & sys.in_domain(xs)).reshape(-1)
    if outside.any():
        x = xs.reshape(-1, sys.n)[np.argmax(outside)]
        raise DomainError(f"state {x} outside the system domain")

    cols = []
    for i in scheme.s1:
        cols.append(sys.field(i)(xs))
    for (i, j) in scheme.s2:
        cols.append(lie_bracket(sys.field(i), sys.field(j), xs))
    for term in scheme.degree2:
        j1, j2, _ = term.triple
        inner = bracket_field(sys.field(j1), sys.field(j2))
        cols.append(lie_bracket(inner, sys.field(j1), xs))
    gain = np.stack(cols, axis=-1)
    return GainMatrices(gain, np.linalg.svd(gain, compute_uv=False))


def build_gain_matrix(sys: ControlSystem, scheme: BracketScheme,
                      x: np.ndarray) -> np.ndarray:
    """The gain matrices of ``gain_matrices`` at states x (..., n).

    Raises DomainError if a state has left the system domain and
    RankConditionError naming the first state whose matrix is singular
    to working precision, with ``singular`` marking every such state.
    """
    x = np.asarray(x, dtype=float)
    gains = gain_matrices(sys, scheme, x)
    singular = gains.singular
    if singular.any():
        first = np.argmax(singular)  # of the flattened batch
        state = x.reshape(-1, sys.n)[first]
        smallest = gains.singular_values.reshape(-1, sys.n)[first, -1]
        raise RankConditionError(
            f"gain matrix singular at state {state} "
            f"(smallest singular value {smallest:.3e})", singular=singular)
    return gains.matrices
