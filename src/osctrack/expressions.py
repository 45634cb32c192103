"""Small expression language for reference curves given on the command line.

Curves can be written as component expressions in the time variable t,
separated by ';' (or by top-level ','), e.g.

    "cos(t/2); sin(t/2); 0"

Parsing goes through the ast module with a strict whitelist, so only
arithmetic, the constants pi and e, and a few elementary functions can
appear.  Derivatives are taken by central differences.
"""

from __future__ import annotations

import ast
from typing import Callable

import numpy as np

from .curves import CURVE_REGISTRY, ReferenceCurve, _grid_blocks, _stacked
from .errors import UsageError

_FUNCTIONS = {
    "sin": np.sin,
    "cos": np.cos,
    "tan": np.tan,
    "exp": np.exp,
    "sqrt": np.sqrt,
    "pow": np.power,
}

_CONSTANTS = {"pi": np.pi, "e": np.e}

_BINOPS = {
    ast.Add: np.add,
    ast.Sub: np.subtract,
    ast.Mult: np.multiply,
    ast.Div: np.divide,
    ast.Pow: np.power,
}


def _compile_node(node: ast.AST) -> Callable[[np.ndarray], np.ndarray]:
    if isinstance(node, ast.Constant):
        if isinstance(node.value, bool) or not isinstance(node.value, (int, float)):
            raise UsageError(f"only numeric constants allowed, got {node.value!r}")
        value = float(node.value)
        return lambda t: np.broadcast_to(value, np.shape(t))
    if isinstance(node, ast.Name):
        if node.id == "t":
            return lambda t: t
        if node.id in _CONSTANTS:
            value = _CONSTANTS[node.id]
            return lambda t: np.broadcast_to(value, np.shape(t))
        known = ", ".join(sorted(CURVE_REGISTRY))
        raise UsageError(f"unknown name {node.id!r} in curve expression; a curve "
                         f"is a registry name ({known}) or an expression in t")
    if isinstance(node, ast.UnaryOp):
        operand = _compile_node(node.operand)
        if isinstance(node.op, ast.USub):
            return lambda t: -operand(t)
        if isinstance(node.op, ast.UAdd):
            return operand
        raise UsageError(f"unary operator {type(node.op).__name__} not allowed")
    if isinstance(node, ast.BinOp):
        op = _BINOPS.get(type(node.op))
        if op is None:
            raise UsageError(f"operator {type(node.op).__name__} not allowed")
        left = _compile_node(node.left)
        right = _compile_node(node.right)
        return lambda t: op(left(t), right(t))
    if isinstance(node, ast.Call):
        if not isinstance(node.func, ast.Name):
            raise UsageError("only plain function names can be called")
        func = _FUNCTIONS.get(node.func.id)
        if func is None:
            allowed = ", ".join(sorted(_FUNCTIONS))
            raise UsageError(f"function {node.func.id!r} not allowed; "
                             f"available: {allowed}")
        if node.keywords:
            raise UsageError("keyword arguments not allowed in curve expressions")
        arity = 2 if node.func.id == "pow" else 1
        if len(node.args) != arity:
            raise UsageError(f"{node.func.id} takes {arity} argument(s), "
                             f"got {len(node.args)}")
        args = [_compile_node(a) for a in node.args]
        return lambda t: func(*(a(t) for a in args))
    raise UsageError(f"syntax element {type(node).__name__} not allowed "
                     "in curve expressions")


def curve_from_expression(src: str, horizon: float = 40.0) -> ReferenceCurve:
    """Build a ReferenceCurve from a component expression string.

    Values and speed must be finite on the velocity-bound grid over
    [0, horizon], so a singular expression fails here, not mid-run.  Both
    are checked one grid block at a time, so the check holds only one
    block of curve values.
    """
    nodes = []
    for piece in src.split(";"):
        # With a comma appended, a piece parses as the tuple of its
        # components, and a trailing comma or an empty piece does not; a
        # parenthesized tuple stays one component, which _compile_node
        # refuses.  A '#' would comment out the rest of the piece, that
        # comma included.  Collapsed whitespace lets a component start a line.
        text = " ".join(piece.split())
        if "#" in text:
            raise UsageError(f"comments not allowed in curve expressions: {src!r}")
        try:
            body = ast.parse(text + ",", mode="eval").body
        except SyntaxError as exc:
            raise UsageError(f"cannot parse curve component {text!r}: {exc}") from None
        nodes += body.elts
    funcs = [_compile_node(node) for node in nodes]
    ev = _stacked(lambda t: [f(t) for f in funcs])

    def dv(t):
        t_arr = np.asarray(t, dtype=float)
        h = 1e-6 * np.maximum(1.0, np.abs(t_arr))
        return (ev(t_arr + h) - ev(t_arr - h)) / (2.0 * h)[..., None]

    curve = ReferenceCurve(len(funcs), ev, dv, horizon, name=f"expr:{src}")
    with np.errstate(all="ignore"):
        finite = np.isfinite(curve.nu) and all(np.isfinite(ev(ts)).all()
                                               for ts in _grid_blocks(horizon))
    if not finite:
        raise UsageError(f"curve expression {src!r} or its speed is not finite "
                         f"somewhere on [0, {horizon:g}]")
    return curve
