"""Tiny expression grammar for user-defined coefficient functions.

Accepted syntax: the binary operators ``+ - * / ^`` (``^`` means power,
``**`` also works), unary minus, the functions ``exp`` and ``log``, numeric
literals, and the variables ``r`` and ``s``.  Compiled callables broadcast
over numpy arrays.  Anything outside this grammar is rejected, so config
files cannot execute arbitrary code.  Literals compile as floats (an integer
exponent stays exact), so ``9^9^9`` overflows instead of growing without bound.

Each compiled callable carries ``expression`` (the source text) and
``r_degree``: the degree in ``r`` of a polynomial in ``r`` with ``s`` held
fixed, read from the AST, or ``None`` when the expression is not one.  A
constant or ``s`` has degree 0 and ``r`` degree 1; ``+`` and ``-`` take the
max, ``*`` the sum; ``/`` keeps the numerator's degree over a denominator
of degree 0; ``^`` by a nonnegative integer literal multiplies the degree;
``exp``, ``log`` and ``^`` of degree-0 operands have degree 0.  The
degree is an upper bound, so ``(r + 1) - r`` reads 1.
"""

from __future__ import annotations

import ast
from typing import Callable

import numpy as np

from .errors import InputError

_ALLOWED_BINOPS = (ast.Add, ast.Sub, ast.Mult, ast.Div, ast.Pow)
_ALLOWED_FUNCS = {"exp": np.exp, "log": np.log}
_ALLOWED_NAMES = {"r", "s"}


def _validate(node: ast.AST, text: str) -> None:
    if isinstance(node, ast.Expression):
        _validate(node.body, text)
    elif isinstance(node, ast.BinOp):
        if not isinstance(node.op, _ALLOWED_BINOPS):
            raise InputError(f"operator not allowed in {text!r}")
        _validate(node.left, text)
        # an int exponent stays exact: numpy computes x ** 2 twice as fast as x ** 2.0
        if not (isinstance(node.op, ast.Pow) and isinstance(node.right, ast.Constant)
                and type(node.right.value) is int):
            _validate(node.right, text)
    elif isinstance(node, ast.UnaryOp):
        if not isinstance(node.op, (ast.USub, ast.UAdd)):
            raise InputError(f"unary operator not allowed in {text!r}")
        _validate(node.operand, text)
    elif isinstance(node, ast.Call):
        if not (isinstance(node.func, ast.Name) and node.func.id in _ALLOWED_FUNCS):
            raise InputError(f"only exp/log calls are allowed in {text!r}")
        if node.keywords or len(node.args) != 1:
            raise InputError(f"exp/log take exactly one argument in {text!r}")
        _validate(node.args[0], text)
    elif isinstance(node, ast.Name):
        if node.id not in _ALLOWED_NAMES:
            raise InputError(f"unknown variable {node.id!r} in {text!r} (use r, s)")
    elif isinstance(node, ast.Constant):
        if not isinstance(node.value, (int, float)):
            raise InputError(f"non-numeric constant in {text!r}")
        node.value = float(node.value)
    else:
        raise InputError(f"unsupported syntax in {text!r}")


def _r_degree(node: ast.AST) -> int | None:
    """Degree in r of a validated expression, or None if not a polynomial in r."""
    if isinstance(node, ast.Expression):
        return _r_degree(node.body)
    if isinstance(node, ast.Constant):
        return 0
    if isinstance(node, ast.Name):
        return 1 if node.id == "r" else 0
    if isinstance(node, ast.UnaryOp):
        return _r_degree(node.operand)
    if isinstance(node, ast.Call):
        return 0 if _r_degree(node.args[0]) == 0 else None
    left = _r_degree(node.left)
    if isinstance(node.op, ast.Pow):
        power = node.right
        if isinstance(power, ast.Constant) and type(power.value) is int and power.value >= 0:
            return None if left is None else left * power.value
        return 0 if left == 0 and _r_degree(power) == 0 else None
    right = _r_degree(node.right)
    if left is None or right is None:
        return None
    if isinstance(node.op, ast.Mult):
        return left + right
    if isinstance(node.op, ast.Div):
        return left if right == 0 else None
    return max(left, right)


def parse_expression(text: str) -> Callable[..., np.ndarray]:
    """Compile ``text`` into ``f(r, s)``; either variable may be unused."""
    source = text.replace("^", "**")
    try:
        tree = ast.parse(source, mode="eval")
    except SyntaxError as exc:
        raise InputError(f"cannot parse expression {text!r}: {exc.msg}") from None
    env = {"__builtins__": {}, **_ALLOWED_FUNCS}
    try:
        _validate(tree, text)
        code = compile(tree, "<coefficient>", "eval")
        # numpy arguments cannot raise, so this fails only on a literal too
        # large for a float or a constant sub-expression such as 9^9^9 or 1/0
        with np.errstate(all="ignore"):
            probe = eval(code, env, {"r": np.float64(0.5), "s": np.float64(0.5)})  # noqa: S307
    except ArithmeticError as exc:
        raise InputError(f"cannot evaluate expression {text!r}: {exc}") from None
    # a negative float base under a fractional exponent, as in (0-8)^(1/3)
    if np.iscomplexobj(probe):
        raise InputError(f"expression {text!r} has a complex value")

    def func(r, s):
        out = eval(code, env, {"r": r, "s": s})  # noqa: S307 - AST whitelisted above
        if np.ndim(out) == 0 and (np.ndim(r) > 0 or np.ndim(s) > 0):
            out = np.full(np.broadcast_shapes(np.shape(r), np.shape(s)), float(out))
        return out

    func.expression = text  # type: ignore[attr-defined]
    func.r_degree = _r_degree(tree)  # type: ignore[attr-defined]
    return func
