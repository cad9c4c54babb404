"""Tiny arithmetic expression grammar for flux potentials and initial data.

Supported syntax: ``+ - * / ^`` (``**`` is accepted as a synonym for ``^``),
parentheses, unary minus, ``sin``/``cos``, decimal literals, the constant
``pi``, and a caller-supplied set of symbols (e.g. ``u, n1, n2, n3`` for a
flux potential, ``phi, theta, n1, n2, n3`` for initial data).  The grammar is
a subset of Python's expression syntax: Python's parser reads it, and a
whitelist walk turns the accepted nodes into a small tuple tree and refuses
every other node, so no formula text is ever executed.

Compiled expressions evaluate the tree with numpy broadcasting over array
inputs.  :func:`differentiate` gives the exact partial derivative of a parsed
expression as another expression tree, so a flux potential a(u, n) yields its
a_u without a finite-difference stencil.
"""

from __future__ import annotations

import ast
import math
import re
from typing import Callable, Iterable, Mapping

import numpy as np

from .errors import ConfigError

_FUNCTIONS = {"sin": np.sin, "cos": np.cos}
# evaluable calls: the parser's functions plus ``log``, which only
# :func:`differentiate` produces (for a power with a variable exponent)
_CALLS = {**_FUNCTIONS, "log": np.log}

# a character outside the grammar (a ``#`` that Python would read as a
# comment, a comma, a quote, non-ASCII text) is refused before parsing; the
# parsed text is then ASCII, so a node's column offset is its character index
_BAD_CHAR_RE = re.compile(r"[^A-Za-z0-9_.+\-*/^()\s]")
# decimal literals only: Python also reads 0x10, 1_000 and 1j as numbers
_LITERAL_RE = re.compile(r"\d+\.?\d*(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?")
_BINOPS = {ast.Add: "add", ast.Sub: "sub", ast.Mult: "mul", ast.Div: "div", ast.Pow: "pow"}
# deepest tree accepted (a sum of 200 terms is 200 levels deep), so that
# the recursive evaluator and :func:`differentiate` stay well inside the stack
_MAX_DEPTH = 200


def _evaluate(node, env: Mapping[str, np.ndarray]):
    tag = node[0]
    if tag == "const":
        return node[1]
    if tag == "sym":
        return env[node[1]]
    if tag == "neg":
        return -_evaluate(node[1], env)
    if tag == "call":
        return _CALLS[node[1]](_evaluate(node[2], env))
    a = _evaluate(node[1], env)
    b = _evaluate(node[2], env)
    if tag == "add":
        return a + b
    if tag == "sub":
        return a - b
    if tag == "mul":
        return a * b
    if tag == "div":
        return a / b
    if tag == "pow":
        return a ** b
    raise AssertionError(f"unknown node {tag}")


# ---------------------------------------------------------------------------
# exact derivatives
# ---------------------------------------------------------------------------

_ZERO = ("const", 0.0)
_ONE = ("const", 1.0)


def _is_const(node, value: float) -> bool:
    return node[0] == "const" and node[1] == value


def _depends(node, symbol: str) -> bool:
    tag = node[0]
    if tag == "const":
        return False
    if tag == "sym":
        return node[1] == symbol
    if tag == "neg":
        return _depends(node[1], symbol)
    if tag == "call":
        return _depends(node[2], symbol)
    return _depends(node[1], symbol) or _depends(node[2], symbol)


# node constructors that fold the zeros, ones and constants a derivative
# produces, so the derivative tree stays about the size of the original

def _neg(a):
    return ("const", -a[1]) if a[0] == "const" else ("neg", a)


def _add(a, b):
    if _is_const(a, 0.0):
        return b
    if _is_const(b, 0.0):
        return a
    if a[0] == b[0] == "const":
        return ("const", a[1] + b[1])
    return ("add", a, b)


def _sub(a, b):
    if _is_const(b, 0.0):
        return a
    if _is_const(a, 0.0):
        return _neg(b)
    if a[0] == b[0] == "const":
        return ("const", a[1] - b[1])
    return ("sub", a, b)


def _mul(a, b):
    if _is_const(a, 0.0) or _is_const(b, 0.0):
        return _ZERO
    if _is_const(a, 1.0):
        return b
    if _is_const(b, 1.0):
        return a
    if a[0] == b[0] == "const":
        return ("const", a[1] * b[1])
    return ("mul", a, b)


def _div(a, b):
    if _is_const(a, 0.0):
        return _ZERO
    if _is_const(b, 1.0):
        return a
    return ("div", a, b)


def _pow(a, b):
    if _is_const(b, 0.0):
        return _ONE
    if _is_const(b, 1.0):
        return a
    return ("pow", a, b)


def differentiate(node, symbol: str):
    """Exact partial derivative of a parsed expression with respect to
    ``symbol``, as an expression tree.

    A power a^b follows the power rule b a^(b-1) a' when b does not depend
    on ``symbol``, and a^b (b' log a + b a'/a) otherwise."""
    if not _depends(node, symbol):
        return _ZERO
    tag = node[0]
    if tag == "sym":
        return _ONE
    if tag == "neg":
        return _neg(differentiate(node[1], symbol))
    if tag == "call":
        name, arg = node[1], node[2]
        if name == "sin":
            outer = ("call", "cos", arg)
        elif name == "cos":
            outer = _neg(("call", "sin", arg))
        else:   # log
            outer = _div(_ONE, arg)
        return _mul(outer, differentiate(arg, symbol))
    a, b = node[1], node[2]
    da, db = differentiate(a, symbol), differentiate(b, symbol)
    if tag == "add":
        return _add(da, db)
    if tag == "sub":
        return _sub(da, db)
    if tag == "mul":
        return _add(_mul(da, b), _mul(a, db))
    if tag == "div":
        if _is_const(db, 0.0):
            return _div(da, b)
        return _div(_sub(_mul(da, b), _mul(a, db)), _mul(b, b))
    if tag == "pow":
        if _is_const(db, 0.0):
            return _mul(_mul(b, _pow(a, _sub(b, _ONE))), da)
        return _mul(node, _add(_mul(db, ("call", "log", a)), _div(_mul(b, da), a)))
    raise AssertionError(f"unknown node {tag}")


# ---------------------------------------------------------------------------
# compilation
# ---------------------------------------------------------------------------

def parse_expression(text: str, symbols: Iterable[str]):
    """Parse ``text`` into an expression tree over the given symbols.

    Python's parser reads the text (``^`` spelled ``**``, whitespace
    collapsed); the walk below maps the whitelisted nodes onto the tree and
    raises :class:`ConfigError` for every other node."""
    bad = _BAD_CHAR_RE.search(text)
    if bad is not None:
        raise ConfigError(f"unexpected character {bad.group()!r} at position {bad.start()} "
                          f"in expression {text!r}")
    source = " ".join(text.replace("^", "**").split())
    try:
        body = ast.parse(source, mode="eval").body
    except SyntaxError as exc:
        raise ConfigError(f"{exc.msg} in expression {text!r}") from None
    except (RecursionError, MemoryError):       # the parser's own stack limits
        raise ConfigError(f"expression {text!r} is nested too deeply") from None
    symbols = frozenset(symbols)

    def tree(node, depth):
        if depth > _MAX_DEPTH:
            raise ConfigError(f"expression {text!r} is nested deeper than {_MAX_DEPTH} levels")
        if isinstance(node, ast.BinOp) and type(node.op) in _BINOPS:
            return (_BINOPS[type(node.op)], tree(node.left, depth + 1), tree(node.right, depth + 1))
        if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
            return ("neg", tree(node.operand, depth + 1))
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id in _FUNCTIONS and len(node.args) == 1 and not node.keywords):
            return ("call", node.func.id, tree(node.args[0], depth + 1))
        segment = source[node.col_offset:node.end_col_offset]
        if (isinstance(node, ast.Constant) and type(node.value) in (int, float)
                and _LITERAL_RE.fullmatch(segment)):
            return ("const", float(segment))
        if isinstance(node, ast.Name):
            if node.id == "pi":
                return ("const", math.pi)
            if node.id in symbols:
                return ("sym", node.id)
            raise ConfigError(f"unknown symbol {node.id!r} in expression {text!r}; "
                              f"allowed: {sorted(symbols)}")
        raise ConfigError(f"unsupported {segment!r} in expression {text!r}")

    return tree(body, 1)


def compile_node(node, symbols: Iterable[str], source: str) -> Callable[..., np.ndarray]:
    """Compile an expression tree into ``f(**env)`` evaluating with numpy
    broadcasting; ``source`` is kept as ``f.source``."""
    symset = frozenset(symbols)

    def func(**env):
        missing = symset - env.keys()
        if missing:
            raise TypeError(f"missing symbols {sorted(missing)} for expression {source!r}")
        return _evaluate(node, env)

    func.source = source  # type: ignore[attr-defined]
    return func


def compile_expression(text: str, symbols: Iterable[str]) -> Callable[..., np.ndarray]:
    """Compile ``text`` into ``f(**env)`` evaluating with numpy broadcasting.

    ``symbols`` is the full set of names the expression may reference; every
    call must supply all of them as keyword arguments.
    """
    symbols = frozenset(symbols)
    return compile_node(parse_expression(text, symbols), symbols, text)
