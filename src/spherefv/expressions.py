"""Tiny arithmetic expression grammar for flux potentials and initial data.

Supported syntax: ``+ - * / ^`` (``**`` is accepted as a synonym for ``^``),
parentheses, unary minus, ``sin``/``cos``, numeric literals, the constant
``pi``, and a caller-supplied set of symbols (e.g. ``u, n1, n2, n3`` for a
flux potential, ``phi, theta, n1, n2, n3`` for initial data).

Compiled expressions evaluate with numpy broadcasting over array inputs.
:func:`differentiate` gives the exact partial derivative of a parsed
expression as another expression tree, so a flux potential a(u, n) yields its
a_u without a finite-difference stencil.
"""

from __future__ import annotations

import math
import re
from typing import Callable, Iterable, Mapping

import numpy as np

from .errors import ConfigError

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>\d+\.?\d*(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?)"
    r"|(?P<name>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>\*\*|[-+*/^()]))"
)

_FUNCTIONS = {"sin": np.sin, "cos": np.cos}
# evaluable calls: the parser's functions plus ``log``, which only
# :func:`differentiate` produces (for a power with a variable exponent)
_CALLS = {**_FUNCTIONS, "log": np.log}


def _tokenize(text: str) -> list[tuple[str, str]]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ConfigError(f"unexpected character {text[pos]!r} at position {pos} in expression {text!r}")
        if m.group("num") is not None:
            tokens.append(("num", m.group("num")))
        elif m.group("name") is not None:
            tokens.append(("name", m.group("name")))
        else:
            op = m.group("op")
            tokens.append(("op", "^" if op == "**" else op))
        pos = m.end()
    return tokens


class _Parser:
    """Recursive descent over: expr -> term (+|- term)*; term -> unary (*|/ unary)*;
    unary -> - unary | power; power -> atom (^ unary)?; atom -> num | name | name(expr) | (expr)."""

    def __init__(self, tokens: list[tuple[str, str]], symbols: frozenset[str], source: str):
        self.tokens = tokens
        self.i = 0
        self.symbols = symbols
        self.source = source

    def _peek(self):
        return self.tokens[self.i] if self.i < len(self.tokens) else (None, None)

    def _next(self):
        tok = self._peek()
        self.i += 1
        return tok

    def _expect_op(self, op: str):
        kind, val = self._next()
        if kind != "op" or val != op:
            raise ConfigError(f"expected {op!r} in expression {self.source!r}")

    def parse(self):
        node = self.expr()
        if self.i != len(self.tokens):
            raise ConfigError(f"trailing input in expression {self.source!r}")
        return node

    def expr(self):
        node = self.term()
        while self._peek() == ("op", "+") or self._peek() == ("op", "-"):
            _, op = self._next()
            rhs = self.term()
            node = (("add" if op == "+" else "sub"), node, rhs)
        return node

    def term(self):
        node = self.unary()
        while self._peek() == ("op", "*") or self._peek() == ("op", "/"):
            _, op = self._next()
            rhs = self.unary()
            node = (("mul" if op == "*" else "div"), node, rhs)
        return node

    def unary(self):
        if self._peek() == ("op", "-"):
            self._next()
            return ("neg", self.unary())
        return self.power()

    def power(self):
        base = self.atom()
        if self._peek() == ("op", "^"):
            self._next()
            return ("pow", base, self.unary())
        return base

    def atom(self):
        kind, val = self._next()
        if kind == "num":
            return ("const", float(val))
        if kind == "name":
            if val == "pi":
                return ("const", math.pi)
            if val in _FUNCTIONS:
                self._expect_op("(")
                arg = self.expr()
                self._expect_op(")")
                return ("call", val, arg)
            if val in self.symbols:
                return ("sym", val)
            raise ConfigError(
                f"unknown symbol {val!r} in expression {self.source!r}; allowed: {sorted(self.symbols)}"
            )
        if (kind, val) == ("op", "("):
            node = self.expr()
            self._expect_op(")")
            return node
        raise ConfigError(f"unexpected token in expression {self.source!r}")


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
    """Parse ``text`` into an expression tree over the given symbols."""
    return _Parser(_tokenize(text), frozenset(symbols), text).parse()


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
