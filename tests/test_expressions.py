import math

import numpy as np
import pytest
import sympy
from hypothesis import given, settings, strategies as st

from spherefv import ConfigError, compile_expression, make_flux
from spherefv.expressions import compile_node, differentiate, parse_expression, split_terms
from spherefv.flux import _stencil


def test_arithmetic_and_functions():
    f = compile_expression("0.5*u^2*sin(theta) + cos(theta) - 1", ["u", "theta"])
    u, theta = 0.8, 1.1
    expected = 0.5 * u ** 2 * math.sin(theta) + math.cos(theta) - 1
    assert f(u=u, theta=theta) == pytest.approx(expected, rel=1e-15)


def test_vectorized_evaluation():
    f = compile_expression("sin(phi)*cos(theta)", ["phi", "theta"])
    phi = np.linspace(0, 2 * math.pi, 7)
    theta = np.full(7, 0.9)
    assert np.allclose(f(phi=phi, theta=theta), np.sin(phi) * np.cos(0.9))


def test_pi_unary_minus_and_precedence():
    f = compile_expression("-u^2 + 2*pi", ["u"])
    assert f(u=3.0) == pytest.approx(-9.0 + 2 * math.pi)
    g = compile_expression("2^3^1", ["u"])
    assert g(u=0.0) == pytest.approx(8.0)


def test_exponent_notation():
    f = compile_expression("1e-3 + 2.5E2*u", ["u"])
    assert f(u=2.0) == pytest.approx(1e-3 + 500.0)


def test_unknown_symbol_rejected():
    with pytest.raises(ConfigError):
        compile_expression("u + q", ["u"])
    with pytest.raises(ConfigError):
        compile_expression("u + ", ["u"])
    with pytest.raises(ConfigError):
        compile_expression("u) (", ["u"])


U, N1, N3 = ("sym", "u"), ("sym", "n1"), ("sym", "n3")


@pytest.mark.parametrize("text, tree", [
    ("u-n1-n3", ("sub", ("sub", U, N1), N3)),
    ("u/n1/n3", ("div", ("div", U, N1), N3)),
    ("-u^2", ("neg", ("pow", U, ("const", 2.0)))),
    ("2^3^2", ("pow", ("const", 2.0), ("pow", ("const", 3.0), ("const", 2.0)))),
    ("2^-u", ("pow", ("const", 2.0), ("neg", U))),
    ("u*-n1", ("mul", U, ("neg", N1))),
    ("u**2", ("pow", U, ("const", 2.0))),
    ("sin(u) + cos(n1)", ("add", ("call", "sin", U), ("call", "cos", N1))),
    ("1e-3", ("const", 1e-3)),
    (".5", ("const", 0.5)),
    ("3.", ("const", 3.0)),
    ("2.5E+2", ("const", 250.0)),
    ("pi", ("const", math.pi)),
    (" \tu\n ", U),
])
def test_parse_tree_pins(text, tree):
    assert parse_expression(text, ["u", "n1", "n3"]) == tree


@pytest.mark.parametrize("text", [
    "+u", "2pi", "0x10", "1_000", "1j", "True", "u % 2", "u // 2", "u.real",
    "u[0]", "(u)(u)", "sin(u, u)", "sin", "__import__('os')", "u; u", "'a'",
    "u, u", "u == 1", "u if u else u", "not u", "\u03b8", "u\x00",
    "u*n3 # + 0.3*u^2*n1",
])
def test_outside_the_grammar_rejected(text):
    with pytest.raises(ConfigError):
        compile_expression(text, ["u", "n1", "n3"])


def test_trailing_whitespace_accepted():
    f = compile_expression("u*n3 + 0.3*u^2*n1 ", ["u", "n1", "n3"])
    assert f(u=2.0, n1=1.0, n3=0.5) == 2.0 * 0.5 + 0.3 * 4.0


@pytest.mark.parametrize("text", [
    "(" * 300 + "n3" + ")" * 300,
    "+".join(["u"] * 1200),
    "+".join(["u"] * 980),
    "-" * 201 + "u",
], ids=["300-parentheses", "1200-term-sum", "980-term-sum", "201-minus-chain"])
def test_deep_formulas_rejected(text):
    with pytest.raises(ConfigError):
        compile_expression(text, ["u", "n3"])


def test_depth_limit_is_200_levels():
    node = parse_expression("+".join(["u"] * 200), ["u"])
    np.testing.assert_array_equal(compile_node(node, ["u"], "")(u=np.ones(3)), 200.0)
    with pytest.raises(ConfigError, match="deeper than 200"):
        parse_expression("+".join(["u"] * 201), ["u"])


def test_source_attribute():
    f = compile_expression("u*2", ["u"])
    assert f.source == "u*2"


# ---------------------------------------------------------------------------
# exact derivatives, against sympy as the oracle
# ---------------------------------------------------------------------------

SYMBOLS = ("u", "n1", "n2")
_SYMPY_SYMBOLS = {name: sympy.Symbol(name) for name in SYMBOLS}
_SYMPY_CALLS = {"sin": sympy.sin, "cos": sympy.cos, "log": sympy.log}
_SYMPY_OPS = {"add": lambda a, b: a + b, "sub": lambda a, b: a - b,
              "mul": lambda a, b: a * b, "div": lambda a, b: a / b,
              "pow": lambda a, b: a ** b}


def _to_sympy(node):
    tag = node[0]
    if tag == "const":
        return sympy.Rational(node[1])        # the float's exact value
    if tag == "sym":
        return _SYMPY_SYMBOLS[node[1]]
    if tag == "neg":
        return -_to_sympy(node[1])
    if tag == "call":
        return _SYMPY_CALLS[node[1]](_to_sympy(node[2]))
    return _SYMPY_OPS[tag](_to_sympy(node[1]), _to_sympy(node[2]))


def _extend(sub):
    # every node tag of the grammar; quotients and variable exponents get
    # bases bounded away from zero, so the derivatives stay well-conditioned
    return st.one_of(
        sub.map(lambda x: f"-({x})"),
        st.tuples(st.sampled_from(["sin", "cos"]), sub).map(lambda t: f"{t[0]}({t[1]})"),
        st.tuples(sub, st.sampled_from("+-*"), sub).map(lambda t: f"({t[0]}){t[1]}({t[2]})"),
        st.tuples(sub, sub).map(lambda t: f"({t[0]})/(2 + cos({t[1]}))"),
        st.tuples(sub, st.integers(0, 3)).map(lambda t: f"({t[0]})^{t[1]}"),
        st.tuples(sub, sub).map(lambda t: f"(2 + sin({t[0]}))^(sin({t[1]}))"),
    )


EXPRESSIONS = st.recursive(
    st.one_of(st.sampled_from(SYMBOLS + ("pi",)),
              st.integers(1, 30).map(lambda k: repr(k / 10))),
    _extend, max_leaves=8)
POINTS = st.tuples(*[st.floats(-1.5, 1.5) for _ in SYMBOLS])


@settings(max_examples=150, deadline=None)
@given(text=EXPRESSIONS, symbol=st.sampled_from(SYMBOLS), point=POINTS)
def test_differentiate_matches_sympy(text, symbol, point):
    node = parse_expression(text, SYMBOLS)
    derivative = compile_node(differentiate(node, symbol), SYMBOLS, text)
    env = dict(zip(SYMBOLS, point))
    got = float(np.broadcast_to(derivative(**env), ()))
    exact = sympy.diff(_to_sympy(node), _SYMPY_SYMBOLS[symbol])
    want = float(exact.evalf(30, subs={_SYMPY_SYMBOLS[k]: sympy.Rational(v)
                                       for k, v in env.items()}))
    assert abs(got - want) <= 1e-12 * max(1.0, abs(want))


def test_differentiate_variable_exponent_uses_internal_log():
    node = parse_expression("2^u*u^n1", ["u", "n1"])
    d = differentiate(node, "u")
    u, n1 = 1.3, 0.7
    expected = 2 ** u * math.log(2) * u ** n1 + 2 ** u * n1 * u ** (n1 - 1)
    assert compile_node(d, ["u", "n1"], "")(u=u, n1=n1) == pytest.approx(expected, rel=1e-14)
    # the derivative's own log terms differentiate too
    d2 = compile_node(differentiate(d, "u"), ["u", "n1"], "")(u=u, n1=n1)
    exact = sympy.diff(_to_sympy(node), _SYMPY_SYMBOLS["u"], 2)
    want = float(exact.evalf(30, subs={_SYMPY_SYMBOLS["u"]: sympy.Rational(u),
                                       _SYMPY_SYMBOLS["n1"]: sympy.Rational(n1)}))
    assert d2 == pytest.approx(want, rel=1e-13)
    with pytest.raises(ConfigError):     # the parser does not know log
        compile_expression("log(u)", ["u"])


@pytest.mark.parametrize("a", ["u*n3 + 0.3*u^2*n1", "0.5*u^2*n3 + u*n1*n2",
                               "0.5*u^2*n3 + u*n1*n2 + sin(3*u)*n1^2*n2"])
def test_potential_u_matches_finite_difference(a):
    flux = make_flux("potential", {"a": a})
    rng = np.random.default_rng(50)
    n = rng.normal(size=(3, 200))
    n /= np.linalg.norm(n, axis=0)
    u = rng.uniform(-1.5, 1.5, 200)
    fd = _stencil(lambda d: flux.potential(u + d, *n))
    assert np.abs(flux.potential_u(u, *n) - fd).max() <= 1e-8


# ---------------------------------------------------------------------------
# splitting into terms g(u) X(n)
# ---------------------------------------------------------------------------

def _split_sum(terms, symbols, env):
    """sum_j g_j X_j at ``env`` and sum_j |g_j X_j|, with g_j evaluated on u
    alone and X_j without u (a tree that breaks this raises KeyError)."""
    others = [name for name in symbols if name != "u"]
    values = [compile_node(g, ["u"], "")(u=env["u"])
              * compile_node(X, others, "")(**{k: env[k] for k in others})
              for g, X in terms]
    return sum(values), sum(np.abs(v) for v in values)


@pytest.mark.parametrize("text, count", [
    ("u*n3 + 0.3*u^2*n1", 2), ("-u*n1", 1), ("u*n3 - 2*u^2*n1/n3", 2),
    ("sin(3*u)*n1^2*n2", 1)])
def test_split_terms_sum_to_the_expression(text, count):
    symbols = ["u", "n1", "n2", "n3"]
    node = parse_expression(text, symbols)
    terms = split_terms(node)
    assert len(terms) == count
    rng = np.random.default_rng(56)
    n = rng.normal(size=(3, 100))
    n /= np.linalg.norm(n, axis=0)
    n[2] = np.where(np.abs(n[2]) < 0.1, 0.5, n[2])        # away from n3 = 0
    env = {"u": rng.uniform(-1.5, 1.5, 100), "n1": n[0], "n2": n[1], "n3": n[2]}
    want = compile_node(node, symbols, text)(**env)
    got, _ = _split_sum(terms, symbols, env)
    assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()


@pytest.mark.parametrize("text", ["sin(u*n1)", "u^n1", "(u + n1)^2"])
def test_split_terms_refuses_mixed_factors(text):
    assert split_terms(parse_expression(text, ["u", "n1"])) is None


@settings(max_examples=150, deadline=None)
@given(text=EXPRESSIONS, point=POINTS)
def test_split_terms_evaluate_to_the_expression(text, point):
    node = parse_expression(text, SYMBOLS)
    terms = split_terms(node)
    if terms is None:
        return
    env = dict(zip(SYMBOLS, point))
    want = float(np.broadcast_to(compile_node(node, SYMBOLS, text)(**env), ()))
    got, scale = _split_sum(terms, SYMBOLS, env)
    # products are regrouped within each term; the terms are summed in order
    assert abs(got - want) <= 1e-13 * max(1.0, float(scale))
