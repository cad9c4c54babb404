"""Flux fields f(u, x) on the sphere.

Provides fluxes that are sums of separable terms f(u, x) = sum_j g_j(u) X_j(x),
construction from scalar potential expressions a(u, n) (automatically
divergence-free, in the cross-product form f = n x grad a, with f and f_u
from the exact derivatives of a), divergence residuals, and the
compatibility checks that decide whether total variation along a vector
field X is non-increasing.  The solver's entropy fluxes are face quantities
(``fvm.FaceFluxTable``, ``fvm.NumericalFlux``); the pointwise entropy pairs
F(u, x) live with the tests as their oracle.

All flux callables are numpy-vectorized: ``f(u, phi, theta)`` accepts scalars
or broadcastable arrays and returns an array of shape ``(2,) + broadcast``
holding the intrinsic components (f^phi, f^theta).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional, Sequence

import numpy as np

from . import geometry
from .errors import ConfigError, DegenerateSampleError
from .expressions import (compile_expression, compile_node, differentiate, parse_expression,
                          split_terms)

_FD_STEP = 1e-3
_NORMAL = ("n1", "n2", "n3")


def _stencil(shifted: Callable, step: float = _FD_STEP):
    """4th-order centered derivative at d = 0 of ``shifted(d)``."""
    return (-shifted(2 * step) + 8 * shifted(step)
            - 8 * shifted(-step) + shifted(-2 * step)) / (12 * step)


# ---------------------------------------------------------------------------
# flux fields
# ---------------------------------------------------------------------------

class Term(NamedTuple):
    """One term g(u) X(phi, theta) of a flux f = sum_j g_j(u) X_j: ``g`` and
    ``g_u`` elementwise in u, ``X`` as ``f`` without u; a split potential's
    term also has the ``potential`` A(n1, n2, n3) with X = n x grad A.
    ``degree`` is g's degree as a polynomial in u when it is declared
    (:func:`separable`), else None."""

    g: Callable
    g_u: Callable
    X: Callable
    potential: Optional[Callable] = None
    degree: Optional[int] = None


@dataclass(frozen=True)
class FluxField:
    """The map (u, x) -> f(u, x) in intrinsic sphere components.

    ``f`` and ``f_u`` take ``(u, phi, theta)`` with numpy broadcasting and
    return shape ``(2,) + broadcast``.  ``potential`` holds the scalar
    a(u, n1, n2, n3) when the flux was built from one, and ``potential_u``
    its derivative a_u in u (both vectorized; set together).  A flux that is
    a sum f = sum_j g_j(u) X_j(x) carries its ``terms`` (:class:`Term`): one
    for a separable flux (:func:`separable`), one per product for a registry
    potential that splits (:func:`make_flux`).
    """

    name: str
    f: Callable
    f_u: Callable
    potential: Optional[Callable] = None
    potential_u: Optional[Callable] = None
    terms: tuple = ()

    def f_u_field(self, u: float) -> geometry.VectorField:
        """The frozen-state wave-speed field x -> f_u(u, x)."""
        return geometry.VectorField(components=lambda y: self.f_u(u, y[0], y[1]))

    def lipschitz_on(self, u_min: float, u_max: float, n_u: int = 33,
                     n_theta: int = 65) -> float:
        """Sampled sup of |f_u|_g over a state interval and a theta sweep."""
        us = np.linspace(u_min, u_max, n_u)[None, :, None]
        thetas = np.linspace(1e-3, math.pi - 1e-3, n_theta)
        phis = np.linspace(0.0, 2 * math.pi, 17)[:, None, None]
        comp = self.f_u(us, phis, thetas)
        return float(np.sqrt((np.sin(thetas) * comp[0]) ** 2 + comp[1] ** 2).max())


def divfree_residual(f: FluxField, u: float, sample, step: float = _FD_STEP) -> float:
    """|d_phi(f^phi sin theta) + d_theta(f^theta sin theta)| at frozen u.

    Zero for divergence-free fluxes (the sin-theta weighted form of the
    divergence, without the 1/sin-theta prefactor)."""
    phi, theta = float(sample[0]), float(sample[1])
    if not (geometry.DEFAULT_POLE_BAND <= theta <= math.pi - geometry.DEFAULT_POLE_BAND):
        raise geometry.PoleError(f"divergence residual undefined at theta = {theta}")

    d_phi = _stencil(lambda d: f.f(u, phi + d, theta)[0] * math.sin(theta), step)
    d_theta = _stencil(lambda d: f.f(u, phi, theta + d)[1] * np.sin(theta + d), step)
    return float(abs(d_phi + d_theta))


# ---------------------------------------------------------------------------
# construction: separable fluxes, potentials
# ---------------------------------------------------------------------------

def _from_terms(name: str, terms: Sequence[Term], **fields) -> FluxField:
    """Flux f = sum_j g_j(u) X_j and f_u = sum_j g_j'(u) X_j, the terms
    added in order, each X_j taken once over broadcast(phi, theta)."""

    def term_sum(derivative: bool):
        def field(u, phi, theta):
            u = np.asarray(u, dtype=float)
            phi, theta = np.broadcast_arrays(phi, theta)
            total = None
            for term in terms:
                X = _lift(np.asarray(term.X(phi, theta)), max(u.ndim, phi.ndim) + 1)
                value = (term.g_u if derivative else term.g)(u) * X
                total = value if total is None else total + value
            return total
        return field

    return FluxField(name=name, f=term_sum(False), f_u=term_sum(True),
                     terms=tuple(terms), **fields)


def separable(name: str, g: Callable, g_u: Callable, X: Callable,
              degree: Optional[int] = None) -> FluxField:
    """Flux f(u, x) = g(u) X(x), with f_u = g_u(u) X(x): one :class:`Term`.

    ``g`` and ``g_u`` act elementwise on state arrays; ``X(phi, theta)``
    returns the intrinsic components, shape ``(2,) + broadcast``.
    ``degree`` declares g a polynomial of that degree in u (None: unknown)."""
    return _from_terms(name, [Term(g, g_u, X, degree=degree)])


def _sphere_normals(phi, theta):
    """n, n_phi, n_theta as arrays of shape (3,) + broadcast(phi, theta)."""
    phi = np.asarray(phi, dtype=float)
    theta = np.asarray(theta, dtype=float)
    sp, cp = np.sin(phi), np.cos(phi)
    st, ct = np.sin(theta), np.cos(theta)
    n = np.stack(np.broadcast_arrays(st * cp, st * sp, ct + 0 * sp))
    n_phi = np.stack(np.broadcast_arrays(-st * sp, st * cp, 0 * (st * sp)))
    n_theta = np.stack(np.broadcast_arrays(ct * cp, ct * sp, -st + 0 * sp))
    return n, n_phi, n_theta


def _lift(vec, ndim: int):
    """An ambient vector array (3,) + s with unit axes put in front of s, up
    to ``ndim`` axes, so that it broadcasts against (3,) + broadcast(u, s)."""
    return vec.reshape(vec.shape[:1] + (1,) * (ndim - vec.ndim) + vec.shape[1:])


def _cross_components(vec, n_phi, n_theta):
    """Intrinsic components of n x vec for an ambient vector ``vec``:
        f^phi = (vec . n_theta) / sin(theta),   f^theta = -(vec . n_phi) / sin(theta)."""
    ndim = max(vec.ndim, n_phi.ndim)
    vec, n_phi, n_theta = (_lift(x, ndim) for x in (vec, n_phi, n_theta))
    st = np.sqrt(np.sum(n_phi * n_phi, axis=0))  # = sin(theta) off the poles
    return np.stack(np.broadcast_arrays(np.sum(vec * n_theta, axis=0) / st,
                                        -np.sum(vec * n_phi, axis=0) / st))


def _cross_gradient(tree, symbols) -> Callable:
    """The field n x grad a of the tree ``a`` in ``symbols`` (n1, n2, n3 and
    any state symbols), with the exact grad a from :func:`differentiate`.
    It takes ``(phi, theta, **state)``, n lifted over the state's axes, and
    returns shape ``(2,) + broadcast``."""
    grad = [compile_node(differentiate(tree, symbol), symbols, "") for symbol in _NORMAL]

    def field(phi, theta, **state):
        n, n_phi, n_theta = _sphere_normals(phi, theta)
        n = _lift(n, max([n.ndim - 1] + [np.ndim(v) for v in state.values()]) + 1)
        shape = np.broadcast_shapes(n.shape[1:], *(np.shape(v) for v in state.values()))
        vec = np.stack([np.broadcast_to(d(n1=n[0], n2=n[1], n3=n[2], **state), shape)
                        for d in grad])
        return _cross_components(vec, n_phi, n_theta)
    return field


def _state_function(node) -> Callable:
    """The elementwise function of u given by a tree in u (u's shape also
    where the tree is constant)."""
    func = compile_node(node, ["u"], "")

    def g(u):
        value = func(u=u)
        return value if np.shape(value) == np.shape(u) else np.broadcast_to(value, np.shape(u))
    return g


def _potential_term(g, A) -> Term:
    """The term g(u) (n x grad A(n)) of a split potential, from the trees of
    g and A, with the exact gradient of A (:func:`_cross_gradient`)."""
    potential = compile_node(A, _NORMAL, "")
    return Term(g=_state_function(g), g_u=_state_function(differentiate(g, "u")),
                X=_cross_gradient(A, _NORMAL),
                potential=lambda n1, n2, n3: potential(n1=n1, n2=n2, n3=n3))


# ---------------------------------------------------------------------------
# TVD compatibility
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TVDReport:
    """Residuals of the three conditions under which TV along X cannot grow.

    ``bracket_residual``: sup |[f_u, X]|_g; ``colinearity_residual``: sup over
    states of |X x f_u - Ctilde(u) n| with Ctilde(u) the per-state best-fit
    normal component (constant across points); ``c_along_x_residual``:
    sup |X(C)| for C = g(f_u, X)/g(X, X)."""

    bracket_residual: float
    colinearity_residual: float
    c_along_x_residual: float
    verdict: str
    tolerance: float

    @property
    def compatible(self) -> bool:
        return self.verdict == "compatible"


def tvd_compatibility(f: FluxField, X: geometry.VectorField,
                      u_samples: Sequence[float], points: Sequence,
                      tolerance: float = 1e-6,
                      chart: Optional[geometry.Chart] = None) -> TVDReport:
    """Check whether the pair (f, X) supports a total variation bound along X."""
    chart = chart if chart is not None else geometry.sphere_chart()
    pts = [np.asarray(p, dtype=float) for p in points]
    for p in pts:
        chart.check_interior(p)
        if geometry.norm(chart, p, X.at(p)) < 1e-12:
            raise DegenerateSampleError("vector field X vanishes at a sample point",
                                        point=tuple(p))

    bracket_res = 0.0
    colin_res = 0.0
    along_res = 0.0
    for u in u_samples:
        fu_field = f.f_u_field(float(u))

        # Lie bracket residual |[f_u, X]|_g
        for p in pts:
            br = geometry.lie_bracket(chart, fu_field, X, p)
            bracket_res = max(bracket_res, geometry.norm(chart, p, br))

        # colinearity: the normal component of X x f_u must not vary with x
        normals = []
        for p in pts:
            fr = geometry.frame(p[0], p[1])
            Xe = geometry.embedded_vector(X.at(p), p[0], p[1])
            Fe = geometry.embedded_vector(fu_field.at(p), p[0], p[1])
            cross = np.cross(Xe, Fe)
            normals.append((cross, fr.n))
        c_fit = float(np.mean([c @ n for c, n in normals]))
        for c, n in normals:
            colin_res = max(colin_res, float(np.linalg.norm(c - c_fit * n)))

        # X(C) residual with C = g(f_u, X) / g(X, X)
        def C(y, _u=float(u)):
            comp = np.asarray(f.f_u(_u, y[0], y[1]), dtype=float).reshape(2)
            Xy = X.at(y)
            return geometry.inner(chart, y, comp, Xy) / geometry.inner(chart, y, Xy, Xy)

        for p in pts:
            along_res = max(along_res, abs(geometry.directional_derivative(chart, X, C, p)))

    ok = max(bracket_res, colin_res, along_res) <= tolerance
    return TVDReport(
        bracket_residual=bracket_res,
        colinearity_residual=colin_res,
        c_along_x_residual=along_res,
        verdict="compatible" if ok else "incompatible",
        tolerance=tolerance,
    )


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------

def make_flux(name: str, params: Optional[dict] = None) -> FluxField:
    """Build a flux from the registry: solid_rotation, latitude_burgers, potential.

    A potential that :func:`split_terms` splits becomes a sum of terms;
    any other carries no terms (the solver's vertex path), with f and f_u
    the fields n x grad a and n x grad a_u.  Every gradient is exact."""
    params = dict(params or {})
    if name == "solid_rotation":
        omega = float(params.pop("omega", 1.0))
        if params:
            raise ConfigError(f"unknown solid_rotation parameters: {sorted(params)}")

        def X(phi, theta):
            return np.stack([np.full(np.shape(theta), omega), np.zeros(np.shape(theta))])

        return separable(name, g=lambda u: u, g_u=np.ones_like, X=X, degree=1)

    if name == "latitude_burgers":
        c_expr = str(params.pop("c_expr", "1"))
        if params:
            raise ConfigError(f"unknown latitude_burgers parameters: {sorted(params)}")
        c = compile_expression(c_expr, ["theta"])

        def X(phi, theta):
            return np.stack([np.broadcast_to(c(theta=theta), np.shape(theta)),
                             np.zeros(np.shape(theta))])

        return separable(name, g=lambda u: 0.5 * u * u, g_u=lambda u: u, X=X, degree=2)

    if name == "potential":
        if "a" not in params:
            raise ConfigError("potential flux requires parameter 'a' (expression in u, n1, n2, n3)")
        a_expr = str(params.pop("a"))
        if params:
            raise ConfigError(f"unknown potential parameters: {sorted(params)}")
        symbols = ("u",) + _NORMAL
        node = parse_expression(a_expr, symbols)
        a_u = differentiate(node, "u")
        a_func = compile_expression(a_expr, symbols)
        a_u_func = compile_node(a_u, symbols, f"d/du[{a_expr}]")
        fields = dict(name=f"potential[{a_expr}]",
                      potential=lambda u, n1, n2, n3: a_func(u=u, n1=n1, n2=n2, n3=n3),
                      potential_u=lambda u, n1, n2, n3: a_u_func(u=u, n1=n1, n2=n2, n3=n3))
        terms = split_terms(node)
        if terms is None:
            f, f_u = _cross_gradient(node, symbols), _cross_gradient(a_u, symbols)
            return FluxField(f=lambda u, phi, theta: f(phi, theta, u=u),
                             f_u=lambda u, phi, theta: f_u(phi, theta, u=u), **fields)
        return _from_terms(terms=[_potential_term(g, X) for g, X in terms], **fields)

    raise ConfigError(
        f"unknown flux {name!r}; registry: solid_rotation, latitude_burgers, potential")
