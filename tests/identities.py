"""Shared helpers: smooth random test data on the sphere, the residuals of
the divergence/Lie-derivative chain-rule identities used by both the geometry
unit tests and the acceptance suite, the node-average quadrature oracle for
the solver's face tables, the per-segment quadrature oracle for the
Engquist-Osher entropy flux, cross-product fluxes f = n x Phi, which
carry no face restriction for the solver, the finite-difference potential
fluxes, oracles of the exact ones, the pointwise entropy pairs, with
adaptive quadrature, and the general forms of the solver's per-cell sum and
Godunov selection, oracles of their bits."""

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
from numpy.polynomial.legendre import leggauss
from scipy.integrate import quad_vec

from spherefv import fvm, geometry
from spherefv.errors import InputError
from spherefv.flux import (_FD_STEP, FluxField, _cross_components, _lift, _sphere_normals,
                           _stencil)
from spherefv.geometry import VectorField, fd_gradient


class NodeAverageTable(fvm.FaceFluxTable):
    """Face table whose s_e is the mesh's 3-node Gauss-Legendre face average
    of g(f(u, x), n_e), and s_e' that of g(f_u, n_e), for any flux.

    The quadrature oracle of the solver's two face paths: a separable
    flux's coefficient table differs from it only by rounding, a potential
    flux's table (either path) by the quadrature error.  Only the
    evaluation is its own; critical points, wave speeds and numerical
    fluxes come from the solver's ``rebuild``, bisection and
    ``NumericalFlux``.  ``face_ids`` maps the rows of a view to mesh faces."""

    def __init__(self, mesh, flux, box):
        self.mesh, self.flux = mesh, flux
        self.n_scan = fvm._N_SCAN
        self.measure = mesh.face_measure
        self.D = self.ends = None
        self.face_ids = np.arange(mesh.n_faces)
        self.rebuild(box)

    def _rows(self, index):
        v = super()._rows(index)
        v.face_ids = self.face_ids[index]
        return v

    def _eval(self, u, derivative):
        """f (f_u) at the (F, C, 3) face nodes of the states viewed as
        (F, C), averaged per face; the result has the shape of ``u``."""
        mesh = self.mesh
        ids = self.face_ids[:, None]
        u = np.asarray(u, dtype=float)
        if u.ndim == 0:
            u = np.full(ids.shape[0], float(u))
        cols = u.reshape(u.shape[0], math.prod(u.shape[1:]))
        f = self.flux.f_u if derivative else self.flux.f
        comp = np.asarray(f(cols[:, :, None], mesh.face_q_phi[ids], mesh.face_q_theta[ids]))
        integrand = mesh.normal_component(comp, ids)
        average = np.sum(mesh.face_q_w[ids] * integrand, axis=-1) / mesh.face_measure[ids]
        return average.reshape(u.shape)


_GL_X, _GL_W = leggauss(24)


def eo_entropy_integral(nf, dU, a, b):
    """integral_a^b U'(w) min(s'(w), 0) dw per face, by 24-point
    Gauss-Legendre quadrature on each segment of the critical-point
    partition where s' < 0 at the midpoint.  S(a) plus it is the
    Engquist-Osher entropy flux."""
    t = nf.table
    lo = np.minimum(a, b)[:, None]
    hi = np.maximum(a, b)[:, None]
    pts = np.concatenate([lo, np.maximum(np.fmin(t.crit, hi), lo), hi], axis=1)
    total = np.zeros(a.size)
    for seg in range(pts.shape[1] - 1):
        p, q = pts[:, seg], pts[:, seg + 1]
        midsign = t.sp(0.5 * (p + q)) < 0.0
        w = 0.5 * (p + q)[:, None] + 0.5 * (q - p)[:, None] * _GL_X[None, :]
        vals = dU(w) * t.sp(w)
        integral = 0.5 * (q - p) * np.sum(_GL_W * vals, axis=-1)
        total += np.where((q > p) & midsign, integral, 0.0)
    return np.sign(b - a) * total


# ---------------------------------------------------------------------------
# general forms of the per-cell sum and the Godunov selection
# ---------------------------------------------------------------------------

def reduceat_cell_sum(mesh, slot_values):
    """Per-cell sums by one ``np.add.reduceat`` over every cell's contiguous
    run of slots, whose association ``SphereMesh.cell_sum`` reproduces."""
    return np.add.reduceat(slot_values, mesh.slot_start)


def where_godunov_state(crit, crit_s, a, b, s_a, s_b):
    """(s(w*), winner index) of ``NumericalFlux._godunov_state`` for the
    critical points ``crit`` with values ``crit_s``, each comparison chosen by
    ``np.where`` over the boolean arrays of both directions."""
    lo = np.minimum(a, b)
    hi = np.maximum(a, b)
    take_min = a <= b
    pick_b = np.where(take_min, s_b < s_a, s_b > s_a)
    s = np.where(pick_b, s_b, s_a)
    pick = pick_b.astype(np.intp)
    for j, (c, c_s) in enumerate(zip(crit.T, crit_s.T)):
        better = ((c > lo) & (c < hi)
                  & np.where(take_min, c_s < s, c_s > s))
        s = np.where(better, c_s, s)
        pick = np.where(better, 2 + j, pick)
    return s, pick


# ---------------------------------------------------------------------------
# cross-product fluxes
# ---------------------------------------------------------------------------

def cross_flux(phi_vec: Callable, name: str = "cross") -> FluxField:
    """Flux f = n x Phi for an ambient vector function Phi(u, phi, theta) -> R^3.

    Only the tangential part of Phi contributes; the result is tangent to the
    sphere.  It carries neither ``g`` nor ``potential``."""

    def f(u, phi, theta):
        _, n_phi, n_theta = _sphere_normals(phi, theta)
        return _cross_components(np.asarray(phi_vec(u, phi, theta), dtype=float),
                                 n_phi, n_theta)

    def f_u(u, phi, theta):
        return _stencil(lambda d: f(u + d, phi, theta))

    return FluxField(name=name, f=f, f_u=f_u)


def _tangential_gradient(a: Callable, u, n, step: float):
    """Tangential part of the ambient gradient of a(u, .) at the unit normals
    ``n``; shape (3,) + broadcast, ``u`` included (a_u may not depend on u)."""
    n = _lift(n, np.ndim(u) + 1)
    axes = np.eye(3).reshape((3, 3) + (1,) * (n.ndim - 1))
    grad = np.stack(np.broadcast_arrays(
        *[_stencil(lambda d, e=e: a(u, *(n + d * e)), step) for e in axes], u)[:3])
    return grad - np.sum(grad * n, axis=0) * n


def tangential_potential_gradient(a: Callable, u, phi, theta, step: float = _FD_STEP):
    """Phi = tangential gradient of a(u, .) at n(phi, theta); shape (3,) + broadcast."""
    return _tangential_gradient(a, u, _sphere_normals(phi, theta)[0], step)


def from_potential(a: Callable, name: str = "potential", step: float = _FD_STEP,
                   a_u: Optional[Callable] = None) -> FluxField:
    """Flux f = n x Phi with Phi the tangential gradient of a(u, n).

    ``a(u, n1, n2, n3)`` must be smooth near the unit sphere and vectorized.
    Such fluxes are automatically divergence-free at every frozen state.
    ``a_u``, with the same signature, is the derivative of ``a`` in u; without
    it a finite-difference stencil in u stands in.  f_u is formed from
    ``a_u`` as f is from ``a`` (d/du commutes with the tangential gradient),
    by a stencil in space.  The flux carries no terms (the vertex path): the
    finite-difference oracle of ``make_flux("potential")``'s exact fields."""
    if a_u is None:
        def a_u(u, n1, n2, n3):
            return _stencil(lambda d: a(u + d, n1, n2, n3))

    def cross_gradient(pot):
        def field(u, phi, theta):
            n, n_phi, n_theta = _sphere_normals(phi, theta)
            return _cross_components(_tangential_gradient(pot, u, n, step), n_phi, n_theta)
        return field

    return FluxField(name=name, f=cross_gradient(a), f_u=cross_gradient(a_u),
                     potential=a, potential_u=a_u)


def embedded_flux(f: FluxField, u: float, phi: float, theta: float) -> np.ndarray:
    """Ambient R^3 tangent vector of f(u, .) at a point."""
    comp = np.asarray(f.f(u, phi, theta), dtype=float).reshape(2)
    return geometry.embedded_vector(comp, phi, theta)


# ---------------------------------------------------------------------------
# entropy pairs
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EntropyPair:
    """Convex entropy U with its flux F satisfying d_u F = U'(u) f_u."""

    U: Callable
    dU: Callable
    F: Callable                       # (u, phi, theta) -> shape (2,) + broadcast
    kind: str = "smooth"              # "smooth" or "kruzkov"
    k: Optional[float] = None         # Kruzkov reference state


def _check_convex(U: Callable, interval, n: int = 1001) -> None:
    """Reject U whose sampled second differences are significantly negative."""
    grid = np.linspace(interval[0], interval[1], n)
    vals = np.array([U(g) for g in grid])
    second = vals[2:] - 2 * vals[1:-1] + vals[:-2]
    scale = max(1.0, float(np.abs(vals).max()))
    if second.min() < -1e-12 * scale:
        raise InputError("entropy U is not convex on the sampled interval")


def entropy_flux(U: Callable, f: FluxField, u_ref: float = 0.0,
                 dU: Optional[Callable] = None, interval=(-2.0, 2.0),
                 quad_tol: float = 1e-10) -> EntropyPair:
    """Entropy pair with F(u, .) = integral of U'(v) f_u(v, .) from u_ref to u.

    The integral is evaluated by adaptive quadrature to ``quad_tol``.  For
    Kruzkov entropies use :func:`kruzkov_pair` (closed form)."""
    _check_convex(U, interval)
    if dU is None:
        def dU(u, _U=U):  # noqa: ANN001 - numeric derivative fallback
            return _stencil(lambda d: _U(u + d))

    def F(u, phi, theta):
        phi = np.asarray(phi, dtype=float)
        theta = np.asarray(theta, dtype=float)
        if np.isscalar(u) or np.asarray(u).ndim == 0:
            lo, hi = float(u_ref), float(u)
            if lo == hi:
                return np.zeros((2,) + np.broadcast(phi, theta).shape)
            val, _err = quad_vec(lambda v: dU(v) * f.f_u(v, phi, theta),
                                 lo, hi, epsabs=quad_tol, epsrel=1e-12)
            return val
        flat = np.asarray(u, dtype=float)
        out = np.stack([F(ui, phi, theta) for ui in flat.ravel()])
        return np.moveaxis(out.reshape(flat.shape + out.shape[1:]), flat.ndim, 0)

    return EntropyPair(U=U, dU=dU, F=F, kind="smooth")


def kruzkov_pair(f: FluxField, k: float) -> EntropyPair:
    """Kruzkov entropy |u - k| with flux sgn(u - k)(f(u, .) - f(k, .))."""

    def U(u):
        return np.abs(u - k)

    def dU(u):
        return np.sign(u - k)

    def F(u, phi, theta):
        return np.sign(np.asarray(u, dtype=float) - k) * (f.f(u, phi, theta) - f.f(k, phi, theta))

    return EntropyPair(U=U, dU=dU, F=F, kind="kruzkov", k=k)


# ---------------------------------------------------------------------------
# smooth random data and chain-rule residuals
# ---------------------------------------------------------------------------

def smooth_scalar(coeffs):
    """Trigonometric scalar (phi, theta) -> R; smooth and 2pi-periodic."""
    a0, a1, a2, b1, b2 = coeffs

    def u(x):
        phi, theta = float(x[0]), float(x[1])
        return (a0 + a1 * math.sin(theta) * math.cos(phi + b1)
                + a2 * math.cos(theta) * math.sin(2.0 * phi + b2))

    return u


def smooth_spatial_field(coeffs):
    """Trigonometric vector field in chart components."""
    c = np.asarray(coeffs, dtype=float).reshape(2, 3)

    def comp(x):
        phi, theta = float(x[0]), float(x[1])
        basis = np.array([1.0, math.sin(theta) * math.sin(phi), math.cos(theta)])
        return c @ basis

    return VectorField(comp)


def smooth_flux_field(u_coeffs, space_coeffs):
    """State-dependent field f(u, x) = (p0 + p1 u + p2 u^2) V(x)."""
    p0, p1, p2 = u_coeffs
    V = smooth_spatial_field(space_coeffs)

    def comp(u, x):
        return (p0 + p1 * u + p2 * u * u) * V.at(x)

    def comp_u(u, x):
        return (p1 + 2.0 * p2 * u) * V.at(x)

    return VectorField(comp, is_u_dependent=True, u_derivative=comp_u)


def random_config(rng):
    """One random smooth (u, f, X, Y, point) configuration on the sphere."""
    u = smooth_scalar(rng.uniform(-1.0, 1.0, 5))
    f = smooth_flux_field(rng.uniform(-1.0, 1.0, 3), rng.uniform(-1.0, 1.0, 6))
    X = smooth_spatial_field(rng.uniform(-1.0, 1.0, 6))
    Y = smooth_flux_field(rng.uniform(-1.0, 1.0, 3), rng.uniform(-1.0, 1.0, 6))
    x = np.array([rng.uniform(0.0, 2.0 * math.pi),
                  rng.uniform(0.45, math.pi - 0.45)])
    return u, f, X, Y, x


def composite_field(f, u):
    """The spatial field y -> f(u(y), y)."""
    return VectorField(lambda y: f.at(y, u(y)))


def divergence_chain_residual(chart, u, f, x):
    """|div(f(u(x),x)) - du(f_u) - (div f)(u, x)|."""
    lhs = geometry.divergence(chart, composite_field(f, u), x)
    du = fd_gradient(u, x, chart.fd_step)
    fu = np.asarray(f.u_derivative(u(x), x), dtype=float)
    rhs = float(du @ fu) + geometry.divergence(chart, f.frozen(u(x)), x)
    return abs(lhs - rhs)


def vector_chain_residual(chart, u, X, Y, x):
    """Componentwise |Lie_X(Y(u(x),x)) - X(u) Y_u - (Lie_X Y)(u, x)|."""
    lhs = geometry.lie_bracket(chart, X, composite_field(Y, u), x)
    Xu = geometry.directional_derivative(chart, X, u, x)
    Yu = np.asarray(Y.u_derivative(u(x), x), dtype=float)
    rhs = Xu * Yu + geometry.lie_bracket(chart, X, Y.frozen(u(x)), x)
    return float(np.abs(lhs - rhs).max())


def scalar_chain_residual(chart, u, X, h, h_u, x):
    """|X(h(u(x),x)) - X(u) h_u(u,x) - X(h)(u, x)| for scalar h(u, x)."""
    lhs = geometry.directional_derivative(chart, X, lambda y: h(u(y), y), x)
    Xu = geometry.directional_derivative(chart, X, u, x)
    u0 = u(x)
    rhs = Xu * h_u(u0, x) + geometry.directional_derivative(
        chart, X, lambda y: h(u0, y), x)
    return abs(lhs - rhs)


def gradient_commutator_residual(chart, u, X, Z, x):
    """|g(Lie_X grad u - grad(X(u)), Z) + (Lie_X g)(grad u, Z)|."""
    grad_field = VectorField(lambda y: geometry.gradient(chart, u, y))
    lie_grad = geometry.lie_bracket(chart, X, grad_field, x)

    def Xu_scalar(y):
        return float(X.at(y) @ fd_gradient(u, y, chart.fd_step))

    grad_Xu = geometry.gradient(chart, Xu_scalar, x)
    Z0 = Z.at(x)
    lhs = geometry.inner(chart, x, lie_grad - grad_Xu, Z0)
    lie_g = geometry.metric_lie_derivative(chart, X, x)
    grad_u = geometry.gradient(chart, u, x)
    return abs(lhs + float(grad_u @ lie_g @ Z0))


def main_identity_residual(chart, u, f, X, x):
    """Residual of the divergence/Lie commutation identity

    X(div(f(u(x),x))) = div(X(u) f_u(u,x)) + g(grad u, (Lie_X f_u)(u,x))
                        + X((div f)(u, .))(x).
    """
    def div_composite(y):
        return geometry.divergence(chart, composite_field(f, u), y)

    lhs = geometry.directional_derivative(chart, X, div_composite, x)

    def Xu_fu(y):
        Xu = float(X.at(y) @ fd_gradient(u, y, chart.fd_step))
        return Xu * np.asarray(f.u_derivative(u(y), y), dtype=float)

    term1 = geometry.divergence(chart, VectorField(Xu_fu), x)

    u0 = u(x)
    fu_frozen = VectorField(lambda y, _u=u0: np.asarray(f.u_derivative(_u, y)))
    lie_fu = geometry.lie_bracket(chart, X, fu_frozen, x)
    grad_u = geometry.gradient(chart, u, x)
    term2 = geometry.inner(chart, x, grad_u, lie_fu)

    def div_frozen(y):
        return geometry.divergence(chart, f.frozen(u0), y)

    term3 = geometry.directional_derivative(chart, X, div_frozen, x)
    return abs(lhs - (term1 + term2 + term3))
