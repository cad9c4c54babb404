"""Chart-based Riemannian primitives and the concrete spherical chart.

A :class:`Chart` carries the metric tensor, its inverse, the volume weight
``sqrt(det g)`` and the analytic metric derivatives.  On top of it live the
classical differential operators: Christoffel symbols, divergence, gradient,
Laplace-Beltrami, Lie bracket, and the Lie derivative of the metric.
Derivatives of fields use 4th-order centered finite differences.

The sphere is covered by the standard longitude/colatitude chart (phi, theta)
with metric diag(sin^2 theta, 1); a small band around each pole is excluded
from pointwise evaluation.  The embedded orthonormal frame (t1, t2, n) and the
intrinsic <-> embedded component maps are provided for the sphere.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .errors import PoleError, SingularPointError

DEFAULT_FD_STEP = 1e-3
DEFAULT_POLE_BAND = 1e-6


# ---------------------------------------------------------------------------
# finite differences (4th order centered)
# ---------------------------------------------------------------------------

def fd_partial(func: Callable[[np.ndarray], np.ndarray], x: np.ndarray, axis: int,
               step: float = DEFAULT_FD_STEP):
    """4th-order centered partial derivative of ``func`` along coordinate ``axis``."""
    e = np.zeros_like(np.asarray(x, dtype=float))
    e[axis] = step
    return (-func(x + 2 * e) + 8 * func(x + e) - 8 * func(x - e) + func(x - 2 * e)) / (12 * step)


def fd_gradient(func: Callable[[np.ndarray], float], x: np.ndarray,
                step: float = DEFAULT_FD_STEP) -> np.ndarray:
    """All partial derivatives of a scalar function, stacked."""
    x = np.asarray(x, dtype=float)
    return np.array([fd_partial(func, x, i, step) for i in range(x.size)])


# ---------------------------------------------------------------------------
# charts
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Chart:
    """A coordinate patch with metric data.

    ``metric(x)`` returns the d x d matrix g_ij, ``metric_inverse(x)`` its
    inverse, ``sqrt_det(x)`` the volume weight and ``metric_derivative(x)`` the
    array D[k, i, j] = d g_ij / d x^k.  ``is_singular`` flags points where the
    chart degenerates (operations raise there).
    """

    dim: int
    metric: Callable[[np.ndarray], np.ndarray]
    metric_inverse: Callable[[np.ndarray], np.ndarray]
    sqrt_det: Callable[[np.ndarray], float]
    metric_derivative: Callable[[np.ndarray], np.ndarray]
    is_singular: Optional[Callable[[np.ndarray], bool]] = None
    singular_message: str = "chart-singular point"
    fd_step: float = DEFAULT_FD_STEP

    def metric_inv_at(self, x: np.ndarray) -> np.ndarray:
        return np.asarray(self.metric_inverse(x), dtype=float)

    def sqrt_det_at(self, x: np.ndarray) -> float:
        return float(self.sqrt_det(x))

    def metric_derivative_at(self, x: np.ndarray) -> np.ndarray:
        """D[k, i, j] = d g_ij / d x^k."""
        return np.asarray(self.metric_derivative(x), dtype=float)

    def check_interior(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if x.shape != (self.dim,):
            raise ValueError(f"expected {self.dim} coordinates, got shape {x.shape}")
        if self.is_singular is not None and self.is_singular(x):
            raise SingularPointError(f"{self.singular_message}: x = {tuple(x)}")
        return x


def sphere_chart(pole_band: float = DEFAULT_POLE_BAND) -> Chart:
    """Longitude/colatitude chart on the unit sphere, metric diag(sin^2 theta, 1).

    Points with theta within ``pole_band`` of 0 or pi are rejected as singular.
    """

    def metric(x):
        s = math.sin(x[1])
        return np.array([[s * s, 0.0], [0.0, 1.0]])

    def metric_inverse(x):
        s = math.sin(x[1])
        return np.array([[1.0 / (s * s), 0.0], [0.0, 1.0]])

    def sqrt_det(x):
        return abs(math.sin(x[1]))

    def metric_derivative(x):
        d = np.zeros((2, 2, 2))
        d[1, 0, 0] = 2.0 * math.sin(x[1]) * math.cos(x[1])
        return d

    def is_singular(x):
        return not (pole_band <= x[1] <= math.pi - pole_band)

    return Chart(
        dim=2,
        metric=metric,
        metric_inverse=metric_inverse,
        sqrt_det=sqrt_det,
        metric_derivative=metric_derivative,
        is_singular=is_singular,
        singular_message="sphere chart pole band",
    )


def euclidean_chart(dim: int = 2) -> Chart:
    """Flat chart with the identity metric (regression baseline)."""
    eye = np.eye(dim)

    return Chart(
        dim=dim,
        metric=lambda x: eye.copy(),
        metric_inverse=lambda x: eye.copy(),
        sqrt_det=lambda x: 1.0,
        metric_derivative=lambda x: np.zeros((dim, dim, dim)),
    )


# ---------------------------------------------------------------------------
# vector fields
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class VectorField:
    """Vector field in chart components.

    For a purely spatial field, ``components(x)`` returns the d components.
    For a state-dependent field (a flux), ``components(u, x)`` does, and
    ``u_derivative(u, x)`` gives the partial derivative in u.
    """

    components: Callable
    is_u_dependent: bool = False
    u_derivative: Optional[Callable] = None

    def at(self, x: np.ndarray, u: Optional[float] = None) -> np.ndarray:
        if self.is_u_dependent:
            if u is None:
                raise ValueError("u-dependent field evaluated without a state value")
            return np.asarray(self.components(u, x), dtype=float)
        return np.asarray(self.components(x), dtype=float)

    def frozen(self, u: float) -> "VectorField":
        """The spatial field x -> f(u, x) at a frozen state."""
        if not self.is_u_dependent:
            return self
        comp = self.components
        return VectorField(components=lambda x, _u=u: comp(_u, x))


# ---------------------------------------------------------------------------
# differential operators
# ---------------------------------------------------------------------------

def christoffel(chart: Chart, x: np.ndarray) -> np.ndarray:
    """Christoffel symbols Gamma[j, k, l] = Gamma^j_{kl} of the chart metric."""
    x = chart.check_interior(x)
    dg = chart.metric_derivative_at(x)        # dg[k, i, j] = d_k g_ij
    ginv = chart.metric_inv_at(x)
    # Gamma^j_{kl} = 1/2 g^{ji} (d_k g_{li} + d_l g_{ki} - d_i g_{kl});
    # assemble the parenthesis as an array indexed (k, l, i)
    bracket = (dg                                  # dg[k, l, i] = d_k g_{li}
               + np.transpose(dg, (1, 0, 2))       # d_l g_{ki}
               - np.transpose(dg, (1, 2, 0)))      # d_i g_{kl}
    gamma = 0.5 * np.einsum("ji,kli->jkl", ginv, bracket)
    return gamma


def directional_derivative(chart: Chart, X: VectorField, u: Callable[[np.ndarray], float],
                           x: np.ndarray, u_value: Optional[float] = None) -> float:
    """X(u) = X^i d_i u at x."""
    x = chart.check_interior(x)
    comps = X.at(x, u_value)
    du = fd_gradient(u, x, chart.fd_step)
    return float(comps @ du)


def divergence(chart: Chart, field: VectorField, x: np.ndarray,
               u_value: Optional[float] = None, method: str = "weighted") -> float:
    """Divergence of a vector field at x.

    ``method="weighted"`` uses |g|^{-1/2} d_i(|g|^{1/2} f^i);
    ``method="trace"`` uses d_i f^i + Gamma^k_{ki} f^i (trace of the covariant
    derivative).  The two agree to finite-difference accuracy.
    """
    x = chart.check_interior(x)
    if method == "weighted":
        def weighted(y):
            return chart.sqrt_det_at(y) * field.at(y, u_value)

        total = 0.0
        for i in range(chart.dim):
            total += fd_partial(lambda y: weighted(y)[i], x, i, chart.fd_step)
        return float(total / chart.sqrt_det_at(x))
    if method == "trace":
        gamma = christoffel(chart, x)
        comps = field.at(x, u_value)
        total = 0.0
        for i in range(chart.dim):
            total += fd_partial(lambda y: field.at(y, u_value)[i], x, i, chart.fd_step)
        # trace Gamma^k_{ki} f^i
        total += float(np.einsum("kki,i->", gamma, comps))
        return float(total)
    raise ValueError(f"unknown divergence method {method!r}")


def gradient(chart: Chart, u: Callable[[np.ndarray], float], x: np.ndarray) -> np.ndarray:
    """Contravariant gradient (nabla u)^i = g^{ij} d_j u."""
    x = chart.check_interior(x)
    return chart.metric_inv_at(x) @ fd_gradient(u, x, chart.fd_step)


def laplace_beltrami(chart: Chart, u: Callable[[np.ndarray], float], x: np.ndarray) -> float:
    """Laplace-Beltrami operator |g|^{-1/2} d_i(|g|^{1/2} g^{ij} d_j u)."""
    x = chart.check_interior(x)

    def weighted_gradient(y):
        return chart.sqrt_det_at(y) * (chart.metric_inv_at(y) @ fd_gradient(u, y, chart.fd_step))

    total = 0.0
    for i in range(chart.dim):
        total += fd_partial(lambda y: weighted_gradient(y)[i], x, i, chart.fd_step)
    return float(total / chart.sqrt_det_at(x))


def lie_bracket(chart: Chart, X: VectorField, Y: VectorField, x: np.ndarray,
                u_value: Optional[float] = None) -> np.ndarray:
    """[X, Y]^i = X^j d_j Y^i - Y^j d_j X^i, evaluated with one shared stencil.

    Antisymmetry is exact: swapping the arguments produces the same two terms
    with the subtraction reversed.
    """
    x = chart.check_interior(x)
    Xc = X.at(x, u_value)
    Yc = Y.at(x, u_value)
    dY = np.array([fd_partial(lambda y: Y.at(y, u_value), x, j, chart.fd_step)
                   for j in range(chart.dim)])        # dY[j, i] = d_j Y^i
    dX = np.array([fd_partial(lambda y: X.at(y, u_value), x, j, chart.fd_step)
                   for j in range(chart.dim)])
    return Xc @ dY - Yc @ dX


def metric_lie_derivative(chart: Chart, X: VectorField, x: np.ndarray,
                          u_value: Optional[float] = None) -> np.ndarray:
    """(Lie_X g)_{jl} = X^k d_k g_{jl} + g_{kl} d_j X^k + g_{jk} d_l X^k."""
    x = chart.check_interior(x)
    g = np.asarray(chart.metric(x), dtype=float)
    dg = chart.metric_derivative_at(x)                 # dg[k, j, l]
    Xc = X.at(x, u_value)
    dX = np.array([fd_partial(lambda y: X.at(y, u_value), x, j, chart.fd_step)
                   for j in range(chart.dim)])         # dX[j, k] = d_j X^k
    return np.einsum("k,kjl->jl", Xc, dg) + dX @ g + (dX @ g).T


def inner(chart: Chart, x: np.ndarray, v: np.ndarray, w: np.ndarray) -> float:
    """Metric inner product g(v, w) of contravariant vectors at x."""
    g = np.asarray(chart.metric(x), dtype=float)
    return float(np.asarray(v) @ g @ np.asarray(w))


def norm(chart: Chart, x: np.ndarray, v: np.ndarray) -> float:
    """Metric norm |v|_g."""
    return math.sqrt(max(inner(chart, x, v, v), 0.0))


# ---------------------------------------------------------------------------
# embedded frame on the sphere
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SphereFrame:
    """Orthonormal frame (t1, t2, n) at a sphere point, with derivatives of n.

    n is the outward unit normal; t1 = n_phi / sin(theta); t2 = -n_theta.
    The triple is right-handed: n x t1 = t2, n x t2 = -t1.
    """

    phi: float
    theta: float
    n: np.ndarray
    t1: np.ndarray
    t2: np.ndarray
    n_phi: np.ndarray
    n_theta: np.ndarray
    n_phiphi: np.ndarray
    n_phitheta: np.ndarray
    n_thetatheta: np.ndarray


def frame(phi: float, theta: float, pole_band: float = DEFAULT_POLE_BAND) -> SphereFrame:
    """Embedded frame at (phi, theta); undefined at the poles."""
    if not (pole_band <= theta <= math.pi - pole_band):
        raise PoleError(f"tangent frame undefined at theta = {theta}")
    sp, cp = math.sin(phi), math.cos(phi)
    st, ct = math.sin(theta), math.cos(theta)
    n = np.array([st * cp, st * sp, ct])
    n_phi = np.array([-st * sp, st * cp, 0.0])
    n_theta = np.array([ct * cp, ct * sp, -st])
    t1 = n_phi / st
    t2 = -n_theta
    return SphereFrame(
        phi=phi,
        theta=theta,
        n=n,
        t1=t1,
        t2=t2,
        n_phi=n_phi,
        n_theta=n_theta,
        n_phiphi=-st * st * n - st * ct * n_theta,
        n_phitheta=(ct / st) * n_phi,
        n_thetatheta=-n,
    )


def embedding_jacobian(phi: float, theta: float) -> np.ndarray:
    """Jacobian of (phi, theta) -> n, columns n_phi and n_theta."""
    fr = frame(phi, theta)
    return np.column_stack([fr.n_phi, fr.n_theta])


def intrinsic_to_embedded(xi: np.ndarray, phi: float, theta: float) -> np.ndarray:
    """Map intrinsic components (xi^phi, xi^theta) to (t1, t2, n) components.

    The map is (sin(theta) xi^phi, -xi^theta, 0); it is an isometry between the
    metric norm and the Euclidean norm of the frame components.
    """
    fr = frame(phi, theta)  # validates theta
    xi = np.asarray(xi, dtype=float)
    return np.array([math.sin(fr.theta) * xi[0], -xi[1], 0.0])


def embedded_to_intrinsic(xi_tilde: np.ndarray, phi: float, theta: float) -> np.ndarray:
    """Inverse of :func:`intrinsic_to_embedded`; the n-component must vanish."""
    fr = frame(phi, theta)
    xi_tilde = np.asarray(xi_tilde, dtype=float)
    if abs(xi_tilde[2]) > 1e-10 * (1.0 + np.abs(xi_tilde).max()):
        raise ValueError("embedded components have a nonzero normal part")
    return np.array([xi_tilde[0] / math.sin(fr.theta), -xi_tilde[1]])


def embedded_vector(xi: np.ndarray, phi: float, theta: float) -> np.ndarray:
    """Intrinsic components to an ambient R^3 tangent vector."""
    fr = frame(phi, theta)
    xt = intrinsic_to_embedded(xi, phi, theta)
    return xt[0] * fr.t1 + xt[1] * fr.t2
