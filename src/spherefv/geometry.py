"""Chart geometry on the sphere: what ``check-flux`` needs to test the
total-variation conditions of a flux f and a vector field X.

A :class:`Chart` carries the metric tensor, its inverse, the volume weight
``sqrt(det g)`` and the analytic metric derivatives.  The sphere is covered
by the standard longitude/colatitude chart (phi, theta) with metric
diag(sin^2 theta, 1); a band of width ``POLE_BAND`` around each pole is
excluded from pointwise evaluation.  On it live the directional derivative,
the Lie bracket and the metric inner product and norm, with derivatives of
fields by 4th-order centered finite differences of step ``FD_STEP``, and
the embedded orthonormal frame (t1, t2, n) with the intrinsic -> embedded
component map.

The classical operators that the tests compare against (Christoffel
symbols, divergence, gradient, the Lie derivative of the metric, a flat
chart, state-dependent fields) live with the tests, in
``tests/identities.py``, and run on this module's sphere chart.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import PoleError, SingularPointError

FD_STEP = 1e-3        # step of the finite-difference derivatives
POLE_BAND = 1e-6      # colatitudes this close to a pole are singular


# ---------------------------------------------------------------------------
# finite differences (4th order centered)
# ---------------------------------------------------------------------------

def fd_partial(func: Callable[[np.ndarray], np.ndarray], x: np.ndarray, axis: int):
    """4th-order centered partial derivative of ``func`` along coordinate ``axis``."""
    e = np.zeros_like(np.asarray(x, dtype=float))
    e[axis] = FD_STEP
    return (-func(x + 2 * e) + 8 * func(x + e) - 8 * func(x - e) + func(x - 2 * e)) / (12 * FD_STEP)


def fd_gradient(func: Callable[[np.ndarray], float], x: np.ndarray) -> np.ndarray:
    """All partial derivatives of a scalar function, stacked."""
    x = np.asarray(x, dtype=float)
    return np.array([fd_partial(func, x, i) for i in range(x.size)])


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

    def check_interior(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if x.shape != (self.dim,):
            raise ValueError(f"expected {self.dim} coordinates, got shape {x.shape}")
        if self.is_singular is not None and self.is_singular(x):
            raise SingularPointError(f"{self.singular_message}: x = {tuple(x)}")
        return x


def sphere_chart() -> Chart:
    """Longitude/colatitude chart on the unit sphere, metric diag(sin^2 theta, 1).

    Points with theta within ``POLE_BAND`` of 0 or pi are rejected as singular.
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
        return not (POLE_BAND <= x[1] <= math.pi - POLE_BAND)

    return Chart(
        dim=2,
        metric=metric,
        metric_inverse=metric_inverse,
        sqrt_det=sqrt_det,
        metric_derivative=metric_derivative,
        is_singular=is_singular,
        singular_message="sphere chart pole band",
    )


# ---------------------------------------------------------------------------
# vector fields and the operators check-flux reads
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class VectorField:
    """Spatial vector field: ``components(x)`` returns its d chart components."""

    components: Callable

    def at(self, x: np.ndarray) -> np.ndarray:
        return np.asarray(self.components(x), dtype=float)


def directional_derivative(chart: Chart, X: VectorField, u: Callable[[np.ndarray], float],
                           x: np.ndarray) -> float:
    """X(u) = X^i d_i u at x."""
    x = chart.check_interior(x)
    return float(X.at(x) @ fd_gradient(u, x))


def lie_bracket(chart: Chart, X: VectorField, Y: VectorField, x: np.ndarray) -> np.ndarray:
    """[X, Y]^i = X^j d_j Y^i - Y^j d_j X^i, evaluated with one shared stencil.

    Antisymmetry is exact: swapping the arguments produces the same two terms
    with the subtraction reversed.
    """
    x = chart.check_interior(x)
    dY = np.array([fd_partial(Y.at, x, j) for j in range(chart.dim)])   # dY[j, i] = d_j Y^i
    dX = np.array([fd_partial(X.at, x, j) for j in range(chart.dim)])
    return X.at(x) @ dY - Y.at(x) @ dX


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


def frame(phi: float, theta: float) -> SphereFrame:
    """Embedded frame at (phi, theta); undefined within ``POLE_BAND`` of a pole."""
    if not (POLE_BAND <= theta <= math.pi - POLE_BAND):
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


def embedded_vector(xi: np.ndarray, phi: float, theta: float) -> np.ndarray:
    """Intrinsic components to an ambient R^3 tangent vector."""
    fr = frame(phi, theta)
    xt = intrinsic_to_embedded(xi, phi, theta)
    return xt[0] * fr.t1 + xt[1] * fr.t2
