import math

import numpy as np
import pytest

from spherefv import (
    ConfigError,
    DegenerateSampleError,
    InputError,
    VectorField,
    divfree_residual,
    make_flux,
    sphere_chart,
    tvd_compatibility,
)
from spherefv import geometry

from conftest import random_points
from identities import (cross_flux, divergence, embedded_flux, entropy_flux, from_potential,
                        kruzkov_pair, tangential_potential_gradient)


# ---------------------------------------------------------------------------
# construction from potentials
# ---------------------------------------------------------------------------

def test_potential_n3_gives_westward_rotation():
    f = from_potential(lambda u, n1, n2, n3: n3 + 0.0 * u)
    rng = np.random.default_rng(21)
    for p in random_points(rng, 10):
        comp = np.asarray(f.f(0.3, p[0], p[1])).reshape(2)
        assert comp[0] == pytest.approx(-1.0, abs=1e-8)
        assert comp[1] == pytest.approx(0.0, abs=1e-8)


def test_potential_constant_gives_zero():
    f = from_potential(lambda u, n1, n2, n3: 2.5 + 0.0 * u)
    comp = np.asarray(f.f(0.1, 1.0, 1.2)).reshape(2)
    assert np.abs(comp).max() <= 1e-10


def test_potential_u_times_n3_direction():
    f = from_potential(lambda u, n1, n2, n3: u * n3)
    rng = np.random.default_rng(22)
    for p in random_points(rng, 5):
        fu = np.asarray(f.f_u(0.4, p[0], p[1])).reshape(2)
        assert fu[0] == pytest.approx(-1.0, abs=1e-6)
        assert fu[1] == pytest.approx(0.0, abs=1e-6)


def test_registry_potential_f_u_from_exact_a_u():
    # a = u n3: f_u = n x grad n3 is the rigid rotation (-1, 0) at every
    # state, from the exact a_u = n3 and its exact gradient
    f = make_flux("potential", {"a": "u*n3"})
    phis = np.linspace(0.0, 2 * math.pi, 13)[:, None]
    theta = np.linspace(0.05, math.pi - 0.05, 11)
    states = np.linspace(-1.0, 1.0, 5)[:, None, None]
    # last: u with more axes than broadcast(phi, theta)
    for u, phi in [(-1.3, phis[None]), (0.0, phis[None]), (0.4, phis[None]),
                   (states, phis[None]), (states, phis)]:
        fu = np.asarray(f.f_u(u, phi, theta))
        assert fu.shape == (2,) + np.broadcast_shapes(np.shape(u), phi.shape, theta.shape)
        assert np.abs(fu[0] + 1.0).max() <= 1e-12
        assert np.abs(fu[1]).max() <= 1e-12


def test_potential_divergence_free():
    # the potential that does not split has an exact gradient too: only the
    # residual's own stencil remains, 2.3e-13 here, where a stencil-in-n
    # flux (tests/identities.py) leaves 1.5e-10
    for a, tol in [("u*n3 + 0.3*u^2*n1", 1e-8), ("sin(u*n1) + u*n3", 1e-11)]:
        f = make_flux("potential", {"a": a})
        rng = np.random.default_rng(23)
        for p in random_points(rng, 10):
            for u in (-0.7, 0.2, 0.9):
                assert divfree_residual(f, u, p) <= tol


def test_unsplit_potential_fields_are_exact():
    # a = sin(u n1) + u n3 does not split into terms g(u) A(n).  f = n x grad a
    # and f_u = n x grad a_u, with grad a = (u cos(u n1), 0, u) and
    # grad a_u = (cos(u n1) - u n1 sin(u n1), 0, 1), hold to rounding; the
    # finite-difference oracle agrees to its truncation error (1.8e-11 here)
    flux = make_flux("potential", {"a": "sin(u*n1) + u*n3"})
    oracle = from_potential(flux.potential, a_u=flux.potential_u)
    u = np.linspace(-1.5, 1.5, 7)[:, None, None]
    phi = np.linspace(0.0, 2 * math.pi, 17)[:, None]
    theta = np.linspace(0.05, math.pi - 0.05, 33)
    st, ct, sp, cp = np.sin(theta), np.cos(theta), np.sin(phi), np.cos(phi)
    n, n_phi, n_theta = (np.stack(np.broadcast_arrays(*v))[:, None] for v in
                         [(st * cp, st * sp, ct), (-st * sp, st * cp, 0.0), (ct * cp, ct * sp, -st)])
    n1 = n[0]
    grads = {"f": (u * np.cos(u * n1), 0.0, u),
             "f_u": (np.cos(u * n1) - u * n1 * np.sin(u * n1), 0.0, 1.0)}
    for name, grad in grads.items():
        v = np.cross(n, np.stack(np.broadcast_arrays(*grad, u * n1))[:3], axis=0)
        exact = np.stack([np.sum(v * n_phi, axis=0) / st ** 2, np.sum(v * n_theta, axis=0)])
        got = getattr(flux, name)(u, phi, theta)
        assert got.shape == exact.shape == (2, 7, 17, 33)
        assert np.abs(got - exact).max() <= 1e-14 * np.abs(exact).max()
        assert np.abs(getattr(oracle, name)(u, phi, theta) - got).max() <= 1e-10


def test_divfree_residual_examples():
    west = cross_flux(lambda u, phi, theta: np.array([0.0, 0.0, 1.0]))
    p = np.array([0.8, 1.1])
    assert divfree_residual(west, 0.5, p) <= 1e-9
    south = make_flux("solid_rotation")
    meridional = from_components(lambda u, phi, theta: (0.0, 1.0))
    assert divfree_residual(meridional, 0.5, p) == pytest.approx(abs(math.cos(p[1])),
                                                                 abs=1e-9)
    assert divfree_residual(south, 0.5, p) <= 1e-9


def from_components(func):
    from spherefv.flux import FluxField

    def f(u, phi, theta):
        u, phi, theta = np.broadcast_arrays(np.asarray(u, dtype=float), phi, theta)
        a, b = func(u, phi, theta)
        return np.stack([np.broadcast_to(a, u.shape).astype(float),
                         np.broadcast_to(b, u.shape).astype(float)])

    def f_u(u, phi, theta, _h=1e-5):
        return (f(np.asarray(u) + _h, phi, theta) - f(np.asarray(u) - _h, phi, theta)) / (2 * _h)

    return FluxField(name="custom", f=f, f_u=f_u)


# ---------------------------------------------------------------------------
# cross products
# ---------------------------------------------------------------------------

def test_cross_flux_point_examples():
    def normal(u, phi, theta):
        phi, theta = np.broadcast_arrays(np.asarray(phi, float), theta)
        return np.stack([np.sin(theta) * np.cos(phi),
                         np.sin(theta) * np.sin(phi), np.cos(theta)])

    zero = cross_flux(normal)
    assert np.abs(np.asarray(zero.f(0.1, 0.7, 1.0))).max() <= 1e-12

    ez = cross_flux(lambda u, phi, theta: np.array([0.0, 0.0, 1.0]))
    comp = np.asarray(ez.f(0.0, 0.0, math.pi / 2)).reshape(2)
    assert comp[0] == pytest.approx(-1.0, abs=1e-12)
    assert comp[1] == pytest.approx(0.0, abs=1e-12)
    assert np.abs(embedded_flux(ez, 0.0, 0.0, math.pi / 2) - [0.0, -1.0, 0.0]).max() \
        <= 1e-12

    def east(u, phi, theta):
        phi, theta = np.broadcast_arrays(np.asarray(phi, float), theta)
        return np.stack([-np.sin(phi), np.cos(phi), np.zeros_like(phi)])

    t1 = cross_flux(east)
    comp2 = np.asarray(t1.f(0.0, 1.3, 0.9)).reshape(2)
    assert comp2[0] == pytest.approx(0.0, abs=1e-12)
    assert comp2[1] == pytest.approx(-1.0, abs=1e-12)


def test_cross_flux_preserves_norm():
    sphere = sphere_chart()
    a = lambda u, n1, n2, n3: u * n3 + 0.2 * n1 * n2  # noqa: E731
    f = from_potential(a)
    rng = np.random.default_rng(24)
    for p in random_points(rng, 10):
        u = rng.uniform(-1, 1)
        comp = np.asarray(f.f(u, p[0], p[1])).reshape(2)
        phi_tan = tangential_potential_gradient(a, u, p[0], p[1])
        lhs = geometry.inner(sphere, p, comp, comp)
        assert abs(lhs - float(phi_tan @ phi_tan)) <= 1e-10 * (1.0 + abs(lhs))


# ---------------------------------------------------------------------------
# flux field basics
# ---------------------------------------------------------------------------

def test_f_u_matches_finite_difference(burgers_flux):
    rng = np.random.default_rng(25)
    for p in random_points(rng, 10):
        u = rng.uniform(-1, 1)
        h = 1e-5
        fd = (np.asarray(burgers_flux.f(u + h, p[0], p[1]))
              - np.asarray(burgers_flux.f(u - h, p[0], p[1]))) / (2 * h)
        assert np.abs(np.asarray(burgers_flux.f_u(u, p[0], p[1])) - fd).max() <= 1e-8


def test_lipschitz_on_matches_per_longitude_loop(burgers_flux):
    potential = make_flux("potential", {"a": "u*n3 + 0.3*u^2*n1"})
    us = np.linspace(-0.43, 0.97, 33)[:, None]
    thetas = np.linspace(1e-3, math.pi - 1e-3, 65)[None, :]
    for f in (burgers_flux, potential):
        best = 0.0
        for p in np.linspace(0.0, 2 * math.pi, 17):
            comp = f.f_u(us, p, thetas)
            best = max(best, float(np.sqrt((np.sin(thetas) * comp[0]) ** 2
                                           + comp[1] ** 2).max()))
        assert f.lipschitz_on(-0.43, 0.97) == best


def test_registry():
    f = make_flux("solid_rotation", {"omega": 2.0})
    assert np.asarray(f.f(0.5, 0.1, 1.0)).reshape(2)[0] == pytest.approx(1.0)
    assert f.lipschitz_on(-1.0, 1.0) == pytest.approx(2.0)
    with pytest.raises(ConfigError, match="solid_rotation, latitude_burgers, potential"):
        make_flux("no_such_flux")
    with pytest.raises(ConfigError):
        make_flux("potential", {})


# ---------------------------------------------------------------------------
# entropy pairs
# ---------------------------------------------------------------------------

def test_entropy_flux_linear_flux_square_entropy(rotation_flux):
    pair = entropy_flux(lambda u: 0.5 * u * u, rotation_flux, dU=lambda u: u)
    rng = np.random.default_rng(26)
    for p in random_points(rng, 5):
        for u in (-1.2, 0.3, 0.9):
            F = np.asarray(pair.F(u, p[0], p[1])).reshape(2)
            assert abs(F[0] - 0.5 * u * u) <= 1e-12
            assert abs(F[1]) <= 1e-12


def test_kruzkov_closed_form_matches_quadrature(burgers_flux):
    k = 0.25
    pair = kruzkov_pair(burgers_flux, k)
    rng = np.random.default_rng(27)
    for p in random_points(rng, 3):
        for u in (-0.8, 0.7):
            closed = np.asarray(pair.F(u, p[0], p[1])).reshape(2)
            sgn = math.copysign(1.0, u - k)
            direct = sgn * (np.asarray(burgers_flux.f(u, p[0], p[1]))
                            - np.asarray(burgers_flux.f(k, p[0], p[1]))).reshape(2)
            assert np.abs(closed - direct).max() <= 1e-12


def test_identity_entropy_reproduces_flux(burgers_flux):
    pair = entropy_flux(lambda u: u, burgers_flux, dU=lambda u: 1.0 + 0.0 * np.asarray(u))
    rng = np.random.default_rng(28)
    for p in random_points(rng, 3):
        u = 0.7
        F = np.asarray(pair.F(u, p[0], p[1])).reshape(2)
        f0 = np.asarray(burgers_flux.f(0.0, p[0], p[1])).reshape(2)
        fu = np.asarray(burgers_flux.f(u, p[0], p[1])).reshape(2)
        assert np.abs(F - (fu - f0)).max() <= 1e-10


def test_entropy_flux_u_derivative(burgers_flux):
    pair = entropy_flux(lambda u: 0.5 * u * u, burgers_flux, dU=lambda u: u)
    rng = np.random.default_rng(29)
    for p in random_points(rng, 3):
        u = 0.6
        h = 1e-5
        dF = (np.asarray(pair.F(u + h, p[0], p[1]))
              - np.asarray(pair.F(u - h, p[0], p[1]))).reshape(2) / (2 * h)
        expected = u * np.asarray(burgers_flux.f_u(u, p[0], p[1])).reshape(2)
        assert np.abs(dF - expected).max() <= 1e-8


def test_entropy_flux_rejects_concave(burgers_flux):
    with pytest.raises(InputError):
        entropy_flux(lambda u: -u * u, burgers_flux)


def test_potential_flux_entropy_conservation():
    # for divergence-free fluxes the entropy flux is itself divergence-free
    # at frozen state, so smooth solutions conserve entropy
    f = make_flux("potential", {"a": "u*n3 + 0.2*u^2*n1"})
    pair = entropy_flux(lambda u: 0.5 * u * u, f, dU=lambda u: u, quad_tol=1e-12)
    sphere = sphere_chart()
    rng = np.random.default_rng(30)
    for p in random_points(rng, 5):
        for ubar in (-0.5, 0.8):
            frozen = VectorField(
                lambda y, _u=ubar: np.asarray(pair.F(_u, y[0], y[1])).reshape(2))
            assert abs(divergence(sphere, frozen, p)) <= 1e-5


# ---------------------------------------------------------------------------
# TVD compatibility
# ---------------------------------------------------------------------------

def _dphi_field():
    return VectorField(lambda y: np.array([1.0, 0.0]))


def test_tvd_self_compatible():
    f = make_flux("solid_rotation")
    rng = np.random.default_rng(31)
    report = tvd_compatibility(f, _dphi_field(), [0.3, -0.5],
                               random_points(rng, 10))
    assert report.compatible
    assert report.bracket_residual <= 1e-9


def test_tvd_latitude_profile_compatible(burgers_flux):
    rng = np.random.default_rng(32)
    report = tvd_compatibility(burgers_flux, _dphi_field(), [-0.5, 0.2, 1.0],
                               random_points(rng, 10))
    assert report.compatible
    assert max(report.bracket_residual, report.colinearity_residual,
               report.c_along_x_residual) <= 1e-8


def test_tvd_incompatible_flux():
    f = from_components(lambda u, phi, theta: (np.cos(phi) * u, 0.0))
    pts = [np.array([math.pi / 2, math.pi / 2]), np.array([0.3, 1.2]),
           np.array([4.0, 2.0])]
    report = tvd_compatibility(f, _dphi_field(), [1.0], pts)
    assert not report.compatible
    assert report.bracket_residual >= 0.5


def test_tvd_verdict_invariant_under_rescaling(burgers_flux):
    rng = np.random.default_rng(33)
    pts = random_points(rng, 8)
    X = _dphi_field()
    X3 = VectorField(lambda y: np.array([3.0, 0.0]))
    r1 = tvd_compatibility(burgers_flux, X, [0.4, -0.6], pts)
    r2 = tvd_compatibility(burgers_flux, X3, [0.4, -0.6], pts)
    assert r1.verdict == r2.verdict


def test_tvd_degenerate_x_rejected(burgers_flux):
    X0 = VectorField(lambda y: np.array([0.0, 0.0]))
    with pytest.raises(DegenerateSampleError):
        tvd_compatibility(burgers_flux, X0, [0.5], [np.array([0.1, 1.0])])
