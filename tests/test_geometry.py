import math

import numpy as np
import pytest

from spherefv import (
    PoleError,
    VectorField,
    frame,
    intrinsic_to_embedded,
    lie_bracket,
    norm,
)
from spherefv.geometry import embedding_jacobian

import identities
from conftest import random_points
from identities import christoffel, divergence, gradient


# ---------------------------------------------------------------------------
# chart invariants
# ---------------------------------------------------------------------------

def test_sphere_metric_consistency(sphere):
    rng = np.random.default_rng(11)
    for x in random_points(rng, 30, theta_lo=0.1):
        g = np.asarray(sphere.metric(x), dtype=float)
        assert np.allclose(g, g.T)
        assert np.all(np.linalg.eigvalsh(g) > 0.0)
        assert np.abs(sphere.metric_inverse(x) @ g - np.eye(2)).max() <= 1e-12
        assert abs(sphere.sqrt_det(x) ** 2 - np.linalg.det(g)) <= \
            1e-12 * abs(np.linalg.det(g))


def test_sphere_metric_is_embedding_pullback(sphere):
    rng = np.random.default_rng(12)
    for x in random_points(rng, 100, theta_lo=0.1):
        J = embedding_jacobian(x[0], x[1])
        pullback = J.T @ J
        expected = np.diag([math.sin(x[1]) ** 2, 1.0])
        assert np.abs(pullback - expected).max() <= 1e-12


# ---------------------------------------------------------------------------
# christoffel
# ---------------------------------------------------------------------------

def test_christoffel_sphere_closed_form(sphere):
    theta = math.pi / 3
    gamma = christoffel(sphere, np.array([0.7, theta]))
    # indices: gamma[j, k, l] = Gamma^j_{kl}; chart order (phi, theta)
    assert gamma[1, 0, 0] == pytest.approx(-math.sin(theta) * math.cos(theta),
                                           abs=1e-9)
    assert gamma[0, 0, 1] == pytest.approx(1.0 / math.tan(theta), abs=1e-9)
    assert gamma[0, 1, 0] == pytest.approx(1.0 / math.tan(theta), abs=1e-9)


def test_christoffel_equator_and_euclidean(sphere, plane):
    gamma = christoffel(sphere, np.array([0.0, math.pi / 2]))
    assert abs(gamma[1, 0, 0]) <= 1e-12
    gamma_e = christoffel(plane, np.array([0.3, -0.2]))
    assert np.abs(gamma_e).max() <= 1e-12


# ---------------------------------------------------------------------------
# divergence / gradient
# ---------------------------------------------------------------------------

def test_divergence_examples(sphere, plane):
    x = np.array([1.1, 0.8])
    assert divergence(sphere, VectorField(lambda y: np.array([1.0, 0.0])), x) \
        == pytest.approx(0.0, abs=1e-9)
    assert divergence(sphere, VectorField(lambda y: np.array([0.0, 1.0])), x) \
        == pytest.approx(1.0 / math.tan(x[1]), abs=1e-9)
    assert divergence(plane, VectorField(lambda y: np.asarray(y, dtype=float)),
                      np.array([0.4, -1.2])) == pytest.approx(2.0, abs=1e-9)


def test_divergence_methods_agree(sphere):
    rng = np.random.default_rng(13)
    field = identities.smooth_spatial_field(rng.uniform(-1, 1, 6))
    for x in random_points(rng, 10):
        d1 = divergence(sphere, field, x, method="weighted")
        d2 = divergence(sphere, field, x, method="trace")
        assert d1 == pytest.approx(d2, abs=1e-7)


def test_gradient_examples(sphere, plane):
    x = np.array([0.9, math.pi / 4])
    g1 = gradient(sphere, lambda y: math.cos(y[1]), x)
    assert np.abs(g1 - [0.0, -math.sin(x[1])]).max() <= 1e-9
    g2 = gradient(sphere, lambda y: y[0], x)
    assert np.abs(g2 - [2.0, 0.0]).max() <= 1e-9
    g3 = gradient(plane, lambda y: y[0], np.array([0.2, 0.3]))
    assert np.abs(g3 - [1.0, 0.0]).max() <= 1e-9


# ---------------------------------------------------------------------------
# lie bracket
# ---------------------------------------------------------------------------

def test_lie_bracket_examples(sphere, plane):
    X = VectorField(lambda y: np.array([1.0, 0.0]))
    Y = VectorField(lambda y: np.array([math.cos(y[1]) ** 2 + 0.5, 0.0]))
    x = np.array([0.8, 1.2])
    assert np.abs(lie_bracket(sphere, X, X, x)).max() == 0.0
    assert np.abs(lie_bracket(sphere, X, Y, x)).max() <= 1e-9
    Xe = VectorField(lambda y: np.array([y[1], 0.0]))
    Ye = VectorField(lambda y: np.array([0.0, 1.0]))
    br = lie_bracket(plane, Xe, Ye, np.array([0.3, 0.4]))
    assert np.abs(br - [-1.0, 0.0]).max() <= 1e-9


def test_lie_bracket_antisymmetry_exact(sphere):
    rng = np.random.default_rng(14)
    for _ in range(10):
        X = identities.smooth_spatial_field(rng.uniform(-1, 1, 6))
        Y = identities.smooth_spatial_field(rng.uniform(-1, 1, 6))
        x = random_points(rng, 1)[0]
        fwd = lie_bracket(sphere, X, Y, x)
        rev = lie_bracket(sphere, Y, X, x)
        assert np.array_equal(fwd, -rev)


# ---------------------------------------------------------------------------
# embedded frame
# ---------------------------------------------------------------------------

def test_frame_point_values():
    fr = frame(0.0, math.pi / 2)
    assert np.abs(fr.n - [1.0, 0.0, 0.0]).max() <= 1e-12
    assert np.abs(fr.t1 - [0.0, 1.0, 0.0]).max() <= 1e-12
    assert np.abs(fr.t2 - [0.0, 0.0, 1.0]).max() <= 1e-12
    fr2 = frame(math.pi / 2, math.pi / 2)
    assert np.abs(fr2.n - [0.0, 1.0, 0.0]).max() <= 1e-12
    assert np.abs(fr2.t1 - [-1.0, 0.0, 0.0]).max() <= 1e-12
    assert np.abs(fr2.t2 - [0.0, 0.0, 1.0]).max() <= 1e-12


def test_frame_orthonormal_right_handed():
    rng = np.random.default_rng(15)
    for x in random_points(rng, 50, theta_lo=0.05):
        fr = frame(x[0], x[1])
        for v in (fr.n, fr.t1, fr.t2):
            assert abs(np.linalg.norm(v) - 1.0) <= 1e-12
        assert abs(fr.n @ fr.t1) <= 1e-12
        assert abs(fr.n @ fr.t2) <= 1e-12
        assert abs(fr.t1 @ fr.t2) <= 1e-12
        assert np.abs(np.cross(fr.n, fr.t1) - fr.t2).max() <= 1e-12
        assert np.abs(np.cross(fr.n, fr.t2) + fr.t1).max() <= 1e-12


def test_frame_second_derivative_identities():
    rng = np.random.default_rng(16)
    for x in random_points(rng, 50, theta_lo=0.05):
        fr = frame(x[0], x[1])
        st, ct = math.sin(x[1]), math.cos(x[1])
        assert np.abs(fr.n_thetatheta + fr.n).max() <= 1e-12
        assert np.abs(fr.n_phitheta - (ct / st) * fr.n_phi).max() <= 1e-12
        assert np.abs(fr.n_phiphi + st * st * fr.n + st * ct * fr.n_theta).max() \
            <= 1e-12


def test_frame_rejects_poles():
    with pytest.raises(PoleError):
        frame(0.3, 1e-9)
    with pytest.raises(PoleError):
        frame(0.3, math.pi)


def test_component_map():
    out = intrinsic_to_embedded(np.array([1.0, 0.0]), 0.3, math.pi / 6)
    assert np.abs(out - [0.5, 0.0, 0.0]).max() <= 1e-12
    out2 = intrinsic_to_embedded(np.array([0.0, 1.0]), 1.0, 0.7)
    assert np.abs(out2 - [0.0, -1.0, 0.0]).max() <= 1e-12
    assert np.abs(intrinsic_to_embedded(np.zeros(2), 1.0, 0.7)).max() == 0.0


def test_component_map_isometry(sphere):
    rng = np.random.default_rng(17)
    for x in random_points(rng, 25):
        xi = rng.uniform(-2.0, 2.0, 2)
        tilde = intrinsic_to_embedded(xi, x[0], x[1])
        assert abs(np.linalg.norm(tilde) - norm(sphere, x, xi)) <= 1e-12


# ---------------------------------------------------------------------------
# chain-rule identities (smoke; the acceptance suite sweeps 50 configs)
# ---------------------------------------------------------------------------

def test_chain_rule_identities(sphere):
    rng = np.random.default_rng(18)
    for _ in range(5):
        u, f, X, Y, x = identities.random_config(rng)
        assert identities.divergence_chain_residual(sphere, u, f, x) <= 1e-6
        assert identities.vector_chain_residual(sphere, u, X, Y, x) <= 1e-6

        def h(uu, y):
            return uu * math.sin(y[1]) + 0.3 * uu ** 2 * math.cos(y[0])

        def h_u(uu, y):
            return math.sin(y[1]) + 0.6 * uu * math.cos(y[0])

        assert identities.scalar_chain_residual(sphere, u, X, h, h_u, x) <= 1e-6
        Z = identities.smooth_spatial_field(rng.uniform(-1, 1, 6))
        assert identities.gradient_commutator_residual(sphere, u, X, Z, x) <= 1e-6


def test_main_divergence_lie_identity(sphere):
    rng = np.random.default_rng(19)
    for _ in range(3):
        u, f, X, _Y, x = identities.random_config(rng)
        assert identities.main_identity_residual(sphere, u, f, X, x) <= 1e-6
