"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Covers geometry identities, scheme axioms, conservation and the maximum
principle, L1 contraction, entropy inequalities, the latitude-band decoupling
oracle, TV diminishing, grid convergence, and thread reproducibility."""

import json
import math
import time
from dataclasses import replace

import numpy as np
import pytest

from spherefv import (
    FLUX_KINDS,
    GODUNOV,
    VectorField,
    build_latlon,
    cfl_timestep,
    discrete_tv_x,
    entropy_report,
    frame,
    init_state,
    intrinsic_to_embedded,
    kruzkov_spec,
    make_flux,
    make_numerical_flux,
    numerical_flux,
    sphere_chart,
    square_spec,
    step,
    tv_face_weights,
    tvd_compatibility,
)
from spherefv.cli import Oracle1D, band_meridian_faces, load_config, main
from spherefv.fvm import NumericalFlux
from spherefv.geometry import embedding_jacobian

import identities
from conftest import random_points
from test_flux import from_components


@pytest.fixture
def report_line(request, capsys):
    """Print one visible PASS/FAIL line per criterion."""
    outcome = {"passed": False}
    yield outcome
    label = request.node.name.replace("test_", "", 1)
    status = "PASS" if outcome["passed"] else "FAIL"
    with capsys.disabled():
        print(f"ACCEPTANCE {label}: {status}")


def _burgers_setup(kind=GODUNOV, n_phi=16, n_theta=8, safety=0.5):
    mesh = build_latlon(n_phi, n_theta, 0.3)
    flux = make_flux("latitude_burgers", {"c_expr": "sin(theta)"})
    box = (-1.5, 1.5)
    nf = make_numerical_flux(kind, mesh, flux, box=box)
    tau = cfl_timestep(nf, safety)
    state = init_state(mesh, lambda phi, theta: 0.5 * np.cos(theta)
                       + 0.4 * np.sin(phi) * np.sin(theta))
    state.tau = tau
    return mesh, flux, nf, tau, state


# ---------------------------------------------------------------------------
# 1. geometry identities
# ---------------------------------------------------------------------------

def test_1_geometry_identities(sphere, report_line):
    start = time.perf_counter()
    rng = np.random.default_rng(101)
    for _ in range(50):
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
        assert identities.main_identity_residual(sphere, u, f, X, x) <= 1e-6

    for p in random_points(rng, 100, theta_lo=0.1):
        fr = frame(p[0], p[1])
        st, ct = math.sin(p[1]), math.cos(p[1])
        assert np.abs(fr.n_thetatheta + fr.n).max() <= 1e-12
        assert np.abs(fr.n_phitheta - (ct / st) * fr.n_phi).max() <= 1e-12
        assert np.abs(fr.n_phiphi + st * st * fr.n + st * ct * fr.n_theta).max() \
            <= 1e-12
        J = embedding_jacobian(p[0], p[1])
        assert np.abs(J.T @ J - np.diag([st * st, 1.0])).max() <= 1e-12
        xi = rng.uniform(-1.0, 1.0, 2)
        tilde = intrinsic_to_embedded(xi, p[0], p[1])
        assert np.abs(tilde - [st * xi[0], -xi[1], 0.0]).max() <= 1e-12

    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    report_line["passed"] = True


# ---------------------------------------------------------------------------
# 2. scheme axioms
# ---------------------------------------------------------------------------

def test_2_scheme_axioms(report_line):
    start = time.perf_counter()
    mesh = build_latlon(16, 8, 0.3)
    flux = make_flux("latitude_burgers", {"c_expr": "sin(theta)"})
    rng = np.random.default_rng(102)
    for kind in FLUX_KINDS:
        nf = make_numerical_flux(kind, mesh, flux, box=(-1.5, 1.5))
        # consistency: exact equality with the face-averaged restriction
        for u in rng.uniform(-1.2, 1.2, 5):
            states = np.full(mesh.n_faces, u)
            assert np.array_equal(nf.values(states, states), nf.table.s(states))
        # conservation: sided values negate exactly
        for fid in rng.choice(mesh.n_faces, 50, replace=False):
            u, v = rng.uniform(-1.2, 1.2, 2)
            lhs = numerical_flux(nf, fid, mesh.face_left[fid], u, v)
            rhs = numerical_flux(nf, fid, mesh.face_right[fid], v, u)
            assert abs(lhs + rhs) <= 1e-12
        # monotonicity on a 50x50 state grid over 100 random faces
        worst = nf.validate_monotonicity(n_states=50, max_faces=100, rng=rng)
        assert worst >= -1e-12
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    report_line["passed"] = True


# ---------------------------------------------------------------------------
# 3. conservation and maximum principle
# ---------------------------------------------------------------------------

def test_3_conservation_max_principle(report_line):
    start = time.perf_counter()
    for name, params in (("solid_rotation", {"omega": 1.0}),
                         ("latitude_burgers", {"c_expr": "sin(theta)"})):
        mesh = build_latlon(16, 8, 0.3)
        flux = make_flux(name, params)
        box = (-1.5, 1.5)
        nf = make_numerical_flux(GODUNOV, mesh, flux, box=box)
        tau = cfl_timestep(nf, 0.5)
        state = init_state(mesh, lambda phi, theta: 0.5 * np.cos(theta)
                           + 0.4 * np.sin(phi) * np.sin(theta))
        state.tau = tau
        mass0 = float(state.u @ mesh.cell_area)
        linf = float(np.abs(state.u).max())
        for _ in range(500):
            state, _ = step(state, nf, need_decomposition=False)
            state.tau = tau
            mass = float(state.u @ mesh.cell_area)
            assert abs(mass - mass0) <= 1e-12 * (1.0 + abs(mass0))
            new_linf = float(np.abs(state.u).max())
            assert new_linf <= linf * (1.0 + 1e-14) + 1e-15
            linf = new_linf
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    report_line["passed"] = True


# ---------------------------------------------------------------------------
# 4. L1 contraction
# ---------------------------------------------------------------------------

def test_4_l1_contraction(report_line):
    mesh, flux, nf, tau, state_u = _burgers_setup()
    state_v = init_state(mesh, lambda phi, theta: 0.6 * np.cos(theta)
                         + 0.4 * np.sin(phi) * np.sin(theta) + 0.1)
    state_v.tau = tau
    dist = float(np.abs(state_u.u - state_v.u) @ mesh.cell_area)
    for _ in range(200):
        state_u, _ = step(state_u, nf, need_decomposition=False)
        state_v, _ = step(state_v, nf, need_decomposition=False)
        state_u.tau = tau
        state_v.tau = tau
        new_dist = float(np.abs(state_u.u - state_v.u) @ mesh.cell_area)
        assert new_dist <= dist + 1e-12 * (1.0 + dist)
        dist = new_dist
    report_line["passed"] = True


# ---------------------------------------------------------------------------
# 5. entropy inequalities
# ---------------------------------------------------------------------------

def test_5_entropy_inequalities(report_line, capsys):
    specs = [kruzkov_spec(-0.5), kruzkov_spec(0.0), kruzkov_spec(0.5),
             square_spec()]
    for kind in FLUX_KINDS:
        mesh, flux, nf, tau, state = _burgers_setup(kind)
        u0_l2_sq = float(state.u ** 2 @ mesh.cell_area)
        cumulative = 0.0
        T = 0.0
        for _ in range(100):
            state, decomp = step(state, nf)
            state.tau = tau
            T += tau
            for spec in specs:
                rec, = entropy_report(nf, decomp, [spec])
                assert rec.worst_pc10 <= 1e-10
                assert rec.pc12_satisfied
                if spec.name == "square":
                    cumulative += rec.dissipation_increment
        assert math.isfinite(cumulative)
        C = max(0.0, (cumulative - u0_l2_sq) / T)
        assert cumulative <= u0_l2_sq + C * T + 1e-12
        with capsys.disabled():
            print(f"  entropy dissipation bound [{kind}]: "
                  f"cumulative {cumulative:.3e} <= ||u0||^2 {u0_l2_sq:.3e} "
                  f"+ C*T with C = {C:.3e}")
    report_line["passed"] = True


# ---------------------------------------------------------------------------
# 6. latitude-band decoupling oracle
# ---------------------------------------------------------------------------

def test_6_decoupling_oracle(report_line):
    mesh, flux, nf, tau, state = _burgers_setup()
    spec = square_spec()
    oracles = []
    for j in range(mesh.n_theta):
        ids = band_meridian_faces(mesh, j)
        cells = np.arange(j * mesh.n_phi, (j + 1) * mesh.n_phi)
        oracles.append((cells, Oracle1D(
            band=j, n=mesh.n_phi,
            nf=NumericalFlux(kind=nf.kind, table=nf.table.view(ids)),
            cell_area=float(mesh.cell_area[cells[0]]),
            face_measure=float(mesh.face_measure[ids[0]]),
            u=state.u[cells].copy())))

    entropy0 = float(spec.u_values(state.u) @ mesh.cell_area)
    worst = 0.0
    shock_seen = False
    for n in range(200):
        state, decomp = step(state, nf)
        state.tau = tau
        for cells, oracle in oracles:
            oracle.step(tau)
            worst = max(worst, float(np.abs(state.u[cells] - oracle.u).max()))
        entropy = float(spec.u_values(state.u) @ mesh.cell_area)
        if entropy < entropy0 - 1e-3:
            shock_seen = True     # entropy loss marks shock formation
    assert worst <= 1e-12
    assert shock_seen            # the comparison covers pre- and post-shock
    report_line["passed"] = True


# ---------------------------------------------------------------------------
# 7. TV diminishing and the incompatible example
# ---------------------------------------------------------------------------

def test_7_tvd(report_line):
    mesh, flux, nf, tau, state = _burgers_setup()
    X = VectorField(lambda y: np.array([1.0, 0.0]))
    weights = tv_face_weights(mesh, X)
    tv = discrete_tv_x(state, X, weights)
    scale = max(1.0, tv)
    for _ in range(200):
        state, _ = step(state, nf, need_decomposition=False)
        state.tau = tau
        new_tv = discrete_tv_x(state, X, weights)
        assert new_tv <= tv + 1e-10 * scale
        tv = new_tv

    bad = from_components(lambda u, phi, theta: (np.cos(phi) * u, 0.0))
    rng = np.random.default_rng(107)
    pts = np.vstack([random_points(rng, 10),
                     [[math.pi / 2, math.pi / 2]]])
    report = tvd_compatibility(bad, X, [1.0, 0.5], pts)
    assert not report.compatible
    assert report.bracket_residual >= 0.1
    report_line["passed"] = True


# ---------------------------------------------------------------------------
# 8. grid convergence
# ---------------------------------------------------------------------------

def test_8_convergence(tmp_path, report_line, capsys):
    start = time.perf_counter()
    cfg_path = tmp_path / "rotation.json"
    cfg_path.write_text(json.dumps({
        "mesh": {"n_phi": 16, "n_theta": 8, "theta_min": 0.3},
        "flux": {"name": "solid_rotation", "params": {"omega": 1.0}},
        "numerical_flux": {"kind": "godunov", "safety": 0.5},
        "initial": {"name": "equatorial_bump"},
        "T": 2 * math.pi,
        "diagnostics": {},
    }))
    out = tmp_path / "out"
    assert main(["converge", str(cfg_path), "--levels", "4",
                 "--out-dir", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    errors = [lvl["l1_error"] for lvl in report["levels"]]
    assert all(e1 < e0 for e0, e1 in zip(errors, errors[1:]))
    orders = [lvl["order"] for lvl in report["levels"][1:]]
    assert all(o >= 0.5 for o in orders)
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0
    with capsys.disabled():
        print(f"  convergence: errors {['%.4e' % e for e in errors]}, "
              f"orders {['%.3f' % o for o in orders]} in {elapsed:.1f}s")
    report_line["passed"] = True


# ---------------------------------------------------------------------------
# 9. thread reproducibility
# ---------------------------------------------------------------------------

def test_9_reproducibility(tmp_path, report_line):
    cfg_path = tmp_path / "burgers.json"
    cfg_path.write_text(json.dumps({
        "mesh": {"n_phi": 16, "n_theta": 8, "theta_min": 0.3},
        "flux": {"name": "latitude_burgers", "params": {"c_expr": "sin(theta)"}},
        "numerical_flux": {"kind": "godunov", "safety": 0.5},
        "initial": {"name": "band_step"},
        "T": 1.0,
        "diagnostics": {"tv_fields": ["dphi"],
                        "entropies": ["square", "kruzkov:0"]},
    }))
    out1, out8 = tmp_path / "t1", tmp_path / "t8"
    assert main(["run", str(cfg_path), "--out-dir", str(out1),
                 "--threads", "1"]) == 0
    assert main(["run", str(cfg_path), "--out-dir", str(out8),
                 "--threads", "8"]) == 0
    b1 = (out1 / "diag.csv").read_bytes()
    b8 = (out8 / "diag.csv").read_bytes()
    assert b1 == b8 and len(b1) > 0
    report_line["passed"] = True
