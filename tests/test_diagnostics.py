import math
from dataclasses import replace

import numpy as np
import pytest

from spherefv import (
    GODUNOV,
    EntropySpec,
    Monitor,
    VectorField,
    build_latlon,
    cfl_timestep,
    check_tv_diminishing,
    discrete_tv_x,
    entropy_report,
    init_state,
    kruzkov_spec,
    l1_error,
    make_flux,
    make_numerical_flux,
    square_spec,
    step,
    tv_face_weights,
)
from spherefv.mesh import LATITUDE, MERIDIAN


def _dphi():
    return VectorField(lambda y: np.array([1.0, 0.0]))


def _setup(kind=GODUNOV, n_phi=8, n_theta=4):
    mesh = build_latlon(n_phi, n_theta, 0.3)
    flux = make_flux("latitude_burgers", {"c_expr": "sin(theta)"})
    box = (-1.5, 1.5)
    nf = make_numerical_flux(kind, mesh, flux, box=box)
    tau = cfl_timestep(nf, 0.5)
    state = init_state(mesh, lambda phi, theta: 0.5 * np.cos(theta)
                       + 0.3 * np.sin(phi) * np.sin(theta))
    state.tau = tau
    return mesh, flux, nf, tau, state


# ---------------------------------------------------------------------------
# discrete TV along X
# ---------------------------------------------------------------------------

def test_tv_weights_dphi_closed_form(small_mesh):
    weights = tv_face_weights(small_mesh, _dphi())
    for f, kind in enumerate(small_mesh.face_kind):
        if kind == MERIDIAN:
            # int_e sin(theta) dtheta over the face's band
            assert weights[f] > 0.0
        elif kind == LATITUDE:
            assert abs(weights[f]) <= 1e-14


def test_tv_weights_match_per_node_loop(small_mesh):
    # a varying field, evaluated node by node as the reference
    X = VectorField(lambda y: np.array([np.cos(y[1]), 0.3 * np.sin(y[0])]))
    mesh = small_mesh
    comp = np.empty((2, mesh.n_faces, 3))
    for f in range(mesh.n_faces):
        for q in range(3):
            comp[:, f, q] = X.at(np.array([mesh.face_q_phi[f, q], mesh.face_q_theta[f, q]]))
    integrand = np.abs(np.sin(mesh.face_q_theta) ** 2 * comp[0] * mesh.face_n_phi
                       + comp[1] * mesh.face_n_theta)
    expected = np.sum(mesh.face_q_w * integrand, axis=-1)
    np.testing.assert_array_equal(tv_face_weights(mesh, X), expected)


def test_tv_single_jump(small_mesh):
    meridian = np.flatnonzero(small_mesh.face_kind == MERIDIAN)[0]
    raised = small_mesh.face_left[meridian]
    u = np.zeros(small_mesh.n_cells)
    u[raised] = 1.0
    from spherefv import SolverState
    state = SolverState(mesh=small_mesh, u=u)
    weights = tv_face_weights(small_mesh, _dphi())
    tv = discrete_tv_x(state, _dphi(), weights)
    # the raised cell touches its two meridian faces plus latitude faces
    # (zero weight), so TV = sum of the two meridian face weights
    fids = [fid for fid in small_mesh.cell_faces[small_mesh.slot_cell == raised]
            if small_mesh.face_kind[fid] == MERIDIAN]
    assert tv == pytest.approx(sum(weights[f] for f in fids), rel=1e-12)


def test_tv_invariances(small_mesh):
    rng = np.random.default_rng(51)
    from spherefv import SolverState
    u = rng.uniform(-1, 1, small_mesh.n_cells)
    state = SolverState(mesh=small_mesh, u=u)
    shifted = SolverState(mesh=small_mesh, u=u + 0.37)
    X = _dphi()
    cX = VectorField(lambda y: np.array([2.5, 0.0]))
    assert discrete_tv_x(shifted, X) == discrete_tv_x(state, X)
    assert discrete_tv_x(state, cX) == pytest.approx(2.5 * discrete_tv_x(state, X),
                                                     rel=1e-12)
    const = SolverState(mesh=small_mesh, u=np.full(small_mesh.n_cells, 0.8))
    assert discrete_tv_x(const, X) == 0.0


def test_tv_diminishing_over_trajectory():
    mesh, flux, nf, tau, state = _setup()
    weights = tv_face_weights(mesh, _dphi())
    series = [discrete_tv_x(state, _dphi(), weights)]
    for _ in range(100):
        state, _ = step(state, nf)
        state.tau = tau
        series.append(discrete_tv_x(state, _dphi(), weights))
    report = check_tv_diminishing(series, tau, compatible=True)
    assert report.violating_steps == ()
    assert report.max_relative_increase <= 1e-10


def test_tv_report_budget_for_incompatible():
    report = check_tv_diminishing([1.0, 1.1, 1.3], 0.1, compatible=False,
                                  bracket_sup=0.7, x_div_l1=0.2)
    assert report.budget is not None and report.budget > 0.0
    assert report.tv_time_integral == pytest.approx(0.21, rel=1e-12)


# ---------------------------------------------------------------------------
# entropy inequalities
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("kind", ["lax_friedrichs", "engquist_osher", "godunov"])
def test_entropy_inequalities_all_kinds(kind):
    mesh, flux, nf, tau, state = _setup(kind)
    specs = [square_spec(), kruzkov_spec(-0.5), kruzkov_spec(0.0), kruzkov_spec(0.5)]
    for _ in range(20):
        state, decomp = step(state, nf)
        state.tau = tau
        for spec in specs:
            rec, = entropy_report(nf, decomp, [spec])
            assert rec.worst_pc10 <= 1e-10
            assert rec.pc12_satisfied
            assert rec.entropy_mass_new <= rec.entropy_mass_old + 1e-10


def test_entropy_mass_decreases_square():
    mesh, flux, nf, tau, state = _setup()
    spec = square_spec()
    masses = []
    for _ in range(50):
        state, decomp = step(state, nf)
        state.tau = tau
        rec, = entropy_report(nf, decomp, [spec])
        masses.append((rec.entropy_mass_old, rec.entropy_mass_new))
    for old, new in masses:
        assert new <= old + 1e-12 * (1.0 + abs(old))
    assert masses[-1][1] < masses[0][0]


def test_divergence_correction_vanishes_for_inert_latitude_flux():
    mesh, flux, nf, tau, state = _setup()
    state, decomp = step(state, nf)
    assert np.abs(decomp.div_corr).max() == 0.0
    assert np.array_equal(decomp.u_ke, decomp.utilde)


# ---------------------------------------------------------------------------
# error norms
# ---------------------------------------------------------------------------

def test_l1_error_examples(small_mesh):
    state = init_state(small_mesh, lambda phi, theta: np.cos(theta))
    assert l1_error(state, state.u) == 0.0
    shifted = state.u + 0.25
    assert l1_error(state, shifted) == pytest.approx(4 * math.pi * 0.25, rel=1e-12)


def test_l1_error_triangle_inequality(small_mesh):
    rng = np.random.default_rng(52)
    from spherefv import SolverState
    for _ in range(10):
        a, b, c = rng.uniform(-1, 1, (3, small_mesh.n_cells))
        sa = SolverState(mesh=small_mesh, u=a)
        sb = SolverState(mesh=small_mesh, u=b)
        dab = l1_error(sa, b)
        dbc = l1_error(sb, c)
        dac = l1_error(sa, c)
        assert dac <= dab + dbc + 1e-12


# ---------------------------------------------------------------------------
# monitor / CSV
# ---------------------------------------------------------------------------

def test_monitor_csv_roundtrip(tmp_path):
    mesh, flux, nf, tau, state = _setup()
    monitor = Monitor(nf,
                      tv_fields={"dphi": tv_face_weights(mesh, _dphi())},
                      entropies=[square_spec(), kruzkov_spec(0.0)])
    monitor.record_initial(state)
    from spherefv import run
    final = run(state, nf, T=20 * tau, tau=tau, hooks=[monitor])
    path = tmp_path / "diag.csv"
    monitor.write_csv(str(path))
    lines = path.read_text().strip().splitlines()
    header = lines[0].split(",")
    assert header[:4] == ["step", "t", "mass", "linf"]
    assert "tv_dphi" in header and "entropy_mass_square" in header
    assert len(lines) == final.n + 2     # header + initial + one row per step
    table = np.genfromtxt(str(path), delimiter=",", names=True)
    assert np.all(np.isfinite(table["mass"]))
    mass = table["mass"]
    assert np.abs(mass - mass[0]).max() <= 1e-12 * (1.0 + abs(mass[0]))
    tv = table["tv_dphi"]
    assert np.all(np.diff(tv) <= 1e-10)


def test_square_report_takes_exact_alpha():
    # U = u^2/2 has U'' = 1 on every box; Kruzkov and a default spec take 0
    mesh, flux, nf, tau, state = _setup()
    assert EntropySpec(kind="smooth", name="quartic").alpha == 0.0
    for box in ((-1.5, 1.5), (-2.0, 2.0)):
        nf.table.rebuild(box)
        state, decomp = step(state, nf)
        state.tau = tau
        square, = entropy_report(nf, decomp, [square_spec()])
        assert square.alpha == 1.0 and square.pc12_satisfied
        assert square.dissipation_increment > 0.0
        assert square.pc12_lhs == square.entropy_mass_new + 0.5 * square.dissipation_increment
        assert entropy_report(nf, decomp, [kruzkov_spec(0.0)])[0].alpha == 0.0


def test_monitor_takes_entropy_masses_from_the_reports(monkeypatch):
    mesh, flux, nf, tau, state = _setup()
    specs = [square_spec(), kruzkov_spec(0.0)]
    monitor = Monitor(nf, entropies=specs)
    monitor.record_initial(state)
    calls = []
    u_values = EntropySpec.u_values

    def counted(self, u):
        calls.append(self.name)
        return u_values(self, u)

    monkeypatch.setattr(EntropySpec, "u_values", counted)
    for _ in range(3):
        state, decomp = step(state, nf)
        state.tau = tau
        monitor(state, decomp)
    # U at the old and new cell states and at the two per-slot states, no more
    assert len(calls) == 3 * 4 * len(specs)
    monkeypatch.undo()
    last = monitor.records[-1]
    for spec in specs:
        mass = float(np.sum(spec.u_values(state.u) * mesh.cell_area))
        assert last.entropy_mass[spec.name] == mass


@pytest.mark.parametrize("kind", ["lax_friedrichs", "engquist_osher", "godunov"])
def test_one_report_for_several_entropies_matches_single_reports(kind):
    mesh, flux, nf, tau, state = _setup(kind)
    specs = [square_spec(), kruzkov_spec(0.0), kruzkov_spec(-0.5),
             EntropySpec(kind="smooth", name="quartic", U=lambda u: 0.25 * u ** 4,
                         dU=lambda u: u ** 3)]
    for _ in range(5):
        state, decomp = step(state, nf)
        state.tau = tau
        together = entropy_report(nf, decomp, specs)
        assert [rec.name for rec in together] == [spec.name for spec in specs]
        assert together == [entropy_report(nf, decomp, [spec])[0] for spec in specs]
    assert entropy_report(nf, decomp, []) == []


def test_monitor_without_entropies_does_no_entropy_work(monkeypatch):
    from spherefv import diagnostics, fvm

    def forbidden(*args, **kwargs):
        raise AssertionError("entropy work in a monitor without entropies")

    mesh, flux, nf, tau, state = _setup()
    monitor = Monitor(nf, tv_fields={"dphi": tv_face_weights(mesh, _dphi())})
    monitor.record_initial(state)
    for name in ("smooth_fluxes", "kruzkov_fluxes"):
        monkeypatch.setattr(fvm.NumericalFlux, name, forbidden)
    monkeypatch.setattr(diagnostics, "entropy_report", forbidden)
    for _ in range(3):
        state, decomp = step(state, nf)
        state.tau = tau
        monitor(state, decomp)
    assert [r.worst_pc10 for r in monitor.records] == [0.0] * 4
    assert monitor.pc15_cumulative == 0.0 and monitor.entropy_summary() == {}


def test_monitor_entropy_summary():
    # worst max |R|, worst pc12 gap and PC12 at every step, per entropy
    mesh, flux, nf, tau, state = _setup()
    specs = [square_spec(), kruzkov_spec(0.0)]
    monitor = Monitor(nf, entropies=specs)
    assert monitor.entropy_summary() == {
        spec.name: {"worst_max_abs_r": 0.0, "worst_pc12_gap": 0.0, "pc12_every_step": True}
        for spec in specs}
    reports = []
    for _ in range(5):
        state, decomp = step(state, nf)
        state.tau = tau
        monitor(state, decomp)
        reports.append(entropy_report(nf, decomp, specs))
    summary = monitor.entropy_summary()
    for i, spec in enumerate(specs):
        steps = [step_reports[i] for step_reports in reports]
        assert summary[spec.name] == {
            "worst_max_abs_r": max(rec.max_abs_r for rec in steps),
            "worst_pc12_gap": max(rec.pc12_lhs - rec.pc12_rhs for rec in steps),
            "pc12_every_step": True}
        assert summary[spec.name]["worst_pc12_gap"] < 0.0
