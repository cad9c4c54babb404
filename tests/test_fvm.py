import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from spherefv import (
    ConfigError,
    ENGQUIST_OSHER,
    EntropySpec,
    FLUX_KINDS,
    GODUNOV,
    LAX_FRIEDRICHS,
    Monitor,
    build_latlon,
    cfl_timestep,
    entropy_report,
    init_state,
    kruzkov_spec,
    make_flux,
    make_numerical_flux,
    numerical_flux,
    run,
    square_spec,
    step,
)
from spherefv import fvm
from spherefv.fvm import FaceFluxTable, NumericalFlux
from spherefv.mesh import MERIDIAN

from identities import NodeAverageTable, cross_flux, eo_entropy_integral, where_godunov_state


def _setup(kind=GODUNOV, n_phi=8, n_theta=4, flux_name="latitude_burgers",
           box=(-1.5, 1.5), safety=0.5):
    mesh = build_latlon(n_phi, n_theta, 0.3)
    flux = make_flux(flux_name, {"c_expr": "sin(theta)"}
                     if flux_name == "latitude_burgers" else {})
    nf = make_numerical_flux(kind, mesh, flux, box=box)
    tau = cfl_timestep(nf, safety)
    return mesh, flux, nf, tau


def _initial(mesh):
    return init_state(mesh, lambda phi, theta: 0.5 * np.cos(theta)
                      + 0.3 * np.sin(phi) * np.sin(theta))


# ---------------------------------------------------------------------------
# numerical flux axioms
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("kind", FLUX_KINDS)
def test_consistency_exact(kind):
    mesh, flux, nf, _ = _setup(kind)
    rng = np.random.default_rng(41)
    for u in rng.uniform(-1.2, 1.2, 5):
        states = np.full(mesh.n_faces, u)
        assert np.array_equal(nf.values(states, states), nf.table.s(states))


@pytest.mark.parametrize("kind", FLUX_KINDS)
def test_conservation_between_sides(kind):
    mesh, flux, nf, _ = _setup(kind)
    rng = np.random.default_rng(42)
    for fid in rng.choice(mesh.n_faces, 20, replace=False):
        u, v = rng.uniform(-1.2, 1.2, 2)
        left = numerical_flux(nf, fid, mesh.face_left[fid], u, v)
        right = numerical_flux(nf, fid, mesh.face_right[fid], v, u)
        assert left == -right


@pytest.mark.parametrize("kind", FLUX_KINDS)
def test_monotonicity_sampled(kind):
    _, _, nf, _ = _setup(kind)
    worst = nf.validate_monotonicity(n_states=15, max_faces=60,
                                     rng=np.random.default_rng(43))
    assert worst >= -1e-12


@pytest.mark.parametrize("flux_name, params", [
    ("latitude_burgers", {"c_expr": "cos(theta)"}),
    ("potential", {"a": "0.5*u^2*n3 + u*n1*n2 + sin(3*u)*n1^2*n2"})])
def test_godunov_state_is_first_extremal_candidate(flux_name, params):
    mesh = build_latlon(8, 4, 0.3)
    nf = make_numerical_flux(GODUNOV, mesh, make_flux(flux_name, params), box=(-1.5, 1.5))
    t = nf.table
    rng = np.random.default_rng(48)
    for states in (np.linspace(-1.5, 1.5, 7), rng.uniform(-1.5, 1.5, 50)):
        a = rng.choice(states, mesh.n_faces)
        b = rng.choice(states, mesh.n_faces)
        s_a, s_b = t.s(a), t.s(b)
        s, pick = nf._godunov_state(a, b, s_a, s_b)
        for e in range(mesh.n_faces):
            lo, hi = sorted((a[e], b[e]))
            # candidates (index, s): a, b, then the critical points inside
            cands = [(0, s_a[e]), (1, s_b[e])] + [
                (2 + j, c_s) for j, (c, c_s) in enumerate(zip(t.crit[e], t.crit_s[e]))
                if lo < c < hi]
            # min and max return the first extremal candidate
            first = (min if a[e] <= b[e] else max)(cands, key=lambda p: p[1])
            assert (pick[e], s[e]) == first


@pytest.mark.parametrize("n_phi, n_theta", [(3, 2), (8, 4), (47, 24), (48, 24)])
def test_godunov_state_matches_where_selection_bitwise(n_phi, n_theta):
    mesh = build_latlon(n_phi, n_theta, 0.3)
    flux = make_flux("potential", {"a": "0.5*u^2*n3 + u*n1*n2 + sin(3*u)*n1^2*n2"})
    nf = make_numerical_flux(GODUNOV, mesh, flux, box=(-1.5, 1.5))
    t = nf.table
    n = mesh.n_faces
    rng = np.random.default_rng(n_phi * n_theta)
    states = np.array([0.0, -0.0, 0.5, -0.5, 1.0, -1.0])
    values = np.array([0.0, -0.0, 0.25, -0.25, 1.0, np.nan])

    def check(nf, a, b, s_a, s_b):
        got = nf._godunov_state(a, b, s_a, s_b)
        want = where_godunov_state(nf.table.crit, nf.table.crit_s, a, b, s_a, s_b)
        assert np.array_equal(_bits(got[0]), _bits(want[0]))
        assert np.array_equal(got[1], want[1])
        return got[1]

    # the table's own critical points (NaN columns past a face's count), ties
    # a = b and, for the even potential term, s_a = s_b
    a = rng.choice(states, n)
    b = np.where(rng.random(n) < 0.2, a, rng.choice(states, n))
    assert np.isnan(t.crit).any() and np.any(a == b)
    pick = check(nf, a, b, t.s(a), t.s(b))
    assert np.any(pick >= 2)
    # drawn s values and critical points: signed zeros, ties with the
    # candidates, NaN values and a whole NaN column
    v = t.view(slice(None))
    v.crit = rng.choice(np.r_[states, 0.75, np.nan], (n, 4))
    v.crit[:, 2] = np.nan
    v.crit_s = np.where(np.isnan(v.crit), np.nan, rng.choice(values[:-1], (n, 4)))
    other = replace(nf, table=v)
    winners = set()
    for _ in range(8):
        a, b = rng.choice(states, n), rng.choice(states, n)
        winners.update(check(other, a, b, rng.choice(values, n), rng.choice(values, n)))
    assert {0, 1} < winners and 4 not in winners
    # no critical-point columns at all
    v.crit, v.crit_s = v.crit[:, :0], v.crit_s[:, :0]
    check(other, a, b, rng.choice(values, n), rng.choice(values, n))


def _variation_sorted_partition(nf, a, b, s_a, s_b):
    """The Engquist-Osher variation as one sum over a sorted partition:
    missing critical points at the box's low end, clipped into the interval
    and sorted to its front, then np.sum over the |increments|."""
    t = nf.table
    lo = np.minimum(a, b)[:, None]
    hi = np.maximum(a, b)[:, None]
    inner = np.sort(np.clip(np.nan_to_num(t.crit, nan=t.box[0]), lo, hi), axis=1)
    s_lo = np.where(a <= b, s_a, s_b)[:, None]
    s_hi = np.where(a <= b, s_b, s_a)[:, None]
    s_inner = np.where(inner == hi, s_hi, np.where(inner == lo, s_lo, t.s(inner)))
    pts_s = np.concatenate([s_lo, s_inner, s_hi], axis=1)
    return np.sum(np.abs(np.diff(pts_s, axis=1)), axis=1)


# potentials whose vertex tables at 12x6 have 0, 1, 3 and 6 critical columns
# (a_u = n3, n3 + 0.6 u n1, (u^3 - u) n3, 7 cos(7u) n3).  np.sum adds fewer
# than 8 terms in order, so up to 6 columns the column-by-column sum must
# agree bit for bit.
@pytest.mark.parametrize("a, width", [("u*n3", 0), ("u*n3 + 0.3*u^2*n1", 1),
                                      ("(0.25*u^4 - 0.5*u^2)*n3", 3), ("sin(7*u)*n3", 6)])
def test_variation_by_columns_matches_sorted_partition_sum(a, width):
    mesh = build_latlon(12, 6, 0.3)
    nf = make_numerical_flux(ENGQUIST_OSHER, mesh, make_flux("potential", {"a": a}),
                             box=(-1.5, 1.5))
    t = nf.table
    assert t.crit.shape[1] == width
    rng = np.random.default_rng(54)
    ua = rng.uniform(-1.5, 1.5, mesh.n_faces)
    ub = rng.uniform(-1.5, 1.5, mesh.n_faces)
    faces = rng.permutation(mesh.n_faces)
    ub[faces[:20]] = ua[faces[:20]]                               # equal states
    if width:
        # states at a face's own critical points, on both sides
        has = np.flatnonzero(~np.isnan(t.crit[:, 0]))
        ua[has[:15]] = t.crit[has[:15], 0]
        ub[has[5:20]] = t.crit[has[5:20], width - 1]
        ub[has[20:25]] = ua[has[20:25]] = t.crit[has[20:25], 0]
    assert np.isfinite(ua).all() and np.isfinite(ub).all()
    for x, y in [(ua, ub), (ub, ua)]:
        s_x, s_y = t.s(x), t.s(y)
        np.testing.assert_array_equal(
            _bits(nf._variation(x, y, s_x, s_y)),
            _bits(_variation_sorted_partition(nf, x, y, s_x, s_y)))


def test_upwind_equivalence_for_monotone_restriction():
    # solid rotation: s is increasing in u on every meridian face, so both
    # Godunov and Engquist-Osher reduce to the upwind value s(a)
    mesh, flux, nf_g, _ = _setup(GODUNOV, flux_name="solid_rotation")
    nf_e = make_numerical_flux("engquist_osher", mesh, flux, box=(-1.5, 1.5))
    rng = np.random.default_rng(44)
    a = rng.uniform(-1.2, 1.2, mesh.n_faces)
    b = rng.uniform(-1.2, 1.2, mesh.n_faces)
    s_a = nf_g.table.s(a)
    assert np.array_equal(nf_g.values(a, b), s_a)
    assert np.abs(nf_e.values(a, b) - s_a).max() <= 1e-14


def test_lax_friedrichs_formula():
    mesh, flux, nf, _ = _setup(LAX_FRIEDRICHS)
    rng = np.random.default_rng(45)
    a = rng.uniform(-1.2, 1.2, mesh.n_faces)
    b = rng.uniform(-1.2, 1.2, mesh.n_faces)
    t = nf.table
    expected = 0.5 * (t.s(a) + t.s(b)) - 0.5 * t.lam * (b - a)
    assert np.array_equal(nf.values(a, b), expected)


def test_unknown_kind_rejected():
    mesh, flux, _, _ = _setup()
    with pytest.raises(ConfigError):
        make_numerical_flux("roe", mesh, flux)


# ---------------------------------------------------------------------------
# CFL
# ---------------------------------------------------------------------------

def test_cfl_solid_rotation_formula():
    mesh, flux, nf, tau = _setup(GODUNOV, flux_name="solid_rotation",
                                 box=(-1.0, 1.0), safety=0.5)
    geo = float((mesh.cell_area / mesh.cell_perimeter).min())
    # Lip(f) = 1 for unit solid rotation over |u| <= 1
    assert tau == pytest.approx(0.5 * geo, rel=1e-10)


def test_cfl_shrinks_with_refinement():
    _, _, _, tau1 = _setup(GODUNOV, n_phi=8, n_theta=4)
    _, _, _, tau2 = _setup(GODUNOV, n_phi=16, n_theta=8)
    assert tau1 / tau2 == pytest.approx(2.0, rel=0.35)


def test_cfl_validation():
    mesh, flux, nf, _ = _setup()
    with pytest.raises(ConfigError):
        cfl_timestep(nf, safety=1.5)
    zero = make_flux("solid_rotation", {"omega": 0.0})
    nf0 = make_numerical_flux(GODUNOV, mesh, zero)
    with pytest.raises(ConfigError, match="state-independent"):
        cfl_timestep(nf0, safety=0.5)


# ---------------------------------------------------------------------------
# step / run
# ---------------------------------------------------------------------------

def test_constant_state_divergence_free_flux_inert():
    mesh, flux, nf, tau = _setup(GODUNOV, flux_name="solid_rotation")
    state = init_state(mesh, lambda phi, theta: 0.75 + 0.0 * phi)
    state.tau = tau
    new, _ = step(state, nf)
    assert np.abs(new.u - 0.75).max() <= 1e-14


@pytest.mark.parametrize("kind", FLUX_KINDS)
def test_mass_conservation_and_max_principle(kind):
    mesh, flux, nf, tau = _setup(kind, safety=0.99)
    state = _initial(mesh)
    state.tau = tau
    mass0 = float(state.u @ mesh.cell_area)
    linf = np.abs(state.u).max()
    for _ in range(50):
        state, _ = step(state, nf)
        state.tau = tau
        mass = float(state.u @ mesh.cell_area)
        assert abs(mass - mass0) <= 1e-12 * (1.0 + abs(mass0))
        new_linf = np.abs(state.u).max()
        assert new_linf <= linf + 1e-14
        linf = new_linf


def test_run_t_zero_and_hook_count():
    mesh, flux, nf, tau = _setup()
    state = _initial(mesh)
    final = run(state, nf, T=0.0, tau=tau)
    assert np.array_equal(final.u, state.u) and final.n == 0

    calls = []
    T = 7.3 * tau
    final = run(state, nf, T=T, tau=tau,
                hooks=[lambda s, d: calls.append(s.n)])
    assert len(calls) == math.ceil(T / tau)
    assert final.t == pytest.approx(T, rel=1e-14)


def test_negative_time_rejected():
    mesh, flux, nf, tau = _setup()
    for T in (-1.0, math.nan, math.inf):       # an infinite T would never end
        with pytest.raises(ConfigError, match="finite and non-negative"):
            run(_initial(mesh), nf, T=T, tau=tau)


# ---------------------------------------------------------------------------
# convex decomposition
# ---------------------------------------------------------------------------

# n_phi=3 gives caps with fewer faces than the four of a band cell
@pytest.mark.parametrize(
    "kind, n_phi, n_theta",
    [(kind, 8, 4) for kind in FLUX_KINDS] + [(kind, 3, 4) for kind in FLUX_KINDS],
    ids=list(FLUX_KINDS) + [f"{kind}-nphi3" for kind in FLUX_KINDS])
def test_reconstruction_identity(kind, n_phi, n_theta):
    mesh, flux, nf, tau = _setup(kind, n_phi=n_phi, n_theta=n_theta)
    state = _initial(mesh)
    state.tau = tau
    for _ in range(10):
        state, decomp = step(state, nf)
        state.tau = tau
        assert decomp.reconstruction_residual() <= 1e-12


def test_intermediate_states_are_convex_combinations():
    mesh, flux, nf, tau = _setup(GODUNOV)
    state = _initial(mesh)
    state.tau = tau
    state, d = step(state, nf)
    fid = mesh.cell_faces
    own = d.u_old[mesh.slot_cell]
    other = np.where(mesh.cell_signs > 0, d.u_right[fid], d.u_left[fid])
    with np.errstate(divide="ignore", invalid="ignore"):
        lam = (own - d.utilde) / (own - other)
    mask = np.abs(own - other) > 1e-13
    assert lam[mask].min() >= -1e-12
    assert lam[mask].max() <= 1.0 + 1e-12
    recon = own * (1.0 - lam) + other * lam
    assert np.abs((recon - d.utilde)[mask]).max() <= 1e-12


def _count_godunov_states(monkeypatch):
    """Patch ``_godunov_state`` to record each call; returns the record."""
    calls = []
    godunov_state = NumericalFlux._godunov_state

    def counted(self, *args):
        calls.append(args[0].size)
        return godunov_state(self, *args)

    monkeypatch.setattr(NumericalFlux, "_godunov_state", counted)
    return calls


def test_monitored_godunov_step_evaluates_candidates_once(monkeypatch):
    mesh, flux, nf, tau = _setup(GODUNOV, n_phi=12, n_theta=6)
    state = _initial(mesh)
    state.tau = tau
    calls = _count_godunov_states(monkeypatch)
    _, decomp = step(state, nf)
    G = nf.smooth_fluxes(square_spec().U, square_spec().dU, decomp, square_spec().dU_degree)
    entropy_report(nf, decomp, [square_spec()])
    assert calls == [mesh.n_faces]                  # the step's own evaluation
    # Burgers over a box around 0 has a critical column and no upwind cells,
    # so a plain step takes the candidates too
    assert nf.table.crit.shape[1] == 1 and nf.table.upwind is None
    _, plain = step(state, nf, need_decomposition=False)
    assert plain is None and len(calls) == 2
    monkeypatch.undo()

    # the carried winners are those of a fresh evaluation, threads or not, so
    # smooth_fluxes selects as before (its values are checked bitwise against
    # the pointwise formulas in test_entropy_fluxes_match_pointwise_formulas_bitwise)
    _, pick = nf._godunov_state(decomp.u_left, decomp.u_right, decomp.s_left, decomp.s_right)
    assert np.array_equal(decomp.pick, pick) and np.any(pick >= 2)
    _, threaded = step(state, nf, threads=4)
    assert np.array_equal(threaded.pick, pick)
    for got, expected in zip(G, nf.smooth_fluxes(square_spec().U, square_spec().dU, threaded,
                                                  square_spec().dU_degree)):
        np.testing.assert_array_equal(_bits(got), _bits(expected))
    for kind in (LAX_FRIEDRICHS, ENGQUIST_OSHER):
        other = make_numerical_flux(kind, mesh, flux, box=(-1.5, 1.5))
        assert step(state, other)[1].pick is None


@pytest.mark.parametrize("name, params, box, offset", [
    ("solid_rotation", {"omega": 1.0}, (-1.5, 1.5), 0.0),
    ("solid_rotation", {"omega": -1.0}, (-1.5, 1.5), 0.0),
    ("latitude_burgers", {"c_expr": "sin(theta)"}, (0.1, 2.0), 1.0),
    ("potential", {"a": "u*n3"}, (-1.5, 1.5), 0.0),
], ids=["rotation+", "rotation-", "burgers-positive", "potential-u*n3"])
def test_plain_upwind_step_matches_general_path_bitwise(name, params, box, offset, monkeypatch):
    # a table without critical columns steps a plain Godunov step at the
    # upwind cell: one s evaluation per face, no candidates and no pool, with
    # the bits of the general path (the step that builds the decomposition)
    mesh = build_latlon(12, 6, 0.3)
    flux = make_flux(name, params)
    nf = make_numerical_flux(GODUNOV, mesh, flux, box=box)
    assert nf.table.crit.shape[1] == 0 and nf.table.upwind is not None
    tau = cfl_timestep(nf, 0.5)
    state = init_state(mesh, lambda phi, theta: offset + 0.5 * np.cos(theta)
                       + 0.3 * np.sin(phi) * np.sin(theta))
    assert box[0] <= state.u.min() and state.u.max() <= box[1]
    calls = _count_godunov_states(monkeypatch)
    pools = []
    monkeypatch.setattr(fvm, "thread_pool", lambda threads: pools.append(threads))
    plain, general = replace(state, tau=tau), replace(state, tau=tau)
    for _ in range(20):
        plain, none = step(plain, nf, threads=2, need_decomposition=False)
        general, decomp = step(general, nf)
        assert none is None and decomp is not None
        np.testing.assert_array_equal(_bits(plain.u), _bits(general.u))
    assert calls == [mesh.n_faces] * 20 and pools == []


def test_box_expansion_across_a_critical_point_drops_upwind(monkeypatch):
    mesh = build_latlon(12, 6, 0.3)
    flux = make_flux("latitude_burgers", {"c_expr": "sin(theta)"})
    nf = make_numerical_flux(GODUNOV, mesh, flux, box=(0.2, 1.5))
    assert nf.table.upwind is not None and nf.table.view([0, 3]).upwind.shape == (2,)
    # the time step of the table over (0.2, 1.5), before its box expands
    state = replace(_initial(mesh), tau=cfl_timestep(nf, 0.5))
    assert state.u.min() < 0.0 < state.u.max()
    calls = _count_godunov_states(monkeypatch)
    with pytest.warns(RuntimeWarning, match="state left the tracked box"):
        plain, _ = step(state, nf, need_decomposition=False)
    assert nf.table.crit.shape[1] == 1 and nf.table.upwind is None
    assert nf.table.view([0, 3]).upwind is None
    # after the re-validation's sampled faces, the step's own candidates
    assert calls[-1] == mesh.n_faces and calls.count(mesh.n_faces) == 1
    general, _ = step(state, nf)
    assert calls.count(mesh.n_faces) == 2
    np.testing.assert_array_equal(_bits(plain.u), _bits(general.u))


# ---------------------------------------------------------------------------
# determinism
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("kind, name, params", [
    (GODUNOV, "latitude_burgers", {"c_expr": "sin(theta)"}),
    (ENGQUIST_OSHER, "potential", {"a": "u*n3 + 0.3*u^2*n1"}),
], ids=["burgers-godunov", "potential-eo"])
def test_threaded_step_bitwise_identical(kind, name, params):
    mesh = build_latlon(12, 6, 0.3)
    flux = make_flux(name, params)
    nf = make_numerical_flux(kind, mesh, flux, box=(-1.5, 1.5))
    tau = cfl_timestep(nf, 0.5)
    state = _initial(mesh)
    s1, s8 = replace(state), replace(state)
    for _ in range(20):
        s1.tau = tau
        s8.tau = tau
        s1, _ = step(s1, nf, threads=1)
        s8, _ = step(s8, nf, threads=8)
    assert np.array_equal(s1.u, s8.u)


def test_threaded_run_makes_one_pool(monkeypatch):
    import concurrent.futures

    made = []

    class CountingPool(concurrent.futures.ThreadPoolExecutor):
        def __init__(self, *args, **kwargs):
            made.append(kwargs.get("max_workers"))
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", CountingPool)
    mesh, flux, nf, tau = _setup(GODUNOV)
    state = _initial(mesh)
    threaded = run(state, nf, T=10 * tau, tau=tau, hooks=[lambda s, d: None], threads=2)
    assert threaded.n == 10 and made == [2]
    serial = run(state, nf, T=10 * tau, tau=tau, hooks=[lambda s, d: None], threads=1)
    assert made == [2] and np.array_equal(serial.u, threaded.u)


def test_table_view_matches_full_evaluation():
    mesh, flux, nf, _ = _setup(GODUNOV)
    rng = np.random.default_rng(46)
    a = rng.uniform(-1.2, 1.2, mesh.n_faces)
    b = rng.uniform(-1.2, 1.2, mesh.n_faces)
    full = nf.values(a, b)
    ids = np.sort(rng.choice(mesh.n_faces, 17, replace=False))
    sub = NumericalFlux(kind=nf.kind, table=nf.table.view(ids))
    assert np.array_equal(sub.values(a[ids], b[ids]), full[ids])


def _bits(x):
    return np.ascontiguousarray(x).view(np.uint64)


@pytest.mark.parametrize("name, params", [
    ("solid_rotation", {"omega": -0.7}),
    ("latitude_burgers", {"c_expr": "sin(theta)"}),
    ("potential", {"a": "u*n3 + 0.3*u^2*n1"}),
], ids=["rotation", "burgers", "potential"])
def test_table_evaluates_columns_bitwise(name, params):
    mesh = build_latlon(12, 6, 0.3)
    t = FaceFluxTable(mesh, make_flux(name, params), (-1.5, 1.5))
    cols = np.random.default_rng(49).uniform(-1.5, 1.5, (mesh.n_faces, 5))
    for func in (t.s, t.sp):
        whole = func(cols)
        assert whole.shape == cols.shape
        for j in range(cols.shape[1]):
            np.testing.assert_array_equal(_bits(whole[:, j]), _bits(func(cols[:, j])))
        np.testing.assert_array_equal(
            _bits(func(cols.reshape(-1, 5, 1)).reshape(cols.shape)), _bits(whole))
        np.testing.assert_array_equal(_bits(func(0.3)),
                                      _bits(func(np.full(mesh.n_faces, 0.3))))
        assert func(np.empty((mesh.n_faces, 0))).shape == (mesh.n_faces, 0)
    if name == "solid_rotation":   # s' never vanishes: no critical points
        assert t.crit.shape == t.crit_s.shape == (mesh.n_faces, 0)


# ---------------------------------------------------------------------------
# separable fast path
# ---------------------------------------------------------------------------

SEPARABLE_FLUXES = [("solid_rotation", {"omega": -0.7}),
                    ("latitude_burgers", {"c_expr": "sin(theta)"}),
                    ("latitude_burgers", {"c_expr": "cos(theta)"})]


@pytest.mark.parametrize("n_phi, n_theta", [(12, 6), (47, 24)])
@pytest.mark.parametrize("name, params", SEPARABLE_FLUXES,
                         ids=["rotation", "burgers-sin", "burgers-cos"])
def test_separable_path_matches_generic(name, params, n_phi, n_theta):
    box = (-1.5, 1.5)
    mesh = build_latlon(n_phi, n_theta, 0.3)
    flux = make_flux(name, params)
    fast = FaceFluxTable(mesh, flux, box)
    # the node-average quadrature oracle evaluates f itself
    slow = NodeAverageTable(mesh, flux, box)
    assert fast.D is not None and fast.D.shape[1] == 1 and slow.D is None

    tol = 1e-14
    states = np.linspace(box[0], box[1], 9)
    rng = np.random.default_rng(47)
    u = rng.uniform(box[0], box[1], mesh.n_faces)
    dU = lambda w: w  # noqa: E731 - the square entropy U = u^2 / 2
    for table_u in [u, np.column_stack([u, -u])]:
        assert np.abs(fast.s(table_u) - slow.s(table_u)).max() <= tol
        assert np.abs(fast.sp(table_u) - slow.sp(table_u)).max() <= tol
    assert np.abs(fast.speed - slow.speed).max() <= tol
    assert np.abs(fast.entropy_average(dU, u) - slow.entropy_average(dU, u)).max() <= tol

    # every critical point of the oracle's scan is found on the fast path
    found = ~np.isnan(slow.crit)
    assert fast.crit.shape[1] >= slow.crit.shape[1]
    assert np.abs(fast.crit[:, :slow.crit.shape[1]][found] - slow.crit[found]).max(
        initial=0.0) <= 1e-12

    for kind in FLUX_KINDS:
        nf_fast = NumericalFlux(kind=kind, table=fast)
        nf_slow = NumericalFlux(kind=kind, table=slow)
        for ua in states:
            a = np.full(mesh.n_faces, ua)
            for ub in states:
                b = np.full(mesh.n_faces, ub)
                assert np.abs(nf_fast.values(a, b) - nf_slow.values(a, b)).max() <= tol


@pytest.mark.parametrize("path", ["separable", "generic"])
def test_box_expansion_rebuilds_table(path):
    # "generic": a scanned table, here the node-average oracle's
    mesh = build_latlon(12, 6, 0.3)
    flux = make_flux("latitude_burgers", {"c_expr": "sin(theta)"})
    table = FaceFluxTable if path == "separable" else NodeAverageTable
    box = (-0.2, 0.6)
    nf = NumericalFlux(kind=GODUNOV, table=table(mesh, flux, box))
    state = _initial(mesh)
    assert state.u.min() < box[0]
    state.tau = cfl_timestep(make_numerical_flux(GODUNOV, mesh, flux, box=(-1.0, 1.0)), 0.5)
    with pytest.warns(RuntimeWarning, match="state left the tracked box"):
        step(state, nf)
    t = nf.table
    assert t.box[0] <= state.u.min() and state.u.max() <= t.box[1]
    fresh = table(mesh, flux, t.box)
    assert (t.D is None) == (path == "generic")
    for name in ("crit", "crit_s", "speed"):
        np.testing.assert_array_equal(getattr(t, name), getattr(fresh, name))
    assert nf.validate_monotonicity() >= -fvm.MONOTONICITY_TOL


def test_separable_step_never_evaluates_f():
    # neither face path evaluates f or f_u while stepping and monitoring, and
    # the coefficient table of a split potential evaluates no potential
    mesh = build_latlon(12, 6, 0.3)
    box = (-1.5, 1.5)

    def forbidden(*args):
        raise AssertionError("a face table evaluated f, f_u or a split potential")

    for flux, split in ((make_flux("latitude_burgers", {"c_expr": "sin(theta)"}), False),
                        (make_flux("potential", {"a": "u*n3 + 0.3*u^2*n1"}), True),
                        (make_flux("potential", {"a": UNSPLIT}), False)):
        blind = replace(flux, f=forbidden, f_u=forbidden)
        if split:
            assert flux.terms
            blind = replace(blind, potential=forbidden, potential_u=forbidden)
        for kind in FLUX_KINDS:
            nf = make_numerical_flux(kind, mesh, blind, box=box)
            state = _initial(mesh)
            # the time step of the real flux: the blind one has no f_u
            state.tau = cfl_timestep(make_numerical_flux(kind, mesh, flux, box=box), 0.5)
            _, decomp = step(state, nf)
            for spec in (square_spec(), kruzkov_spec(0.0)):
                entropy_report(nf, decomp, [spec])


def test_flux_without_face_restriction_rejected():
    # neither separable nor given by a potential: no face path forms s_e
    mesh = build_latlon(8, 4, 0.3)
    flux = cross_flux(lambda u, phi, theta: np.array([0.0, 0.0, 1.0]))
    with pytest.raises(ConfigError, match="neither separable"):
        make_numerical_flux(GODUNOV, mesh, flux)


# ---------------------------------------------------------------------------
# vertex-potential path
# ---------------------------------------------------------------------------

POTENTIALS = ["u*n3 + 0.3*u^2*n1", "0.5*u^2*n3 + u*n1*n2",
              "0.5*u^2*n3 + u*n1*n2 + sin(3*u)*n1^2*n2"]
# a potential that does not split into terms g(u) X(n): the vertex path
UNSPLIT = "sin(u*n1) + u*n3"


def _vertex_flux(flux):
    """The same potential without its terms: the vertex path."""
    return replace(flux, terms=())


@pytest.mark.parametrize("a", POTENTIALS + [UNSPLIT])
def test_potential_flux_evaluates_no_stencil(a, monkeypatch):
    # split or not, a potential flux takes f and f_u from exact derivatives:
    # no finite-difference stencil while it is built, evaluated, bounds the
    # time step or takes a monitored step of each kind
    def forbidden(*args, **kwargs):
        raise AssertionError("a potential flux evaluated a finite-difference stencil")

    monkeypatch.setattr("spherefv.flux._stencil", forbidden)
    mesh = build_latlon(12, 6, 0.3)
    box = (-1.5, 1.5)
    flux = make_flux("potential", {"a": a})
    for field in (flux.f, flux.f_u):
        assert np.all(np.isfinite(field(np.linspace(-1.0, 1.0, 5)[:, None], 0.7, [0.5, 1.9])))
    assert flux.lipschitz_on(*box) > 0.0
    for kind in FLUX_KINDS:
        nf = make_numerical_flux(kind, mesh, flux, box=box)
        monitor = Monitor(nf, entropies=[square_spec(), kruzkov_spec(0.0)])
        state = _initial(mesh)
        state.tau = cfl_timestep(nf, 0.5)
        monitor(*step(state, nf))


@pytest.mark.parametrize("n_phi, n_theta", [(12, 6), (47, 24)])
@pytest.mark.parametrize("a", POTENTIALS + [UNSPLIT])
def test_potential_constant_state_preserved(a, n_phi, n_theta):
    mesh = build_latlon(n_phi, n_theta, 0.3)
    flux = make_flux("potential", {"a": a})
    box = (-1.5, 1.5)
    fid = mesh.cell_faces
    for kind in FLUX_KINDS:
        nf = make_numerical_flux(kind, mesh, flux, box=box)
        # the coefficient table, or the vertex path for the unsplit potential
        assert (nf.table.D is None) == (nf.table.ends is not None) == (a == UNSPLIT)
        # the frozen-state divergence sum_e +-|e| s_e vanishes per cell
        s = nf.table.s(0.75)
        div = mesh.cell_sum(mesh.cell_signs * mesh.face_measure[fid] * s[fid])
        assert np.abs(div).max() <= 1e-15
        state = init_state(mesh, lambda phi, theta: 0.75 + 0.0 * phi)
        state.tau = cfl_timestep(nf, 0.5)
        new, _ = step(state, nf)
        assert np.abs(new.u - 0.75).max() <= 1e-14


@pytest.mark.parametrize("n_phi, n_theta", [(3, 2), (48, 24)])
def test_face_ends_match_vertex_rows_bitwise(n_phi, n_theta):
    mesh = build_latlon(n_phi, n_theta, 0.3)
    table = FaceFluxTable(mesh, make_flux("potential", {"a": UNSPLIT}), (-1.5, 1.5))
    expected = np.ascontiguousarray(mesh.vertex_xyz[mesh.face_vertices].T)
    assert table.ends.shape == (3, 2, mesh.n_faces) and table.ends.flags.c_contiguous
    np.testing.assert_array_equal(_bits(table.ends), _bits(expected))


# The potentials' coefficient tables against the node-average oracle
# (tests/identities.py), which averages f over the 3 face nodes and carries
# the 3-node quadrature error, O(|e|^6): 1.2e-5 at 12x6 for the sin(3u)
# potential.  The oracle's scan evaluates f at every node, hence 24x12.
@pytest.mark.parametrize("n_phi, n_theta, tol", [(12, 6, 1e-4), (24, 12, 1e-6)])
@pytest.mark.parametrize("a", POTENTIALS)
def test_vertex_path_matches_node_average(a, n_phi, n_theta, tol):
    box = (-1.5, 1.5)
    mesh = build_latlon(n_phi, n_theta, 0.3)
    flux = make_flux("potential", {"a": a})
    fast = FaceFluxTable(mesh, flux, box)
    slow = NodeAverageTable(mesh, flux, box)
    assert fast.D is not None and slow.D is None and slow.ends is None
    u = np.random.default_rng(51).uniform(box[0], box[1], mesh.n_faces)
    for table_u in [u, np.column_stack([u, -u])]:
        assert np.abs(fast.s(table_u) - slow.s(table_u)).max() <= tol
        assert np.abs(fast.sp(table_u) - slow.sp(table_u)).max() <= tol
    assert np.abs(fast.speed - slow.speed).max() <= tol
    # faces where s' vanishes identically carry noise critical points on
    # the oracle only; every other face has the same ones
    live = slow.speed > 1e-8
    count = (~np.isnan(fast.crit)).sum(axis=1)
    assert np.array_equal(count[live], (~np.isnan(slow.crit)).sum(axis=1)[live])
    width = count[live].max(initial=0)
    crit_f, crit_s = fast.crit[live, :width], slow.crit[live, :width]
    found = ~np.isnan(crit_s)
    assert np.abs(crit_f[found] - crit_s[found]).max(initial=0.0) <= tol


@pytest.mark.parametrize("n_phi, n_theta", [(12, 6), (48, 24)])
@pytest.mark.parametrize("a", POTENTIALS)
def test_coefficient_table_matches_vertex_path(a, n_phi, n_theta):
    # the same potential, once split into terms and once as a callable:
    # sum_j g_j D_ej against [a(end) - a(start)] / |e|
    box = (-1.5, 1.5)
    mesh = build_latlon(n_phi, n_theta, 0.3)
    flux = make_flux("potential", {"a": a})
    split = FaceFluxTable(mesh, flux, box)
    vertex = FaceFluxTable(mesh, _vertex_flux(flux), box)
    assert split.D.shape == (mesh.n_faces, len(flux.terms)) and vertex.ends is not None

    def close(got, want, tol=1e-13):
        scale = np.nanmax(np.abs(want), initial=0.0)
        assert np.array_equal(np.isnan(got), np.isnan(want))
        assert np.nanmax(np.abs(got - want), initial=0.0) <= tol * scale

    u = np.random.default_rng(57).uniform(box[0], box[1], mesh.n_faces)
    for table_u in [u, np.column_stack([u, -u])]:
        close(split.s(table_u), vertex.s(table_u))
        close(split.sp(table_u), vertex.sp(table_u))
    close(split.speed, vertex.speed)
    assert split.crit.shape == vertex.crit.shape
    close(split.crit, vertex.crit, 1e-10)
    close(split.crit_s, vertex.crit_s)


# random sums of u, u^2 and sin(k u) times monomials in n: every one splits
_G = st.sampled_from(["u", "u^2", "sin(u)", "sin(2*u)", "sin(3*u)"])
_MONOMIAL = st.tuples(*[st.integers(0, 2)] * 3).map(
    lambda p: "*".join(f"n{i + 1}^{k}" for i, k in enumerate(p) if k) or "1")
_COEFFICIENT = st.integers(1, 10).map(lambda c: c / 10) | st.integers(1, 10).map(lambda c: -c / 10)
SPLIT_POTENTIALS = st.lists(st.tuples(_COEFFICIENT, _G, _MONOMIAL), min_size=1, max_size=3).map(
    lambda terms: " + ".join(f"{c!r}*{g}*{m}" for c, g, m in terms))


@settings(max_examples=20, deadline=None)
@given(a=SPLIT_POTENTIALS)
def test_coefficient_table_properties(a):
    # on every face: exact consistency and conservation, sampled
    # monotonicity, and zero frozen-state divergence per cell
    mesh = build_latlon(8, 4, 0.3)
    box = (-1.5, 1.5)
    flux = make_flux("potential", {"a": a})
    assert flux.terms
    fid = mesh.cell_faces
    rng = np.random.default_rng(58)
    for kind in FLUX_KINDS:
        nf = make_numerical_flux(kind, mesh, flux, box=box)
        t = nf.table
        for u in np.linspace(box[0], box[1], 7):
            states = np.full(mesh.n_faces, u)
            assert np.array_equal(nf.values(states, states), t.s(states))
            div = mesh.cell_sum(mesh.cell_signs * mesh.face_measure[fid] * t.s(u)[fid])
            assert np.abs(div).max() <= 1e-15
        for face in range(mesh.n_faces):
            u, v = rng.uniform(box[0], box[1], 2)
            assert (numerical_flux(nf, face, mesh.face_left[face], u, v)
                    == -numerical_flux(nf, face, mesh.face_right[face], v, u))
        assert nf.validate_monotonicity(n_states=12, max_faces=mesh.n_faces) >= -1e-12


@pytest.mark.parametrize("kind", FLUX_KINDS)
def test_single_face_potential_flux_matches_full_row(kind):
    mesh = build_latlon(12, 6, 0.3)
    flux = make_flux("potential", {"a": POTENTIALS[2]})
    nf = make_numerical_flux(kind, mesh, flux, box=(-1.5, 1.5))
    rng = np.random.default_rng(52)
    a = rng.uniform(-1.5, 1.5, mesh.n_faces)
    b = rng.uniform(-1.5, 1.5, mesh.n_faces)
    full = nf.values(a, b)
    for fid in rng.choice(mesh.n_faces, 25, replace=False):
        one = numerical_flux(nf, fid, mesh.face_left[fid], a[fid], b[fid])
        np.testing.assert_array_equal(_bits(np.array([one])), _bits(full[fid:fid + 1]))


def test_inert_faces_get_no_critical_points():
    # one face of this table has |s'| of 1.4e-15 over the box; taken as
    # critical points, the sign changes of that noise widen crit to 29 columns
    mesh = build_latlon(12, 6, 0.3)
    flux = make_flux("potential", {"a": POTENTIALS[1]})
    box = (-1.5, 1.5)
    t = FaceFluxTable(mesh, flux, box)
    inert = t.speed <= 64 * np.finfo(float).eps * t.speed.max()
    assert inert.any()
    assert np.isnan(t.crit[inert]).all() and np.isnan(t.crit_s[inert]).all()
    # every live face keeps its one real critical point: a root of
    # s' = [u dn3 + d(n1 n2)] / |e|, with dn3 != 0 on meridian faces only
    grid = np.linspace(box[0], box[1], t.n_scan)
    d = t.sp(np.broadcast_to(grid, (mesh.n_faces, t.n_scan)))
    changes = (np.signbit(d[:, 1:]) != np.signbit(d[:, :-1])).any(axis=1)
    assert t.crit.shape[1] == 1
    has = ~np.isnan(t.crit[:, 0])
    assert has.any() and np.array_equal(has, changes & ~inert)
    assert np.all(mesh.face_kind[has] == MERIDIAN)
    assert np.abs(t.sp(np.nan_to_num(t.crit[:, 0]))[has]).max() <= 1e-12
    for kind in FLUX_KINDS:
        nf = NumericalFlux(kind=kind, table=t)
        state = init_state(mesh, lambda phi, theta: 0.75 + 0.0 * phi)
        state.tau = cfl_timestep(nf, 0.5)
        new, _ = step(state, nf)
        assert np.abs(new.u - 0.75).max() <= 1e-14


def _full_scan(t, box):
    """speed, lam, crit and crit_s of ``t`` over ``box`` from one (F, n_scan)
    scan of s' and a bisection of every face's row: the table's rule without
    blocks, as a reference."""
    grid = np.linspace(box[0], box[1], t.n_scan)
    d = t.sp(np.broadcast_to(grid, (t.n_faces, t.n_scan)))
    speed = np.max(np.abs(d), axis=1)
    inert = speed <= 64 * np.finfo(float).eps * speed.max(initial=0.0)
    sign = np.signbit(np.where(inert[:, None], 0.0, d))
    change = sign[:, 1:] != sign[:, :-1]
    count = change.sum(axis=1)
    width = int(count.max())
    a = np.full((t.n_faces, width), grid[0])
    b = np.full((t.n_faces, width), grid[0])
    for e, cols in enumerate(change):
        k = np.flatnonzero(cols)
        a[e, :k.size] = grid[k]
        b[e, :k.size] = grid[k + 1]
    mask = np.arange(width) < count[:, None]
    fa = np.where(mask, t.sp(a), 0.0)
    for _ in range(60):
        mid = 0.5 * (a + b)
        fm = np.where(mask, t.sp(mid), 0.0)
        left = np.signbit(fa) == np.signbit(fm)
        a, fa, b = np.where(left, mid, a), np.where(left, fm, fa), np.where(left, b, mid)
    crit = np.where(mask, 0.5 * (a + b), np.nan)
    crit_s = np.where(np.isnan(crit), np.nan, t.s(np.nan_to_num(crit, nan=box[0])))
    return {"speed": speed, "lam": 1.01 * speed, "crit": crit, "crit_s": crit_s}


def _assert_table_bits(t, expected):
    for name, value in expected.items():
        assert getattr(t, name).shape == value.shape, name
        np.testing.assert_array_equal(_bits(getattr(t, name)), _bits(value), err_msg=name)


# the two scanned face paths: the coefficient table of a potential with two
# or more terms, and the vertex path (forced for the split ones)
@pytest.mark.parametrize("n_phi, n_theta", [(12, 6), (24, 12)])
@pytest.mark.parametrize("a, path", [(a, "vertex") for a in POTENTIALS + [UNSPLIT]]
                         + [(a, "split") for a in POTENTIALS])
def test_chunked_rebuild_matches_full_scan(a, path, n_phi, n_theta):
    mesh = build_latlon(n_phi, n_theta, 0.3)
    assert mesh.n_faces % fvm._SCAN_BLOCK                 # a partial last block
    flux = make_flux("potential", {"a": a})
    if path == "vertex" and flux.terms:
        flux = _vertex_flux(flux)
    nf = make_numerical_flux(ENGQUIST_OSHER, mesh, flux, box=(-0.2, 0.6))
    t = nf.table
    assert (t.ends is not None) == (path == "vertex")
    assert path == "vertex" or t.D.shape[1] >= 2
    _assert_table_bits(t, _full_scan(t, t.box))
    with pytest.warns(RuntimeWarning, match="state left the tracked box"):
        nf.ensure_box(-1.2, 1.3)
    assert t.box[0] < -1.2 and t.box[1] > 1.3
    _assert_table_bits(t, _full_scan(t, t.box))


def test_chunked_rebuild_keeps_inert_faces_out():
    # 0.5*u^2*n3 + u*n1*n2 at 12x6 has inert faces; u^3 - u has three
    # critical points on every meridian face and none on the others
    for a, n_phi, n_theta in [(POTENTIALS[1], 12, 6), ("(0.25*u^4 - 0.5*u^2)*n3", 24, 12)]:
        mesh = build_latlon(n_phi, n_theta, 0.3)
        t = FaceFluxTable(mesh, make_flux("potential", {"a": a}), (-1.5, 1.5))
        inert = t.speed <= 64 * np.finfo(float).eps * t.speed.max()
        assert inert.any() and np.isnan(t.crit[inert]).all()
        _assert_table_bits(t, _full_scan(t, t.box))
    assert t.crit.shape[1] == 3 and np.array_equal(inert, mesh.face_kind != MERIDIAN)


@pytest.mark.parametrize("a", POTENTIALS + [UNSPLIT])
def test_potential_table_build_memory_is_linear_in_faces(a):
    # one (2, F, n_scan) scan array alone would take 2 * 129 * 8 B = 2 KB per face
    mesh = build_latlon(96, 48, 0.3)
    flux = make_flux("potential", {"a": a})
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        FaceFluxTable(mesh, flux, (-1.5, 1.5))
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak <= 1024 * mesh.n_faces


# ---------------------------------------------------------------------------
# entropy companions
# ---------------------------------------------------------------------------

# the two face paths -- the coefficient table with one term (separable) and
# with three (split), and the vertex path -- and the node-average oracle as
# another table type behind the same NumericalFlux
ENTROPY_TABLES = {
    "separable": (FaceFluxTable, make_flux("latitude_burgers", {"c_expr": "cos(theta)"})),
    "split": (FaceFluxTable, make_flux("potential", {"a": POTENTIALS[2]})),
    "vertex": (FaceFluxTable, make_flux("potential", {"a": UNSPLIT})),
    "node-average": (NodeAverageTable, make_flux("potential", {"a": POTENTIALS[2]})),
}


@pytest.mark.parametrize("kind", FLUX_KINDS)
@pytest.mark.parametrize("path", ENTROPY_TABLES)
def test_entropy_fluxes_match_pointwise_formulas_bitwise(path, kind):
    mesh = build_latlon(8, 4, 0.3)
    table, flux = ENTROPY_TABLES[path]
    box = (-1.5, 1.5)
    nf = NumericalFlux(kind=kind, table=table(mesh, flux, box))
    t = nf.table
    assert path == ({1: "separable", 3: "split"}[t.D.shape[1]] if t.D is not None else
                    "vertex" if t.ends is not None else "node-average")
    rng = np.random.default_rng(53)
    u = rng.uniform(-1.2, 1.2, mesh.n_cells)
    cells = rng.permutation(mesh.n_cells)
    u[cells[:6]] = [0.0, -0.0, 0.25, 0.25, -0.0, 0.0]            # at k, signed zeros
    # states exactly at a face's own critical point
    at_crit = np.flatnonzero(~np.isnan(t.crit[:, 0]))[:6]
    u[mesh.face_left[at_crit]] = t.crit[at_crit, 0]
    state = init_state(mesh, lambda phi, theta: 0.0 * phi)
    state.u = u
    state.tau = cfl_timestep(nf, 0.5)
    _, decomp = step(state, nf)
    a, b = decomp.u_left, decomp.u_right
    assert np.array_equal(_bits(a), _bits(u[mesh.face_left]))
    assert at_crit.size and np.any(np.signbit(a) & (a == 0.0))

    def same(got, expected):
        for g, e in zip(got, expected):
            assert np.array_equal(_bits(g), _bits(e))

    for k in (0.0, 0.25):
        s_k = t.s(float(k))
        expected = (nf.values(np.maximum(a, k), np.maximum(b, k))
                    - nf.values(np.minimum(a, k), np.minimum(b, k)),
                    np.sign(a - k) * (t.s(a) - s_k), np.sign(b - k) * (t.s(b) - s_k))
        same(nf.kruzkov_fluxes(k, decomp), expected)
        assert np.any(a == k) and np.any((a - k) * (b - k) < 0)     # both rules run

    spec = square_spec()
    S_a, S_b = t.entropy_average(spec.dU, a), t.entropy_average(spec.dU, b)
    if kind == LAX_FRIEDRICHS:
        G = 0.5 * (S_a + S_b) - 0.5 * t.lam * (spec.U(b) - spec.U(a))
    elif kind == GODUNOV:
        # the Godunov state w*, as the first extremal candidate
        _, pick = nf._godunov_state(a, b, t.s(a), t.s(b))
        crit = t.crit[np.arange(mesh.n_faces), np.maximum(pick - 2, 0)]
        w_star = np.where(pick == 0, a, np.where(pick == 1, b, crit))
        assert np.any(pick >= 2)                                   # critical-point winners
        G = t.entropy_average(spec.dU, w_star)
    else:
        G = _eo_entropy_sorted_partition(nf, spec.dU, a, b, S_a, S_b)
    # dU_degree None: the 24-point Phi_j of entropy_average
    same(nf.smooth_fluxes(spec.U, spec.dU, decomp, None), (G, S_a, S_b))


def _eo_entropy_sorted_partition(nf, dU, a, b, S_a, S_b):
    """The Engquist-Osher entropy flux 1/2 (S_a+S_b) - 1/2 sgn(b-a)
    sum sgn(Delta s) Delta S over a sorted partition built as in
    :func:`_variation_sorted_partition`, with s and S evaluated at every
    interior point (S column by column by ``entropy_average``)."""
    t = nf.table
    lo = np.minimum(a, b)[:, None]
    hi = np.maximum(a, b)[:, None]
    inner = np.sort(np.clip(np.nan_to_num(t.crit, nan=t.box[0]), lo, hi), axis=1)

    def at_points(v_a, v_b, v_inner):
        v_lo = np.where(a <= b, v_a, v_b)[:, None]
        v_hi = np.where(a <= b, v_b, v_a)[:, None]
        v_inner = np.where(inner == hi, v_hi, np.where(inner == lo, v_lo, v_inner))
        return np.concatenate([v_lo, v_inner, v_hi], axis=1)

    s_pts = at_points(t.s(a), t.s(b), t.s(inner))
    S_inner = np.empty_like(inner)
    for j in range(inner.shape[1]):
        S_inner[:, j] = t.entropy_average(dU, inner[:, j])
    S_pts = at_points(S_a, S_b, S_inner)
    tv_S = np.sum(np.sign(np.diff(s_pts, axis=1)) * np.diff(S_pts, axis=1), axis=1)
    return 0.5 * (S_a + S_b) - 0.5 * np.sign(b - a) * tv_S


# The solver's two face paths.  The node-average oracle is left out (its EO
# entropy flux is checked bitwise above).
@pytest.mark.parametrize("path", ["separable", "split", "vertex", "vertex-6-columns"])
def test_eo_entropy_flux_matches_segment_quadrature(path):
    # the partition sum with S in place of s against S(a) plus the
    # per-segment quadrature of U' min(s', 0) (tests/identities.py)
    if path == "vertex-6-columns":
        mesh = build_latlon(12, 6, 0.3)
        table = FaceFluxTable
        flux = _vertex_flux(make_flux("potential", {"a": "sin(7*u)*n3"}))
    else:
        mesh = build_latlon(8, 4, 0.3)
        table, flux = ENTROPY_TABLES[path]
    box = (-1.5, 1.5)
    nf = NumericalFlux(kind=ENGQUIST_OSHER, table=table(mesh, flux, box))
    state = init_state(mesh, lambda phi, theta: 0.0 * phi)
    state.u = np.random.default_rng(55).uniform(-1.2, 1.2, mesh.n_cells)
    state.tau = cfl_timestep(nf, 0.5)
    _, decomp = step(state, nf)
    quartic = EntropySpec(kind="smooth", name="quartic", U=lambda u: 0.25 * u ** 4,
                          dU=lambda u: u ** 3)
    for spec in (square_spec(), quartic):
        G, S_a, _ = nf.smooth_fluxes(spec.U, spec.dU, decomp, spec.dU_degree)
        reference = S_a + eo_entropy_integral(nf, spec.dU, decomp.u_left, decomp.u_right)
        assert np.abs(G - reference).max() <= 1e-14 * np.abs(reference).max()


def test_eo_step_takes_critical_values_from_the_table(monkeypatch):
    # a plain EO step evaluates s only at the two face states (s at a
    # critical point is crit_s); a monitored EO step on the coefficient table
    # (separable or split) takes S at the critical points from the Phi_j and
    # evaluates no s'
    s = FaceFluxTable.s
    calls = []

    def counted_s(self, u):
        calls.append(np.shape(u))
        return s(self, u)

    def forbidden_sp(self, u):
        raise AssertionError("s' evaluated during a monitored coefficient-table EO step")

    monkeypatch.setattr(FaceFluxTable, "s", counted_s)
    mesh = build_latlon(8, 4, 0.3)
    box = (-1.5, 1.5)
    for flux in (make_flux("latitude_burgers", {"c_expr": "sin(theta)"}),
                 make_flux("potential", {"a": POTENTIALS[0]})):
        nf = make_numerical_flux(ENGQUIST_OSHER, mesh, flux, box=box)
        assert nf.table.crit.shape[1] >= 1
        state = _initial(mesh)
        state.tau = cfl_timestep(nf, 0.5)
        calls.clear()
        step(state, nf, need_decomposition=False)
        assert calls == [(mesh.n_faces,)] * 2
    monkeypatch.setattr(FaceFluxTable, "sp", forbidden_sp)
    for flux in (make_flux("latitude_burgers", {"c_expr": "sin(theta)"}),
                 make_flux("potential", {"a": POTENTIALS[0]})):
        nf = make_numerical_flux(ENGQUIST_OSHER, mesh, flux, box=box)
        state = _initial(mesh)
        state.tau = cfl_timestep(nf, 0.5)
        _, decomp = step(state, nf)
        for spec in (square_spec(), kruzkov_spec(0.0)):
            entropy_report(nf, decomp, [spec])


# ---------------------------------------------------------------------------
# entropy-flux integrals Phi_j by the exact Gauss order
# ---------------------------------------------------------------------------

def _phi_24_points(term, dU, u):
    """Phi_j(u) by the 24-point Gauss-Legendre rule, node by node in the
    order of ``FaceFluxTable.separable_entropy``."""
    x24, w24 = np.polynomial.legendre.leggauss(24)
    half, mid = 0.5 * u, 0.5 * (u + 0.0)
    total = np.zeros_like(u)
    for x, weight in zip(x24, w24):
        w = half * x
        w += mid
        value = dU(w) * term.g_u(w)
        value *= weight
        total += value
    return half * total


def test_term_degrees():
    assert [t.degree for t in make_flux("solid_rotation").terms] == [1]
    assert [t.degree for t in make_flux("latitude_burgers").terms] == [2]
    for a in POTENTIALS:
        assert {t.degree for t in make_flux("potential", {"a": a}).terms} == {None}


@pytest.mark.parametrize("name, params", [
    ("solid_rotation", {}), ("latitude_burgers", {"c_expr": "sin(theta)"})]
    + [("potential", {"a": a}) for a in POTENTIALS],
    ids=["rotation", "burgers"] + [f"potential-{i}" for i in range(len(POTENTIALS))])
def test_exact_order_phi_matches_24_points(name, params):
    # U = u^2/2 with a registry g of declared degree: p // 2 + 1 nodes
    # integrate U' g' exactly, so Phi agrees with the 24-point rule to
    # rounding; a split potential's terms, of unknown degree (sin(3*u) among
    # them), keep the 24-point bits
    mesh = build_latlon(8, 4, 0.3)
    t = FaceFluxTable(mesh, make_flux(name, params), (-1.5, 1.5))
    u = np.random.default_rng(57).uniform(-1.5, 1.5, 500)
    u[:3] = [0.0, -0.0, 1e-3]
    spec = square_spec()
    exact = t.separable_entropy(spec.dU, u, spec.dU_degree)
    for term, phi in zip(t.flux.terms, exact):
        reference = _phi_24_points(term, spec.dU, u)
        if term.degree is None:
            assert np.array_equal(_bits(phi), _bits(reference))
        else:
            np.testing.assert_allclose(phi, reference, rtol=1e-15, atol=0.0)


def test_entropy_of_unknown_degree_keeps_24_points():
    # an entropy built from bare callables has no dU_degree: every Phi_j,
    # S and the smooth entropy fluxes keep the 24-point bits
    quartic = EntropySpec(kind="smooth", name="quartic", U=lambda u: 0.25 * u ** 4,
                          dU=lambda u: u ** 3)
    assert quartic.dU_degree is None and square_spec().dU_degree == 1
    mesh = build_latlon(8, 4, 0.3)
    flux = make_flux("latitude_burgers", {"c_expr": "sin(theta)"})
    nf = make_numerical_flux(GODUNOV, mesh, flux, box=(-1.5, 1.5))
    t = nf.table
    u = np.random.default_rng(58).uniform(-1.5, 1.5, 200)
    for term, phi in zip(t.flux.terms, t.separable_entropy(quartic.dU, u, quartic.dU_degree)):
        assert np.array_equal(_bits(phi), _bits(_phi_24_points(term, quartic.dU, u)))
    state = _initial(mesh)
    state.tau = cfl_timestep(nf, 0.5)
    _, decomp = step(state, nf)
    got = nf.smooth_fluxes(quartic.U, quartic.dU, decomp, quartic.dU_degree)
    S = [_terms_reference(t, quartic.dU, x) for x in (decomp.u_left, decomp.u_right)]
    for g, e in zip(got[1:], S):
        assert np.array_equal(_bits(g), _bits(e))


def _terms_reference(t, dU, x):
    """sum_j D_ej Phi_j(x) with 24-point Phi_j, terms added in order."""
    total = None
    for j, term in enumerate(t.flux.terms):
        value = _phi_24_points(term, dU, x) * t.D[:, j]
        total = value if total is None else total + value
    return total
