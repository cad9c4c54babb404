import itertools
import math

import numpy as np
import pytest

from spherefv import (
    ConfigError,
    build_latlon,
    cell_averages,
    face_average_normal_flux,
    make_flux,
    mesh_info,
)
from spherefv.mesh import CAP_RIM, LATITUDE, MERIDIAN, SphereMesh, export_vtk

from identities import reduceat_cell_sum

# signed zeros, units and tiny values, whose sums depend on the association
_EDGE_VALUES = np.array([0.0, -0.0, 1.0, -1.0, 1e-300, -1e-300])


def test_band_cell_area_closed_form():
    mesh = build_latlon(4, 2, math.pi / 4)
    band = mesh.cell_area[~mesh.cell_is_cap]
    expected = (math.pi / 2) * (math.cos(math.pi / 4) - math.cos(math.pi / 2))
    areas = sorted(band)
    assert areas[0] == pytest.approx(expected, rel=1e-14)
    caps = mesh.cell_area[mesh.cell_is_cap]
    assert len(caps) == 2
    for area in caps:
        assert area == pytest.approx(2 * math.pi * (1 - math.cos(math.pi / 4)),
                                     rel=1e-14)


def test_total_area_is_sphere_area():
    for args in ((4, 2, math.pi / 4), (16, 8, 0.3), (7, 5, 0.11)):
        mesh = build_latlon(*args)
        assert abs(mesh.cell_area.sum() - 4 * math.pi) <= 1e-12 * 4 * math.pi


def test_latitude_face_measure():
    mesh = build_latlon(4, 2, math.pi / 4)
    equator = [f for f in range(mesh.n_faces) if mesh.face_kind[f] == LATITUDE
               and abs(mesh.face_q_theta[f, 0] - math.pi / 2) < 1e-12]
    assert equator and all(mesh.face_measure[f] == pytest.approx(math.pi / 2, rel=1e-14)
                           for f in equator)


def test_quadrature_weights_and_unit_normals(small_mesh):
    m = small_mesh
    for f in range(m.n_faces):
        assert abs(m.face_q_w[f].sum() - m.face_measure[f]) <= 1e-12 * (1.0 + m.face_measure[f])
        # |n|_g^2 = sin^2(theta) (n^phi)^2 + (n^theta)^2
        norm2 = (np.sin(m.face_q_theta[f]) ** 2 * m.face_n_phi[f] ** 2
                 + m.face_n_theta[f] ** 2)
        assert np.abs(norm2 - 1.0).max() <= 1e-12


def test_face_pairing_and_orientation(small_mesh):
    side_sign = {}
    for cell, fid, sign in zip(small_mesh.slot_cell, small_mesh.cell_faces,
                               small_mesh.cell_signs):
        side_sign.setdefault(fid, []).append((cell, sign))
    flux = make_flux("solid_rotation")
    for fid, sides in side_sign.items():
        assert len(sides) == 2
        (ca, sa), (cb, sb) = sides
        assert sa == -sb
        va = face_average_normal_flux(small_mesh, fid, ca, flux, 0.7)
        vb = face_average_normal_flux(small_mesh, fid, cb, flux, 0.7)
        assert va == -vb

    # the packed slot arrays carry the same pairing, unpadded
    m = small_mesh
    fid, sign = m.cell_faces, m.cell_signs
    assert fid.shape == (4 * m.n_phi * m.n_theta + 2 * m.n_phi,)
    assert np.array_equal(np.bincount(fid, minlength=m.n_faces), np.full(m.n_faces, 2))
    assert np.array_equal(np.bincount(fid, weights=sign, minlength=m.n_faces),
                          np.zeros(m.n_faces))
    assert np.array_equal(m.slot_cell[sign > 0], m.face_left[fid[sign > 0]])
    assert np.array_equal(m.slot_cell[sign < 0], m.face_right[fid[sign < 0]])
    assert np.abs(m.cell_sum(m.face_measure[fid]) - m.cell_perimeter).max() <= 1e-14


def test_slot_weights(small_mesh):
    m = small_mesh
    fid, cell = m.cell_faces, m.slot_cell
    # the signed measure is exact: the scheme's results depend on its bits
    assert np.array_equal(m.slot_measure, m.cell_signs * m.face_measure[fid])
    assert np.array_equal(np.abs(m.slot_measure), m.face_measure[fid])
    # sum_e |e| |K| / p_K = |K|
    assert np.all(m.slot_weight > 0.0)
    assert np.abs(m.cell_sum(m.slot_weight) / m.cell_area - 1.0).max() <= 1e-14


def _bits(x):
    return np.asarray(x, dtype=float).view(np.int64)


@pytest.mark.parametrize("n_phi, n_theta", [(3, 2), (8, 4), (47, 24), (48, 24)])
def test_cell_sum_matches_reduceat_bitwise(n_phi, n_theta):
    m = build_latlon(n_phi, n_theta, 0.3)
    n_slots = m.cell_faces.size
    rng = np.random.default_rng(n_phi)
    # every combination of the edge values over a band cell's four slots
    combos = np.array(list(itertools.product(_EDGE_VALUES, repeat=4))).ravel()
    for values in (rng.choice(_EDGE_VALUES, n_slots),
                   rng.standard_normal(n_slots) * 10.0 ** rng.integers(-8, 8, n_slots),
                   np.resize(combos, n_slots),
                   np.resize(combos[::-1], n_slots)):
        assert np.array_equal(_bits(m.cell_sum(values)), _bits(reduceat_cell_sum(m, values)))


@pytest.mark.parametrize("n_phi, n_theta", [(3, 2), (48, 24), (256, 128)])
def test_cell_sum_rejects_other_lengths(n_phi, n_theta):
    m = build_latlon(n_phi, n_theta, 0.3)
    n_slots = m.cell_faces.size
    for size in (n_slots - 1, n_slots + 3, m.n_faces, m.n_cells):
        with pytest.raises(ValueError, match="one value per slot"):
            m.cell_sum(np.ones(size))
    assert m.cell_sum(np.ones(n_slots)).shape == (m.n_cells,)


@pytest.mark.parametrize("n_phi, n_theta", [(3, 2), (8, 4), (47, 24), (48, 24)])
def test_slot_side_gathers_the_own_side(n_phi, n_theta):
    m = build_latlon(n_phi, n_theta, 0.3)
    fid, sign = m.cell_faces, m.cell_signs
    rng = np.random.default_rng(n_theta)
    x_left, x_right, f = (rng.choice(np.r_[_EDGE_VALUES, rng.standard_normal(4)], m.n_faces)
                          for _ in range(3))
    own = np.where(sign > 0, x_left[fid], x_right[fid])
    assert np.array_equal(_bits(np.concatenate([x_left, x_right])[m.slot_side]), _bits(own))
    # the step's jump sign f - sign s(u_K), with s_b - f on a right side
    assert np.array_equal(_bits(np.concatenate([f - x_left, x_right - f])[m.slot_side]),
                          _bits(sign * f[fid] - sign * own))
    assert np.array_equal(m.slot_side % m.n_faces, fid)


@pytest.mark.parametrize("n_phi, n_theta", [(3, 2), (8, 4), (13, 7)])
def test_face_vertices_are_the_face_ends_along_the_tangent(n_phi, n_theta):
    m = build_latlon(n_phi, n_theta, 0.3)
    assert m.face_vertices.shape == (m.n_faces, 2)
    assert m.vertex_xyz.shape == (n_phi * (n_theta + 1), 3)
    assert np.abs(np.linalg.norm(m.vertex_xyz, axis=1) - 1.0).max() <= 1e-15
    start, end = m.vertex_xyz[m.face_vertices].transpose(1, 2, 0)
    # the middle quadrature node lies halfway between the ends, in phi and theta
    half_dphi, half_dtheta = math.pi / n_phi, 0.5 * (math.pi - 0.6) / n_theta
    ph, th = m.face_q_phi[:, 1], m.face_q_theta[:, 1]
    meridian = m.face_kind == MERIDIAN
    for v in (start, end):
        phi_gap = np.abs((np.arctan2(v[1], v[0]) - ph + math.pi) % (2 * math.pi) - math.pi)
        theta_gap = np.abs(np.arccos(v[2]) - th)
        assert np.abs(phi_gap - np.where(meridian, 0.0, half_dphi)).max() <= 1e-12
        assert np.abs(theta_gap - np.where(meridian, half_dtheta, 0.0)).max() <= 1e-12
    # start -> end runs along t = nu x n, nu the canonical normal at the node
    n = np.stack([np.sin(th) * np.cos(ph), np.sin(th) * np.sin(ph), np.cos(th)])
    d_phi = np.stack([-np.sin(th) * np.sin(ph), np.sin(th) * np.cos(ph), 0 * th])
    d_theta = np.stack([np.cos(th) * np.cos(ph), np.cos(th) * np.sin(ph), -np.sin(th)])
    nu = m.face_n_phi[:, 1] * d_phi + m.face_n_theta[:, 1] * d_theta
    t = np.cross(nu, n, axis=0)
    chord = end - start
    cos_angle = np.sum(chord * t, axis=0) / np.linalg.norm(chord, axis=0)
    assert cos_angle.min() >= 1.0 - 1e-12


def test_face_average_examples(small_mesh):
    flux = make_flux("solid_rotation")
    zero = make_flux("solid_rotation", {"omega": 0.0})
    u = 0.9
    meridian = np.flatnonzero(small_mesh.face_kind == MERIDIAN)[0]
    q_theta = small_mesh.face_q_theta[meridian]
    tlo, thi = q_theta.min(), q_theta.max()
    # GL nodes span the interior; recover the band edges from the 3-node rule
    theta_mid = 0.5 * (tlo + thi)
    half = (thi - tlo) / math.sqrt(0.6)
    t0, t1 = theta_mid - half / 2, theta_mid + half / 2
    expected = u * (math.cos(t0) - math.cos(t1)) / (t1 - t0)
    left = small_mesh.face_left
    val = face_average_normal_flux(small_mesh, meridian, left[meridian], flux, u)
    assert val == pytest.approx(expected, abs=1e-7)

    latitude = np.flatnonzero(small_mesh.face_kind == LATITUDE)[0]
    assert face_average_normal_flux(small_mesh, latitude, left[latitude],
                                    flux, u) == 0.0
    assert face_average_normal_flux(small_mesh, meridian, left[meridian],
                                    zero, u) == 0.0


def test_mesh_info_counts_and_h_scaling():
    info = mesh_info(build_latlon(64, 32, 0.2))
    assert info.n_cells == 64 * 32 + 2
    assert info.max_perimeter_ratio > 0.0 and math.isfinite(info.max_perimeter_ratio)
    h1 = mesh_info(build_latlon(16, 8, 0.2)).h
    h2 = mesh_info(build_latlon(32, 16, 0.1)).h
    assert abs(h1 / h2 - 2.0) <= 0.2


def _great_circle(p1, t1, p2, t2):
    c = (math.sin(t1) * math.sin(t2) * math.cos(p1 - p2) + math.cos(t1) * math.cos(t2))
    return math.acos(min(1.0, max(-1.0, c)))


def _faces_of_cells(mesh):
    """Each cell's face ids, in its slot order."""
    return np.split(mesh.cell_faces, mesh.slot_start[1:])


def _sampled_diameter(mesh):
    """Reference mesh size: largest distance between 8 samples per face edge."""
    dphi = 2.0 * math.pi / mesh.n_phi
    dtheta = (math.pi - 2.0 * mesh.theta_min) / mesh.n_theta
    h = 0.0
    for fids in _faces_of_cells(mesh):
        pts = []
        for fid in fids:
            q_phi, q_theta = mesh.face_q_phi[fid], mesh.face_q_theta[fid]
            s = np.linspace(0.0, 1.0, 8)
            if mesh.face_kind[fid] == MERIDIAN:
                ph = np.full_like(s, q_phi[0])
                th = q_theta[1] - 0.5 * dtheta + s * dtheta
            else:
                th = np.full_like(s, q_theta[0])
                ph = q_phi[1] - 0.5 * dphi + s * dphi
            pts.extend(zip(ph, th))
        diam = 0.0
        for a in range(len(pts)):
            for b in range(a + 1, len(pts)):
                diam = max(diam, _great_circle(pts[a][0], pts[a][1], pts[b][0], pts[b][1]))
        h = max(h, diam)
    return h


@pytest.mark.parametrize("n_phi,n_theta,theta_min", [
    (3, 4, 0.3), (16, 8, 0.2), (32, 16, 0.1), (48, 24, 0.3), (47, 24, 0.3)])
def test_mesh_size_closed_form_matches_sampled_diameter(n_phi, n_theta, theta_min):
    mesh = build_latlon(n_phi, n_theta, theta_min)
    oracle = _sampled_diameter(mesh)
    assert mesh.h == max(2.0 * theta_min, mesh.h_band)
    if n_phi % 2 == 0:
        # antipodal rim points are samples, so the sampled caps are exact
        assert mesh.h == pytest.approx(oracle, rel=1e-12, abs=0.0)
    else:
        # the samples miss the point opposite each rim sample; corners are
        # samples, so a dominant band row agrees up to rounding
        assert mesh.h >= oracle * (1.0 - 1e-12)
        if mesh.h_band <= 2.0 * theta_min:
            assert mesh.h == 2.0 * theta_min
    if (n_phi, n_theta, theta_min) == (47, 24, 0.3):
        assert oracle < mesh.h == 0.6


def test_build_latlon_parameter_validation():
    with pytest.raises(ConfigError):
        build_latlon(2, 4, 0.3)
    with pytest.raises(ConfigError):
        build_latlon(8, 1, 0.3)
    with pytest.raises(ConfigError):
        build_latlon(8, 4, 1.0)
    with pytest.raises(ConfigError):
        build_latlon(8, 4, 0.0)


def test_cell_averages_examples(small_mesh):
    const = cell_averages(small_mesh, lambda phi, theta: 3.25 + 0.0 * phi)
    assert np.abs(const - 3.25).max() <= 1e-12

    avg = cell_averages(small_mesh, lambda phi, theta: np.cos(theta))
    for cell, fids in enumerate(_faces_of_cells(small_mesh)):
        if small_mesh.cell_is_cap[cell]:
            continue
        # latitude-face quadrature nodes sit exactly on the band edges
        thetas = small_mesh.face_q_theta[fids].ravel()
        t0, t1 = thetas.min(), thetas.max()
        dphi = 2 * math.pi / small_mesh.n_phi
        exact = ((math.cos(t0) ** 2 - math.cos(t1) ** 2) / 2) * dphi / small_mesh.cell_area[cell]
        assert avg[cell] == pytest.approx(exact, abs=1e-5)

    odd = cell_averages(small_mesh, lambda phi, theta: np.sin(phi))
    assert abs(float(odd @ small_mesh.cell_area)) <= 1e-12


def _cell_averages_per_cell(mesh, func):
    """Reference: the 3x3 Gauss-Legendre rule applied one cell at a time."""
    gl_nodes = np.array([-math.sqrt(3.0 / 5.0), 0.0, math.sqrt(3.0 / 5.0)])
    gl_weights = np.array([5.0 / 9.0, 8.0 / 9.0, 5.0 / 9.0])
    dphi = 2.0 * math.pi / mesh.n_phi
    dtheta = (math.pi - 2.0 * mesh.theta_min) / mesh.n_theta
    out = np.empty(mesh.n_cells)
    for c in range(mesh.n_cells):
        centroid = mesh.cell_centroid[c]
        if mesh.cell_is_cap[c]:
            th_lo, th_hi = ((0.0, mesh.theta_min) if centroid[1] < math.pi / 2
                            else (math.pi - mesh.theta_min, math.pi))
            ph_lo, ph_hi = 0.0, 2.0 * math.pi
        else:
            ph_lo = centroid[0] - 0.5 * dphi
            ph_hi = centroid[0] + 0.5 * dphi
            th_lo = centroid[1] - 0.5 * dtheta
            th_hi = centroid[1] + 0.5 * dtheta
        ph = 0.5 * (ph_lo + ph_hi) + 0.5 * (ph_hi - ph_lo) * gl_nodes
        th = 0.5 * (th_lo + th_hi) + 0.5 * (th_hi - th_lo) * gl_nodes
        wp = 0.5 * (ph_hi - ph_lo) * gl_weights
        wt = 0.5 * (th_hi - th_lo) * gl_weights
        P, T = np.meshgrid(ph, th, indexing="ij")
        W = np.outer(wp, wt) * np.sin(T)
        vals = np.asarray(func(P, T), dtype=float)
        out[c] = float(np.sum(W * vals) / np.sum(W))
    return out


@pytest.mark.parametrize("n_phi,n_theta", [(3, 4), (12, 6), (47, 24)])
def test_cell_averages_match_per_cell_rule(n_phi, n_theta):
    mesh = build_latlon(n_phi, n_theta, 0.3)
    funcs = [lambda phi, theta: np.exp(np.sin(phi) * np.cos(theta)) + theta ** 2,
             lambda phi, theta: np.where(np.abs(theta - 1.5) < 0.4, 1.0 + np.cos(phi), 0.2),
             lambda phi, theta: 3.25]
    for func in funcs:
        expected = _cell_averages_per_cell(mesh, func)
        assert np.array_equal(cell_averages(mesh, func), expected)
    const = cell_averages(mesh, funcs[-1])
    assert const.shape == (mesh.n_cells,)
    assert np.abs(const - 3.25).max() <= 1e-12


def test_cell_averages_calls_func_once(small_mesh):
    calls = []

    def func(phi, theta):
        calls.append(phi.shape)
        return np.cos(theta)

    cell_averages(small_mesh, func)
    assert calls == [(small_mesh.n_cells, 3, 3)]


def test_rim_faces_and_kinds(small_mesh):
    kinds = set(small_mesh.face_kind)
    assert kinds == {MERIDIAN, LATITUDE, CAP_RIM}
    rims = np.flatnonzero(small_mesh.face_kind == CAP_RIM)
    assert len(rims) == 2 * small_mesh.n_phi


@pytest.mark.parametrize("n_phi,n_theta", [(3, 2), (3, 4), (8, 4), (47, 24)])
def test_slot_geometry(n_phi, n_theta):
    """Each slot's face lies on the named side of its cell, read from the
    quadrature nodes and centroids alone."""
    theta_min = 0.3
    mesh = build_latlon(n_phi, n_theta, theta_min)
    dphi = 2.0 * math.pi / n_phi
    dtheta = (math.pi - 2.0 * theta_min) / n_theta
    n_band = n_phi * n_theta
    tol = 1e-12

    def same_angle(a, b):
        return np.abs((a - b + math.pi) % (2.0 * math.pi) - math.pi) <= tol

    for cell, fids in enumerate(_faces_of_cells(mesh)):
        q_phi, q_theta = mesh.face_q_phi[fids], mesh.face_q_theta[fids]
        ph_c, th_c = mesh.cell_centroid[cell]
        if mesh.cell_is_cap[cell]:
            rim = theta_min if th_c < math.pi / 2 else math.pi - theta_min
            assert len(fids) == n_phi
            assert np.all(q_theta == rim)
            assert np.all(np.diff(q_phi[:, 1]) > 0.0)
            continue
        assert len(fids) == 4
        west, east, north, south = range(4)
        assert np.all(same_angle(q_phi[west], ph_c - 0.5 * dphi))
        assert np.all(same_angle(q_phi[east], ph_c + 0.5 * dphi))
        assert np.all(np.abs(q_theta[[west, east]] - th_c) < 0.5 * dtheta)
        assert np.all(np.abs(q_theta[north] - (th_c - 0.5 * dtheta)) <= tol)
        assert np.all(np.abs(q_theta[south] - (th_c + 0.5 * dtheta)) <= tol)
        assert np.all(np.abs(q_phi[[north, south]] - ph_c) < 0.5 * dphi)

    runs = [(kind, len(list(group))) for kind, group in itertools.groupby(mesh.face_kind)]
    assert runs == [(MERIDIAN, n_band), (LATITUDE, n_band - n_phi), (CAP_RIM, 2 * n_phi)]


def _cell_polygon(mesh: SphereMesh, cell: int):
    """Corner points (phi, theta) of a cell's polygon, counter-clockwise."""
    dphi = 2.0 * math.pi / mesh.n_phi
    dtheta = (math.pi - 2.0 * mesh.theta_min) / mesh.n_theta
    p0, t0 = mesh.cell_centroid[cell]
    if mesh.cell_is_cap[cell]:
        th = mesh.theta_min if t0 < math.pi / 2 else math.pi - mesh.theta_min
        return [(i * dphi, th) for i in range(mesh.n_phi)]
    return [(p0 - 0.5 * dphi, t0 - 0.5 * dtheta), (p0 + 0.5 * dphi, t0 - 0.5 * dtheta),
            (p0 + 0.5 * dphi, t0 + 0.5 * dtheta), (p0 - 0.5 * dphi, t0 + 0.5 * dtheta)]


def test_vtk_export(tmp_path, small_mesh):
    mesh = small_mesh
    path = tmp_path / "mesh.vtk"
    export_vtk(mesh, str(path), {"u": np.arange(mesh.n_cells, dtype=float)})
    text = path.read_text()
    assert text.startswith("# vtk DataFile Version")
    assert "UNSTRUCTURED_GRID" in text
    assert "CELL_DATA" in text and "u" in text

    # the shared vertices are written once, and every cell references its
    # polygon's corners
    lines = text.splitlines()
    at = next(i for i, line in enumerate(lines) if line.startswith("POINTS"))
    n_points = int(lines[at].split()[1])
    assert n_points == mesh.n_phi * (mesh.n_theta + 1)
    points = np.array([[float(x) for x in line.split()]
                       for line in lines[at + 1:at + 1 + n_points]])
    at += 1 + n_points
    assert lines[at].split()[:2] == ["CELLS", str(mesh.n_cells)]
    for cell, line in enumerate(lines[at + 1:at + 1 + mesh.n_cells]):
        ids = [int(k) for k in line.split()]
        corners = _cell_polygon(mesh, cell)
        assert ids[0] == len(ids) - 1 == len(corners)
        expected = np.array([(math.sin(th) * math.cos(ph), math.sin(th) * math.sin(ph),
                              math.cos(th)) for ph, th in corners])
        assert np.abs(points[ids[1:]] - expected).max() <= 1e-15
