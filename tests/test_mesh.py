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
from spherefv.mesh import CAP_RIM, LATITUDE, MERIDIAN, export_vtk


def test_band_cell_area_closed_form():
    mesh = build_latlon(4, 2, math.pi / 4)
    band = [c for c in mesh.cells if not c.is_pole_cap]
    expected = (math.pi / 2) * (math.cos(math.pi / 4) - math.cos(math.pi / 2))
    areas = sorted(c.area for c in band)
    assert areas[0] == pytest.approx(expected, rel=1e-14)
    caps = [c for c in mesh.cells if c.is_pole_cap]
    assert len(caps) == 2
    for c in caps:
        assert c.area == pytest.approx(2 * math.pi * (1 - math.cos(math.pi / 4)),
                                       rel=1e-14)


def test_total_area_is_sphere_area():
    for args in ((4, 2, math.pi / 4), (16, 8, 0.3), (7, 5, 0.11)):
        mesh = build_latlon(*args)
        assert abs(mesh.cell_area.sum() - 4 * math.pi) <= 1e-12 * 4 * math.pi


def test_latitude_face_measure():
    mesh = build_latlon(4, 2, math.pi / 4)
    equator = [f for f in mesh.faces
               if f.kind == LATITUDE and abs(f.q_theta[0] - math.pi / 2) < 1e-12]
    assert equator and all(f.measure == pytest.approx(math.pi / 2, rel=1e-14)
                           for f in equator)


def test_quadrature_weights_and_unit_normals(small_mesh):
    for f in small_mesh.faces:
        assert abs(f.q_w.sum() - f.measure) <= 1e-12 * (1.0 + f.measure)
        # |n|_g^2 = sin^2(theta) (n^phi)^2 + (n^theta)^2
        norm2 = (np.sin(f.q_theta) ** 2 * f.n_phi ** 2 + f.n_theta ** 2)
        assert np.abs(norm2 - 1.0).max() <= 1e-12


def test_face_pairing_and_orientation(small_mesh):
    side_sign = {}
    for cell in small_mesh.cells:
        for fid, sign in cell.faces:
            side_sign.setdefault(fid, []).append((cell.id, sign))
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


def test_face_average_examples(small_mesh):
    flux = make_flux("solid_rotation")
    zero = make_flux("solid_rotation", {"omega": 0.0})
    u = 0.9
    meridian = [f for f in small_mesh.faces if f.kind == MERIDIAN][0]
    tlo, thi = meridian.q_theta.min(), meridian.q_theta.max()
    # GL nodes span the interior; recover the band edges from the 3-node rule
    theta_mid = 0.5 * (tlo + thi)
    half = (thi - tlo) / math.sqrt(0.6)
    t0, t1 = theta_mid - half / 2, theta_mid + half / 2
    expected = u * (math.cos(t0) - math.cos(t1)) / (t1 - t0)
    val = face_average_normal_flux(small_mesh, meridian.id, meridian.left, flux, u)
    assert val == pytest.approx(expected, abs=1e-7)

    latitude = [f for f in small_mesh.faces if f.kind == LATITUDE][0]
    assert face_average_normal_flux(small_mesh, latitude.id, latitude.left,
                                    flux, u) == 0.0
    assert face_average_normal_flux(small_mesh, meridian.id, meridian.left,
                                    zero, u) == 0.0


def test_mesh_info_counts_and_h_scaling():
    info = mesh_info(build_latlon(64, 32, 0.2))
    assert info.n_cells == 64 * 32 + 2
    assert info.max_perimeter_ratio > 0.0 and math.isfinite(info.max_perimeter_ratio)
    h1 = mesh_info(build_latlon(16, 8, 0.2)).h
    h2 = mesh_info(build_latlon(32, 16, 0.1)).h
    assert abs(h1 / h2 - 2.0) <= 0.2


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
    for cell in small_mesh.cells:
        if cell.is_pole_cap:
            continue
        fids = [fid for fid, _ in cell.faces]
        # latitude-face quadrature nodes sit exactly on the band edges
        thetas = np.concatenate([small_mesh.faces[fid].q_theta for fid in fids])
        t0, t1 = thetas.min(), thetas.max()
        dphi = 2 * math.pi / small_mesh.n_phi
        exact = ((math.cos(t0) ** 2 - math.cos(t1) ** 2) / 2) * dphi / cell.area
        assert avg[cell.id] == pytest.approx(exact, abs=1e-5)

    odd = cell_averages(small_mesh, lambda phi, theta: np.sin(phi))
    assert abs(float(odd @ small_mesh.cell_area)) <= 1e-12


def test_rim_faces_and_kinds(small_mesh):
    kinds = {f.kind for f in small_mesh.faces}
    assert kinds == {MERIDIAN, LATITUDE, CAP_RIM}
    rims = [f for f in small_mesh.faces if f.kind == CAP_RIM]
    assert len(rims) == 2 * small_mesh.n_phi


def test_vtk_export(tmp_path, small_mesh):
    path = tmp_path / "mesh.vtk"
    export_vtk(small_mesh, str(path), {"u": np.arange(small_mesh.n_cells, dtype=float)})
    text = path.read_text()
    assert text.startswith("# vtk DataFile Version")
    assert "UNSTRUCTURED_GRID" in text
    assert "CELL_DATA" in text and "u" in text
