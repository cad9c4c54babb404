"""Latitude-longitude finite-volume mesh on the unit sphere.

The band theta in [theta_min, pi - theta_min] is covered by a structured grid
of n_phi x n_theta curved quadrilaterals with exact areas
dphi * (cos theta_j - cos theta_{j+1}); each pole is covered by a single cap
cell of area 2 pi (1 - cos theta_min) whose boundary consists of n_phi rim
faces at the band edge.  Faces carry 3-node Gauss-Legendre quadrature, exact
arc measures, and unit (in the metric) normals, so face-averaged normal fluxes
and the discrete divergence theorem hold to quadrature accuracy.

Face normals are stored once per face in a canonical direction (increasing phi
for meridian faces, increasing theta for latitude and rim faces); each side of
a face sees the normal through a +/-1 sign, which makes the scheme's
conservation property exact in floating point.

The cell-face incidence is stored unpadded as S = 4 n_phi n_theta + 2 n_phi
flat slots, one per (cell, face) pair: the band cells' slots come first, four
per cell in the fixed order [W, E, N, S], then the north and the south cap,
n_phi rim slots each in increasing phi order.  Every cell owns a contiguous
run of slots, and ``SphereMesh.cell_sum`` reduces per-slot values over each
run in that fixed order, so all per-cell reductions are deterministic
regardless of how the work is chunked.

The mesh size h is the largest intrinsic (great-circle) cell diameter.  A cap
is a geodesic disc of radius theta_min, of diameter 2 theta_min.  A band
cell's diameter is reached at its corners (the distance grows with the
longitude gap, and the rows lie symmetrically about the equator), and the
cells of a row are congruent, so the band mesh size h_band is the largest over
the rows j of the corner distances d(theta_j, theta_{j+1}, dphi),
d(theta_j, theta_j, dphi), d(theta_{j+1}, theta_{j+1}, dphi) and
d(theta_j, theta_{j+1}, 0), with d(t, t', dphi) the distance between points at
colatitudes t and t' whose longitudes differ by dphi; h = max(2 theta_min,
h_band).  With theta_min fixed the caps dominate h, and h_band is the size
that halves under refinement.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import ConfigError

# 3-point Gauss-Legendre rule on [-1, 1]
_GL_NODES = np.array([-math.sqrt(3.0 / 5.0), 0.0, math.sqrt(3.0 / 5.0)])
_GL_WEIGHTS = np.array([5.0 / 9.0, 8.0 / 9.0, 5.0 / 9.0])

MERIDIAN = "meridian"
LATITUDE = "latitude"
CAP_RIM = "cap-rim"


@dataclass(frozen=True)
class Face:
    """One mesh face with quadrature and a canonical unit normal."""

    id: int
    kind: str                   # meridian | latitude | cap-rim
    measure: float              # arc length |e|
    left: int                   # cell on the side the canonical normal points away from
    right: int                  # cell the canonical normal points into
    q_phi: np.ndarray           # (3,) quadrature node longitudes
    q_theta: np.ndarray         # (3,) quadrature node colatitudes
    q_w: np.ndarray             # (3,) weights, summing to |e|
    n_phi: np.ndarray           # (3,) canonical normal phi-component (contravariant)
    n_theta: np.ndarray         # (3,) canonical normal theta-component


@dataclass(frozen=True)
class Cell:
    """One mesh cell; ``faces`` lists (face_id, sign) with sign +1 when the
    canonical face normal is outward for this cell."""

    id: int
    area: float
    centroid: tuple
    faces: tuple                # ((face_id, sign), ...) in the cell's fixed order
    is_pole_cap: bool = False
    perimeter: float = 0.0      # p_K = sum of |e| over boundary faces


@dataclass
class SphereMesh:
    """Mesh container with both object views and packed arrays for the solver.

    Per-slot arrays have one entry per (cell, face) pair, in the slot order of
    the module docstring."""

    n_phi: int
    n_theta: int
    theta_min: float
    cells: list
    faces: list
    h: float                    # largest cell diameter: max(2 theta_min, h_band)
    h_band: float               # largest band-cell diameter (corner distances)
    # packed face arrays (F faces, 3 quadrature nodes each)
    face_left: np.ndarray
    face_right: np.ndarray
    face_measure: np.ndarray
    face_q_phi: np.ndarray
    face_q_theta: np.ndarray
    face_q_w: np.ndarray
    face_n_phi: np.ndarray
    face_n_theta: np.ndarray
    face_kind: list
    # packed cell arrays (N cells)
    cell_area: np.ndarray
    cell_perimeter: np.ndarray
    cell_centroid: np.ndarray   # (N, 2)
    cell_is_cap: np.ndarray
    # packed slot arrays (S slots, each cell's slots contiguous)
    cell_faces: np.ndarray      # (S,) face id of each slot
    cell_signs: np.ndarray      # (S,) +1 when the canonical normal is outward, else -1
    slot_cell: np.ndarray       # (S,) owning cell of each slot
    slot_start: np.ndarray      # (N,) first slot of each cell

    @property
    def n_cells(self) -> int:
        return len(self.cells)

    @property
    def n_faces(self) -> int:
        return len(self.faces)

    def cell_sum(self, slot_values: np.ndarray) -> np.ndarray:
        """Per-cell sums of per-slot values, each taken over the cell's slots
        in their fixed order."""
        return np.add.reduceat(slot_values, self.slot_start)


def _arc(theta1, theta2, dphi):
    """Great-circle distance between points at colatitudes theta1, theta2
    whose longitudes differ by dphi (elementwise)."""
    c = np.sin(theta1) * np.sin(theta2) * np.cos(dphi) + np.cos(theta1) * np.cos(theta2)
    return np.arccos(np.clip(c, -1.0, 1.0))


def build_latlon(n_phi: int, n_theta: int, theta_min: float) -> SphereMesh:
    """Build the lat-lon mesh with pole caps; see the module docstring."""
    if n_phi < 3:
        raise ConfigError(f"n_phi must be >= 3, got {n_phi}")
    if n_theta < 2:
        raise ConfigError(f"n_theta must be >= 2, got {n_theta}")
    if not (0.0 < theta_min <= math.pi / 4):
        raise ConfigError(f"theta_min must lie in (0, pi/4], got {theta_min}")

    dphi = 2.0 * math.pi / n_phi
    thetas = np.linspace(theta_min, math.pi - theta_min, n_theta + 1)
    dtheta = thetas[1] - thetas[0]
    phis = np.arange(n_phi + 1) * dphi

    n_band = n_phi * n_theta
    cap_north = n_band
    cap_south = n_band + 1

    def band_id(i, j):
        return j * n_phi + (i % n_phi)

    faces = []
    # cell -> ordered faces, as {cell: {"W":..,"E":..,"N":..,"S":..}} or rim list for caps
    band_faces = [dict() for _ in range(n_band)]
    cap_faces = {cap_north: [], cap_south: []}

    def add_face(kind, measure, left, right, q_phi, q_theta, q_w, n_phi_c, n_theta_c):
        f = Face(id=len(faces), kind=kind, measure=measure, left=left, right=right,
                 q_phi=np.asarray(q_phi, float), q_theta=np.asarray(q_theta, float),
                 q_w=np.asarray(q_w, float), n_phi=np.asarray(n_phi_c, float),
                 n_theta=np.asarray(n_theta_c, float))
        faces.append(f)
        return f

    # meridian faces: at phi_{i+1}, between (i, j) and (i+1, j); canonical normal +phi
    for j in range(n_theta):
        th_nodes = 0.5 * (thetas[j] + thetas[j + 1]) + 0.5 * dtheta * _GL_NODES
        q_w = 0.5 * dtheta * _GL_WEIGHTS
        for i in range(n_phi):
            phi_e = phis[i + 1]
            f = add_face(MERIDIAN, dtheta, band_id(i, j), band_id(i + 1, j),
                         np.full(3, phi_e % (2 * math.pi)), th_nodes, q_w,
                         1.0 / np.sin(th_nodes), np.zeros(3))
            band_faces[band_id(i, j)]["E"] = (f.id, +1)
            band_faces[band_id(i + 1, j)]["W"] = (f.id, -1)

    # latitude faces: at theta_j (1 <= j <= n_theta-1), between rows j-1 and j;
    # canonical normal +theta (southward)
    for j in range(1, n_theta):
        th = thetas[j]
        st = math.sin(th)
        for i in range(n_phi):
            ph_nodes = 0.5 * (phis[i] + phis[i + 1]) + 0.5 * dphi * _GL_NODES
            q_w = 0.5 * dphi * st * _GL_WEIGHTS
            f = add_face(LATITUDE, dphi * st, band_id(i, j - 1), band_id(i, j),
                         ph_nodes, np.full(3, th), q_w, np.zeros(3), np.ones(3))
            band_faces[band_id(i, j - 1)]["S"] = (f.id, +1)
            band_faces[band_id(i, j)]["N"] = (f.id, -1)

    # cap rim faces at theta_min and pi - theta_min; canonical normal +theta
    for i in range(n_phi):
        ph_nodes = 0.5 * (phis[i] + phis[i + 1]) + 0.5 * dphi * _GL_NODES
        st = math.sin(theta_min)
        q_w = 0.5 * dphi * st * _GL_WEIGHTS
        f = add_face(CAP_RIM, dphi * st, cap_north, band_id(i, 0),
                     ph_nodes, np.full(3, theta_min), q_w, np.zeros(3), np.ones(3))
        cap_faces[cap_north].append((f.id, +1))
        band_faces[band_id(i, 0)]["N"] = (f.id, -1)
    for i in range(n_phi):
        ph_nodes = 0.5 * (phis[i] + phis[i + 1]) + 0.5 * dphi * _GL_NODES
        th = math.pi - theta_min
        st = math.sin(th)
        q_w = 0.5 * dphi * st * _GL_WEIGHTS
        f = add_face(CAP_RIM, dphi * st, band_id(i, n_theta - 1), cap_south,
                     ph_nodes, np.full(3, th), q_w, np.zeros(3), np.ones(3))
        band_faces[band_id(i, n_theta - 1)]["S"] = (f.id, +1)
        cap_faces[cap_south].append((f.id, -1))

    # cells
    cells = []
    for j in range(n_theta):
        area = dphi * (math.cos(thetas[j]) - math.cos(thetas[j + 1]))
        for i in range(n_phi):
            fd = band_faces[band_id(i, j)]
            ordered = tuple(fd[key] for key in ("W", "E", "N", "S"))
            perim = math.fsum(faces[fid].measure for fid, _ in ordered)
            cells.append(Cell(
                id=band_id(i, j), area=area,
                centroid=(phis[i] + 0.5 * dphi, 0.5 * (thetas[j] + thetas[j + 1])),
                faces=ordered, perimeter=perim))
    cap_area = 2.0 * math.pi * (1.0 - math.cos(theta_min))
    for cap_id, centroid_theta in ((cap_north, 0.0), (cap_south, math.pi)):
        ordered = tuple(cap_faces[cap_id])
        perim = math.fsum(faces[fid].measure for fid, _ in ordered)
        cells.append(Cell(id=cap_id, area=cap_area, centroid=(0.0, centroid_theta),
                          faces=ordered, is_pole_cap=True, perimeter=perim))

    # mesh size h: the largest intrinsic cell diameter (module docstring)
    lo, hi = thetas[:-1], thetas[1:]
    h_band = float(np.max([_arc(lo, hi, dphi), _arc(lo, lo, dphi),
                           _arc(hi, hi, dphi), _arc(lo, hi, 0.0)]))
    h = max(2.0 * theta_min, h_band)

    # packed slot arrays, cells in id order
    slots = [pair for c in cells for pair in c.faces]
    degree = np.array([len(c.faces) for c in cells])

    mesh = SphereMesh(
        n_phi=n_phi, n_theta=n_theta, theta_min=theta_min,
        cells=cells, faces=faces, h=h, h_band=h_band,
        face_left=np.array([f.left for f in faces], dtype=int),
        face_right=np.array([f.right for f in faces], dtype=int),
        face_measure=np.array([f.measure for f in faces]),
        face_q_phi=np.array([f.q_phi for f in faces]),
        face_q_theta=np.array([f.q_theta for f in faces]),
        face_q_w=np.array([f.q_w for f in faces]),
        face_n_phi=np.array([f.n_phi for f in faces]),
        face_n_theta=np.array([f.n_theta for f in faces]),
        face_kind=[f.kind for f in faces],
        cell_area=np.array([c.area for c in cells]),
        cell_perimeter=np.array([c.perimeter for c in cells]),
        cell_centroid=np.array([c.centroid for c in cells]),
        cell_is_cap=np.array([c.is_pole_cap for c in cells]),
        cell_faces=np.array([fid for fid, _ in slots], dtype=int),
        cell_signs=np.array([sign for _, sign in slots], dtype=float),
        slot_cell=np.repeat(np.arange(len(cells)), degree),
        slot_start=np.cumsum(degree) - degree,
    )
    return mesh


def face_average_normal_flux(mesh: SphereMesh, face_id: int, side_cell: int,
                             flux, u: float) -> float:
    """(1/|e|) integral of g(f(u, x), n_{e,K}(x)) over the face, seen from
    ``side_cell`` (the normal points out of that cell)."""
    f = mesh.faces[face_id]
    if side_cell == f.left:
        sign = 1.0
    elif side_cell == f.right:
        sign = -1.0
    else:
        raise ConfigError(f"cell {side_cell} is not adjacent to face {face_id}")
    comp = np.asarray(flux.f(u, f.q_phi, f.q_theta), dtype=float)
    st = np.sin(f.q_theta)
    # g(f, n) with metric diag(sin^2 theta, 1) and contravariant normal components
    integrand = st * st * comp[0] * f.n_phi + comp[1] * f.n_theta
    return float(sign * np.dot(f.q_w, integrand) / f.measure)


@dataclass(frozen=True)
class MeshInfo:
    n_cells: int
    n_faces: int
    h: float
    h_band: float
    area_min: float
    area_max: float
    total_area: float
    max_perimeter_ratio: float   # max over cells of p_K / |K|


def mesh_info(mesh: SphereMesh) -> MeshInfo:
    """Summary record: counts, mesh sizes h and h_band, area extremes,
    max p_K/|K|."""
    return MeshInfo(
        n_cells=mesh.n_cells,
        n_faces=mesh.n_faces,
        h=mesh.h,
        h_band=mesh.h_band,
        area_min=float(mesh.cell_area.min()),
        area_max=float(mesh.cell_area.max()),
        total_area=float(np.sum(mesh.cell_area)),
        max_perimeter_ratio=float((mesh.cell_perimeter / mesh.cell_area).max()),
    )


# ---------------------------------------------------------------------------
# cell quadrature (initialization and integral diagnostics)
# ---------------------------------------------------------------------------

def cell_averages(mesh: SphereMesh, func: Callable) -> np.ndarray:
    """Per-cell averages of ``func(phi, theta)`` with the area weight sin(theta).

    Uses a 3x3 tensor Gauss-Legendre rule per cell, self-normalized so that
    constants are averaged exactly.  ``func`` is called once, on (N, 3, 3)
    node grids of all cells."""
    dphi = 2.0 * math.pi / mesh.n_phi
    dtheta = (math.pi - 2.0 * mesh.theta_min) / mesh.n_theta
    ph_c, th_c = mesh.cell_centroid.T
    ph_lo, ph_hi = ph_c - 0.5 * dphi, ph_c + 0.5 * dphi
    th_lo, th_hi = th_c - 0.5 * dtheta, th_c + 0.5 * dtheta
    # caps span all longitudes, from their pole to the band edge
    cap = mesh.cell_is_cap
    north = cap & (th_c < math.pi / 2)
    south = cap & ~north
    ph_lo[cap], ph_hi[cap] = 0.0, 2.0 * math.pi
    th_lo[north], th_hi[north] = 0.0, mesh.theta_min
    th_lo[south], th_hi[south] = math.pi - mesh.theta_min, math.pi

    def nodes_and_weights(lo, hi):
        mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
        return mid[:, None] + half[:, None] * _GL_NODES, half[:, None] * _GL_WEIGHTS

    ph, wp = nodes_and_weights(ph_lo, ph_hi)
    th, wt = nodes_and_weights(th_lo, th_hi)
    P = np.repeat(ph[:, :, None], 3, axis=2)     # P[k, a, b] = ph[k, a]
    T = np.repeat(th[:, None, :], 3, axis=1)     # T[k, a, b] = th[k, b]
    W = wp[:, :, None] * wt[:, None, :] * np.sin(T)
    vals = np.asarray(func(P, T), dtype=float)
    return np.sum(W * vals, axis=(1, 2)) / np.sum(W, axis=(1, 2))


# ---------------------------------------------------------------------------
# export
# ---------------------------------------------------------------------------

def _cell_polygon(mesh: SphereMesh, cell: Cell):
    """Corner points (phi, theta) of a cell's polygon, counter-clockwise."""
    dphi = 2.0 * math.pi / mesh.n_phi
    dtheta = (math.pi - 2.0 * mesh.theta_min) / mesh.n_theta
    if cell.is_pole_cap:
        north = cell.centroid[1] < math.pi / 2
        th = mesh.theta_min if north else math.pi - mesh.theta_min
        return [(i * dphi, th) for i in range(mesh.n_phi)]
    p0, t0 = cell.centroid
    return [(p0 - 0.5 * dphi, t0 - 0.5 * dtheta), (p0 + 0.5 * dphi, t0 - 0.5 * dtheta),
            (p0 + 0.5 * dphi, t0 + 0.5 * dtheta), (p0 - 0.5 * dphi, t0 + 0.5 * dtheta)]


def export_cells_csv(mesh: SphereMesh, path: str) -> None:
    """CSV with one row per cell: id, centroid, area."""
    with open(path, "w") as fh:
        fh.write("id,centroid_phi,centroid_theta,area,is_pole_cap\n")
        for c in mesh.cells:
            fh.write(f"{c.id},{c.centroid[0]:.17g},{c.centroid[1]:.17g},"
                     f"{c.area:.17g},{int(c.is_pole_cap)}\n")


def export_faces_csv(mesh: SphereMesh, path: str) -> None:
    """CSV with one row per face: id, kind, measure."""
    with open(path, "w") as fh:
        fh.write("id,kind,measure,left,right\n")
        for f in mesh.faces:
            fh.write(f"{f.id},{f.kind},{f.measure:.17g},{f.left},{f.right}\n")


def export_vtk(mesh: SphereMesh, path: str, fields: Optional[dict] = None) -> None:
    """Legacy ASCII VTK UNSTRUCTURED_GRID of the cell polygons with cell data."""
    fields = fields or {}
    points = []
    polys = []
    for c in mesh.cells:
        corners = _cell_polygon(mesh, c)
        idx = []
        for (ph, th) in corners:
            points.append((math.sin(th) * math.cos(ph),
                           math.sin(th) * math.sin(ph),
                           math.cos(th)))
            idx.append(len(points) - 1)
        polys.append(idx)
    with open(path, "w") as fh:
        fh.write("# vtk DataFile Version 3.0\n")
        fh.write("sphere finite volume mesh\n")
        fh.write("ASCII\n")
        fh.write("DATASET UNSTRUCTURED_GRID\n")
        fh.write(f"POINTS {len(points)} double\n")
        for p in points:
            fh.write(f"{p[0]:.17g} {p[1]:.17g} {p[2]:.17g}\n")
        total = sum(len(ix) + 1 for ix in polys)
        fh.write(f"CELLS {len(polys)} {total}\n")
        for ix in polys:
            fh.write(" ".join([str(len(ix))] + [str(k) for k in ix]) + "\n")
        fh.write(f"CELL_TYPES {len(polys)}\n")
        for ix in polys:
            fh.write("7\n")   # VTK_POLYGON
        if fields:
            fh.write(f"CELL_DATA {len(polys)}\n")
            for name, values in fields.items():
                fh.write(f"SCALARS {name} double 1\n")
                fh.write("LOOKUP_TABLE default\n")
                for v in np.asarray(values, dtype=float):
                    fh.write(f"{v:.17g}\n")
