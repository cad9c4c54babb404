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

The mesh is stored only as packed numpy arrays, built directly from this
structure.  Band cell (i, j), between phi_i and phi_{i+1} and between theta_j
and theta_{j+1}, has id j n_phi + i; the north cap is cell n_phi n_theta and
the south cap the one after it.  Face ids run, in order:

- meridian faces, row-major: id j n_phi + i is the face at phi_{i+1} between
  band cells (i, j) and (i+1, j);
- latitude faces on theta_1 .. theta_{n_theta-1}, n_phi per circle in
  increasing phi;
- the north rim on theta_0 = theta_min, then the south rim on
  theta_{n_theta} = pi - theta_min, n_phi faces each in increasing phi.

The mesh vertices are the n_phi (n_theta + 1) points where the meridians
phi_i meet the circles theta_k; ``vertex_xyz`` holds them as unit vectors,
vertex (i, k) at index k n_phi + i.  Every face is a great- or small-circle
arc between two of them, and ``face_vertices`` lists its start and end in the
order of the face tangent t = nu x n, with nu the canonical normal and n the
outward sphere normal: a meridian face runs from theta_j to theta_{j+1}, a
latitude or rim face from phi_{i+1} to phi_i.  The flux of f = n x grad a
through a face is then a(end) - a(start) exactly.

The cell-face incidence is stored unpadded as S = 4 n_phi n_theta + 2 n_phi
flat slots, one per (cell, face) pair: the band cells' slots come first, four
per cell in the fixed order [W, E, N, S], then the north and the south cap,
n_phi rim slots each in increasing phi order.  Every cell owns a contiguous
run of slots, and ``SphereMesh.cell_sum`` reduces per-slot values over each
run with one fixed association, x_W + ((x_E + x_N) + x_S) for a band cell
and ``np.add.reduceat`` over a cap's rim: the association ``reduceat`` uses
on a 4-slot run, so every per-cell sum is that of one ``reduceat`` over all
slots bit for bit, signed zeros included, however the work is chunked.
Three per-slot arrays are stored with them: ``slot_measure``, the signed arc
length ``cell_signs * face_measure[cell_faces]`` with which a canonical face
value enters the cell, ``slot_weight``, |e| |K| / p_K, the slot's weight in
the cell's convex decomposition, and ``slot_side``, the face id plus F on
the face's right cell, with which ``np.concatenate([x_left,
x_right])[slot_side]`` gathers each slot's own side of per-face values.

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
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .errors import ConfigError

# 3-point Gauss-Legendre rule on [-1, 1]
_GL_NODES = np.array([-math.sqrt(3.0 / 5.0), 0.0, math.sqrt(3.0 / 5.0)])
_GL_WEIGHTS = np.array([5.0 / 9.0, 8.0 / 9.0, 5.0 / 9.0])

MERIDIAN = "meridian"
LATITUDE = "latitude"
CAP_RIM = "cap-rim"


@dataclass
class SphereMesh:
    """The mesh as packed arrays, in the face, cell and slot order of the
    module docstring.

    Per-slot arrays have one entry per (cell, face) pair."""

    n_phi: int
    n_theta: int
    theta_min: float
    h: float                    # largest cell diameter: max(2 theta_min, h_band)
    h_band: float               # largest band-cell diameter (corner distances)
    # packed face arrays (F faces, 3 quadrature nodes each)
    face_left: np.ndarray       # (F,) cell the canonical normal points away from
    face_right: np.ndarray      # (F,) cell the canonical normal points into
    face_measure: np.ndarray    # (F,) arc length |e|
    face_q_phi: np.ndarray      # (F, 3) quadrature node longitudes
    face_q_theta: np.ndarray    # (F, 3) quadrature node colatitudes
    face_q_w: np.ndarray        # (F, 3) weights, summing to |e|
    face_n_phi: np.ndarray      # (F, 3) canonical normal phi-component (contravariant)
    face_n_theta: np.ndarray    # (F, 3) canonical normal theta-component
    face_kind: np.ndarray       # (F,) meridian | latitude | cap-rim
    face_vertices: np.ndarray   # (F, 2) start and end vertex along t = nu x n
    vertex_xyz: np.ndarray      # (n_phi (n_theta + 1), 3) unit vectors
    # packed cell arrays (N cells)
    cell_area: np.ndarray
    cell_perimeter: np.ndarray  # p_K = sum of |e| over the cell's faces
    cell_centroid: np.ndarray   # (N, 2) (phi, theta); the caps sit at their pole
    cell_is_cap: np.ndarray
    # packed slot arrays (S slots, each cell's slots contiguous)
    cell_faces: np.ndarray      # (S,) face id of each slot
    cell_signs: np.ndarray      # (S,) +1 when the canonical normal is outward, else -1
    slot_cell: np.ndarray       # (S,) owning cell of each slot
    slot_start: np.ndarray      # (N,) first slot of each cell
    slot_measure: np.ndarray = field(init=False)   # (S,) cell_signs |e|
    slot_weight: np.ndarray = field(init=False)    # (S,) |e| |K| / p_K
    slot_side: np.ndarray = field(init=False)      # (S,) face id, + F on the right side

    def __post_init__(self):
        measure = self.face_measure[self.cell_faces]
        self.slot_measure = self.cell_signs * measure
        self.slot_weight = (measure * self.cell_area[self.slot_cell]
                            / self.cell_perimeter[self.slot_cell])
        self.slot_side = self.cell_faces + np.where(self.cell_signs > 0, 0, self.n_faces)

    @property
    def n_cells(self) -> int:
        return len(self.cell_area)

    @property
    def n_faces(self) -> int:
        return len(self.face_measure)

    def normal_component(self, comp, faces=slice(None)) -> np.ndarray:
        """g(v, n_e) at the quadrature nodes of the faces ``faces`` (a
        slice, an index or an index array), for intrinsic components
        ``comp`` = (v^phi, v^theta) of the nodes' shape: the metric is
        diag(sin^2 theta, 1) and the normal components are contravariant."""
        st2 = np.sin(self.face_q_theta[faces]) ** 2
        return st2 * comp[0] * self.face_n_phi[faces] + comp[1] * self.face_n_theta[faces]

    def cell_sum(self, slot_values: np.ndarray) -> np.ndarray:
        """Per-cell sums of the (S,) per-slot values: x_W + ((x_E + x_N) + x_S)
        for a band cell, ``np.add.reduceat`` over each cap's rim slots."""
        if len(slot_values) != len(self.cell_faces):
            raise ValueError(f"cell_sum takes one value per slot ({len(self.cell_faces)}), "
                             f"got {len(slot_values)}")
        n_band = self.n_phi * self.n_theta
        band = slot_values[:4 * n_band].reshape(n_band, 4)
        out = np.empty(n_band + 2, dtype=slot_values.dtype)
        np.add(band[:, 1], band[:, 2], out=out[:n_band])
        out[:n_band] += band[:, 3]
        out[:n_band] += band[:, 0]
        out[n_band:] = np.add.reduceat(slot_values[4 * n_band:], [0, self.n_phi])
        return out


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
    n_circle = (n_theta + 1) * n_phi           # latitude and rim faces
    band = np.arange(n_band).reshape(n_theta, n_phi)    # band cell (i, j)
    theta_mid = 0.5 * (thetas[:-1] + thetas[1:])
    # sin and cos once per circle theta_k (the faces on a circle and the cells
    # of a row are congruent), by the scalar math functions, which numpy's
    # vectorized ones may differ from in the last bit
    sin_k = np.array([math.sin(th) for th in thetas])
    cos_k = np.array([math.cos(th) for th in thetas])
    circle_measure = dphi * sin_k

    # meridian faces at phi_{i+1}, between (i, j) and (i+1, j); canonical normal +phi
    mer_q_theta = np.repeat(theta_mid[:, None] + 0.5 * dtheta * _GL_NODES, n_phi, axis=0)
    mer_q_phi = np.repeat(np.tile(phis[1:] % (2 * math.pi), n_theta)[:, None], 3, axis=1)

    # faces on the circle theta_k between phi_i and phi_{i+1}, between the
    # cells north and south of the circle; canonical normal +theta (southward).
    # Circles in face-id order: theta_1 .. theta_{n_theta-1}, then the rims.
    order = np.r_[1:n_theta, 0, n_theta]
    beside = np.vstack([np.full(n_phi, n_band), band, np.full(n_phi, n_band + 1)])
    circle_face = np.empty((n_theta + 1, n_phi), dtype=int)
    circle_face[order] = n_band + np.arange(n_circle).reshape(-1, n_phi)
    cir_q_phi = 0.5 * (phis[:-1] + phis[1:])[:, None] + 0.5 * dphi * _GL_NODES
    cir_q_w = (0.5 * dphi * sin_k[order])[:, None] * _GL_WEIGHTS

    # vertices: sin and cos once per circle and per meridian, then their
    # products; vertex (i, k) has index k n_phi + i
    vertex = np.arange(n_phi * (n_theta + 1)).reshape(n_theta + 1, n_phi)
    east = np.roll(vertex, -1, axis=1)                  # vertex (i+1, k)
    vtheta, vphi = thetas[:, None], phis[:-1]
    vertex_xyz = np.stack([np.sin(vtheta) * np.cos(vphi), np.sin(vtheta) * np.sin(vphi),
                           np.cos(vtheta) + 0.0 * vphi], axis=-1).reshape(-1, 3)
    # face ends along t = nu x n: meridians theta_j -> theta_{j+1}, the
    # circles in face-id order phi_{i+1} -> phi_i
    face_vertices = np.concatenate([np.stack([east[:-1], east[1:]], axis=-1).reshape(-1, 2),
                                    np.stack([east[order], vertex[order]], axis=-1).reshape(-1, 2)])

    # cells: perimeters by math.fsum over the faces, once per row and cap
    band_perimeter = [math.fsum((dtheta, dtheta, circle_measure[j], circle_measure[j + 1]))
                      for j in range(n_theta)]
    cap_perimeter = [math.fsum([circle_measure[0]] * n_phi),
                     math.fsum([circle_measure[-1]] * n_phi)]
    cap_area = 2.0 * math.pi * (1.0 - math.cos(theta_min))
    centroid = np.stack([np.tile(phis[:-1] + 0.5 * dphi, n_theta),
                         np.repeat(theta_mid, n_phi)], axis=1)

    # slots: [W, E, N, S] per band cell, then the north and the south rim
    band_slots = np.stack([np.roll(band, 1, axis=1), band,
                           circle_face[:-1], circle_face[1:]], axis=-1)
    degree = np.r_[np.full(n_band, 4), n_phi, n_phi]

    # mesh size h: the largest intrinsic cell diameter (module docstring)
    lo, hi = thetas[:-1], thetas[1:]
    h_band = float(np.max([_arc(lo, hi, dphi), _arc(lo, lo, dphi),
                           _arc(hi, hi, dphi), _arc(lo, hi, 0.0)]))
    h = max(2.0 * theta_min, h_band)

    return SphereMesh(
        n_phi=n_phi, n_theta=n_theta, theta_min=theta_min, h=h, h_band=h_band,
        face_left=np.concatenate([band.ravel(), beside[:-1][order].ravel()]),
        face_right=np.concatenate([np.roll(band, -1, axis=1).ravel(),
                                   beside[1:][order].ravel()]),
        face_measure=np.concatenate([np.full(n_band, dtheta),
                                     np.repeat(circle_measure[order], n_phi)]),
        face_q_phi=np.concatenate([mer_q_phi, np.tile(cir_q_phi, (n_theta + 1, 1))]),
        face_q_theta=np.concatenate([mer_q_theta,
                                     np.repeat(thetas[order], n_phi * 3).reshape(-1, 3)]),
        face_q_w=np.concatenate([np.tile(0.5 * dtheta * _GL_WEIGHTS, (n_band, 1)),
                                 np.repeat(cir_q_w, n_phi, axis=0)]),
        face_n_phi=np.concatenate([1.0 / np.sin(mer_q_theta), np.zeros((n_circle, 3))]),
        face_n_theta=np.concatenate([np.zeros((n_band, 3)), np.ones((n_circle, 3))]),
        face_kind=np.repeat([MERIDIAN, LATITUDE, CAP_RIM],
                            [n_band, n_band - n_phi, 2 * n_phi]),
        face_vertices=face_vertices,
        vertex_xyz=vertex_xyz,
        cell_area=np.r_[np.repeat(dphi * (cos_k[:-1] - cos_k[1:]), n_phi),
                        cap_area, cap_area],
        cell_perimeter=np.r_[np.repeat(band_perimeter, n_phi), cap_perimeter],
        cell_centroid=np.vstack([centroid, [(0.0, 0.0), (0.0, math.pi)]]),
        cell_is_cap=np.arange(n_band + 2) >= n_band,
        cell_faces=np.concatenate([band_slots.ravel(), circle_face[0], circle_face[-1]]),
        cell_signs=np.r_[np.tile([-1.0, 1.0, -1.0, 1.0], n_band),
                         np.ones(n_phi), -np.ones(n_phi)],
        slot_cell=np.repeat(np.arange(n_band + 2), degree),
        slot_start=np.cumsum(degree) - degree,
    )


def face_average_normal_flux(mesh: SphereMesh, face_id: int, side_cell: int,
                             flux, u: float) -> float:
    """(1/|e|) integral of g(f(u, x), n_{e,K}(x)) over the face, seen from
    ``side_cell`` (the normal points out of that cell)."""
    if side_cell == mesh.face_left[face_id]:
        sign = 1.0
    elif side_cell == mesh.face_right[face_id]:
        sign = -1.0
    else:
        raise ConfigError(f"cell {side_cell} is not adjacent to face {face_id}")
    comp = np.asarray(flux.f(u, mesh.face_q_phi[face_id], mesh.face_q_theta[face_id]),
                      dtype=float)
    integrand = mesh.normal_component(comp, face_id)
    return float(sign * np.dot(mesh.face_q_w[face_id], integrand) / mesh.face_measure[face_id])


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

def export_vtk(mesh: SphereMesh, path: str, fields: Optional[dict] = None) -> None:
    """Legacy ASCII VTK UNSTRUCTURED_GRID of the cell polygons with cell data.

    The points are the mesh vertices ``mesh.vertex_xyz``.  Band cell (i, j)
    references vertices (i, j), (i+1, j), (i+1, j+1), (i, j+1) (i+1 taken
    mod n_phi), and each cap its rim circle in increasing phi."""
    fields = fields or {}
    n_phi, n_theta = mesh.n_phi, mesh.n_theta
    points = mesh.vertex_xyz
    vertex = np.arange(points.shape[0]).reshape(n_theta + 1, n_phi)
    east = np.roll(vertex, -1, axis=1)
    band = np.stack([vertex[:-1], east[:-1], east[1:], vertex[1:]], axis=-1)
    cap_row = f"{n_phi}" + " %d" * n_phi + "\n"
    n_cells = mesh.n_cells
    with open(path, "w") as fh:
        fh.write("# vtk DataFile Version 3.0\n")
        fh.write("sphere finite volume mesh\n")
        fh.write("ASCII\n")
        fh.write("DATASET UNSTRUCTURED_GRID\n")
        fh.write(f"POINTS {points.shape[0]} double\n")
        fh.write(("%.17g %.17g %.17g\n" * points.shape[0]) % tuple(points.ravel()))
        fh.write(f"CELLS {n_cells} {5 * n_theta * n_phi + 2 * (n_phi + 1)}\n")
        fh.write(("4 %d %d %d %d\n" * (n_theta * n_phi) + cap_row * 2)
                 % tuple(np.concatenate([band.ravel(), vertex[0], vertex[-1]])))
        fh.write(f"CELL_TYPES {n_cells}\n")
        fh.write("7\n" * n_cells)   # VTK_POLYGON
        if fields:
            fh.write(f"CELL_DATA {n_cells}\n")
            for name, values in fields.items():
                fh.write(f"SCALARS {name} double 1\n")
                fh.write("LOOKUP_TABLE default\n")
                values = np.asarray(values, dtype=float)
                fh.write(("%.17g\n" * values.size) % tuple(values))
