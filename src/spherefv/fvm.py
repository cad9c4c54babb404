"""Finite volume scheme on the sphere mesh.

Each face carries the one-dimensional restriction of the flux,
``s_e(u) = (1/|e|) int_e g(f(u,x), n_e) dv_e`` along the face's canonical
normal.  All numerical fluxes (Lax-Friedrichs, Engquist-Osher, Godunov) are
built from ``s_e`` together with its critical points over the tracked state
box, which makes consistency exact and monotonicity hold to rounding:

- Godunov takes the true min/max of ``s_e`` over the state interval, the
  interior extrema being the precomputed critical points;
- Engquist-Osher uses the total-variation form
  ``1/2 (s(u)+s(v)) - 1/2 sgn(v-u) TV(s; [u^v, u v v])``, TV being the sum
  of |Delta s| over the critical-point partition, s there read from the table;
- Lax-Friedrichs uses a per-face dissipation ``lambda_e = 1.01 sup |s_e'|``,
  so faces the flux never crosses stay exactly inert.

The restriction s_e is formed in one of two ways, chosen by what the flux
carries; a flux that carries neither is rejected with ``ConfigError``:

- *separable.*  For f(u, x) = g(u) X(x) -- the registry's ``solid_rotation``
  (g = u) and ``latitude_burgers`` (g = u^2/2) -- s_e(u) = g(u) c_e with
  c_e = (1/|e|) int_e g(X, n_e) dv_e, computed once per face by the mesh's
  3-node face quadrature.  Then s_e' = g_u c_e, the critical points are the
  roots of g_u (found once, shared by all faces), sup |s_e'| =
  |c_e| max |g_u|, and the entropy-flux average is c_e Phi(u), with
  Phi(u) the scalar integral of U' g_u from 0 to u.  No step evaluates f,
  and the table needs O(faces) memory.
- *vertex potential.*  For f = n x grad a, given by a potential a(u, n), the
  flux through a face is the tangential derivative of a along it, so
  s_e(u) = [a(u, end) - a(u, start)] / |e| exactly, with the face's ends
  in the mesh's ``face_vertices`` order, and s_e' is the same difference of
  the exact a_u.  Every frozen constant state then has zero discrete
  divergence up to rounding (the geometry-compatible discretization of
  Ben-Artzi, Falcovitz and LeFloch, J. Comput. Phys. 228, 2009).  The
  critical points are scanned per face, two a_u evaluations per scan point.

The vertex path scans s_e' a fixed block of faces at a time and keeps only
each face's sup |s_e'| and sign changes, so set-up memory is O(faces).  A
face whose sup |s_e'| is rounding noise (at most 64 eps times the largest
over the faces) gets no critical points; only the sign-change brackets of
the other faces are refined by bisection.

Face-table evaluations follow one shape rule: a scalar state is taken at
every face; an array state has the faces on its first axis and is viewed as
(F, C) -- C states per face, C = 0 included -- and the result has the
state's shape.

A face value is computed once in the canonical orientation and enters the two
adjacent cells with opposite signs, so the conservation property is exact in
floating point.  Per-cell face accumulation runs over the mesh's flat
(cell, face) slots with ``SphereMesh.cell_sum``, in the fixed [W, E, N, S]
order (rim faces in increasing phi order for the pole caps), so results do
not depend on how the face loop is chunked across workers.

The module also provides the numerical entropy fluxes that accompany each
scheme (Crandall-Majda form for Kruzkov entropies; the classical companions
for smooth convex entropies) and the per-step convex decomposition
(u-tilde_{K,e}, u_{K,e}) that the entropy diagnostics are formulated in.
The entropy fluxes reuse the step's face values.  The consistent fluxes
S(a), S(b) are taken once per face -- for a separable flux once per cell
state and shared root of g_u, then gathered and scaled by c_e.  The Godunov
S(w*) is selected from them, or from S at a critical point, by the index of
the winning candidate.  The Engquist-Osher entropy flux is the flux's own
partition sum with the signs of the increments of s_e weighting those of S.
By exact consistency F(k, k) = s_e(k), the
Crandall-Majda flux is the step's own flux minus s_e(k) where both states
lie above k (s_e(k) minus it below); only faces whose states straddle or
touch k evaluate F again.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace
from typing import Callable, Optional, Sequence

import numpy as np
from numpy.polynomial.legendre import leggauss

from .errors import ConfigError, InputError
from .flux import FluxField
from .mesh import SphereMesh, cell_averages

LAX_FRIEDRICHS = "lax_friedrichs"
ENGQUIST_OSHER = "engquist_osher"
GODUNOV = "godunov"
FLUX_KINDS = (LAX_FRIEDRICHS, ENGQUIST_OSHER, GODUNOV)

_GL_X, _GL_W = leggauss(24)
_SCAN_BLOCK = 256        # faces per block of the critical-point scan
_N_SCAN = 129            # points of the critical-point scan grid over the box


# ---------------------------------------------------------------------------
# per-face flux restriction
# ---------------------------------------------------------------------------

class FaceFluxTable:
    """Per-face normal-flux averages s_e(u), derivatives, critical points.

    ``box`` is the state interval over which critical points and wave speeds
    are tracked; it can be rebuilt (expanded) on demand.  s_e is formed in
    one of the two ways of the module docstring.  For a separable flux
    ``c`` holds the per-face constants c_e of s_e = g c_e, for a potential
    flux ``ends`` holds the unit vectors (n1, n2, n3) of each face's start
    and end, shape (3, 2, F); the other one is None.  ``s`` and ``sp`` take
    a scalar (every face) or an array of shape (F, ...), evaluated as
    g(u) c_e or, viewed as (F, C), at the (2, F, C) face ends; they return
    the shape of ``u``.  :meth:`rebuild` scans them a block of faces at a
    time, in O(faces) memory.
    """

    def __init__(self, mesh: SphereMesh, flux: FluxField, box):
        self.mesh = mesh
        self.flux = flux
        self.n_scan = _N_SCAN
        self.q_phi = mesh.face_q_phi
        self.measure = mesh.face_measure
        self.c = self.ends = None
        if flux.g is not None:
            comp = np.asarray(flux.X(mesh.face_q_phi, mesh.face_q_theta))
            self.c = np.sum(mesh.face_q_w * mesh.normal_component(comp), axis=-1) / self.measure
        elif flux.potential is not None:
            self.ends = np.ascontiguousarray(mesh.vertex_xyz[mesh.face_vertices].T)
        else:
            raise ConfigError(f"flux {flux.name!r} is neither separable (g) nor given "
                              "by a potential: no face restriction s_e for it")
        self.rebuild(box)

    @property
    def n_faces(self) -> int:
        return self.measure.shape[0]

    def view(self, index) -> "FaceFluxTable":
        """A shallow view over a subset of faces (slice or index array).

        Every per-face quantity is row-independent, so evaluations on a view
        are bitwise identical to the corresponding rows of a full evaluation;
        this is what makes chunked (multi-worker) stepping reproducible."""
        v = object.__new__(type(self))
        v.mesh, v.flux, v.n_scan, v.box = self.mesh, self.flux, self.n_scan, self.box
        v.measure = self.measure[index]
        v.c = None if self.c is None else self.c[index]
        v.ends = None if self.ends is None else self.ends[:, :, index]
        v.speed, v.lam = self.speed[index], self.lam[index]
        v.crit, v.crit_s = self.crit[index], self.crit_s[index]
        return v

    # -- pointwise evaluations ------------------------------------------------

    def _eval(self, u, derivative: bool, faces=slice(None)):
        """s (or s' with ``derivative``) at the states ``u`` on the table's
        rows ``faces`` (a slice or an index array; all rows by default).

        A scalar ``u`` is taken at every one of those faces; otherwise the
        first axis of ``u`` runs over them.  For a separable flux g (g_u) is
        evaluated at ``u`` and scaled by c_e broadcast over the trailing
        axes; for a potential flux ``u`` is viewed as (F, C) and the
        potential a (a_u) is differenced between the (2, F, C) face ends.
        The result has the shape of ``u`` (of (F,) for a scalar)."""
        flux = self.flux
        measure = self.measure[faces]
        u = np.asarray(u, dtype=float)
        if u.ndim == 0:
            u = np.full(measure.shape[0], float(u))
        if self.c is not None:
            g = flux.g_u if derivative else flux.g
            c = self.c[faces]
            return g(u) * c.reshape(c.shape + (1,) * (u.ndim - 1))
        cols = u.reshape(u.shape[0], math.prod(u.shape[1:]))
        a = flux.potential_u if derivative else flux.potential
        n1, n2, n3 = self.ends[:, :, faces, None]
        v = np.broadcast_to(a(cols, n1, n2, n3), (2,) + cols.shape)
        return ((v[1] - v[0]) / measure[:, None]).reshape(u.shape)

    def s(self, u):
        """Canonical face-averaged normal flux at state(s) u."""
        return self._eval(u, derivative=False)

    def sp(self, u):
        """Derivative s_e'(u): g_u c_e, or the face-end difference of a_u."""
        return self._eval(u, derivative=True)

    # -- state box / critical points ------------------------------------------

    def rebuild(self, box) -> None:
        """(Re)compute critical points, wave speeds and lambda over ``box``.

        Critical points are the sign changes of s' on an ``n_scan``-point
        grid, scanned a block of faces at a time (each row's bits as in one
        full scan) and bisected on the faces that have one; a
        face whose sup |s'| is rounding noise has none.  For a separable flux
        they are those of g_u, found once and shared by every face (every
        row of ``crit``)."""
        lo, hi = float(box[0]), float(box[1])
        if not (hi > lo):
            raise ConfigError(f"state box must be a nontrivial interval, got {box}")
        self.box = (lo, hi)
        grid = np.linspace(lo, hi, self.n_scan)
        if self.c is None:
            self.speed = np.empty(self.n_faces)           # sup |s'| per face
            rows, cols = [], []
            for start in range(0, self.n_faces, _SCAN_BLOCK):
                block = slice(start, start + _SCAN_BLOCK)
                n_block = self.measure[block].shape[0]
                d = self._eval(np.broadcast_to(grid, (n_block, grid.size)), True, block)
                self.speed[block] = np.max(np.abs(d), axis=1)
                r, c = np.nonzero(np.signbit(d[:, 1:]) != np.signbit(d[:, :-1]))
                rows.append(start + r)
                cols.append(c)
            rows, cols = np.concatenate(rows), np.concatenate(cols)
            # sign changes of rounding noise on inert faces are no critical points
            inert = self.speed <= 64 * np.finfo(float).eps * self.speed.max(initial=0.0)
            live = ~inert[rows]
            faces, rows = np.unique(rows[live], return_inverse=True)
            roots = _bisect_sign_changes(rows, cols[live], faces.size, grid,
                                         lambda x: self._eval(x, True, faces))
            crit = np.full((self.n_faces, roots.shape[1]), np.nan)
            crit[faces] = roots
        else:
            d = self.flux.g_u(grid)
            self.speed = np.abs(self.c) * np.max(np.abs(d))
            cols = np.flatnonzero(np.signbit(d[1:]) != np.signbit(d[:-1]))
            roots = _bisect_sign_changes(np.zeros_like(cols), cols, 1, grid, self.flux.g_u)
            crit = np.repeat(roots, self.n_faces, axis=0)
        self.lam = 1.01 * self.speed                      # LF dissipation
        self.crit = crit
        self.crit_s = np.where(np.isnan(crit), np.nan,
                               self.s(np.nan_to_num(crit, nan=lo)))

    # -- entropy-flux averages -------------------------------------------------

    def entropy_average(self, dU: Callable, u):
        """Face average of the entropy flux: integral of U'(w) s_e'(w) dw from
        0 to ``u`` (24-point Gauss-Legendre), per face.  For a separable flux
        this is c_e times :meth:`separable_entropy`."""
        u = np.asarray(u, dtype=float)
        if u.ndim == 0:
            u = np.full(self.n_faces, float(u))
        if self.c is not None:
            return self.c * self.separable_entropy(dU, u)
        half = 0.5 * u
        mid = 0.5 * (u + 0.0)       # the midpoint of [0, u], +0.0 at u = -0.0
        w = mid[:, None] + half[:, None] * _GL_X[None, :]          # (F, 24)
        vals = dU(w) * self.sp(w)
        return half * np.sum(_GL_W * vals, axis=-1)

    def separable_entropy(self, dU: Callable, u):
        """Phi(u): integral of U'(w) g_u(w) dw from 0 to ``u`` (24-point
        Gauss-Legendre), elementwise over the states ``u``; the separable
        entropy-flux average is c_e Phi."""
        half = 0.5 * u
        mid = 0.5 * (u + 0.0)       # the midpoint of [0, u], +0.0 at u = -0.0
        # node by node, in reused buffers that stay in cache
        total = np.zeros_like(u)
        w = np.empty_like(u)
        for x, weight in zip(_GL_X, _GL_W):
            np.multiply(half, x, out=w)
            w += mid
            term = dU(w) * self.flux.g_u(w)
            term *= weight
            total += term
        return half * total


def _bisect_sign_changes(rows, cols, n_rows, grid, fprime):
    """Roots of a derivative from the sign changes of its samples on ``grid``.

    A sign change of row ``rows[i]`` lies between ``grid[cols[i]]`` and
    ``grid[cols[i] + 1]``, listed in row-major order; row r's k-th sign
    change brackets column k of the (n_rows, max count) result (NaN past the
    row's count).  Each bracket is refined by 60 bisection steps of
    ``fprime``, which maps an (n_rows, C) array of states to the derivative
    at them.  Brackets are kept by the sign bit, so a root on a grid point,
    where the derivative is a signed zero, stays in its bracket."""
    count = np.bincount(rows, minlength=n_rows)
    max_crit = int(count.max()) if count.size else 0
    if not max_crit:
        return np.full((n_rows, 0), np.nan)
    rank = np.arange(rows.size) - (np.cumsum(count) - count)[rows]
    a = np.full((n_rows, max_crit), grid[0])
    b = np.full((n_rows, max_crit), grid[0])
    a[rows, rank] = grid[cols]
    b[rows, rank] = grid[cols + 1]
    mask = np.arange(max_crit) < count[:, None]
    fa = np.where(mask, fprime(a), 0.0)
    for _ in range(60):
        mid = 0.5 * (a + b)
        fm = np.where(mask, fprime(mid), 0.0)
        left = np.signbit(fa) == np.signbit(fm)
        a = np.where(left, mid, a)
        fa = np.where(left, fm, fa)
        b = np.where(left, b, mid)
    return np.where(mask, 0.5 * (a + b), np.nan)


# ---------------------------------------------------------------------------
# numerical fluxes
# ---------------------------------------------------------------------------

@dataclass
class NumericalFlux:
    """A monotone two-point flux bound to a mesh/flux pair via a FaceFluxTable."""

    kind: str
    table: FaceFluxTable
    monotonicity_tol: float = 1e-12

    def __post_init__(self):
        if self.kind not in FLUX_KINDS:
            raise ConfigError(f"unknown numerical flux kind {self.kind!r}; "
                              f"choose from {FLUX_KINDS}")

    def _on(self, index) -> "NumericalFlux":
        """The same flux on a view of a subset of faces (see
        :meth:`FaceFluxTable.view`); its values are the rows of the full ones."""
        return replace(self, table=self.table.view(index))

    # -- canonical per-face values --------------------------------------------

    def _godunov_state(self, a, b, s_a, s_b):
        """Per-face minimizer/maximizer of s over [a^b, a v b] (Godunov state).

        The candidates are a, b and the critical points inside the interval,
        in that order; the first one attaining the extremum wins.  Returns
        s(w*) and the winner's index: 0 for a, 1 for b, 2 + j for
        critical-point column j."""
        t = self.table
        lo = np.minimum(a, b)
        hi = np.maximum(a, b)
        take_min = a <= b
        pick_b = np.where(take_min, s_b < s_a, s_b > s_a)
        s = np.where(pick_b, s_b, s_a)
        pick = pick_b.astype(np.intp)
        for j, (c, c_s) in enumerate(zip(t.crit.T, t.crit_s.T)):
            better = ((c > lo) & (c < hi)
                      & np.where(take_min, c_s < s, c_s > s))
            s = np.where(better, c_s, s)
            pick = np.where(better, 2 + j, pick)
        return s, pick

    def _variation(self, a, b, s_a, s_b, v=None):
        """The Engquist-Osher sum of sgn(Delta s) Delta v over the segments of
        the critical-point partition of [a^b, a v b], per face, added column
        by column from a^b.  s is monotone on each segment, so for v = s
        (``v`` None) this is TV(s) -- sgn(x) x = |x| exactly -- and for v = S
        the integral of U' |s'|.  ``v`` is (v_a, v_b, v_at): v_at(rows, cols)
        is v at critical-point column ``cols`` of faces ``rows``, where s is
        ``crit_s``.  A critical point outside (a^b, a v b), or NaN, collapses
        onto an end and takes its values, so it adds +0."""
        t = self.table
        lo = np.minimum(a, b)[:, None]
        hi = np.maximum(a, b)[:, None]
        inner = np.maximum(np.fmin(t.crit, hi), lo)            # ascending, as crit
        rows, cols = np.nonzero((inner != lo) & (inner != hi))

        def at_partition(v_a, v_b, v_at):
            v_lo = np.where(a <= b, v_a, v_b)[:, None]
            v_hi = np.where(a <= b, v_b, v_a)[:, None]
            v_inner = np.where(inner == hi, v_hi, v_lo)
            if rows.size:
                v_inner[rows, cols] = v_at(rows, cols)
            return np.concatenate([v_lo, v_inner, v_hi], axis=1)

        s_pts = at_partition(s_a, s_b, lambda r, c: t.crit_s[r, c])
        v_pts = s_pts if v is None else at_partition(*v)
        total = np.zeros(a.shape)
        for j in range(1, s_pts.shape[1]):
            total += np.sign(s_pts[:, j] - s_pts[:, j - 1]) * (v_pts[:, j] - v_pts[:, j - 1])
        return total

    def _values(self, a, b, s_a, s_b):
        """Canonical numerical flux per face and, for Godunov, the index of
        the winning candidate (see :meth:`_godunov_state`; None otherwise)."""
        if self.kind == LAX_FRIEDRICHS:
            return 0.5 * (s_a + s_b) - 0.5 * self.table.lam * (b - a), None
        if self.kind == GODUNOV:
            return self._godunov_state(a, b, s_a, s_b)
        tv = self._variation(a, b, s_a, s_b)
        return 0.5 * (s_a + s_b) - 0.5 * np.sign(b - a) * tv, None

    def values(self, a, b):
        """Canonical numerical flux per face for left/right states (a, b)."""
        a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
        return self._values(a, b, self.table.s(a), self.table.s(b))[0]

    # -- entropy companions ----------------------------------------------------
    #
    # Each returns (G, G_left, G_right) for the step of ``decomp``, canonical:
    # the numerical entropy flux G(a, b) and the consistent entropy fluxes at
    # the left and right face states a and b.

    def kruzkov_fluxes(self, k: float, decomp: "ConvexDecomposition") -> tuple:
        """Kruzkov entropy U = |u - k|: the Crandall-Majda flux
        F(a v k, b v k) - F(a ^ k, b ^ k) and sgn(u - k)(s(u) - s(k)).

        F(k, k) = s(k) bitwise for every kind, so faces with both states
        above k take the step's own flux minus s(k), faces with both below
        s(k) minus it; the others evaluate F on a view of their faces."""
        t = self.table
        a, b, F = decomp.u_left, decomp.u_right, decomp.flux_canonical
        s_k = t.s(float(k))
        G = np.where(a > k, F - s_k, s_k - F)
        mixed = np.flatnonzero(~(((a > k) & (b > k)) | ((a < k) & (b < k))))
        if mixed.size:
            # F(a v k, b v k) and F(a ^ k, b ^ k) in one evaluation
            am, bm = a[mixed], b[mixed]
            both = self._on(np.concatenate([mixed, mixed])).values(
                np.concatenate([np.maximum(am, k), np.minimum(am, k)]),
                np.concatenate([np.maximum(bm, k), np.minimum(bm, k)]))
            G[mixed] = both[:mixed.size] - both[mixed.size:]
        return (G, np.sign(a - k) * (decomp.s_left - s_k),
                np.sign(b - k) * (decomp.s_right - s_k))

    def smooth_fluxes(self, U: Callable, dU: Callable,
                      decomp: "ConvexDecomposition") -> tuple:
        """Smooth convex U, with S = :meth:`FaceFluxTable.entropy_average`:
        LF: central form with lambda dissipation; Godunov: S(w*), selected by
        the step's winning candidate ``decomp.pick``; EO:
        1/2 (S(a)+S(b)) - 1/2 sgn(b-a) sum sgn(Delta s) Delta S (see
        :meth:`_variation`).  A separable S = c_e Phi is taken per cell state
        and root of g_u; S at a critical point only on the faces needing it."""
        t = self.table
        mesh = decomp.mesh
        a, b = decomp.u_left, decomp.u_right
        if t.c is not None:
            # the cell states, then the roots of g_u (any row of crit)
            n = decomp.u_old.size
            phi = t.separable_entropy(dU, np.concatenate([decomp.u_old, t.crit[:1].ravel()]))
            S_a = t.c * phi[mesh.face_left]
            S_b = t.c * phi[mesh.face_right]
        else:
            S_a = t.entropy_average(dU, a)
            S_b = t.entropy_average(dU, b)

        def S_at(rows, cols):
            """S at critical-point column ``cols`` of faces ``rows``."""
            if t.c is not None:
                return t.c[rows] * phi[n + cols]
            return t.view(rows).entropy_average(dU, t.crit[rows, cols])

        if self.kind == LAX_FRIEDRICHS:
            G = 0.5 * (S_a + S_b) - 0.5 * t.lam * (U(b) - U(a))
        elif self.kind == GODUNOV:
            pick = decomp.pick
            G = np.where(pick == 1, S_b, S_a)
            at_root = np.flatnonzero(pick >= 2)
            if at_root.size:
                G[at_root] = S_at(at_root, pick[at_root] - 2)
        else:
            tv_S = self._variation(a, b, decomp.s_left, decomp.s_right, (S_a, S_b, S_at))
            G = 0.5 * (S_a + S_b) - 0.5 * np.sign(b - a) * tv_S
        return G, S_a, S_b

    # -- validation / box management -------------------------------------------

    def validate_monotonicity(self, n_states: int = 20, max_faces: int = 100,
                              rng: Optional[np.random.Generator] = None) -> float:
        """Sampled check of d1 >= 0 and d2 <= 0 on the state box; returns the
        worst signed violation (negative values beyond the tolerance raise)."""
        t = self.table
        rng = rng if rng is not None else np.random.default_rng(0)
        n_f = t.n_faces
        face_ids = (np.arange(n_f) if n_f <= max_faces
                    else np.sort(rng.choice(n_f, size=max_faces, replace=False)))
        sub = self._on(face_ids)
        k = face_ids.size
        grid = np.linspace(t.box[0], t.box[1], n_states)
        F = np.empty((n_states, n_states, k))
        for i, uu in enumerate(grid):
            a = np.full(k, uu)
            for j, vv in enumerate(grid):
                F[i, j] = sub.values(a, np.full(k, vv))
        worst = min(float(np.diff(F, axis=0).min()), float(-np.diff(F, axis=1).max()))
        worst = min(worst, 0.0)
        if worst < -self.monotonicity_tol:
            raise InputError(f"monotonicity violated on the state box: {worst:.3e}")
        return worst

    def ensure_box(self, u_min: float, u_max: float) -> None:
        """Expand the tracked state box to cover [u_min, u_max] if needed."""
        lo, hi = self.table.box
        if u_min >= lo and u_max <= hi:
            return
        margin = 0.1 * max(u_max - u_min, hi - lo, 1e-8)
        new_box = (min(lo, u_min) - margin, max(hi, u_max) + margin)
        warnings.warn(
            f"state left the tracked box {self.table.box}; expanding to {new_box} "
            "and re-validating monotonicity", RuntimeWarning, stacklevel=2)
        self.table.rebuild(new_box)
        self.validate_monotonicity(n_states=12, max_faces=20)

    @property
    def incremental_ratio(self) -> float:
        """Sup over faces of the flux's incremental ratio (lambda for LF)."""
        if self.kind == LAX_FRIEDRICHS:
            return float(self.table.lam.max()) if self.table.lam.size else 0.0
        return float(self.table.speed.max()) if self.table.speed.size else 0.0


def make_numerical_flux(kind: str, mesh: SphereMesh, flux: FluxField,
                        box=(-1.0, 1.0)) -> NumericalFlux:
    """Build a numerical flux with its face table over the given state box."""
    return NumericalFlux(kind=kind, table=FaceFluxTable(mesh, flux, box))


def numerical_flux(nf: NumericalFlux, face_id: int, side_cell: int,
                   u: float, v: float) -> float:
    """Two-point flux f_{e,K}(u, v) seen from ``side_cell`` (u on that side)."""
    mesh = nf.table.mesh
    if side_cell == mesh.face_left[face_id]:
        sign = 1.0
        a, b = float(u), float(v)
    elif side_cell == mesh.face_right[face_id]:
        sign = -1.0
        a, b = float(v), float(u)
    else:
        raise ConfigError(f"cell {side_cell} is not adjacent to face {face_id}")
    return float(sign * nf._on([face_id]).values(np.array([a]), np.array([b]))[0])


# ---------------------------------------------------------------------------
# solver state, CFL, stepping
# ---------------------------------------------------------------------------

@dataclass
class SolverState:
    mesh: SphereMesh
    u: np.ndarray
    t: float = 0.0
    n: int = 0
    tau: float = 0.0


def init_state(mesh: SphereMesh, u0: Callable) -> SolverState:
    """Cell averages of ``u0(phi, theta)`` (vectorized), exact for constants."""
    u = cell_averages(mesh, u0)
    if not np.all(np.isfinite(u)):
        bad = int(np.flatnonzero(~np.isfinite(u))[0])
        raise InputError(f"initial data produced a non-finite average in cell {bad}")
    return SolverState(mesh=mesh, u=u)


def cfl_timestep(mesh: SphereMesh, flux: FluxField, nf: NumericalFlux,
                 state_box, safety: float, tau_floor: Optional[float] = None) -> float:
    """tau = safety * min_K |K| / (p_K * max(Lip(f), incremental ratio))."""
    if not (0.0 < safety < 1.0):
        raise ConfigError(f"CFL safety factor must lie in (0, 1), got {safety}")
    lip = flux.lipschitz_on(float(state_box[0]), float(state_box[1]))
    rate = max(lip, nf.incremental_ratio)
    geo = float((mesh.cell_area / mesh.cell_perimeter).min())
    if rate < 1e-14:
        if tau_floor is None:
            raise ConfigError("flux is state-independent (Lip(f) = 0); "
                              "provide tau_floor to choose a time step")
        return float(tau_floor)
    return safety * geo / rate


@dataclass
class ConvexDecomposition:
    """Per-step intermediate states behind the entropy diagnostics.

    For each (cell K, face e) slot of the mesh (see ``SphereMesh``):
    ``utilde[K, e] = u_K - mu_K (f_{e,K}(u_K, u_Ke) - f_{e,K}(u_K, u_K))`` and
    ``u_ke[K, e] = utilde[K, e] - div_corr[K]`` with the divergence correction
    computed from the scheme's own face quadrature, so that the weighted mean
    of ``u_ke`` reconstructs the updated cell average to rounding."""

    mesh: SphereMesh
    tau: float
    u_old: np.ndarray             # (N,)
    u_new: np.ndarray             # (N,)
    mu: np.ndarray                # (N,) tau p_K / |K|
    utilde: np.ndarray            # (S,)
    u_ke: np.ndarray              # (S,)
    div_corr: np.ndarray          # (N,) (tau/|K|) sum_e sign |e| s_e(u_K)
    flux_canonical: np.ndarray    # (F,) numerical flux values, canonical
    u_left: np.ndarray            # (F,)
    u_right: np.ndarray           # (F,)
    s_left: np.ndarray            # (F,) s_e(u_left)
    s_right: np.ndarray           # (F,)
    pick: Optional[np.ndarray]    # (F,) Godunov winners (_godunov_state); else None

    def reconstruction_residual(self) -> float:
        """Max |u_new_K - (1/p_K) sum_e |e| u_{K,e}|."""
        mesh = self.mesh
        recon = mesh.cell_sum(np.abs(mesh.slot_measure) * self.u_ke)
        return float(np.max(np.abs(recon / mesh.cell_perimeter - self.u_new)))


def step(state: SolverState, flux: FluxField, nf: NumericalFlux,
         threads: int = 1, need_decomposition: bool = True) -> tuple:
    """One explicit update; returns (new state, convex decomposition).

    Each cell sums its signed face fluxes over its mesh slots in their fixed
    order.  With ``need_decomposition=False`` the decomposition (two per-slot
    state arrays and the divergence correction, a sizeable share of a plain
    step) is skipped and ``None`` is returned in its place; the update itself
    is unchanged."""
    mesh = state.mesh
    u = state.u
    tau = state.tau
    if tau <= 0.0:
        raise ConfigError("state.tau must be set to a positive CFL time step")
    nf.ensure_box(float(u.min()), float(u.max()))

    a = u[mesh.face_left]
    b = u[mesh.face_right]
    fvals, pick, s_a, s_b = _face_fluxes(nf, a, b, threads)

    fid = mesh.cell_faces
    sign = mesh.cell_signs
    f_slot = fvals[fid]
    u_new = u - (tau / mesh.cell_area) * mesh.cell_sum(mesh.slot_measure * f_slot)
    if not np.all(np.isfinite(u_new)):
        bad = int(np.flatnonzero(~np.isfinite(u_new))[0])
        raise InputError(f"non-finite update in cell {bad} "
                         "(time step too large for the current state?)")

    new_state = SolverState(mesh=mesh, u=u_new, t=state.t + tau,
                            n=state.n + 1, tau=tau)
    if not need_decomposition:
        return new_state, None

    # convex decomposition, per slot
    cell = mesh.slot_cell
    mu = tau * mesh.cell_perimeter / mesh.cell_area
    own_s = np.where(sign > 0, s_a[fid], s_b[fid])
    utilde = u[cell] - mu[cell] * (sign * f_slot - sign * own_s)
    div_corr = (tau / mesh.cell_area) * mesh.cell_sum(mesh.slot_measure * own_s)
    u_ke = utilde - div_corr[cell]

    decomp = ConvexDecomposition(
        mesh=mesh, tau=tau, u_old=u, u_new=u_new, mu=mu, utilde=utilde,
        u_ke=u_ke, div_corr=div_corr, flux_canonical=fvals, u_left=a,
        u_right=b, s_left=s_a, s_right=s_b, pick=pick)
    return new_state, decomp


def _face_fluxes(nf: NumericalFlux, a: np.ndarray, b: np.ndarray, threads: int):
    """Numerical flux values, Godunov winners (None for other kinds; see
    :meth:`NumericalFlux._values`) and s at both states for all faces.

    With ``threads > 1`` the face range is split into contiguous chunks that
    are evaluated concurrently on table views; every per-face computation is
    row-independent, so the assembled result is bitwise identical to the
    single-chunk evaluation."""
    t = nf.table
    if threads <= 1 or t.n_faces < 2 * threads:
        s_a, s_b = t.s(a), t.s(b)
        return (*nf._values(a, b, s_a, s_b), s_a, s_b)

    from concurrent.futures import ThreadPoolExecutor

    bounds = np.linspace(0, t.n_faces, threads + 1).astype(int)

    def work(lo, hi):
        part = nf._on(slice(lo, hi))
        sa, sb = part.table.s(a[lo:hi]), part.table.s(b[lo:hi])
        return (*part._values(a[lo:hi], b[lo:hi], sa, sb), sa, sb)

    with ThreadPoolExecutor(max_workers=threads) as pool:
        parts = list(pool.map(lambda pair: work(*pair), zip(bounds[:-1], bounds[1:])))
    return tuple(None if col[0] is None else np.concatenate(col) for col in zip(*parts))


def run(state0: SolverState, flux: FluxField, nf: NumericalFlux, T: float,
        tau: float, hooks: Sequence[Callable] = (), threads: int = 1) -> SolverState:
    """Step until t >= T, shortening the final step to land exactly on T."""
    if T < 0.0:
        raise ConfigError(f"final time must be non-negative, got {T}")
    state = replace(state0, tau=tau)
    need_decomp = len(hooks) > 0
    while state.t < T:
        state.tau = min(tau, T - state.t)
        state, decomp = step(state, flux, nf, threads=threads,
                             need_decomposition=need_decomp)
        for hook in hooks:
            hook(state, decomp)
    return state
