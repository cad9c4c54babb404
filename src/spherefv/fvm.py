"""Finite volume scheme on the sphere mesh.

Each face carries the one-dimensional restriction of the flux,
``s_e(u) = (1/|e|) int_e g(f(u,x), n_e) dv_e`` along the face's canonical
normal.  All numerical fluxes (Lax-Friedrichs, Engquist-Osher, Godunov) are
built from ``s_e`` together with its critical points over the tracked state
box, which makes consistency exact and monotonicity hold to rounding:

- Godunov takes the true min/max of ``s_e`` over the state interval, the
  interior extrema being the precomputed critical points.  On a table with
  no critical points s_e is monotone over the box, so that is the upwind
  value s_e(u_up), the upwind cell fixed per face when the table is built;
  a plain step (no decomposition) evaluates s once per face there;
- Engquist-Osher uses the total-variation form
  ``1/2 (s(u)+s(v)) - 1/2 sgn(v-u) TV(s; [u^v, u v v])``, TV being the sum
  of |Delta s| over the critical-point partition, s there read from the table;
- Lax-Friedrichs uses a per-face dissipation ``lambda_e = 1.01 sup |s_e'|``,
  so faces the flux never crosses stay exactly inert.

The restriction s_e is formed in one of two ways, chosen by what the flux
carries; a flux that carries neither is rejected with ``ConfigError``:

- *coefficient table.*  For a sum of terms f = sum_j g_j(u) X_j(x),
  s_e(u) = sum_j g_j(u) D_ej with per-face coefficients D computed once, so
  no step evaluates f or an expression in x.  A separable flux (the
  registry's ``solid_rotation`` and ``latitude_burgers``) is J = 1, with
  D_e1 = (1/|e|) int_e g(X, n_e) dv_e by the mesh's 3-node face quadrature;
  its critical points are the roots of g_1', shared by every face.  A
  potential that splits, a = sum_j g_j(u) A_j(n), has
  D_ej = [A_j(end) - A_j(start)] / |e|, the vertex difference below term
  by term.  The entropy-flux average is sum_j D_ej Phi_j(u), with Phi_j the
  scalar integral of U' g_j' from 0 to u by the Gauss-Legendre rule that is
  exact for it when U' and g_j are polynomials of known degree (2 nodes for
  U = u^2/2 with Burgers), and by 24 points otherwise.
- *general vertex path.*  For f = n x grad a, given by any other potential
  a(u, n), the flux through a face is the tangential derivative of a along
  it, so s_e(u) = [a(u, end) - a(u, start)] / |e| exactly, with the face's
  ends in the mesh's ``face_vertices`` order, and s_e' is the same
  difference of the exact a_u.  Every frozen constant state of a potential
  flux then has zero discrete divergence up to rounding (the
  geometry-compatible discretization of Ben-Artzi, Falcovitz and LeFloch,
  J. Comput. Phys. 228, 2009).

With two or more terms, and on the vertex path, s_e' is scanned a fixed
block of faces at a time, keeping only each face's sup |s_e'| and sign
changes, so set-up memory is O(faces).  A face whose sup |s_e'| is rounding
noise (at most 64 eps times the largest over the faces) gets no critical
points; only the sign-change brackets of the other faces are refined by
bisection.

Face-table evaluations follow one shape rule: a scalar state is taken at
every face; an array state has the faces on its first axis and is viewed as
(F, C) -- C states per face, C = 0 included -- and the result has the
state's shape.

A face value is computed once in the canonical orientation and enters the two
adjacent cells with opposite signs, so the conservation property is exact in
floating point.  Per-cell face accumulation runs over the mesh's flat
(cell, face) slots with ``SphereMesh.cell_sum``: x_W + ((x_E + x_N) + x_S)
for a band cell, ``np.add.reduceat`` over a cap's rim, so results do not
depend on how the face loop is chunked across workers.

The module also provides the numerical entropy fluxes that accompany each
scheme (Crandall-Majda form for Kruzkov entropies; the classical companions
for smooth convex entropies) and the per-step convex decomposition
(u-tilde_{K,e}, u_{K,e}) that the entropy diagnostics are formulated in.
The entropy fluxes reuse the step's face values.  The consistent fluxes
S(a), S(b) are taken once per face -- with terms, each Phi_j once per cell
state, then gathered and weighted by D_ej.  The Godunov
S(w*) is selected from them, or from S at a critical point, by the index of
the winning candidate.  The Engquist-Osher entropy flux is the flux's own
partition sum with the signs of the increments of s_e weighting those of S.
By exact consistency F(k, k) = s_e(k), the
Crandall-Majda flux is the step's own flux minus s_e(k) where both states
lie above k (s_e(k) minus it below); only faces whose states straddle or
touch k, sgn(a - k) sgn(b - k) <= 0, evaluate F again.
"""

from __future__ import annotations

import contextlib
import functools
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

_GL_MAX = 24             # Gauss-Legendre points of an entropy flux of unknown degree
_SCAN_BLOCK = 256        # faces per block of the critical-point scan
_N_SCAN = 129            # points of the critical-point scan grid over the box
MONOTONICITY_TOL = 1e-12  # the worst d1 >= 0, d2 <= 0 violation validation accepts


# ---------------------------------------------------------------------------
# per-face flux restriction
# ---------------------------------------------------------------------------

class FaceFluxTable:
    """Per-face normal-flux averages s_e(u), derivatives, critical points.

    ``box`` is the state interval over which critical points and wave speeds
    are tracked; it can be rebuilt (expanded) on demand.  s_e is formed in
    one of the two ways of the module docstring: ``D`` holds the (F, J)
    coefficients of a flux with terms, ``ends`` the unit vectors
    (n1, n2, n3) of each face's start and end, shape (3, 2, F), for any other
    potential flux; the other one is None.  ``s`` and ``sp`` take a scalar
    (every face) or an array of shape (F, ...), evaluated as sum_j g_j D_ej
    or, viewed as (F, C), at the (2, F, C) face ends; they return the shape
    of ``u``.  :meth:`rebuild` scans them a block of faces at a time, in
    O(faces) memory.
    """

    def __init__(self, mesh: SphereMesh, flux: FluxField, box):
        self.mesh = mesh
        self.flux = flux
        self.n_scan = _N_SCAN
        self.q_phi = mesh.face_q_phi
        self.measure = mesh.face_measure
        self.D = self.ends = None
        ends = (None if flux.potential is None else
                np.take(np.ascontiguousarray(mesh.vertex_xyz.T), mesh.face_vertices.T, axis=1))
        if flux.terms:
            self.D = np.column_stack([self._coefficients(term, ends) for term in flux.terms])
        elif ends is not None:
            self.ends = ends
        else:
            raise ConfigError(f"flux {flux.name!r} is neither separable (no terms) nor "
                              "given by a potential: no face restriction s_e for it")
        self.rebuild(box)

    def _coefficients(self, term, ends):
        """D_ej of one term: the vertex difference of its potential over |e|,
        or the 3-node face average of g(X_j, n_e) if it has none."""
        if term.potential is not None:
            v = np.broadcast_to(term.potential(*ends), ends.shape[1:])
            return (v[1] - v[0]) / self.measure
        mesh = self.mesh
        comp = np.asarray(term.X(mesh.face_q_phi, mesh.face_q_theta))
        return np.sum(mesh.face_q_w * mesh.normal_component(comp), axis=-1) / self.measure

    @property
    def n_faces(self) -> int:
        return self.measure.shape[0]

    def view(self, index) -> "FaceFluxTable":
        """A shallow view over a subset of faces (slice or index array).

        Every per-face quantity is row-independent, so evaluations on a view
        are bitwise identical to the corresponding rows of a full evaluation;
        this is what makes chunked (multi-worker) stepping reproducible."""
        v = self._rows(index)
        v.box = self.box
        v.speed, v.lam = self.speed[index], self.lam[index]
        v.crit, v.crit_s = _take_rows(self.crit, index), _take_rows(self.crit_s, index)
        v.upwind = None if self.upwind is None else self.upwind[index]
        return v

    def _rows(self, index) -> "FaceFluxTable":
        """A view that evaluates s and s' only (no box)."""
        v = object.__new__(type(self))
        v.mesh, v.flux, v.n_scan = self.mesh, self.flux, self.n_scan
        v.measure = self.measure[index]
        v.D = None if self.D is None else _take_rows(self.D, index)
        v.ends = None if self.ends is None else self.ends[:, :, index]
        return v

    # -- pointwise evaluations ------------------------------------------------

    def _eval(self, u, derivative: bool):
        """s (or s' with ``derivative``) at the states ``u``.

        A scalar ``u`` is taken at every face; otherwise the first axis of
        ``u`` runs over the faces.  The terms' g_j (g_j') are evaluated at
        ``u`` and weighted by D_ej broadcast over the trailing axes, or ``u``
        is viewed as (F, C) and the potential a (a_u) is differenced between
        the (2, F, C) face ends.  The result has the shape of ``u``."""
        flux = self.flux
        u = np.asarray(u, dtype=float)
        if u.ndim == 0:
            u = np.full(self.n_faces, float(u))
        if self.D is not None:
            return _terms_sum(self.D, [(term.g_u if derivative else term.g)(u)
                                       for term in flux.terms])
        cols = u.reshape(u.shape[0], math.prod(u.shape[1:]))
        a = flux.potential_u if derivative else flux.potential
        n1, n2, n3 = self.ends[:, :, :, None]
        v = np.broadcast_to(a(cols, n1, n2, n3), (2,) + cols.shape)
        return ((v[1] - v[0]) / self.measure[:, None]).reshape(u.shape)

    def s(self, u):
        """Canonical face-averaged normal flux at state(s) u."""
        return self._eval(u, derivative=False)

    def sp(self, u):
        """Derivative s_e'(u): sum_j g_j' D_ej, or the face-end difference of a_u."""
        return self._eval(u, derivative=True)

    # -- state box / critical points ------------------------------------------

    def rebuild(self, box) -> None:
        """(Re)compute critical points, wave speeds, lambda and, with no
        critical points, each face's upwind cell over ``box``.

        Critical points are the sign changes of s' on an ``n_scan``-point
        grid, refined by bisection; a face whose sup |s'| is rounding noise
        has none.  With one term they are the roots of g_1', found once.
        Otherwise s' is scanned a block of faces at a time, each row's bits
        as in :meth:`sp` (with terms, each g_j' taken once on the grid), and
        the faces that have a sign change are bisected."""
        lo, hi = float(box[0]), float(box[1])
        if not (hi > lo):
            raise ConfigError(f"state box must be a nontrivial interval, got {box}")
        self.box = (lo, hi)
        grid = np.linspace(lo, hi, self.n_scan)
        eps = np.finfo(float).eps
        if self.D is not None and self.D.shape[1] == 1:
            g_u = self.flux.terms[0].g_u
            d = g_u(grid)
            self.speed = np.abs(self.D[:, 0]) * np.max(np.abs(d))
            cols = np.flatnonzero(np.signbit(d[1:]) != np.signbit(d[:-1]))
            roots = _bisect_sign_changes(np.zeros_like(cols), cols, 1, grid, g_u)
            inert = self.speed <= 64 * eps * self.speed.max(initial=0.0)
            crit = np.where(inert[:, None], np.nan, roots)
        else:
            if self.D is not None:
                G = [term.g_u(grid) for term in self.flux.terms]

                def scan(block, n):
                    return _terms_sum(self.D[block], [np.broadcast_to(g, (n, grid.size))
                                                      for g in G])
            else:
                def scan(block, n):
                    return self._rows(block)._eval(np.broadcast_to(grid, (n, grid.size)), True)

            self.speed = np.empty(self.n_faces)           # sup |s'| per face
            rows, cols = [], []
            for start in range(0, self.n_faces, _SCAN_BLOCK):
                block = slice(start, start + _SCAN_BLOCK)
                d = scan(block, self.measure[block].shape[0])
                self.speed[block] = np.max(np.abs(d), axis=1)
                sign = np.signbit(d)
                r, c = np.divmod(np.flatnonzero(sign[:, 1:] != sign[:, :-1]), grid.size - 1)
                rows.append(start + r)
                cols.append(c)
            rows, cols = np.concatenate(rows), np.concatenate(cols)
            # sign changes of rounding noise on inert faces are no critical points
            inert = self.speed <= 64 * eps * self.speed.max(initial=0.0)
            live = ~inert[rows]
            faces, rows = np.unique(rows[live], return_inverse=True)
            live_rows = self._rows(faces)
            roots = _bisect_sign_changes(rows, cols[live], faces.size, grid,
                                         lambda x: live_rows._eval(x, True))
            crit = np.full((self.n_faces, roots.shape[1]), np.nan)
            crit[faces] = roots
        self.lam = 1.01 * self.speed                      # LF dissipation
        self.crit = crit
        # no critical points: s is monotone on the box and Godunov is upwind
        self.upwind = (np.where(self.s(hi) >= self.s(lo), self.mesh.face_left,
                                self.mesh.face_right) if crit.shape[1] == 0 else None)
        self.crit_s = np.where(np.isnan(crit), np.nan,
                               self.s(np.nan_to_num(crit, nan=lo)))

    # -- entropy-flux averages -------------------------------------------------

    def entropy_average(self, dU: Callable, u):
        """Face average of the entropy flux: integral of U'(w) s_e'(w) dw from
        0 to ``u`` by the 24-point Gauss-Legendre rule, at one state per face
        (an (F,) array).  The vertex path's S; a table with terms forms S
        from the Phi_j of :meth:`separable_entropy` instead."""
        x, weights = _gauss_legendre(_GL_MAX)
        half = 0.5 * u
        mid = 0.5 * (u + 0.0)       # the midpoint of [0, u], +0.0 at u = -0.0
        w = mid[:, None] + half[:, None] * x[None, :]              # (F, 24)
        vals = dU(w) * self.sp(w)
        return half * np.sum(weights * vals, axis=-1)

    def separable_entropy(self, dU: Callable, u, dU_degree: Optional[int]) -> list:
        """[Phi_j(u)]: the integrals of U'(w) g_j'(w) dw from 0 to ``u``, one
        per term, elementwise over ``u``, by Gauss-Legendre quadrature.

        When U' (degree ``dU_degree``) and g_j (``Term.degree``) are both
        polynomials in u, U' g_j' has degree p = deg U' + deg g_j - 1 and
        p // 2 + 1 nodes integrate it exactly (at most 24); otherwise the
        rule has 24 points."""
        half = 0.5 * u
        mid = 0.5 * (u + 0.0)       # the midpoint of [0, u], +0.0 at u = -0.0
        w = np.empty_like(u)
        phi = []
        for term in self.flux.terms:
            n = _GL_MAX
            if dU_degree is not None and term.degree is not None:
                n = min(n, (dU_degree + max(term.degree - 1, 0)) // 2 + 1)
            # node by node, in reused buffers that stay in cache
            total = np.zeros_like(u)
            for x, weight in zip(*_gauss_legendre(n)):
                np.multiply(half, x, out=w)
                w += mid
                value = dU(w) * term.g_u(w)
                value *= weight
                total += value
            phi.append(half * total)
        return phi


@functools.lru_cache(maxsize=None)
def _gauss_legendre(n: int) -> tuple:
    """Nodes and weights of the n-point Gauss-Legendre rule on [-1, 1],
    exact for polynomials of degree 2n - 1 (read-only arrays)."""
    x, w = leggauss(n)
    x.flags.writeable = w.flags.writeable = False
    return x, w


def _take_rows(x, index):
    """Rows ``index`` of a 2-D per-face array: a view for a slice, else
    ``np.take``, which gathers whole rows far faster than fancy indexing."""
    return x[index] if isinstance(index, slice) else np.take(x, index, axis=0)


def _terms_sum(D, values):
    """sum_j values[j] D[:, j], the terms added in order; each values[j] has
    the faces on its first axis, and D_ej is broadcast over the others."""
    total = None
    for j, v in enumerate(values):
        column = D[:, j]
        if v.ndim > 1:
            column = column.reshape(column.shape + (1,) * (v.ndim - 1))
        if total is None:
            total = v * column
        else:
            total += v * column
    return total


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
    # the sign at a bracket's left end: a moves only to points of that sign
    sign_a = np.signbit(fprime(a)) & mask
    for _ in range(60):
        mid = 0.5 * (a + b)
        left = (np.signbit(fprime(mid)) & mask) == sign_a
        a = np.where(left, mid, a)
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
        critical-point column j.  A candidate beats the best so far where it
        is strictly below it (``take_min``) or above it: never at a tie or a NaN."""
        t = self.table
        take_min = a <= b
        lt = s_b < s_a
        pick_b = (lt == take_min) & (lt | (s_b > s_a))
        s = np.where(pick_b, s_b, s_a)
        pick = pick_b.astype(np.intp)
        if t.crit.shape[1]:
            lo = np.minimum(a, b)
            hi = np.maximum(a, b)
        for j, (c, c_s) in enumerate(zip(t.crit.T, t.crit_s.T)):
            lt = c_s < s
            better = (c > lo) & (c < hi) & (lt == take_min) & (lt | (c_s > s))
            np.copyto(s, c_s, where=better)
            np.copyto(pick, 2 + j, where=better)
        return s, pick

    def _inside(self, a, b):
        """The ends a^b and a v b of each face's interval, shape (F, 1), the
        critical points clamped into it (ascending, as ``crit``), and the
        (rows, cols) of those strictly inside."""
        lo = np.minimum(a, b)[:, None]
        hi = np.maximum(a, b)[:, None]
        inner = np.maximum(np.fmin(self.table.crit, hi), lo)
        return lo, hi, inner, np.nonzero((inner != lo) & (inner != hi))

    def _variation(self, a, b, s_a, s_b, v=None):
        """The Engquist-Osher sum of sgn(Delta s) Delta v over the segments of
        the critical-point partition of [a^b, a v b], per face, added column
        by column from a^b.  s is monotone on each segment, so for v = s
        (``v`` None) this is TV(s) -- sgn(x) x = |x| exactly -- and for v = S
        the integral of U' |s'|.  ``v`` is (v_a, v_b, v_inside), v_inside
        holding v at the critical points inside, in the order of
        :meth:`_inside` (s there is ``crit_s``).  A critical point outside
        (a^b, a v b), or NaN, collapses onto an end and takes its values, so
        it adds +0."""
        lo, hi, inner, (rows, cols) = self._inside(a, b)

        def at_partition(v_a, v_b, v_inside):
            v_lo = np.where(a <= b, v_a, v_b)[:, None]
            v_hi = np.where(a <= b, v_b, v_a)[:, None]
            v_inner = np.where(inner == hi, v_hi, v_lo)
            v_inner[rows, cols] = v_inside
            return np.concatenate([v_lo, v_inner, v_hi], axis=1)

        s_pts = at_partition(s_a, s_b, self.table.crit_s[rows, cols])
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
        s(k) minus it; the others, where sgn(a - k) sgn(b - k) <= 0,
        evaluate F on a view of their faces."""
        t = self.table
        a, b, F = decomp.u_left, decomp.u_right, decomp.flux_canonical
        s_k = t.s(float(k))
        sign_a, sign_b = np.sign(a - k), np.sign(b - k)
        G = np.where(a > k, F - s_k, s_k - F)
        mixed = np.flatnonzero(sign_a * sign_b <= 0.0)
        if mixed.size:
            # F(a v k, b v k) and F(a ^ k, b ^ k) in one evaluation
            am, bm = a[mixed], b[mixed]
            both = self._on(np.concatenate([mixed, mixed])).values(
                np.concatenate([np.maximum(am, k), np.minimum(am, k)]),
                np.concatenate([np.maximum(bm, k), np.minimum(bm, k)]))
            G[mixed] = both[:mixed.size] - both[mixed.size:]
        return G, sign_a * (decomp.s_left - s_k), sign_b * (decomp.s_right - s_k)

    def smooth_fluxes(self, U: Callable, dU: Callable, decomp: "ConvexDecomposition",
                      dU_degree: Optional[int]) -> tuple:
        """Smooth convex U, with S the face average of the entropy flux:
        LF: central form with lambda dissipation; Godunov: S(w*), selected by
        the step's winning candidate ``decomp.pick``; EO:
        1/2 (S(a)+S(b)) - 1/2 sgn(b-a) sum sgn(Delta s) Delta S (see
        :meth:`_variation`).  S at a critical point is taken only where the
        flux needs it.  With terms, S = sum_j D_ej Phi_j, each Phi_j once per
        cell state and such critical point, by the Gauss order that
        ``dU_degree`` (the degree of U' as a polynomial, None when unknown)
        makes exact (:meth:`FaceFluxTable.separable_entropy`); on the vertex
        path S is :meth:`FaceFluxTable.entropy_average`."""
        t = self.table
        mesh = decomp.mesh
        a, b = decomp.u_left, decomp.u_right
        rows = cols = np.zeros(0, dtype=np.intp)
        if self.kind == GODUNOV:
            rows = np.flatnonzero(decomp.pick >= 2)
            cols = decomp.pick[rows] - 2
        elif self.kind == ENGQUIST_OSHER:
            rows, cols = self._inside(a, b)[3]
        w = t.crit[rows, cols]
        if t.D is not None:
            n = decomp.u_old.size
            phi = t.separable_entropy(dU, np.concatenate([decomp.u_old, w]), dU_degree)
            S_a = _terms_sum(t.D, [p[mesh.face_left] for p in phi])
            S_b = _terms_sum(t.D, [p[mesh.face_right] for p in phi])
            S_w = _terms_sum(_take_rows(t.D, rows), [p[n:] for p in phi])
        else:
            S_a = t.entropy_average(dU, a)
            S_b = t.entropy_average(dU, b)
            S_w = t.view(rows).entropy_average(dU, w)

        if self.kind == LAX_FRIEDRICHS:
            G = 0.5 * (S_a + S_b) - 0.5 * t.lam * (U(b) - U(a))
        elif self.kind == GODUNOV:
            G = np.where(decomp.pick == 1, S_b, S_a)
            G[rows] = S_w
        else:
            tv_S = self._variation(a, b, decomp.s_left, decomp.s_right, (S_a, S_b, S_w))
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
        if worst < -MONOTONICITY_TOL:
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


def cfl_timestep(nf: NumericalFlux, safety: float) -> float:
    """tau = safety * min_K |K| / (p_K * max(Lip(f), L)) for the scheme ``nf``.

    Everything is read from its table: the mesh gives |K| / p_K, Lip(f) is
    ``FluxField.lipschitz_on`` over the table's state box, and L is the
    largest face speed over that box (the largest lambda for LF).  A flux
    whose rate is below 1e-14 there has no CFL time step (``ConfigError``)."""
    if not (0.0 < safety < 1.0):
        raise ConfigError(f"CFL safety factor must lie in (0, 1), got {safety}")
    t = nf.table
    speeds = t.lam if nf.kind == LAX_FRIEDRICHS else t.speed
    rate = max(t.flux.lipschitz_on(*t.box), float(speeds.max(initial=0.0)))
    if rate < 1e-14:
        raise ConfigError(f"flux is state-independent on the state box {t.box} "
                          "(Lip(f) = 0): no CFL time step")
    return safety * float((t.mesh.cell_area / t.mesh.cell_perimeter).min()) / rate


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
    mu: np.ndarray                # (S,) tau p_K / |K| of the slot's cell
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


def step(state: SolverState, nf: NumericalFlux, threads: int = 1,
         need_decomposition: bool = True, pool=None) -> tuple:
    """One explicit update of ``state`` by the scheme ``nf`` with time step
    ``state.tau``; returns (new state, convex decomposition).

    Each cell sums its signed face fluxes over its mesh slots with
    ``SphereMesh.cell_sum``.  With ``need_decomposition=False`` the
    decomposition (two per-slot state arrays and the divergence correction,
    a sizeable share of a plain step) is skipped and ``None`` is returned in
    its place; the update itself is unchanged.  Such a Godunov step on a
    table without critical points takes s at each face's upwind cell, once
    per face and on no pool: the first extremal candidate of a monotone face
    is its upwind end.  Otherwise, with ``threads > 1`` the faces are
    evaluated on ``pool`` (see :func:`thread_pool`), or on a pool made for
    this step if it is None."""
    mesh = state.mesh
    u = state.u
    tau = state.tau
    if tau <= 0.0:
        raise ConfigError("state.tau must be set to a positive CFL time step")
    nf.ensure_box(float(u.min()), float(u.max()))

    if not need_decomposition and nf.kind == GODUNOV and nf.table.upwind is not None:
        fvals = nf.table.s(u[nf.table.upwind])
    else:
        a = u[mesh.face_left]
        b = u[mesh.face_right]
        fvals, pick, s_a, s_b = _face_fluxes(nf, a, b, threads, pool)

    f_slot = fvals[mesh.cell_faces]
    u_new = u - (tau / mesh.cell_area) * mesh.cell_sum(mesh.slot_measure * f_slot)
    if not np.isfinite(u_new).all():
        bad = int(np.flatnonzero(~np.isfinite(u_new))[0])
        raise InputError(f"non-finite update in cell {bad} "
                         "(time step too large for the current state?)")

    new_state = SolverState(mesh=mesh, u=u_new, t=state.t + tau,
                            n=state.n + 1, tau=tau)
    if not need_decomposition:
        return new_state, None

    # convex decomposition, per slot; the jump sign (f - s(u_K)) is f - s_a
    # on a left side, s_b - f (the bits of (-f) - (-s_b)) on a right side
    cell = mesh.slot_cell
    mu = (tau * mesh.cell_perimeter / mesh.cell_area)[cell]
    own_s = np.concatenate([s_a, s_b])[mesh.slot_side]
    jump = np.concatenate([fvals - s_a, s_b - fvals])[mesh.slot_side]
    utilde = u[cell] - mu * jump
    div_corr = (tau / mesh.cell_area) * mesh.cell_sum(mesh.slot_measure * own_s)
    u_ke = utilde - div_corr[cell]

    decomp = ConvexDecomposition(
        mesh=mesh, tau=tau, u_old=u, u_new=u_new, mu=mu, utilde=utilde,
        u_ke=u_ke, div_corr=div_corr, flux_canonical=fvals, u_left=a,
        u_right=b, s_left=s_a, s_right=s_b, pick=pick)
    return new_state, decomp


def thread_pool(threads: int):
    """A context manager that gives a ``threads``-worker pool for
    :func:`step`, or None (serial evaluation, no pool) for ``threads <= 1``."""
    if threads <= 1:
        return contextlib.nullcontext()
    from concurrent.futures import ThreadPoolExecutor
    return ThreadPoolExecutor(max_workers=threads)


def _face_fluxes(nf: NumericalFlux, a: np.ndarray, b: np.ndarray, threads: int, pool):
    """Numerical flux values, Godunov winners (None for other kinds; see
    :meth:`NumericalFlux._values`) and s at both states for all faces.

    With ``threads > 1`` the face range is split into contiguous chunks that
    are evaluated concurrently on table views, on ``pool`` or on a pool made
    for this call; every per-face computation is row-independent, so the
    assembled result is bitwise identical to the single-chunk evaluation."""
    t = nf.table
    if threads <= 1 or t.n_faces < 2 * threads:
        s_a, s_b = t.s(a), t.s(b)
        return (*nf._values(a, b, s_a, s_b), s_a, s_b)
    if pool is None:
        with thread_pool(threads) as pool:
            return _face_fluxes(nf, a, b, threads, pool)

    bounds = np.linspace(0, t.n_faces, threads + 1).astype(int)

    def work(lo, hi):
        part = nf._on(slice(lo, hi))
        sa, sb = part.table.s(a[lo:hi]), part.table.s(b[lo:hi])
        return (*part._values(a[lo:hi], b[lo:hi], sa, sb), sa, sb)

    parts = list(pool.map(lambda pair: work(*pair), zip(bounds[:-1], bounds[1:])))
    return tuple(None if col[0] is None else np.concatenate(col) for col in zip(*parts))


def run(state0: SolverState, nf: NumericalFlux, T: float, tau: float,
        hooks: Sequence[Callable] = (), threads: int = 1) -> SolverState:
    """Step ``state0`` by the scheme ``nf`` until t >= T, shortening the final
    step to land exactly on T; each hook is called as ``hook(state, decomp)``
    after every step, and the decomposition is built only if there is one.

    With ``threads > 1`` every step evaluates its faces on one pool, made
    once for the run."""
    if not (0.0 <= T < math.inf):
        raise ConfigError(f"final time must be finite and non-negative, got {T}")
    state = replace(state0, tau=tau)
    need_decomp = len(hooks) > 0
    with thread_pool(threads) as pool:
        while state.t < T:
            state.tau = min(tau, T - state.t)
            state, decomp = step(state, nf, threads=threads,
                                 need_decomposition=need_decomp, pool=pool)
            for hook in hooks:
                hook(state, decomp)
    return state
