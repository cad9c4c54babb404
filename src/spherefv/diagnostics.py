"""Per-step monitors: mass, max norm, total variation along a field,
entropy inequalities, dissipation sums, and error norms.

The discrete total variation along a vector field X evaluates the duality
definition exactly on piecewise-constant states:

    TV_X(u) = sum over faces of |u_K - u_Ke| * int_e |g(X, n_e)| dv_e,

the supremum over test functions being attained by phi = +/-1 per face.

Entropy diagnostics are phrased in the convex-decomposition variables
(utilde_{K,e}, u_{K,e}) produced by each solver step: the per-cell entropy
inequality, the dissipation estimate with the modulus of convexity of U, and
the cumulative dissipation bound.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from . import geometry
from .fvm import ConvexDecomposition, NumericalFlux, SolverState
from .mesh import SphereMesh, cell_averages


# ---------------------------------------------------------------------------
# total variation along a vector field
# ---------------------------------------------------------------------------

def tv_face_weights(mesh: SphereMesh, X: geometry.VectorField) -> np.ndarray:
    """Per-face weights int_e |g(X, n_e)| dv_e (orientation-independent).

    ``X`` is evaluated once, at the stacked face nodes y = (phi, theta) of
    shape (2, F, 3): its components must accept coordinate arrays and return
    shape (2, F, 3), or (2,) for a constant field (broadcast to every node)."""
    comp = X.at(np.stack([mesh.face_q_phi, mesh.face_q_theta]))
    return np.sum(mesh.face_q_w * np.abs(mesh.normal_component(comp)), axis=-1)


def discrete_tv_x(state: SolverState, X, weights: Optional[np.ndarray] = None) -> float:
    """TV of the cell-average state along X (see module docstring)."""
    mesh = state.mesh
    if weights is None:
        weights = tv_face_weights(mesh, X)
    jumps = np.abs(state.u[mesh.face_left] - state.u[mesh.face_right])
    return float((weights * jumps).sum())


# ---------------------------------------------------------------------------
# entropy diagnostics
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EntropySpec:
    """An entropy to monitor: Kruzkov (kind='kruzkov', parameter k) or a
    smooth convex U given with its derivative.

    ``alpha`` is a modulus of convexity, a lower bound on U'' over every
    state: exactly 1 for U = u^2/2, and 0, always valid, by default.
    ``dU_degree`` is the degree of U' as a polynomial in u (1 for u^2/2),
    which sets the Gauss order of the entropy-flux integrals Phi_j
    (:meth:`fvm.FaceFluxTable.separable_entropy`); None, the default, takes
    24 points."""

    kind: str                      # "kruzkov" | "smooth"
    name: str
    k: Optional[float] = None
    U: Optional[Callable] = None
    dU: Optional[Callable] = None
    alpha: float = 0.0
    dU_degree: Optional[int] = None

    def u_values(self, u):
        if self.kind == "kruzkov":
            return np.abs(np.asarray(u, dtype=float) - self.k)
        return self.U(np.asarray(u, dtype=float))


def kruzkov_spec(k: float) -> EntropySpec:
    return EntropySpec(kind="kruzkov", name=f"kruzkov_{k:g}", k=k)


def square_spec() -> EntropySpec:
    return EntropySpec(kind="smooth", name="square",
                       U=lambda u: 0.5 * np.asarray(u, dtype=float) ** 2,
                       dU=lambda u: np.asarray(u, dtype=float), alpha=1.0, dU_degree=1)


@dataclass(frozen=True)
class EntropyStepRecord:
    """All entropy inequalities of one step, for one entropy."""

    name: str
    worst_pc10: float              # max residual of the per-face inequality
    max_abs_r: float               # max |R_{K,e}| = |U(u_{K,e}) - U(utilde_{K,e})|
    pc12_lhs: float
    pc12_rhs: float
    pc12_satisfied: bool
    alpha: float
    dissipation_increment: float   # sum (|e||K|/p_K) |u_{K,e} - u_new_K|^2
    entropy_mass_old: float
    entropy_mass_new: float


def entropy_report(nf: NumericalFlux, decomp: ConvexDecomposition,
                   specs: Sequence[EntropySpec]) -> list:
    """Evaluate the discrete entropy inequalities of one step for each
    entropy of ``specs``, per (cell, face) slot of the mesh; one record per
    entropy, in order.

    What does not depend on the entropy is computed once: the dissipation
    sum_slots (|e||K|/p_K) (u_{K,e} - u_new_K)^2, which each record carries
    and whose estimate takes the modulus of convexity ``spec.alpha``.  The
    flux term of the cumulative inequality is tau sum_e |e| (G_left -
    G_right), the slots' signed sum taken per face."""
    if not specs:
        return []
    mesh = decomp.mesh
    cell, side, area = mesh.slot_cell, mesh.slot_side, mesh.cell_area
    wKe = mesh.slot_weight
    diss = float((wKe * (decomp.u_ke - decomp.u_new[cell]) ** 2).sum())

    records = []
    for spec in specs:
        if spec.kind == "kruzkov":
            G, G_left, G_right = nf.kruzkov_fluxes(spec.k, decomp)
        else:
            G, G_left, G_right = nf.smooth_fluxes(spec.U, spec.dU, decomp, spec.dU_degree)

        U_cells = spec.u_values(decomp.u_old)
        U_tilde = spec.u_values(decomp.utilde)
        R = spec.u_values(decomp.u_ke) - U_tilde
        # U(utilde) - U(u_K) + mu_K (F_{e,K}(u_K, u_Ke) - F_{e,K}(u_K, u_K)) per slot
        mu_Gdiff = np.concatenate([G - G_left, G_right - G])[side]
        mu_Gdiff *= decomp.mu
        pc10 = U_tilde - U_cells[cell]
        pc10 += mu_Gdiff

        mass_old = float((U_cells * area).sum())
        mass_new = float((spec.u_values(decomp.u_new) * area).sum())
        flux_term = decomp.tau * float((mesh.face_measure * (G_left - G_right)).sum())
        lhs = mass_new + 0.5 * spec.alpha * diss
        rhs = mass_old + flux_term + float((wKe * R).sum())
        records.append(EntropyStepRecord(
            name=spec.name,
            worst_pc10=float(pc10.max()),
            max_abs_r=float(np.abs(R).max()),
            pc12_lhs=lhs,
            pc12_rhs=rhs,
            pc12_satisfied=lhs <= rhs + 1e-10 * max(1.0, abs(rhs)),
            alpha=spec.alpha,
            dissipation_increment=diss,
            entropy_mass_old=mass_old,
            entropy_mass_new=mass_new,
        ))
    return records


# ---------------------------------------------------------------------------
# error norms
# ---------------------------------------------------------------------------

def l1_error(state: SolverState, reference) -> float:
    """L1 distance between the state and a reference (callable or cell array)."""
    mesh = state.mesh
    if callable(reference):
        ref = cell_averages(mesh, reference)
    else:
        ref = np.asarray(reference, dtype=float)
    return float(np.sum(np.abs(state.u - ref) * mesh.cell_area))


# ---------------------------------------------------------------------------
# per-step record and monitor
# ---------------------------------------------------------------------------

@dataclass
class DiagnosticsRecord:
    """One row of the time series written to diag.csv."""

    step: int
    t: float
    mass: float
    linf: float
    tv: dict                       # name -> TV_X value
    entropy_mass: dict             # name -> sum U(u_K) |K|
    dissipation_increment: float   # square-entropy PC-dissipation of the step
    pc15_cumulative: float
    worst_pc10: float              # worst over all monitored entropies


class Monitor:
    """Solver hook that accumulates DiagnosticsRecords for the scheme ``nf``,
    on the mesh of its table.

    ``tv_fields`` maps names to precomputed face weight arrays (see
    :func:`tv_face_weights`); ``entropies`` is a list of EntropySpec, all
    evaluated by one :func:`entropy_report` per step (none without
    entropies).  ``entropy_steps`` keeps each step's EntropyStepRecords.
    """

    def __init__(self, nf: NumericalFlux, tv_fields: Optional[dict] = None,
                 entropies: Sequence[EntropySpec] = ()):
        self.nf = nf
        self.tv_fields = tv_fields or {}
        self.entropies = list(entropies)
        self.records: list = []
        self.entropy_steps: list = []
        self.pc15_cumulative = 0.0

    def record_initial(self, state: SolverState) -> None:
        area = self.nf.table.mesh.cell_area
        emass = {spec.name: float((spec.u_values(state.u) * area).sum())
                 for spec in self.entropies}
        self.records.append(self._base_record(state, 0.0, 0.0, emass))

    def __call__(self, state: SolverState, decomp: ConvexDecomposition) -> None:
        dissipation = 0.0
        worst = 0.0
        emass = {}
        if self.entropies:
            reports = entropy_report(self.nf, decomp, self.entropies)
            self.entropy_steps.append(reports)
            worst = max(rec.worst_pc10 for rec in reports)
            emass = {rec.name: rec.entropy_mass_new for rec in reports}
            if any(spec.kind == "smooth" for spec in self.entropies):
                dissipation = reports[0].dissipation_increment
        self.pc15_cumulative += dissipation
        self.records.append(self._base_record(state, dissipation, worst, emass))

    def entropy_summary(self) -> dict:
        """Per entropy, over the recorded steps: the worst max |R_{K,e}|,
        the worst pc12_lhs - pc12_rhs and whether PC12 held at every step
        (0.0, 0.0 and True before the first step)."""
        return {spec.name: {
            "worst_max_abs_r": max((step[i].max_abs_r for step in self.entropy_steps),
                                   default=0.0),
            "worst_pc12_gap": max((step[i].pc12_lhs - step[i].pc12_rhs
                                   for step in self.entropy_steps), default=0.0),
            "pc12_every_step": all(step[i].pc12_satisfied for step in self.entropy_steps),
        } for i, spec in enumerate(self.entropies)}

    def _base_record(self, state, dissipation, worst_pc10, emass) -> DiagnosticsRecord:
        """The record of ``state``, with its entropy masses ``emass``."""
        u = state.u
        tv = {name: discrete_tv_x(state, None, weights=w)
              for name, w in self.tv_fields.items()}
        return DiagnosticsRecord(
            step=state.n, t=state.t,
            mass=float((u * self.nf.table.mesh.cell_area).sum()),
            linf=float(np.abs(u).max()),
            tv=tv, entropy_mass=emass,
            dissipation_increment=dissipation,
            pc15_cumulative=self.pc15_cumulative,
            worst_pc10=worst_pc10,
        )

    def column_names(self) -> list:
        return (["step", "t", "mass", "linf"]
                + [f"tv_{name}" for name in self.tv_fields]
                + [f"entropy_mass_{spec.name}" for spec in self.entropies]
                + ["dissipation_increment", "pc15_cumulative", "worst_pc10"])

    def write_csv(self, path: str) -> None:
        """Deterministic CSV (17 significant digits, fixed column order)."""
        with open(path, "w") as fh:
            fh.write(",".join(self.column_names()) + "\n")
            for r in self.records:
                row = [str(r.step), f"{r.t:.17g}", f"{r.mass:.17g}", f"{r.linf:.17g}"]
                row += [f"{r.tv[name]:.17g}" for name in self.tv_fields]
                row += [f"{r.entropy_mass[spec.name]:.17g}" for spec in self.entropies]
                row += [f"{r.dissipation_increment:.17g}",
                        f"{r.pc15_cumulative:.17g}", f"{r.worst_pc10:.17g}"]
                fh.write(",".join(row) + "\n")
