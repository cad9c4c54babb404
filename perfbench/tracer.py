"""In-memory span tracing of spherefv from outside the package.

``install`` replaces the public functions and methods that the command line
reaches with wrappers that record one span per call.  A span is
``[name, start, end, parent, n]``: the layer-qualified name, two
``time.perf_counter`` readings, the index of the enclosing span (-1 for the
root) and an optional work count (points, face states, bytes).  Spans are
kept in a list and written out once, when the traced run ends.

The layer of a span is the part of its name before the first dot, one per
package module: ``mesh``, ``flux``, ``expressions``, ``fvm``, ``diagnostics``
and ``cli``.  ``geometry`` is only reached through
``diagnostics.tv_face_weights`` and is folded into that span.

The recorder keeps one stack of open spans, so it assumes a single thread;
every workload runs with ``--threads 1``.
"""

from __future__ import annotations

import dataclasses
import functools
import os
import resource
import time
from typing import Callable, Optional


def peak_rss_mb() -> float:
    """Peak resident set size of this process so far (``ru_maxrss``), MB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Tracer:
    """Records spans and non-additive counters for one run."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list = []
        self.counters: dict = {}
        self._stack: list = []

    def wrap(self, name: str, func: Callable,
             count: Optional[Callable] = None) -> Callable:
        """Return ``func`` recording a span ``name`` per call.

        ``count(args, result)`` gives the span's work count; it runs after the
        span has closed."""

        @functools.wraps(func)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, 0]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span[1] = time.perf_counter()
            try:
                result = func(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._stack.pop()
            if count is not None:
                span[4] = count(args, result)
            return result

        return traced

    def add(self, key: str, value: float) -> None:
        self.counters[key] = self.counters.get(key, 0) + value

    def high(self, key: str, value: float) -> None:
        self.counters[key] = max(self.counters.get(key, value), value)

    def dump(self) -> dict:
        return {"run_id": self.run_id,
                "fields": ["name", "start", "end", "parent", "n"],
                "spans": self.spans, "counters": self.counters}


def _patch(tr: Tracer, owner, attr: str, name: str,
           count: Optional[Callable] = None) -> None:
    setattr(owner, attr, tr.wrap(name, getattr(owner, attr), count))


def _points(args, result) -> int:
    """Evaluation points of a flux call: its output is (2,) + broadcast."""
    return int(getattr(result, "size", 2)) // 2


def install(tr: Tracer) -> None:
    """Wrap every layer boundary the command line crosses.

    Names bound with ``from ... import`` are wrapped where they are imported;
    the command line reaches the other modules as module attributes."""
    import numpy as np

    from spherefv import cli
    from spherefv import diagnostics as dg
    from spherefv import flux, fvm, mesh

    # mesh
    def mesh_counts(args, result):
        useful = result.cell_faces >= 0
        if result.n_faces >= tr.counters.get("mesh.faces", 0):
            tr.counters["mesh.faces"] = result.n_faces
            tr.counters["mesh.cells"] = result.n_cells
            # computed from the public padded cell-face array
            tr.counters["mesh.cell_slots_useful_ratio"] = (
                float(useful.sum()) / useful.size)
        tr.high("mesh.rss_after_build_mb", peak_rss_mb())
        return 0

    _patch(tr, mesh, "build_latlon", "mesh.build_latlon", mesh_counts)
    _patch(tr, mesh, "export_vtk", "mesh.export_vtk",
           lambda args, result: os.path.getsize(args[1]))
    _patch(tr, fvm, "cell_averages", "mesh.cell_averages")
    _patch(tr, dg, "cell_averages", "mesh.cell_averages")

    # flux: FluxField is frozen, so its callables are swapped by replace()
    make_flux = flux.make_flux

    def traced_make_flux(*args, **kwargs):
        field = make_flux(*args, **kwargs)
        return dataclasses.replace(
            field, f=tr.wrap("flux.f", field.f, _points),
            f_u=tr.wrap("flux.f_u", field.f_u, _points))

    flux.make_flux = tr.wrap("flux.make_flux", traced_make_flux)

    # expressions: compiled callables record one span per evaluation
    for owner in (flux, cli):
        compile_expression = owner.compile_expression

        def traced_compile(text, symbols, _compile=compile_expression):
            return tr.wrap("expressions.eval", _compile(text, symbols))

        owner.compile_expression = tr.wrap("expressions.compile", traced_compile)

    # fvm
    def table_counts(args, result):
        table = args[0]
        n_quad = table.q_phi.shape[1]
        # computed: the f_u component array of the scan, 2 x F x n_scan x Q doubles
        tr.add("fvm.table_build.scan_bytes_computed",
               2 * table.n_faces * table.n_scan * n_quad * 8)
        tr.high("fvm.rss_after_table_mb", peak_rss_mb())
        return table.n_faces * table.n_scan

    def face_states(args, result):
        table, u = args[0], np.asarray(args[1])
        return int(u.size) if u.ndim else table.n_faces

    _patch(tr, fvm.FaceFluxTable, "rebuild", "fvm.table_build", table_counts)
    _patch(tr, fvm.FaceFluxTable, "s", "fvm.face_eval", face_states)
    _patch(tr, fvm.FaceFluxTable, "sp", "fvm.face_eval", face_states)
    _patch(tr, fvm.NumericalFlux, "values", "fvm.nf_values")
    _patch(tr, fvm.NumericalFlux, "validate_monotonicity",
           "fvm.validate_monotonicity")
    _patch(tr, fvm.ConvexDecomposition, "reconstruction_residual",
           "fvm.reconstruction_residual")
    for attr in ("run", "step", "init_state", "make_numerical_flux",
                 "cfl_timestep"):
        _patch(tr, fvm, attr, f"fvm.{attr}")

    ensure_box = fvm.NumericalFlux.ensure_box

    def counted_ensure_box(self, u_min, u_max):
        box = self.table.box
        ensure_box(self, u_min, u_max)
        tr.add("fvm.box_expansions", int(self.table.box != box))

    fvm.NumericalFlux.ensure_box = counted_ensure_box

    # diagnostics
    for attr in ("entropy_report", "tv_face_weights", "l1_error"):
        _patch(tr, dg, attr, f"diagnostics.{attr}")
    _patch(tr, dg.Monitor, "__call__", "diagnostics.monitor")
    _patch(tr, dg.Monitor, "record_initial", "diagnostics.monitor")
    _patch(tr, dg.Monitor, "write_csv", "diagnostics.write_csv",
           lambda args, result: os.path.getsize(args[1]))


# ---------------------------------------------------------------------------
# aggregation
# ---------------------------------------------------------------------------

LAYERS = ("mesh", "flux", "expressions", "fvm", "diagnostics", "cli")


def summarize(spans: list) -> dict:
    """Per-name totals and per-layer self times from a span list.

    Self time is a span's duration minus the durations of its direct
    children, so the self times of all spans add up to the root's duration.
    ``fvm.face_eval`` totals count only calls made while stepping
    (inside ``fvm.run``, hooks included)."""
    n = len(spans)
    child = [0.0] * n
    in_run = [False] * n
    for i, (name, start, end, parent, _) in enumerate(spans):
        if parent >= 0:
            child[parent] += end - start
            in_run[i] = in_run[parent] or spans[parent][0] == "fvm.run"
    by_name: dict = {}
    layer_self = {layer: 0.0 for layer in LAYERS}
    for i, (name, start, end, parent, count) in enumerate(spans):
        self_s = (end - start) - child[i]
        layer_self[name.split(".", 1)[0]] += self_s
        if name == "fvm.face_eval" and not in_run[i]:
            continue
        agg = by_name.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0, "n": 0})
        agg["calls"] += 1
        agg["s"] += end - start
        agg["self_s"] += self_s
        agg["n"] += count
    roots = [s for s in spans if s[3] < 0]
    wall = sum(s[2] - s[1] for s in roots)
    return {"by_name": by_name, "layer_self": layer_self, "wall_s": wall}
