"""Run ``spherefv.cli.main`` once in this process and record its timings.

Usage: ``python3 probe.py <result.json> <trace 0|1> <run id> <cli args...>``
with the checkout's ``src`` on ``PYTHONPATH``.

Always recorded (cheap enough for the untraced run): the wall time of
``main``, the start of each level (``build_latlon`` entry, or ``main`` entry
for the first level), the entry and exit of each stepping loop
(``fvm.run``), the start of every step, the cell count and the max norm
before and after each loop, and the process's peak RSS.  With tracing on,
the spans of :mod:`tracer` are written to ``spans.json`` next to the result.
"""

from __future__ import annotations

import json
import os
import sys
import time
import traceback

import numpy as np

import tracer


class StepClock:
    """Timestamps of level starts, stepping loops and steps."""

    def __init__(self):
        self.builds: list = []
        self.levels: list = []

    def install(self) -> None:
        from spherefv import fvm, mesh

        build, run, step = mesh.build_latlon, fvm.run, fvm.step

        def timed_build(*args, **kwargs):
            self.builds.append(time.perf_counter())
            return build(*args, **kwargs)

        def timed_run(state0, *args, **kwargs):
            level = {"cells": state0.mesh.n_cells,
                     "linf0": float(np.abs(state0.u).max()), "steps": []}
            self.levels.append(level)
            level["start"] = time.perf_counter()
            final = run(state0, *args, **kwargs)
            level["end"] = time.perf_counter()
            level["linf_final"] = float(np.abs(final.u).max())
            return final

        def timed_step(*args, **kwargs):
            self.levels[-1]["steps"].append(time.perf_counter())
            return step(*args, **kwargs)

        mesh.build_latlon, fvm.run, fvm.step = timed_build, timed_run, timed_step

    def summary(self, main_start: float) -> list:
        out = []
        for i, lv in enumerate(self.levels):
            began = (main_start if i == 0 else
                     max(t for t in self.builds if t <= lv["start"]))
            marks = lv["steps"] + [lv["end"]]
            out.append({
                "cells": lv["cells"],
                "steps": len(lv["steps"]),
                "setup_s": lv["start"] - began,
                "solve_s": lv["end"] - lv["start"],
                "step_ms": [1e3 * (b - a) for a, b in zip(marks[:-1], marks[1:])],
                "linf0": lv["linf0"],
                "linf_final": lv["linf_final"],
            })
        return out


def main(argv: list) -> int:
    result_path, trace, run_id, cli_argv = argv[0], argv[1] == "1", argv[2], argv[3:]
    from spherefv import cli

    clock = StepClock()
    clock.install()
    entry = cli.main
    tr = None
    if trace:
        tr = tracer.Tracer(run_id)
        tracer.install(tr)
        entry = tr.wrap("cli.main", cli.main)

    start = time.perf_counter()
    try:
        rc = entry(cli_argv)
    except Exception:
        traceback.print_exc()
        rc = -1
    wall = time.perf_counter() - start

    result = {"run_id": run_id, "rc": rc, "wall_s": wall,
              "peak_rss_mb": tracer.peak_rss_mb(),
              "levels": (clock.summary(start)
                         if all("end" in lv for lv in clock.levels) else [])}
    if tr is not None:
        with open(os.path.join(os.path.dirname(result_path), "spans.json"), "w") as fh:
            json.dump(tr.dump(), fh)
    with open(result_path, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
