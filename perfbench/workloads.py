"""Benchmark workloads: scenario configs generated from a seed.

Each workload is one ``spherefv`` command on one scenario.  The seed only
shifts the longitude phase of the initial data; seed 0 gives phase 0, which
reproduces the preset initial data bit for bit.

Sizes are chosen so that one invocation takes about 5 s on a two-CPU
machine, so that a run can repeat it several times: single processes varied
by 10-20 % there.  Each workload keeps the cost profile of its full-size
counterpart (96x48 runs, and acceptance 8 with four levels up to 128x64),
which take 17-28 s per invocation.

Every workload runs with ``--threads 1``.  The threaded face path is not yet
steady on two CPUs: in a 128x64 ``potential-eo`` run it took 32.9-44.5 s
with ``--threads 2`` against 34.9-35.6 s with ``--threads 1``.  Thread
scaling is left to a workload of its own.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

# the finest (64x32) L1 error of rotation-converge at seed 0, as computed by
# the solver before any optimisation; later changes may move it only by
# rounding.  It is also the level-2 error of acceptance 8.
ROTATION_L1_FINEST_SEED0 = 0.5683672272742082

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def phase_for_seed(seed: int) -> float:
    """Longitude shift in [0, 2 pi); seed 0 gives exactly 0."""
    return 2.0 * math.pi * ((seed * _GOLDEN) % 1.0)


def _band_step(p: float) -> str:
    return f"0.5*cos(theta) + 0.3*sin(phi - {p!r})*sin(theta)"


def _equatorial_bump(p: float) -> str:
    # the equatorial_bump preset 0.25*(1+n1)^2*(1-n3^2)^2 with n1 shifted
    return f"0.25*(1+sin(theta)*cos(phi - {p!r}))^2*(1-cos(theta)^2)^2"


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    command: str                     # spherefv subcommand
    scenario: Callable[[float], dict]   # longitude phase -> config
    levels: Optional[int] = None     # converge refinement levels

    def config(self, seed: int) -> dict:
        return self.scenario(phase_for_seed(seed))

    def argv(self, config_path: str, out_dir: str) -> list:
        argv = [self.command, config_path, "--out-dir", out_dir, "--threads", "1"]
        if self.levels is not None:
            argv += ["--levels", str(self.levels)]
        return argv


def _burgers_entropy(p: float) -> dict:
    # T = 1.3 gives about 105 steps, so step_ms_p90 has at least ten samples
    # beyond it in every invocation
    return {
        "mesh": {"n_phi": 48, "n_theta": 24, "theta_min": 0.3},
        "flux": {"name": "latitude_burgers", "params": {"c_expr": "sin(theta)"}},
        "numerical_flux": {"kind": "godunov", "safety": 0.5},
        "initial": {"expression": _band_step(p)},
        "T": 1.3,
        "diagnostics": {"tv_fields": ["dphi"], "entropies": ["square", "kruzkov:0"]},
    }


def _rotation_converge(p: float) -> dict:
    return {
        "mesh": {"n_phi": 16, "n_theta": 8, "theta_min": 0.3},
        "flux": {"name": "solid_rotation", "params": {"omega": 1.0}},
        "numerical_flux": {"kind": "godunov", "safety": 0.5},
        "initial": {"expression": _equatorial_bump(p)},
        "T": 2.0 * math.pi,
    }


def _potential_eo(p: float) -> dict:
    # T = 0.7 gives about 105 steps
    return {
        "mesh": {"n_phi": 48, "n_theta": 24, "theta_min": 0.3},
        "flux": {"name": "potential", "params": {"a": "u*n3 + 0.3*u^2*n1"}},
        "numerical_flux": {"kind": "engquist_osher", "safety": 0.5},
        "initial": {"expression": _equatorial_bump(p)},
        "T": 0.7,
    }


WORKLOADS = {w.name: w for w in (
    # The paper's verification run: per step, entropy_report and the padded
    # convex decomposition dominate; the separable flux keeps face-flux
    # evaluation cheap.
    Workload(
        name="burgers-entropy",
        why="run with square and Kruzkov entropy monitors and TV on 48x24: "
            "entropy_report and the convex decomposition dominate each step",
        command="run", scenario=_burgers_entropy),
    # The first three levels of acceptance 8, the time-to-solution target:
    # mesh build, cell averages and L1 errors dominate, plus about 1800 plain
    # steps with no decomposition and a trivial flux.  It bypasses flux and
    # entropy changes.
    Workload(
        name="rotation-converge",
        why="converge --levels 3 from 16x8 to 64x32: mesh build, cell "
            "averages and plain steps; bypasses flux and entropy diagnostics",
        command="converge", scenario=_rotation_converge, levels=3),
    # A non-separable potential flux with Engquist-Osher: the face table's
    # (faces x 129 x 3) scan through finite-difference f_u and the
    # expression interpreter dominates set-up time and peak memory, and every
    # step evaluates faces through the same interpreter.
    Workload(
        name="potential-eo",
        why="non-separable potential flux with Engquist-Osher on 48x24: "
            "face-table scan and per-step face evaluation via the expression "
            "interpreter",
        command="run", scenario=_potential_eo),
)}
