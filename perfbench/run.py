"""spherefv benchmark: one workload through the public command line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
``src``.  Every ``spherefv`` invocation runs ``spherefv.cli.main`` in a
fresh single-threaded process (``probe.py``) and its outputs are checked.
Outputs go to ``.perfbench_runs/<workload>/`` in the checkout.

``--trace 0`` measures the end-to-end metrics with tracing off.  A run
repeats the whole invocation while the next one fits into ``--seconds`` and
reports the slowest invocation's value of each metric, with the step p90
over all their steps on the finest mesh (see ``end_to_end_metrics`` for
why); the median over runs is taken by whoever repeats the runs.
``--trace 1`` alternates traced and untraced invocations the same way and
reports the per-layer metrics of the slowest traced invocation, plus the
tracing overhead against the slowest untraced one.

The last line of standard output is a JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
give the environment and each metric by name and unit.
``python3 perfbench/table.py`` prints one row per workload.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from importlib import metadata

import tracer
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_DEADLINE_S = 170.0          # a run must end within 180 s

# end-to-end metrics, measured with tracing off
END_TO_END = (
    ("wall_s", "s"),                # entry to return of main
    ("setup_s", "s"),               # before each level's first step, summed
    ("solve_s", "s"),               # stepping loops, hooks included
    ("step_ms_p50", "ms"),          # per step, hooks included
    ("step_ms_p90", "ms"),
    ("cell_updates_per_s", "1/s"),  # sum(cells x steps) / solve_s
    ("peak_rss_mb", "MB"),          # ru_maxrss of the invocation's process
)

# per-layer metrics from spans: (metric, unit, span name, field).  The
# comment names the end-to-end metric each should move, and where.
SPAN_METRICS = (
    # setup_s everywhere; wall_s on rotation-converge
    ("mesh.build_latlon.s", "s", "mesh.build_latlon", "s"),
    ("mesh.build_latlon.calls", "count", "mesh.build_latlon", "calls"),
    # setup_s and wall_s on rotation-converge
    ("mesh.cell_averages.s", "s", "mesh.cell_averages", "s"),
    # wall_s, a small output share everywhere
    ("mesh.export_vtk.s", "s", "mesh.export_vtk", "s"),
    ("mesh.export_vtk.bytes", "bytes", "mesh.export_vtk", "n"),
    # setup_s (includes Lipschitz sampling)
    ("flux.make_flux.s", "s", "flux.make_flux", "s"),
    # step_ms_p50 on potential-eo, and setup_s there through the table scan;
    # no change expected on rotation-converge
    ("flux.f.calls", "count", "flux.f", "calls"),
    ("flux.f.points", "count", "flux.f", "n"),
    ("flux.f.s", "s", "flux.f", "s"),
    ("flux.f_u.calls", "count", "flux.f_u", "calls"),
    ("flux.f_u.points", "count", "flux.f_u", "n"),
    ("flux.f_u.s", "s", "flux.f_u", "s"),
    # step_ms_p50 and setup_s on potential-eo
    ("expressions.eval.calls", "count", "expressions.eval", "calls"),
    ("expressions.eval.s", "s", "expressions.eval", "s"),
    # setup_s and peak_rss_mb, mainly on potential-eo
    ("fvm.table_build.s", "s", "fvm.table_build", "s"),
    ("fvm.table_build.calls", "count", "fvm.table_build", "calls"),
    ("fvm.table_build.scan_points", "count", "fvm.table_build", "n"),
    # step_ms_p50 on potential-eo (FaceFluxTable.s and .sp while stepping)
    ("fvm.face_eval.s", "s", "fvm.face_eval", "s"),
    ("fvm.face_eval.face_states", "count", "fvm.face_eval", "n"),
    # step_ms_p50 on potential-eo and burgers-entropy
    ("fvm.nf_values.self_s", "s", "fvm.nf_values", "self_s"),
    # step_ms_p50 and solve_s everywhere: the cell update, plus the
    # decomposition in run
    ("fvm.step.self_s", "s", "fvm.step", "self_s"),
    ("fvm.step.calls", "count", "fvm.step", "calls"),
    # setup_s
    ("fvm.cfl_timestep.s", "s", "fvm.cfl_timestep", "s"),
    # step_ms_p50 on burgers-entropy and potential-eo; 0 on rotation-converge
    ("fvm.reconstruction_residual.s", "s", "fvm.reconstruction_residual", "s"),
    # only on state-box expansions
    ("fvm.validate_monotonicity.calls", "count", "fvm.validate_monotonicity", "calls"),
    ("fvm.validate_monotonicity.s", "s", "fvm.validate_monotonicity", "s"),
    # step_ms_p50 on burgers-entropy; no change expected elsewhere
    ("diagnostics.entropy_report.s", "s", "diagnostics.entropy_report", "s"),
    ("diagnostics.entropy_report.calls", "count", "diagnostics.entropy_report", "calls"),
    ("diagnostics.monitor.self_s", "s", "diagnostics.monitor", "self_s"),
    # setup_s on burgers-entropy
    ("diagnostics.tv_face_weights.s", "s", "diagnostics.tv_face_weights", "s"),
    # wall_s on rotation-converge
    ("diagnostics.l1_error.s", "s", "diagnostics.l1_error", "s"),
    # wall_s
    ("diagnostics.write_csv.s", "s", "diagnostics.write_csv", "s"),
    ("diagnostics.write_csv.bytes", "bytes", "diagnostics.write_csv", "n"),
)

# per-layer metrics from counters set by the wrappers
COUNTER_METRICS = (
    ("mesh.rss_after_build_mb", "MB"),        # peak_rss_mb on burgers-entropy, rotation-converge
    ("mesh.faces", "count"),                  # finest mesh
    ("mesh.cells", "count"),
    # computed: valid slots / (N x D) of cell_faces; step_ms_p50 on
    # burgers-entropy and rotation-converge
    ("mesh.cell_slots_useful_ratio", "ratio"),
    # computed: 2 x faces x n_scan x 3 doubles per table build; peak_rss_mb
    ("fvm.table_build.scan_bytes_computed", "bytes"),
    ("fvm.rss_after_table_mb", "MB"),         # peak_rss_mb
    ("fvm.box_expansions", "count"),          # expected 0
)

# layer self times add up to the traced wall time of main
LAYER_SELF = tuple((f"{layer}.self_s", "s") for layer in tracer.LAYERS)
TRACE_METRICS = (("trace.wall_s", "s"), ("trace.overhead_ratio", "ratio"))
PER_LAYER = (tuple((m[0], m[1]) for m in SPAN_METRICS) + COUNTER_METRICS
             + LAYER_SELF + TRACE_METRICS)


# ---------------------------------------------------------------------------
# environment
# ---------------------------------------------------------------------------

def git_sha(root: str):
    """Commit of the checkout read from .git, or None outside a repository."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if os.path.exists(os.path.join(git, ref)):
            with open(os.path.join(git, ref)) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def environment(workload: workloads.Workload, seed: int) -> dict:
    def version(pkg):
        try:
            return metadata.version(pkg)
        except metadata.PackageNotFoundError:
            return None

    return {"workload": workload.name, "seed": seed,
            "phase": workloads.phase_for_seed(seed), "threads": 1,
            "nproc": os.cpu_count(), "python": sys.version.split()[0],
            "numpy": version("numpy"), "scipy": version("scipy"),
            "git_sha": git_sha(ROOT)}


# ---------------------------------------------------------------------------
# invocations and output checks
# ---------------------------------------------------------------------------

class Invocation:
    """One spherefv command in a fresh process, with its checked outputs."""

    def __init__(self, workload: workloads.Workload, seed: int, work: str,
                 tag: str, trace: bool, timeout: float):
        self.workload, self.seed, self.traced = workload, seed, trace
        self.out = os.path.join(work, tag)
        os.makedirs(self.out)
        config = os.path.join(self.out, "scenario.json")
        with open(config, "w") as fh:
            json.dump(workload.config(seed), fh, indent=1)
        result_path = os.path.join(self.out, "probe.json")
        cmd = ([sys.executable, os.path.join(HERE, "probe.py"), result_path,
                "1" if trace else "0", f"{workload.name}-seed{seed}-{tag}"]
               + workload.argv(config, self.out))
        env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"),
                   PYTHONHASHSEED="0", OMP_NUM_THREADS="1",
                   OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
        self.result = None
        self.problems = []
        try:
            proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                                  text=True, timeout=timeout)
        except subprocess.TimeoutExpired:
            self.problems.append(f"timed out after {timeout:.0f} s")
        else:
            if proc.returncode != 0 or not os.path.exists(result_path):
                self.problems.append(f"probe exited with {proc.returncode}: "
                                     f"{proc.stderr.strip()[-2000:]}")
            else:
                with open(result_path) as fh:
                    self.result = json.load(fh)
                self._check()

    @property
    def ok(self) -> bool:
        return not self.problems

    def _check(self) -> None:
        res, fail = self.result, self.problems.append
        if res["rc"] != 0:
            fail(f"spherefv exited with {res['rc']}")
            return
        for i, lv in enumerate(res["levels"]):
            if not lv["linf_final"] <= lv["linf0"] * (1.0 + 1e-12):
                fail(f"level {i}: max principle violated, "
                     f"{lv['linf_final']!r} > {lv['linf0']!r}")
        with open(os.path.join(self.out, "report.json")) as fh:
            report = json.load(fh)
        if self.workload.command == "run":
            self._check_run(report)
        else:
            self._check_converge(report)

    def _check_run(self, report: dict) -> None:
        fail = self.problems.append
        for key in ("mass_conserved", "reconstruction_ok", "entropy_inequalities_ok"):
            if report.get(key) is not True:
                fail(f"report.json: {key} is {report.get(key)!r}")
        steps = sum(lv["steps"] for lv in self.result["levels"])
        if report.get("steps") != steps:
            fail(f"report.json: steps {report.get('steps')} != {steps} timed steps")
        with open(os.path.join(self.out, "diag.csv"), newline="") as fh:
            rows = list(csv.DictReader(fh))
        if len(rows) != steps + 1:
            fail(f"diag.csv: {len(rows)} rows for {steps} steps")
        elif not float(rows[-1]["linf"]) <= float(rows[0]["linf"]) * (1.0 + 1e-12):
            fail("diag.csv: final linf exceeds the initial linf")

    def _check_converge(self, report: dict) -> None:
        fail = self.problems.append
        levels = report.get("levels", [])
        errors = [lv["l1_error"] for lv in levels]
        if len(errors) != self.workload.levels:
            fail(f"report.json: {len(errors)} levels, expected {self.workload.levels}")
            return
        if any(b >= a for a, b in zip(errors, errors[1:])):
            fail(f"L1 errors do not strictly decrease: {errors}")
        orders = [lv["order"] for lv in levels[1:]]
        if any(not o >= 0.5 for o in orders):
            fail(f"an observed order is below 0.5: {orders}")
        ref = workloads.ROTATION_L1_FINEST_SEED0
        if self.seed == 0 and not abs(errors[-1] - ref) <= 1e-9 * ref:
            fail(f"finest L1 error {errors[-1]!r} differs from {ref!r}")


def invocation_metrics(inv: Invocation) -> dict:
    """End-to-end metrics of one invocation; step percentiles are over the
    finest level, so that converge does not mix mesh sizes."""
    levels = inv.result["levels"]
    solve = sum(lv["solve_s"] for lv in levels)
    steps = levels[-1]["step_ms"]
    return {
        "wall_s": inv.result["wall_s"],
        "setup_s": sum(lv["setup_s"] for lv in levels),
        "solve_s": solve,
        "step_ms_p50": statistics.median(steps),
        "step_ms_p90": statistics.quantiles(steps, n=10, method="inclusive")[8],
        "cell_updates_per_s": sum(lv["cells"] * lv["steps"] for lv in levels) / solve,
        "peak_rss_mb": inv.result["peak_rss_mb"],
    }


def end_to_end_metrics(timed: list) -> dict:
    """The slowest invocation's value of each metric, and the step p90 over
    the finest-level steps of all invocations.

    On a shared two-CPU virtual machine (Xeon, 2.1 GHz) the processor
    alternates between two speeds about 1.6x apart, and the share of time
    spent in the slow one drifts over minutes: medians over invocations
    moved by 15-25 % from run to run, while the slow state itself, and so
    the slowest of several invocations, repeated within a few per cent."""
    per_invocation = [invocation_metrics(inv) for inv in timed]
    metrics = {key: max(m[key] for m in per_invocation) for key in per_invocation[0]}
    metrics["cell_updates_per_s"] = min(m["cell_updates_per_s"] for m in per_invocation)
    steps = [ms for inv in timed for ms in inv.result["levels"][-1]["step_ms"]]
    metrics["step_ms_p90"] = statistics.quantiles(steps, n=10, method="inclusive")[8]
    return metrics


def layer_metrics(traced: list, plain: list) -> tuple:
    """Per-layer metrics of the slowest traced invocation, as for the
    end-to-end metrics, and a check that its layer self times add up to its
    wall time."""
    chosen = max(traced, key=lambda inv: inv.result["wall_s"])
    with open(os.path.join(chosen.out, "spans.json")) as fh:
        dump = json.load(fh)
    summary = tracer.summarize(dump["spans"])
    metrics = {}
    for name, _unit, span, field in SPAN_METRICS:
        metrics[name] = summary["by_name"].get(span, {}).get(field, 0)
    for name, _unit in COUNTER_METRICS:
        metrics[name] = dump["counters"].get(name, 0)
    for layer in tracer.LAYERS:
        metrics[f"{layer}.self_s"] = summary["layer_self"][layer]
    wall = summary["wall_s"]
    metrics["trace.wall_s"] = wall
    plain_wall = max(inv.result["wall_s"] for inv in plain)
    metrics["trace.overhead_ratio"] = (chosen.result["wall_s"] - plain_wall) / plain_wall
    gap = abs(sum(summary["layer_self"].values()) - wall)
    problems = ([] if gap <= 1e-6 * wall + 1e-5 else
                [f"layer self times miss the traced wall time by {gap:.3e} s"])
    return metrics, problems


# ---------------------------------------------------------------------------
# one benchmark run
# ---------------------------------------------------------------------------

def measure(name: str, seed: int, seconds: float, trace: bool) -> dict:
    """Run one workload; returns metrics, counts and the checks' findings."""
    workload = workloads.WORKLOADS[name]
    work = os.path.join(ROOT, ".perfbench_runs", name)
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    start = time.perf_counter()
    # each round is one untraced invocation, preceded by a traced one when
    # tracing; rounds repeat while the next one fits into the run's seconds
    kinds = (True, False) if trace else (False,)
    rounds = []
    while True:
        round_start = time.perf_counter()
        invs = []
        for traced in kinds:
            timeout = max(1.0, RUN_DEADLINE_S - (time.perf_counter() - start))
            invs.append(Invocation(workload, seed, work,
                                   f"{len(rounds)}-{'traced' if traced else 'plain'}",
                                   traced, timeout))
            if not invs[-1].ok:
                break
        rounds.append(invs)
        took = time.perf_counter() - round_start
        if not invs[-1].ok or time.perf_counter() - start + took > seconds:
            break

    runs = [inv for invs in rounds for inv in invs]
    # an invocation whose outputs fail a check still has valid timings
    timed = [inv for inv in runs if inv.result and inv.result["levels"]]
    metrics, problems = None, []
    units = dict(PER_LAYER if trace else END_TO_END)
    if trace:
        traced = [inv for inv in timed if inv.traced]
        plain = [inv for inv in timed if not inv.traced]
        if traced and plain:
            metrics, problems = layer_metrics(traced, plain)
    elif timed:
        metrics = end_to_end_metrics(timed)

    return {"environment": environment(workload, seed),
            "metrics": metrics, "units": units,
            "per_invocation": [invocation_metrics(inv) for inv in timed],
            "attempted": len(runs),
            "failed": sum(not inv.ok for inv in runs) + bool(problems),
            "problems": problems + [f"{os.path.basename(inv.out)}: {p}"
                                    for inv in runs for p in inv.problems],
            "invocations": len(timed),
            "step_samples": sum(len(inv.result["levels"][-1]["step_ms"])
                                for inv in timed),
            "work_dir": work}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # on SIGTERM, unwind so that subprocess.run kills and reaps the child
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not os.path.isdir(os.path.join(ROOT, "src", "spherefv")):
        print(f"no spherefv sources under {os.path.join(ROOT, 'src')}; "
              "run from a source checkout", file=sys.stderr)
        return 2

    out = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    print("environment: " + json.dumps(out["environment"], sort_keys=True))
    for problem in out["problems"]:
        print(f"CHECK FAILED: {problem}")
    if out["metrics"] is None:
        print("no metrics: no invocation completed", file=sys.stderr)
        return 1
    for name, unit in out["units"].items():
        print(f"{name}: {out['metrics'][name]:.6g} {unit}")
    print(f"invocations: {out['invocations']}; step samples: {out['step_samples']}")
    print(f"failed_ratio: {out['failed'] / out['attempted']:.6g} "
          f"({out['failed']} of {out['attempted']} invocations)")
    with open(os.path.join(out["work_dir"], "result.json"), "w") as fh:
        json.dump(out, fh, indent=1, sort_keys=True)

    print(json.dumps({
        "correct": out["failed"] == 0,
        "attempted": out["attempted"],
        "failed": out["failed"],
        "metrics": {name: {"value": out["metrics"][name], "unit": unit}
                    for name, unit in out["units"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
