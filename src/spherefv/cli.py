"""Command-line driver: scenario configs, runs, the latitude-band oracle,
convergence studies, and file emission.

Subcommands::

    spherefv run        <config.json>   full run, diag.csv + VTK + report.json
    spherefv oracle     <config.json>   per-band 1D decoupling comparison
    spherefv converge   <config.json> --levels N   refinement study
    spherefv mesh-info  <config.json>   mesh summary
    spherefv check-flux <config.json>   TV-compatibility / divergence report

Exit codes: 0 success (all asserted invariants hold), 1 invariant failure,
2 configuration error.
"""

from __future__ import annotations

import argparse
import json
import locale  # noqa: F401 - argparse's first gettext lookup imports it; not inside main
import math
import os
import sys
from dataclasses import dataclass, replace
from typing import Callable, Optional

import numpy as np

from . import diagnostics as dg
from . import flux as fluxmod
from . import fvm, geometry
from . import mesh as meshmod
from .errors import ConfigError, SphereFVError
from .expressions import compile_expression

INITIAL_PRESETS = {
    "cos_theta": "cos(theta)",
    "equatorial_bump": "0.25*(1+n1)^2*(1-n3^2)^2",
    "band_step": "0.5*cos(theta) + 0.3*sin(phi)*sin(theta)",
}


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------

@dataclass
class ScenarioConfig:
    n_phi: int
    n_theta: int
    theta_min: float
    flux_name: str
    flux_params: dict
    nf_kind: str
    safety: float
    initial_expr: str
    T: float
    tv_fields: list
    entropies: list                # list of EntropySpec
    csv_name: str = "diag.csv"
    vtk_prefix: str = "state"
    vtk_cadence: int = 0           # 0: final snapshot only


def _require(cfg: dict, key: str, where: str):
    if key not in cfg:
        raise ConfigError(f"missing field {key!r} in {where}")
    return cfg[key]


def _section(cfg: dict, key: str, where: str = "config", required: bool = True) -> dict:
    """The JSON object ``cfg[key]`` (empty when optional and absent)."""
    value = _require(cfg, key, where) if required else cfg.get(key, {})
    if not isinstance(value, dict):
        raise ConfigError(f"{key} in {where} must be a JSON object, got {value!r}")
    return value


def _integer(value, key: str) -> int:
    """An integer config value; a float only if it is integral, never a bool."""
    if (isinstance(value, bool) or not isinstance(value, (int, float))
            or (isinstance(value, float) and not value.is_integer())):
        raise ConfigError(f"{key} must be an integer, got {value!r}")
    return int(value)


def _real(value, key: str, what: str = "a finite real number") -> float:
    """A finite real config value (an int or a float, never a bool)."""
    number = math.nan
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        try:
            number = float(value)
        except OverflowError:           # an integer beyond the float range
            pass
    if not math.isfinite(number):
        raise ConfigError(f"{key} must be {what}, got {value!r}")
    return number


def _list(value, key: str) -> list:
    if not isinstance(value, list):
        raise ConfigError(f"{key} must be a list, got {value!r}")
    return value


def _entropy_spec(name) -> dg.EntropySpec:
    if not isinstance(name, str):
        raise ConfigError(f"diagnostics.entropies entries must be strings, got {name!r}")
    if name == "square":
        return dg.square_spec()
    if name.startswith("kruzkov:"):
        try:
            k = float(name.split(":", 1)[1])
        except ValueError as exc:
            raise ConfigError(f"bad Kruzkov parameter in entropy {name!r}") from exc
        if not math.isfinite(k):
            raise ConfigError(f"Kruzkov parameter must be finite in entropy {name!r}")
        return dg.kruzkov_spec(k)
    raise ConfigError(f"unknown entropy {name!r}; use 'square' or 'kruzkov:<k>'")


def load_config(path: str) -> ScenarioConfig:
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: line {exc.lineno}, "
                          f"column {exc.colno}: {exc.msg}") from exc

    if not isinstance(raw, dict):
        raise ConfigError(f"config {path} must hold a JSON object")
    mesh_cfg = _section(raw, "mesh")
    flux_cfg = _section(raw, "flux")
    nf_cfg = _section(raw, "numerical_flux", required=False)
    init_cfg = _section(raw, "initial")
    diag_cfg = _section(raw, "diagnostics", required=False)
    out_cfg = _section(raw, "outputs", required=False)

    if "expression" in init_cfg:
        expr = str(init_cfg["expression"])
    elif "name" in init_cfg:
        name = str(init_cfg["name"])
        if name not in INITIAL_PRESETS:
            raise ConfigError(f"unknown initial data preset {name!r}; "
                              f"available: {sorted(INITIAL_PRESETS)}")
        expr = INITIAL_PRESETS[name]
    else:
        raise ConfigError("initial must provide 'expression' or 'name'")
    compile_expression(expr, ["phi", "theta", "n1", "n2", "n3"])   # early validation

    safety = _real(nf_cfg.get("safety", 0.5), "numerical_flux.safety")
    if not (0.0 < safety < 1.0):
        raise ConfigError(f"numerical_flux.safety must lie in (0, 1), got {safety}")
    kind = str(nf_cfg.get("kind", fvm.GODUNOV))
    if kind not in fvm.FLUX_KINDS:
        raise ConfigError(f"unknown numerical flux kind {kind!r}; "
                          f"choose from {fvm.FLUX_KINDS}")

    T = _real(_require(raw, "T", "config"), "T", "a finite non-negative time")
    if T < 0.0:
        raise ConfigError(f"T must be a finite non-negative time, got {T}")

    tv_fields = list(_list(diag_cfg.get("tv_fields", []), "diagnostics.tv_fields"))
    for name in tv_fields:
        if name != "dphi":
            raise ConfigError(f"unsupported TV field {name!r}; only 'dphi' "
                              "(rotation about the polar axis) is available")

    cfg = ScenarioConfig(
        n_phi=_integer(_require(mesh_cfg, "n_phi", "mesh"), "mesh.n_phi"),
        n_theta=_integer(_require(mesh_cfg, "n_theta", "mesh"), "mesh.n_theta"),
        theta_min=_real(_require(mesh_cfg, "theta_min", "mesh"), "mesh.theta_min"),
        flux_name=str(_require(flux_cfg, "name", "flux")),
        flux_params=dict(_section(flux_cfg, "params", "flux", required=False)),
        nf_kind=kind,
        safety=safety,
        initial_expr=expr,
        T=T,
        tv_fields=tv_fields,
        entropies=[_entropy_spec(e) for e in _list(diag_cfg.get("entropies", []),
                                                    "diagnostics.entropies")],
        csv_name=str(out_cfg.get("csv", "diag.csv")),
        vtk_prefix=str(out_cfg.get("vtk", "state")),
        vtk_cadence=_integer(out_cfg.get("vtk_cadence", 0), "outputs.vtk_cadence"),
    )
    # fail fast on registry and mesh parameter problems
    fluxmod.make_flux(cfg.flux_name, cfg.flux_params)
    return cfg


def initial_function(cfg: ScenarioConfig, phase: float = 0.0) -> Callable:
    """Vectorized initial data (phi, theta) -> u0(phi - phase, theta)."""
    func = compile_expression(cfg.initial_expr, ["phi", "theta", "n1", "n2", "n3"])

    def u0(phi, theta):
        p = np.asarray(phi, dtype=float) - phase
        t = np.asarray(theta, dtype=float)
        st = np.sin(t)
        return func(phi=p, theta=t, n1=st * np.cos(p), n2=st * np.sin(p), n3=np.cos(t))

    return u0


@dataclass
class Scenario:
    """A configured run: the scheme ``nf`` (its table holds the mesh, the
    flux and the state box), the initial state and the CFL time step."""

    cfg: ScenarioConfig
    nf: fvm.NumericalFlux
    state0: fvm.SolverState
    tau: float


def build_scenario(cfg: ScenarioConfig, n_phi: Optional[int] = None,
                   n_theta: Optional[int] = None) -> Scenario:
    mesh = meshmod.build_latlon(n_phi or cfg.n_phi, n_theta or cfg.n_theta,
                                cfg.theta_min)
    flux = fluxmod.make_flux(cfg.flux_name, cfg.flux_params)
    state0 = fvm.init_state(mesh, initial_function(cfg))
    lo, hi = float(state0.u.min()), float(state0.u.max())
    margin = 0.05 * max(hi - lo, 1.0)
    nf = fvm.make_numerical_flux(cfg.nf_kind, mesh, flux, box=(lo - margin, hi + margin))
    return Scenario(cfg=cfg, nf=nf, state0=state0, tau=fvm.cfl_timestep(nf, cfg.safety))


def _write_report(out_dir: str, payload: dict) -> None:
    with open(os.path.join(out_dir, "report.json"), "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


# ---------------------------------------------------------------------------
# run
# ---------------------------------------------------------------------------

def run_scenario(cfg: ScenarioConfig, out_dir: str, threads: int = 1) -> int:
    sc = build_scenario(cfg)
    nf = sc.nf
    mesh = nf.table.mesh
    tv_fields = {}
    if "dphi" in cfg.tv_fields:
        X = geometry.VectorField(lambda y: np.array([1.0, 0.0]))
        tv_fields["dphi"] = dg.tv_face_weights(mesh, X)
    monitor = dg.Monitor(nf, tv_fields=tv_fields, entropies=cfg.entropies)
    monitor.record_initial(sc.state0)
    recon_worst = [0.0]

    def recon_hook(state, decomp):
        recon_worst[0] = max(recon_worst[0], decomp.reconstruction_residual())

    def vtk_hook(state, decomp):
        if cfg.vtk_cadence > 0 and state.n % cfg.vtk_cadence == 0:
            meshmod.export_vtk(mesh, os.path.join(out_dir,
                                                  f"{cfg.vtk_prefix}_{state.n}.vtk"),
                               {"u": state.u})

    final = fvm.run(sc.state0, nf, T=cfg.T, tau=sc.tau,
                    hooks=[monitor, recon_hook, vtk_hook], threads=threads)

    monitor.write_csv(os.path.join(out_dir, cfg.csv_name))
    meshmod.export_vtk(mesh, os.path.join(out_dir, f"{cfg.vtk_prefix}_{final.n}.vtk"),
                       {"u": final.u})

    mass0 = monitor.records[0].mass
    mass_drift = max(abs(r.mass - mass0) for r in monitor.records)
    mass_ok = mass_drift <= 1e-12 * (1.0 + abs(mass0))
    pc10_worst = max((r.worst_pc10 for r in monitor.records[1:]), default=0.0)
    pc10_ok = pc10_worst <= 1e-10 if cfg.entropies else True
    recon_ok = recon_worst[0] <= 1e-12

    payload = {
        "command": "run",
        "steps": final.n,
        "final_time": final.t,
        "tau": sc.tau,
        "mass_drift": mass_drift,
        "mass_conserved": mass_ok,
        "worst_pc10": pc10_worst,
        "entropy_inequalities_ok": pc10_ok,
        "reconstruction_residual": recon_worst[0],
        "reconstruction_ok": recon_ok,
        "state_box": list(nf.table.box),
        # informational: these keys do not enter the exit code
        "entropies": monitor.entropy_summary(),
    }
    _write_report(out_dir, payload)
    ok = mass_ok and pc10_ok and recon_ok
    print(f"run: {final.n} steps to t = {final.t:.6g}; "
          f"mass drift {mass_drift:.3e}; worst PC-entropy residual {pc10_worst:.3e}; "
          f"{'OK' if ok else 'INVARIANT FAILURE'}")
    return 0 if ok else 1


# ---------------------------------------------------------------------------
# latitude-band 1D oracle
# ---------------------------------------------------------------------------

@dataclass
class Oracle1D:
    """Periodic 1D scheme for one latitude band, sharing the band's exact
    face-averaged flux restriction (a view on the 2D face table)."""

    band: int
    n: int
    nf: fvm.NumericalFlux        # bound to the band's meridian-face view
    cell_area: float
    face_measure: float
    u: np.ndarray

    def step(self, tau: float) -> None:
        # face i sits between cell i and cell i+1 (periodic), canonical
        # normal in the +phi direction, matching the 2D mesh layout
        a = self.u
        b = np.roll(self.u, -1)
        F = self.nf.values(a, b)
        east = 1.0 * self.face_measure * F
        west = -1.0 * self.face_measure * np.roll(F, 1)
        self.u = self.u - (tau / self.cell_area) * (west + east)


def band_meridian_faces(mesh: meshmod.SphereMesh, band: int) -> np.ndarray:
    """Face ids of the meridian faces of latitude band ``band`` (built first,
    row-major, so they occupy a contiguous id range)."""
    ids = np.arange(band * mesh.n_phi, (band + 1) * mesh.n_phi)
    assert np.all(mesh.face_kind[ids] == meshmod.MERIDIAN)
    return ids


def oracle_compare(cfg: ScenarioConfig, out_dir: str, threads: int = 1) -> int:
    sc = build_scenario(cfg)
    nf = sc.nf
    mesh = nf.table.mesh

    # the decoupling requires every non-meridian face (there are always the
    # rims) to be inert
    other = np.flatnonzero(mesh.face_kind != meshmod.MERIDIAN)
    probe = np.linspace(*nf.table.box, 9)
    worst_inert = max(float(np.abs(nf.table.s(p)[other]).max()) for p in probe)
    if worst_inert > 1e-14:
        raise ConfigError(
            "flux is not of the decoupled latitude form (f^theta = 0): "
            f"latitude faces carry flux up to {worst_inert:.3e}")

    n_steps = max(1, int(math.ceil(cfg.T / sc.tau - 1e-12)))
    oracles = []
    for j in range(mesh.n_theta):
        ids = band_meridian_faces(mesh, j)
        view = nf.table.view(ids)
        nf1 = fvm.NumericalFlux(kind=nf.kind, table=view)
        cells = np.arange(j * mesh.n_phi, (j + 1) * mesh.n_phi)
        oracles.append((cells, Oracle1D(
            band=j, n=mesh.n_phi, nf=nf1,
            cell_area=float(mesh.cell_area[cells[0]]),
            face_measure=float(mesh.face_measure[ids[0]]),
            u=sc.state0.u[cells].copy())))

    state = replace(sc.state0, tau=sc.tau)
    worst = 0.0
    with fvm.thread_pool(threads) as pool:
        for _ in range(n_steps):
            state.tau = sc.tau
            state, _ = fvm.step(state, nf, threads=threads,
                                need_decomposition=False, pool=pool)
            for cells, oracle in oracles:
                oracle.step(sc.tau)
                worst = max(worst, float(np.abs(state.u[cells] - oracle.u).max()))

    payload = {
        "command": "oracle",
        "steps": n_steps,
        "bands": mesh.n_theta,
        "max_discrepancy": worst,
    }
    _write_report(out_dir, payload)
    print(f"oracle: {n_steps} steps, {mesh.n_theta} bands, "
          f"max |2D - 1D| = {worst:.3e}")
    return 0


# ---------------------------------------------------------------------------
# convergence study
# ---------------------------------------------------------------------------

def convergence_study(cfg: ScenarioConfig, levels: int, out_dir: str,
                      threads: int = 1) -> int:
    if levels < 2:
        raise ConfigError(f"need at least 2 refinement levels, got {levels}")
    if cfg.flux_name != "solid_rotation":
        raise ConfigError("convergence reference requires the solid_rotation "
                          "flux (exact solution by rotation)")
    omega = float(cfg.flux_params.get("omega", 1.0))
    reference = initial_function(cfg, phase=omega * cfg.T)

    rows = []
    for level in range(levels):
        sc = build_scenario(cfg, n_phi=cfg.n_phi * 2 ** level,
                            n_theta=cfg.n_theta * 2 ** level)
        final = fvm.run(sc.state0, sc.nf, T=cfg.T, tau=sc.tau, threads=threads)
        err = dg.l1_error(final, reference)
        mesh = sc.nf.table.mesh
        rows.append({"level": level, "n_phi": mesh.n_phi, "n_theta": mesh.n_theta,
                     "h": mesh.h, "h_band": mesh.h_band, "tau": sc.tau, "l1_error": err})

    for i in range(1, len(rows)):
        e0, e1 = rows[i - 1]["l1_error"], rows[i]["l1_error"]
        rows[i]["order"] = math.log2(e0 / e1) if e1 > 0 else float("inf")
    overall = (math.log2(rows[0]["l1_error"] / rows[-1]["l1_error"]) / (levels - 1)
               if rows[-1]["l1_error"] > 0 else float("inf"))

    payload = {"command": "converge", "levels": rows, "overall_order": overall}
    _write_report(out_dir, payload)
    print(f"{'level':>5} {'mesh':>10} {'h':>10} {'h_band':>10} {'tau':>10} "
          f"{'L1 error':>12} {'order':>7}")
    for r in rows:
        order = f"{r['order']:.3f}" if "order" in r else "-"
        print(f"{r['level']:>5} {r['n_phi']:>4}x{r['n_theta']:<5} "
              f"{r['h']:>10.4g} {r['h_band']:>10.4g} {r['tau']:>10.4g} "
              f"{r['l1_error']:>12.5e} {order:>7}")
    print(f"overall observed order: {overall:.3f}")
    return 0


# ---------------------------------------------------------------------------
# mesh-info / check-flux
# ---------------------------------------------------------------------------

def cmd_mesh_info(cfg: ScenarioConfig, out_dir: str) -> int:
    mesh = meshmod.build_latlon(cfg.n_phi, cfg.n_theta, cfg.theta_min)
    info = meshmod.mesh_info(mesh)
    payload = {"command": "mesh-info", "n_cells": info.n_cells,
               "n_faces": info.n_faces, "h": info.h, "h_band": info.h_band,
               "area_min": info.area_min, "area_max": info.area_max,
               "total_area": info.total_area,
               "max_perimeter_ratio": info.max_perimeter_ratio}
    _write_report(out_dir, payload)
    for key, value in payload.items():
        if key != "command":
            print(f"{key}: {value}")
    return 0


def cmd_check_flux(cfg: ScenarioConfig, out_dir: str, seed: int) -> int:
    flux = fluxmod.make_flux(cfg.flux_name, cfg.flux_params)
    rng = np.random.default_rng(seed)
    points = np.column_stack([rng.uniform(0.0, 2 * math.pi, 25),
                              rng.uniform(0.4, math.pi - 0.4, 25)])
    u_samples = np.linspace(-1.0, 1.0, 5)
    X = geometry.VectorField(lambda y: np.array([1.0, 0.0]))
    report = fluxmod.tvd_compatibility(flux, X, u_samples, points)
    div_res = max(fluxmod.divfree_residual(flux, float(u), p)
                  for u in u_samples for p in points)
    payload = {
        "command": "check-flux",
        "flux": cfg.flux_name,
        "verdict": report.verdict,
        "bracket_residual": report.bracket_residual,
        "colinearity_residual": report.colinearity_residual,
        "c_along_x_residual": report.c_along_x_residual,
        "tolerance": report.tolerance,
        "max_divergence_residual": div_res,
    }
    _write_report(out_dir, payload)
    print(f"flux {cfg.flux_name}: {report.verdict} "
          f"(bracket {report.bracket_residual:.3e}, "
          f"colinearity {report.colinearity_residual:.3e}, "
          f"X(C) {report.c_along_x_residual:.3e}); "
          f"divergence residual {div_res:.3e}")
    return 0


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="spherefv",
        description="Finite volume solver and verification toolkit for scalar "
                    "conservation laws on the sphere.")
    parser.add_argument("command",
                        choices=["run", "oracle", "converge", "mesh-info",
                                 "check-flux"])
    parser.add_argument("config", help="scenario config (JSON)")
    parser.add_argument("--out-dir", default=".", help="output directory")
    parser.add_argument("--seed", type=int, default=0,
                        help="seed for sample-point selection in residual checks")
    parser.add_argument("--threads", type=int, default=1,
                        help="worker count for face evaluation (results are "
                             "bit-identical for any value)")
    parser.add_argument("--levels", type=int, default=4,
                        help="refinement levels for 'converge'")
    args = parser.parse_args(argv)

    try:
        cfg = load_config(args.config)
        os.makedirs(args.out_dir, exist_ok=True)
        if args.command == "run":
            return run_scenario(cfg, args.out_dir, threads=args.threads)
        if args.command == "oracle":
            return oracle_compare(cfg, args.out_dir, threads=args.threads)
        if args.command == "converge":
            return convergence_study(cfg, args.levels, args.out_dir,
                                     threads=args.threads)
        if args.command == "mesh-info":
            return cmd_mesh_info(cfg, args.out_dir)
        return cmd_check_flux(cfg, args.out_dir, seed=args.seed)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except SphereFVError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
