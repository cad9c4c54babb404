import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

import spherefv
from spherefv.cli import convergence_study, load_config, main
from spherefv.errors import ConfigError


def _write_config(path, **overrides):
    cfg = {
        "mesh": {"n_phi": 8, "n_theta": 4, "theta_min": 0.3},
        "flux": {"name": "latitude_burgers", "params": {"c_expr": "sin(theta)"}},
        "numerical_flux": {"kind": "godunov", "safety": 0.5},
        "initial": {"name": "band_step"},
        "T": 0.3,
        "diagnostics": {"tv_fields": ["dphi"],
                        "entropies": ["square", "kruzkov:0"]},
        "outputs": {"csv": "diag.csv", "vtk": "state"},
    }
    cfg.update(overrides)
    path.write_text(json.dumps(cfg))
    return str(path)


def test_run_writes_artifacts(tmp_path):
    cfg = _write_config(tmp_path / "c.json")
    out = tmp_path / "out"
    assert main(["run", cfg, "--out-dir", str(out)]) == 0
    assert (out / "diag.csv").exists()
    report = json.loads((out / "report.json").read_text())
    assert report["mass_conserved"] and report["entropy_inequalities_ok"]
    assert report["reconstruction_ok"]
    vtks = list(out.glob("state_*.vtk"))
    assert len(vtks) == 1 and vtks[0].name == f"state_{report['steps']}.vtk"
    # mass column constant
    table = np.genfromtxt(str(out / "diag.csv"), delimiter=",", names=True)
    mass = table["mass"]
    assert np.abs(mass - mass[0]).max() <= 1e-12 * (1.0 + abs(mass[0]))


def test_invalid_flux_name_exit_2(tmp_path, capsys):
    cfg = _write_config(tmp_path / "c.json",
                        flux={"name": "no_such_flux", "params": {}})
    assert main(["run", cfg]) == 2
    err = capsys.readouterr().err
    assert "solid_rotation" in err and "latitude_burgers" in err and "potential" in err


def test_invalid_json_and_missing_fields(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["run", str(bad)]) == 2
    incomplete = tmp_path / "inc.json"
    incomplete.write_text(json.dumps({"mesh": {"n_phi": 8}}))
    assert main(["run", str(incomplete)]) == 2


def test_bad_safety_and_kind_exit_2(tmp_path):
    cfg = _write_config(tmp_path / "c.json",
                        numerical_flux={"kind": "godunov", "safety": 1.5})
    assert main(["run", cfg]) == 2
    cfg2 = _write_config(tmp_path / "c2.json",
                         numerical_flux={"kind": "superbee", "safety": 0.5})
    assert main(["run", cfg2]) == 2


@pytest.mark.parametrize("T", [math.nan, math.inf, -1.0], ids=["nan", "inf", "negative"])
@pytest.mark.parametrize("command", ["run", "oracle", "converge"])
def test_non_finite_or_negative_T_exit_2(tmp_path, capsys, command, T):
    # refused when the config is read: no step, no report, no endless loop
    cfg = _write_config(tmp_path / "c.json",
                        flux={"name": "solid_rotation", "params": {"omega": 1.0}}, T=T)
    out = tmp_path / "out"
    assert main([command, cfg, "--out-dir", str(out), "--levels", "2"]) == 2
    assert "T must be a finite non-negative time" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("k", ["nan", "inf", "-inf"])
def test_non_finite_kruzkov_parameter_exit_2(tmp_path, capsys, k):
    cfg = _write_config(tmp_path / "c.json",
                        diagnostics={"entropies": ["square", f"kruzkov:{k}"]})
    assert main(["run", cfg, "--out-dir", str(tmp_path / "out")]) == 2
    assert "Kruzkov parameter must be finite" in capsys.readouterr().err


@pytest.mark.parametrize("section, key, value, message", [
    ("mesh", "n_phi", "x", "mesh.n_phi must be an integer"),
    ("mesh", "n_phi", 12.7, "mesh.n_phi must be an integer"),
    ("mesh", "n_theta", True, "mesh.n_theta must be an integer"),
    (None, "T", "soon", "T must be a finite non-negative time"),
    ("numerical_flux", "safety", None, "numerical_flux.safety must be a finite real number"),
    ("diagnostics", "entropies", "square", "diagnostics.entropies must be a list"),
    ("diagnostics", "entropies", [0], "entries must be strings"),
    ("mesh", None, [8, 4, 0.3], "mesh in config must be a JSON object"),
], ids=["n_phi-string", "n_phi-fraction", "n_theta-bool", "T-string", "safety-null",
        "entropies-string", "entropies-number", "mesh-list"])
def test_mistyped_config_value_exit_2(tmp_path, capsys, section, key, value, message):
    # a value of the wrong type is a configuration error naming its key:
    # exit 2, no traceback, no output directory
    cfg = json.loads(open(_write_config(tmp_path / "base.json")).read())
    if section is None:
        cfg[key] = value
    elif key is None:
        cfg[section] = value
    else:
        cfg[section][key] = value
    path = tmp_path / "c.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    assert main(["run", str(path), "--out-dir", str(out)]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_integral_float_mesh_size_accepted(tmp_path):
    cfg = _write_config(tmp_path / "c.json",
                        mesh={"n_phi": 8.0, "n_theta": 4, "theta_min": 0.3})
    loaded = load_config(cfg)
    assert loaded.n_phi == 8 and type(loaded.n_phi) is int


def test_run_reports_entropy_summary(tmp_path):
    # informational keys in report.json; diag.csv keeps its columns
    cfg = _write_config(tmp_path / "c.json")
    out = tmp_path / "out"
    assert main(["run", cfg, "--out-dir", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    assert sorted(report["entropies"]) == ["kruzkov_0", "square"]
    for summary in report["entropies"].values():
        assert sorted(summary) == ["pc12_every_step", "worst_max_abs_r", "worst_pc12_gap"]
        assert summary["pc12_every_step"] is True and summary["worst_pc12_gap"] <= 0.0
        assert summary["worst_max_abs_r"] >= 0.0
    header = (out / "diag.csv").read_text().splitlines()[0].split(",")
    assert header == ["step", "t", "mass", "linf", "tv_dphi", "entropy_mass_square",
                      "entropy_mass_kruzkov_0", "dissipation_increment", "pc15_cumulative",
                      "worst_pc10"]


def test_oracle_command(tmp_path):
    cfg = _write_config(tmp_path / "c.json")
    out = tmp_path / "out"
    assert main(["oracle", cfg, "--out-dir", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["max_discrepancy"] <= 1e-12


def test_oracle_refuses_non_decoupled_flux(tmp_path):
    cfg = _write_config(tmp_path / "c.json",
                        flux={"name": "potential", "params": {"a": "u*n1"}})
    assert main(["oracle", cfg]) == 2


def test_mesh_info_command(tmp_path):
    cfg = _write_config(tmp_path / "c.json")
    out = tmp_path / "out"
    assert main(["mesh-info", cfg, "--out-dir", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["n_cells"] == 8 * 4 + 2
    assert report["total_area"] == pytest.approx(4 * math.pi, rel=1e-12)
    assert report["h"] == max(2 * 0.3, report["h_band"])


def test_check_flux_command(tmp_path):
    cfg = _write_config(tmp_path / "c.json")
    out = tmp_path / "out"
    assert main(["check-flux", cfg, "--out-dir", str(out), "--seed", "7"]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["verdict"] == "compatible"
    assert report["max_divergence_residual"] <= 1e-8


def test_converge_t_zero_errors_vanish(tmp_path):
    path = _write_config(tmp_path / "c.json",
                         flux={"name": "solid_rotation", "params": {"omega": 1.0}},
                         initial={"name": "equatorial_bump"},
                         T=0.0)
    cfg = load_config(path)
    with pytest.raises(ConfigError):
        convergence_study(cfg, 1, str(tmp_path))


def test_converge_runs_two_levels(tmp_path):
    path = _write_config(tmp_path / "c.json",
                         flux={"name": "solid_rotation", "params": {"omega": 1.0}},
                         initial={"name": "equatorial_bump"},
                         T=0.5)
    out = tmp_path / "out"
    assert main(["converge", path, "--levels", "2", "--out-dir", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    levels = report["levels"]
    assert len(levels) == 2
    assert levels[1]["l1_error"] < levels[0]["l1_error"]
    # h never drops below the pole cap's 2 theta_min; h_band refines
    assert all(lv["h"] == max(2 * 0.3, lv["h_band"]) for lv in levels)
    assert abs(levels[0]["h_band"] / levels[1]["h_band"] - 2.0) <= 0.2


def test_converge_requires_rotation_reference(tmp_path):
    path = _write_config(tmp_path / "c.json", T=0.5)
    assert main(["converge", path, "--levels", "2"]) == 2


def test_run_threads_bit_identical(tmp_path):
    cfg = _write_config(tmp_path / "c.json")
    out1, out8 = tmp_path / "t1", tmp_path / "t8"
    assert main(["run", cfg, "--out-dir", str(out1), "--threads", "1"]) == 0
    assert main(["run", cfg, "--out-dir", str(out8), "--threads", "8"]) == 0
    assert (out1 / "diag.csv").read_bytes() == (out8 / "diag.csv").read_bytes()


def test_converge_threads_bit_identical(tmp_path):
    cfg = _write_config(tmp_path / "c.json",
                        flux={"name": "solid_rotation", "params": {"omega": 1.0}},
                        initial={"name": "equatorial_bump"}, T=0.5)
    out1, out2 = tmp_path / "t1", tmp_path / "t2"
    for out, threads in ((out1, "1"), (out2, "2")):
        assert main(["converge", cfg, "--levels", "2", "--out-dir", str(out),
                     "--threads", threads]) == 0
    assert (out1 / "report.json").read_bytes() == (out2 / "report.json").read_bytes()


def test_unknown_initial_and_tv_field(tmp_path):
    cfg = _write_config(tmp_path / "c.json", initial={"name": "mystery"})
    assert main(["run", cfg]) == 2
    cfg2 = _write_config(tmp_path / "c2.json",
                         diagnostics={"tv_fields": ["dtheta"], "entropies": []})
    assert main(["run", cfg2]) == 2


def test_deep_initial_expression_exit_2(tmp_path):
    cfg = _write_config(tmp_path / "c.json",
                        initial={"expression": "(" * 300 + "n3" + ")" * 300})
    assert main(["run", cfg]) == 2


def _fresh_python(code, *args):
    """Run ``code`` with ``args`` in a new interpreter that imports this
    package; the last line it prints, read as JSON."""
    src = os.path.dirname(os.path.dirname(spherefv.__file__))
    done = subprocess.run([sys.executable, "-c", code, *args], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=src), check=True)
    return json.loads(done.stdout.splitlines()[-1])


def test_module_entry_point(tmp_path):
    cfg = _write_config(tmp_path / "c.json")
    src = os.path.dirname(os.path.dirname(spherefv.__file__))
    done = subprocess.run([sys.executable, "-m", "spherefv", "mesh-info", cfg,
                           "--out-dir", str(tmp_path / "out")], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=src))
    assert done.returncode == 0 and done.stderr == ""
    assert json.loads((tmp_path / "out" / "report.json").read_text())["command"] == "mesh-info"


def test_import_loads_no_scipy():
    loaded = _fresh_python("import json, sys\nimport spherefv\nprint(json.dumps(list(sys.modules)))")
    assert "spherefv.cli" in loaded
    assert [name for name in loaded if name.split(".")[0] == "scipy"] == []


@pytest.mark.parametrize("command, overrides", [
    (["run"], {}),
    (["run"], {"flux": {"name": "potential", "params": {"a": "u*n3 + 0.3*u^2*n1"}},
               "numerical_flux": {"kind": "engquist_osher", "safety": 0.5},
               "diagnostics": {"tv_fields": [], "entropies": ["square", "kruzkov:0"]}}),
    (["converge", "--levels", "2"], {"flux": {"name": "solid_rotation", "params": {"omega": 1.0}},
                                     "initial": {"name": "equatorial_bump"}, "T": 0.5}),
], ids=["run-burgers-godunov", "run-potential-eo", "converge-rotation"])
def test_main_first_imports_no_module(tmp_path, command, overrides):
    # every module a command needs is loaded before main, so start-up is not timed in main
    cfg = _write_config(tmp_path / "c.json", **overrides)
    code = ("import json, sys\nfrom spherefv import cli\nbefore = set(sys.modules)\n"
            "assert cli.main(sys.argv[1:]) == 0\n"
            "print(json.dumps(sorted(set(sys.modules) - before)))")
    assert _fresh_python(code, command[0], cfg, *command[1:], "--out-dir",
                         str(tmp_path / "out"), "--threads", "1") == []
