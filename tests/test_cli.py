import json
import math

import numpy as np
import pytest

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
