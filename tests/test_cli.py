"""Command-line interface: subcommands, file outputs, exit codes."""

import json
from pathlib import Path

import numpy as np
import pytest

from splinefollow import cli

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


@pytest.fixture
def waypoint_file(tmp_path):
    s = np.linspace(0.0, 1.0, 8)
    wp = np.column_stack([0.8 + 1.4 * s, 0.5 * np.sin(2 * np.pi * s)])
    f = tmp_path / "waypoints.json"
    f.write_text(json.dumps({"waypoints": wp.tolist(), "closed": False}))
    return f


@pytest.fixture
def path_file(tmp_path, waypoint_file):
    out = tmp_path / "path.json"
    rc = cli.main(["fit", "--waypoints", str(waypoint_file), "--out", str(out)])
    assert rc == 0
    return out


@pytest.fixture
def scenario_file(tmp_path):
    scen = {
        "plant": "example1",
        "path": {"analytic": "line", "params": {"start": [-5.0], "end": [5.0]}},
        "q0": [0.5, 0.0],
        "qd0": [0.0, 0.0],
        "gains": {"tangential_mode": "position", "K_P": 4.0, "K_D": 3.0,
                  "eta1_ref": 6.0},
        "duration": 2.0,
        "name": "cli-test",
    }
    f = tmp_path / "scenario.json"
    f.write_text(json.dumps(scen))
    return f


class TestFitAndCheck:
    def test_fit_writes_loadable_path(self, path_file):
        data = json.loads(path_file.read_text())
        assert len(data["segments"]) == 7

    def test_check_reports_json(self, path_file, capsys):
        rc = cli.main(["check", str(path_file)])
        assert rc == 0
        out = json.loads(capsys.readouterr().out)
        assert out["smooth_ok"] is True
        assert out["framed_ok"] is True

    def test_missing_file_is_validation_failure(self):
        assert cli.main(["check", "/nonexistent/path.json"]) == 1


class TestProjectAndDlambda:
    def test_project_table(self, path_file, tmp_path):
        queries = tmp_path / "queries.json"
        queries.write_text(json.dumps([[1.0, 0.2], [2.0, -0.3]]))
        out = tmp_path / "proj.csv"
        rc = cli.main(["project", str(path_file),
                       "--queries", str(queries), "--out", str(out)])
        assert rc == 0
        rows = np.loadtxt(out, delimiter=",", skiprows=1)
        assert rows.shape == (2, 3)
        assert np.all(rows[:, 2] >= 0)

    def test_dlambda_table(self, path_file, tmp_path):
        out = tmp_path / "dl.csv"
        rc = cli.main(["dlambda", str(path_file), "--segment", "0",
                       "--samples", "9", "--out", str(out)])
        assert rc == 0
        rows = np.loadtxt(out, delimiter=",", skiprows=1)
        assert rows.shape == (9, 2)


class TestRun:
    def test_run_writes_log_and_summary(self, scenario_file, tmp_path):
        out = tmp_path / "log.csv"
        rc = cli.main(["run", str(scenario_file), "--out", str(out)])
        assert rc == 0
        header = out.read_text().splitlines()[0]
        assert header.startswith("t,q0,q1,qd0,qd1,u0,u1,eta1,eta2")
        summary = json.loads((tmp_path / "log.csv.summary.json").read_text())
        assert "max_zeta_norm" in summary

    def test_run_deterministic(self, scenario_file, tmp_path):
        outs = []
        for i in range(2):
            out = tmp_path / f"log{i}.csv"
            assert cli.main(["run", str(scenario_file), "--out", str(out)]) == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_duration_override(self, scenario_file, tmp_path):
        out = tmp_path / "log.csv"
        rc = cli.main(["run", str(scenario_file), "--out", str(out),
                       "--duration", "0.5", "--dt", "0.05"])
        assert rc == 0
        assert len(out.read_text().splitlines()) == 11  # header + 10 steps

    @pytest.mark.parametrize("override", [
        ["--dt", "0"], ["--dt", "-0.02"], ["--duration", "-1"],
        ["--duration", "0.001"], ["--dt", "nan"],
    ])
    def test_bad_override_is_validation_failure(self, scenario_file, tmp_path,
                                                capsys, override):
        rc = cli.main(["run", str(scenario_file), "--out",
                       str(tmp_path / "log.csv"), *override])
        assert rc == 1
        assert "validation failure" in capsys.readouterr().err

    def test_bad_joint_sizes_are_validation_failure(self, scenario_file,
                                                    tmp_path, capsys):
        scen = json.loads(scenario_file.read_text())
        scen["encoder_resolution"] = [1e-3]   # example1 has two joints
        scenario_file.write_text(json.dumps(scen))
        rc = cli.main(["run", str(scenario_file), "--out",
                       str(tmp_path / "log.csv")])
        assert rc == 1
        assert "encoder_resolution must have 2 entries" in capsys.readouterr().err

    @pytest.mark.parametrize("gains", [
        {"transversal_mode": "robust"},     # default robust gains
        {"transversal_mode": "robust", "robust_K": [[-1.0]],
         "robust_K0": [[0.0]], "robust_K2": [[0.0]]},
        {"transversal_mode": "robust", "robust_K": [[-1, -1, 0, 0], [0, 0, -1, -1]],
         "robust_K0": [[0, 0, 0, 0], [0, 0, 0, 0]],
         "robust_K2": [[0, 0, 0, 0], [0, 0, 0, 0]]},   # p = 3 gains, p = 2 plant
    ], ids=["defaults", "1x1", "2x4"])
    def test_bad_robust_gains_are_validation_failure(self, tmp_path, capsys,
                                                     gains):
        scen = json.loads((SCENARIOS / "figure_eight_3r.json").read_text())
        scen["gains"].update(gains)
        f = tmp_path / "robust.json"
        f.write_text(json.dumps(scen))
        rc = cli.main(["run", str(f), "--out", str(tmp_path / "log.csv")])
        assert rc == 1
        err = capsys.readouterr().err
        assert "validation failure: robust gains" in err
        assert "t=" not in err

    @pytest.mark.parametrize("where, key", [
        (None, "duraton"),
        ("redundancy", "bias"),
        ("gains", "K_p"),
        ("limits", "q_lo"),
    ], ids=["top-level", "redundancy", "gains", "limits"])
    def test_unknown_scenario_key_is_validation_failure(self, tmp_path, capsys,
                                                        where, key):
        scen = json.loads((SCENARIOS / "two_mass_line.json").read_text())
        if where is None:
            scen[key] = 0.1
        else:
            scen[where] = {**scen.get(where, {}), key: 1.0}
        f = tmp_path / "typo.json"
        f.write_text(json.dumps(scen))
        rc = cli.main(["run", str(f), "--out", str(tmp_path / "log.csv")])
        assert rc == 1
        err = capsys.readouterr().err
        assert "validation failure" in err
        assert repr(key) in err

    def test_divergence_exits_2(self, tmp_path, capsys):
        # one period of 1e20 s: the state overflows during the integration
        scenario = str(SCENARIOS / "two_mass_line.json")
        rc = cli.main(["run", scenario, "--out", str(tmp_path / "log.csv"),
                       "--dt", "1e20", "--duration", "1e20"])
        assert rc == 2
        assert "runtime failure: t=0.000s" in capsys.readouterr().err

    def test_numerical_failure_exits_2(self, tmp_path, capsys):
        # the arm starts stretched out: beta is singular at t = 0
        scen = {
            "plant": "example2",
            "path": {"analytic": "circle", "params": {"radius": 3.0}},
            "q0": [0.0, 0.0, 0.0],
            "qd0": [0.0, 0.0, 0.0],
            "duration": 1.0,
        }
        f = tmp_path / "singular.json"
        f.write_text(json.dumps(scen))
        rc = cli.main(["run", str(f), "--out", str(tmp_path / "log.csv")])
        assert rc == 2
        assert "t=0.000s" in capsys.readouterr().err

    def test_bad_scenario_is_validation_failure(self, tmp_path):
        f = tmp_path / "bad.json"
        f.write_text(json.dumps({"plant": "acrobot"}))
        assert cli.main(["run", str(f), "--out", str(tmp_path / "x.csv")]) == 1


class TestPortrait:
    def test_small_portrait(self, tmp_path):
        out = tmp_path / "flows.csv"
        eq = tmp_path / "eq.json"
        rc = cli.main(["portrait", "--out", str(out), "--equilibria", str(eq),
                       "--grid", "2", "--duration", "0.5"])
        assert rc == 0
        data = json.loads(eq.read_text())
        assert data["grid_points"] == 4
