"""Command-line interface: subcommands, file outputs, exit codes."""

import json
import os
import re
from pathlib import Path

import numpy as np
import pytest

from splinefollow import cli, curves

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"
PERIODS = "dt must be > 0 and duration / dt finite and round to at least 1 period; "
# every key of two_mass_line.json is one of this scenario's, so an update
# with it replaces the whole scenario
TWISTED_LOOP = json.loads((SCENARIOS / "twisted_loop_4dof.json").read_text())
# a path of total arclength 0: one constant segment
ZERO_LENGTH_PATH = {"segments": [{"coeffs": [[0.5]], "domain": [0, 1]}]}
ZERO_LENGTH = "validation failure: cannot project onto a path of total arclength 0.0"


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


def _numbers(node, key=None):
    """(index path, nearest object key) of each number in the JSON value
    ``node``; of a list of more than two lists, of the first and last."""
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
        if len(node) > 2 and all(isinstance(x, list) for x in node):
            items = [(0, node[0]), (len(node) - 1, node[-1])]
    else:
        if isinstance(node, (int, float)) and not isinstance(node, bool):
            yield (), key
        return
    for i, child in items:
        for where, near in _numbers(child, i if isinstance(node, dict) else key):
            yield (i, *where), near


_NUMERIC_LEAVES = [(f.stem, where, key) for f in sorted(SCENARIOS.glob("*.json"))
                   for where, key in _numbers(json.loads(f.read_text()))]


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

    def test_directory_is_validation_failure(self, tmp_path, capsys):
        """A file argument naming a directory is an OSError like a missing
        file: exit 1, no traceback."""
        assert cli.main(["check", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("validation failure: [Errno 21] Is a directory"), err

    @pytest.mark.parametrize("data, message", [
        ({"waypoints": [[0.0, 0.0], [1.0, 0.0], [2.0, 1.0]], "closd": True},
         "unknown waypoints file key(s) 'closd'; known: waypoints, closed"),
        ({"waypoints": [[0.0, 0.0], [1.0, 0.0], [2.0, 1.0]], "closed": "false"},
         "closed must be true or false; got 'false'"),
        ([[0.0, 0.0], [1.0, 0.0], [2.0, 1.0]],
         "waypoints file must be a JSON object; got [[0.0, 0.0]"),
        ({"closed": False}, "missing waypoints file key(s) waypoints"),
    ], ids=["misspelled-closed", "string-closed", "list", "no-waypoints"])
    def test_malformed_waypoints_file_is_validation_failure(self, tmp_path, capsys,
                                                            data, message):
        """``fit`` reads the keys waypoints and closed, and no others."""
        f = tmp_path / "waypoints.json"
        f.write_text(json.dumps(data))
        out = tmp_path / "path.json"
        rc = cli.main(["fit", "--waypoints", str(f), "--out", str(out)])
        assert rc == 1
        assert f"validation failure: {message}" in capsys.readouterr().err
        assert not out.exists()


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

    @pytest.mark.parametrize("args, message", [
        (["--segment", "7"], "segment k must be an integer in 0..6; got 7"),
        (["--segment", "-1"], "segment k must be an integer in 0..6; got -1"),
        (["--samples", "0"], "samples must be an integer >= 1; got 0"),
    ], ids=["past-the-end", "negative", "no-samples"])
    def test_bad_dlambda_input_is_validation_failure(self, path_file, tmp_path,
                                                     capsys, args, message):
        out = tmp_path / "dl.csv"
        rc = cli.main(["dlambda", str(path_file), "--out", str(out)] + args)
        assert rc == 1
        assert f"validation failure: {message}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["check", "dlambda"])
    @pytest.mark.parametrize("change, message", [
        ({"segments": None}, "path 'segments' must be a list; got None"),
        ({"segments": [None]}, "path segment 0 must be a JSON object; got None"),
        ({"domain": [0.0]}, "path segment 0 'domain' must be a list of finite real "
                            "numbers of length 2; got [0.0]"),
        ({"coeffs": None}, "path segment 0 'coeffs' must be lists of finite real "
                           "numbers of one length; got None"),
        ({"coeffs": [[0.0, 1.0], [0.0, float("nan")]]},
         "path segment 0 'coeffs' must be lists of finite real numbers of one length; "
         "got [[0.0, 1.0], [0.0, nan]]"),
        ([], "path must be a JSON object; got []"),
        ({"extra": 1}, "unknown path segment 0 key(s) 'extra'; known: coeffs, domain"),
    ], ids=["null-segments", "null-segment", "one-entry-domain", "null-coeffs",
            "nan-coeffs", "list", "segment-extra"])
    def test_malformed_path_file_is_validation_failure(self, path_file, capsys,
                                                       command, change, message):
        """A path file that is not the form ``fit`` writes exits 1, naming
        the key, whichever command reads it."""
        path = json.loads(path_file.read_text())
        if not change:
            path = change
        elif "segments" in change:
            path.update(change)
        else:
            path["segments"][0].update(change)
        path_file.write_text(json.dumps(path))
        rc = cli.main([command, str(path_file)])
        assert rc == 1
        assert f"validation failure: {message}" in capsys.readouterr().err

    def test_query_of_wrong_size_is_validation_failure(self, path_file, tmp_path,
                                                       capsys):
        queries = tmp_path / "queries.json"
        queries.write_text(json.dumps([[1.0, 0.2, 0.0]]))
        rc = cli.main(["project", str(path_file), "--queries", str(queries)])
        assert rc == 1
        assert ("validation failure: query y must have p = 2 entries"
                in capsys.readouterr().err)

    @pytest.mark.parametrize("data, message", [
        ([[True, 0.2]], "queries must be lists of finite real numbers of one length; "
                        "got [[True, 0.2]]"),
        ([1.0, 0.2], "queries must be lists of finite real numbers of one length; "
                     "got [1.0, 0.2]"),
        ([[1.0, 0.2], [2.0]], "queries must be lists of finite real numbers of one "
                              "length; got [[1.0, 0.2], [2.0]]"),
    ], ids=["bool", "flat", "ragged"])
    def test_malformed_queries_are_validation_failure(self, path_file, tmp_path,
                                                      capsys, data, message):
        """``--queries`` is a list of points, each a list of finite reals."""
        queries = tmp_path / "queries.json"
        queries.write_text(json.dumps(data))
        out = tmp_path / "proj.csv"
        rc = cli.main(["project", str(path_file), "--queries", str(queries),
                       "--out", str(out)])
        assert rc == 1
        assert f"validation failure: {message}" in capsys.readouterr().err
        assert not out.exists()

    def test_zero_length_path_is_validation_failure(self, tmp_path, capsys):
        """``project`` on a path of total arclength 0 exits 1 naming it, with
        no traceback and no table; ``check`` still reports the path."""
        path, queries = tmp_path / "zero.json", tmp_path / "queries.json"
        path.write_text(json.dumps(ZERO_LENGTH_PATH))
        queries.write_text(json.dumps([[0.3]]))
        out = tmp_path / "proj.csv"
        rc = cli.main(["project", str(path), "--queries", str(queries),
                       "--out", str(out)])
        err = capsys.readouterr().err
        assert rc == 1
        assert err.startswith(ZERO_LENGTH) and "Traceback" not in err, err
        assert not out.exists()
        assert cli.main(["check", str(path)]) == 0
        assert json.loads(capsys.readouterr().out) == {
            "smooth_ok": True, "worst_junction_error": 0.0, "framed_ok": False,
            "min_gram_determinant": 0.0}


class TestRun:
    def test_zero_length_path_is_validation_failure(self, tmp_path, capsys):
        """A scenario whose path has total arclength 0 exits 1 naming it,
        before the first period, with no traceback and no log."""
        scen = json.loads((SCENARIOS / "two_mass_line.json").read_text())
        scen["path"] = ZERO_LENGTH_PATH
        f, out = tmp_path / "zero.json", tmp_path / "log.csv"
        f.write_text(json.dumps(scen))
        rc = cli.main(["run", str(f), "--out", str(out)])
        err = capsys.readouterr().err
        assert rc == 1
        assert err.startswith(ZERO_LENGTH) and "Traceback" not in err, err
        assert not out.exists()

    def test_run_writes_log_and_summary(self, scenario_file, tmp_path):
        out = tmp_path / "log.csv"
        rc = cli.main(["run", str(scenario_file), "--out", str(out)])
        assert rc == 0
        header = out.read_text().splitlines()[0]
        assert header.startswith("t,q0,q1,qd0,qd1,u0,u1,eta1,eta2")
        summary = json.loads((tmp_path / "log.csv.summary.json").read_text())
        assert "max_zeta_norm" in summary

    def test_out_directory_is_validation_failure(self, scenario_file, tmp_path,
                                                 capsys):
        """``--out`` naming a directory is a validation failure."""
        rc = cli.main(["run", str(scenario_file), "--out", str(tmp_path),
                       "--duration", "0.1"])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("validation failure: [Errno 21] Is a directory"), err

    @pytest.mark.parametrize("files, message", [
        (["--out", "."], "[Errno 21] Is a directory: '.'"),
        (["--out", "log.csv", "--summary", "."], "[Errno 21] Is a directory: '.'"),
        (["--out", "missing/log.csv"], "[Errno 2] No such file or directory: 'missing'"),
        (["--out", "log.csv", "--summary", "missing/s.json"],
         "[Errno 2] No such file or directory: 'missing'"),
    ], ids=["out directory", "summary directory", "out parent missing",
            "summary parent missing"])
    def test_unwritable_output_fails_before_the_run(self, scenario_file, tmp_path,
                                                    monkeypatch, capsys, files, message):
        """An output file that cannot be written fails before the first
        period, and nothing is created or truncated."""
        def run(*args, **kwargs):
            raise AssertionError("sim.run was called")

        monkeypatch.setattr(cli.sim, "run", run)
        work = tmp_path / "work"
        work.mkdir()
        monkeypatch.chdir(work)
        (work / "log.csv").write_text("kept")
        assert cli.main(["run", str(scenario_file), *files]) == 1
        err = capsys.readouterr().err
        assert err == f"validation failure: {message}\n", err
        assert os.listdir(work) == ["log.csv"]
        assert (work / "log.csv").read_text() == "kept"

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

    @pytest.mark.parametrize("path, message", [
        ({"analytic": "circle", "params": {"centre": [0, 0]}},
         "unknown circle params key(s) 'centre'; known: radius, center, "
         "unit_speed, span"),
        ({"analytic": "line", "params": {"start": [-5.0]}},
         "missing line params key(s) end"),
    ], ids=["misspelled", "missing"])
    def test_bad_analytic_params_are_validation_failure(self, scenario_file,
                                                        tmp_path, capsys, path,
                                                        message):
        scen = json.loads(scenario_file.read_text())
        scen["path"] = path
        scenario_file.write_text(json.dumps(scen))
        rc = cli.main(["run", str(scenario_file), "--out",
                       str(tmp_path / "log.csv")])
        assert rc == 1
        err = capsys.readouterr().err
        assert f"validation failure: {message}" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("normal", [[0.0, 0.0, 0.0], [0.0, float("nan"), 1.0]],
                             ids=["zero", "nan"])
    def test_bad_plane_normal_is_validation_failure(self, tmp_path, capsys,
                                                    normal):
        scen = json.loads((SCENARIOS / "twisted_loop_4dof.json").read_text())
        scen.update(frame_mode="planar_fallback", frame_fixed=[normal])
        f = tmp_path / "normal.json"
        f.write_text(json.dumps(scen))
        rc = cli.main(["run", str(f), "--out", str(tmp_path / "log.csv")])
        assert rc == 1
        err = capsys.readouterr().err
        assert "validation failure: completion vector 0" in err

    @pytest.mark.parametrize("where, key, value, message", [
        ("limits", "u_min", [float("nan"), -5.0],
         "limits u_min must be finite real numbers; got [nan, -5.0]"),
        ("limits", "q_min", [-float("inf"), -5.0],
         "limits q_min must be finite real numbers; got [-inf, -5.0]"),
        ("gains", "K_P", float("nan"), "K_P must be a finite real number; got nan"),
    ], ids=["nan-u_min", "inf-q_min", "nan-K_P"])
    def test_non_finite_limits_and_gains_are_validation_failure(
            self, scenario_file, tmp_path, capsys, where, key, value, message):
        """json reads NaN and Infinity, so a scenario file can hold them."""
        scen = json.loads(scenario_file.read_text())
        if where == "limits":
            scen["limits"] = {"q_min": [-2.0, -5.0], "q_max": [2.0, 5.0],
                              "u_min": [-5.0, -5.0], "u_max": [5.0, 5.0]}
        scen[where][key] = value
        scenario_file.write_text(json.dumps(scen))
        rc = cli.main(["run", str(scenario_file), "--out",
                       str(tmp_path / "log.csv")])
        assert rc == 1
        err = capsys.readouterr().err
        assert f"validation failure: {message}" in err
        assert "t=" not in err

    @pytest.mark.parametrize("key, value, message", [
        ("xi_Kp", 150.0, "xi_Kp must be finite real numbers; got 150.0"),
        ("xi_Kd", [30.0, "30"], "xi_Kd must be finite real numbers; got [30.0, '30']"),
        ("K_P", "1.0", "K_P must be a finite real number; got '1.0'"),
        ("integral_limit", None, "integral_limit must be a finite real number; got None"),
    ], ids=["scalar-xi_Kp", "string-in-xi_Kd", "string-K_P", "null-integral_limit"])
    def test_gain_types_are_validation_failure(self, tmp_path, capsys, key, value,
                                               message):
        scen = json.loads((SCENARIOS / "figure_eight_3r.json").read_text())
        scen["gains"][key] = value
        f = tmp_path / "gains.json"
        f.write_text(json.dumps(scen))
        rc = cli.main(["run", str(f), "--out", str(tmp_path / "log.csv")])
        assert rc == 1
        err = capsys.readouterr().err
        assert f"validation failure: {message}" in err
        assert "Traceback" not in err

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

    def test_failure_during_a_run_exits_2(self, tmp_path, capsys):
        """A library error raised during a period is a runtime failure even
        when it is not a NumericalFailure: the figure-eight's waypoints 0-8
        fitted open lose their Frenet frame at t = 9.58 s."""
        scen = json.loads((SCENARIOS / "figure_eight_3r.json").read_text())
        scen["path"] = {"waypoints": scen["path"]["waypoints"][:9], "closed": False}
        scen.update(frame_mode="frenet_serret", duration=25.0)
        f = tmp_path / "lobe.json"
        f.write_text(json.dumps(scen))
        rc = cli.main(["run", str(f), "--out", str(tmp_path / "log.csv")])
        assert rc == 2
        err = capsys.readouterr().err
        assert re.fullmatch(r"runtime failure: t=9\.\d{3}s: Gram-Schmidt residual "
                            r"collapsed at vector 2 \(norm .*\)\n", err), err

    def test_fractional_substeps_are_validation_failure(self, tmp_path, capsys):
        scen = json.loads((SCENARIOS / "two_mass_line.json").read_text())
        scen["substeps"] = 2.5
        f = tmp_path / "substeps.json"
        f.write_text(json.dumps(scen))
        rc = cli.main(["run", str(f), "--out", str(tmp_path / "log.csv")])
        assert rc == 1
        err = capsys.readouterr().err
        assert "validation failure: substeps" in err
        assert "t=" not in err

    @pytest.mark.parametrize("change, message", [
        ({"limits": None}, "limits must be a JSON object; got None"),
        ({"gains": None}, "gains must be a JSON object; got None"),
        ({"redundancy": None}, "redundancy must be a JSON object; got None"),
        ({"path": None}, "path spec must be a JSON object; got None"),
        ({"path": {"analytic": "line", "params": None}},
         "line params must be a JSON object; got None"),
        ({"frame_fixed": 3}, "frame_fixed must be a list; got 3"),
        ({"plant_kwargs": [1]}, "plant_kwargs must be a JSON object; got [1]"),
        ({"substeps": True}, "substeps must be an integer >= 1; got True"),
        ([1.0], "scenario must be a JSON object; got [1.0]"),
        ({"path": {"analytic": "circle"}},
         "path dimension 2 must equal the p = 1 of plant 'example1'"),
        ({"gains": {"K_P": True}}, "K_P must be a finite real number; got True"),
        ({"gains": {"xi_Kp": [True]}}, "xi_Kp must be finite real numbers; got [True]"),
        ({"duration": 1e300, "dt": 1e-300}, PERIODS + "got duration 1e+300, dt 1e-300"),
        ({"duration": 0.005, "dt": 0.02}, PERIODS + "got duration 0.005, dt 0.02"),
        ({"duration": -1.0, "dt": -0.02}, PERIODS + "got duration -1.0, dt -0.02"),
        ({"limits": {"q_min": [-1.0, -1.0], "q_max": [1.0, 1.0, 1.0],
                     "u_min": [-10.0, -10.0], "u_max": [10.0, 10.0]}},
         "limits q_min and q_max must have the same length; got 2 and 3"),
        ({"frame_mode": "planar_fallback"},
         "planar_fallback requires a 2-D or 3-D output"),
        ({**TWISTED_LOOP, "frame_mode": "line_fallback"},
         "line_fallback needs 2 completion vector(s) for p = 3; got 0"),
    ], ids=["null-limits", "null-gains", "null-redundancy", "null-path",
            "null-params", "number-frame_fixed", "list-plant_kwargs",
            "bool-substeps", "list", "planar-path", "bool-K_P", "bool-xi_Kp",
            "infinitely-many-periods", "under-a-period", "negative-dt",
            "unequal-limits", "planar-policy-p1", "line-policy-p3"])
    def test_malformed_scenario_is_validation_failure(self, tmp_path, capsys,
                                                      change, message):
        """A section of the wrong JSON type exits 1, naming the key."""
        scen = json.loads((SCENARIOS / "two_mass_line.json").read_text())
        if isinstance(change, dict):
            scen.update(change)
        else:
            scen = change
        f = tmp_path / "malformed.json"
        f.write_text(json.dumps(scen))
        rc = cli.main(["run", str(f), "--out", str(tmp_path / "log.csv")])
        assert rc == 1
        assert f"validation failure: {message}" in capsys.readouterr().err
        assert not (tmp_path / "log.csv").exists()

    @pytest.mark.parametrize("scenario, change, message", [
        ("figure_eight_3r", {"closd": True},
         "unknown path key(s) 'closd'; known: waypoints, closed, smoothness_order"),
        ("figure_eight_3r", {"closed": "false"},
         "closed must be true or false; got 'false'"),
        ("figure_eight_3r", {"smoothness_order": None},
         "smoothness_order must be an even integer in 2..12; got None"),
        ("figure_eight_3r", {"smoothness_order": "4"},
         "smoothness_order must be an even integer in 2..12; got '4'"),
        ("figure_eight_3r", {"smoothness_order": 4.5},
         "smoothness_order must be an even integer in 2..12; got 4.5"),
        ("figure_eight_3r", {"smoothness_order": 10**400},
         f"smoothness_order must be an even integer in 2..12; got {10**400}"),
        ("figure_eight_3r", {"smoothness_order": curves.MAX_SMOOTHNESS_ORDER + 2},
         "smoothness_order must be an even integer in 2..12; got 14"),
        ("two_mass_line", {"closed": True},
         "unknown path key(s) 'closed'; known: analytic, params"),
        ("two_mass_line", {"analytic": ["line"]}, "unknown analytic path ['line']"),
        ("file", {"extra": 1}, "unknown path key(s) 'extra'; known: file"),
        ("file", {"file": None}, "path 'file' must be a file name; got None"),
        ("figure_eight_3r", {"waypoints": {"x": 1.0}},
         "waypoints must be lists of finite real numbers of one length; got {'x': 1.0}"),
        ("figure_eight_3r", {"waypoints": [[1.5, 0.3], [2.0, float("nan")], [2.5, 0.3]]},
         "waypoints must be lists of finite real numbers of one length; "
         "got [[1.5, 0.3], [2.0, nan], [2.5, 0.3]]"),
        ("segments", {"closd": True}, "unknown path key(s) 'closd'; known: "
                                      "segments, cumulative_arclength, p, closed"),
        ("segments", {"closed": "false"},
         "path 'closed' must be true or false; got 'false'"),
        ("two_mass_line", {"analytic": "circle", "params": {"radius": "a"}},
         "circle parameter radius must be a finite real number; got 'a'"),
        ("two_mass_line", {"analytic": "circle", "params": {"radius": float("nan")}},
         "circle parameter radius must be a finite real number; got nan"),
        ("two_mass_line", {"analytic": "circle", "params": {"center": None}},
         "circle parameter center must be a list of finite real numbers of length 2; "
         "got None"),
        ("two_mass_line", {"analytic": "circle", "params": {"unit_speed": "no"}},
         "circle parameter unit_speed must be true or false; got 'no'"),
        ("two_mass_line", {"analytic": "ellipse", "params": {"span": None}},
         "ellipse parameter span must be a list of finite real numbers of length 2; "
         "got None"),
        ("two_mass_line", {"analytic": "helix", "params": {"pitch": "x"}},
         "helix parameter pitch must be a finite real number; got 'x'"),
        ("two_mass_line", {"params": {"start": None, "end": [5.0]}},
         "line parameter start must be a non-empty list of finite real numbers; "
         "got None"),
        ("two_mass_line", {"params": {"start": [-5.0], "end": [5.0, 1.0]}},
         "line parameter end must be a list of finite real numbers of length 1; "
         "got [5.0, 1.0]"),
        ("two_mass_line", {"analytic": "circle", "params": {"radius": True}},
         "circle parameter radius must be a finite real number; got True"),
        ("two_mass_line", {"params": {"start": [True], "end": [5.0]}},
         "line parameter start must be a list of finite real numbers of length 1; "
         "got [True]"),
        ("two_mass_line", {"analytic": "circle", "params": {"radius": -1.0}},
         "circle parameter radius must be positive; got -1.0"),
        ("two_mass_line", {"analytic": "circle", "params": {"radius": 0.0}},
         "circle parameter radius must be positive; got 0.0"),
        ("two_mass_line", {"analytic": "ellipse", "params": {"a": 0.0}},
         "ellipse parameter a must be positive; got 0.0"),
        ("two_mass_line", {"analytic": "ellipse", "params": {"b": -0.5}},
         "ellipse parameter b must be positive; got -0.5"),
        ("two_mass_line", {"analytic": "helix", "params": {"radius": 0.0}},
         "helix parameter radius must be positive; got 0.0"),
        ("two_mass_line", {"analytic": "circle", "params": {"radius": [1.0]}},
         "circle parameter radius must be a finite real number; got [1.0]"),
        ("two_mass_line", {"analytic": "ellipse", "params": {"a": [2.0]}},
         "ellipse parameter a must be a finite real number; got [2.0]"),
        ("two_mass_line", {"analytic": "helix", "params": {"pitch": [1.0]}},
         "helix parameter pitch must be a finite real number; got [1.0]"),
    ], ids=["misspelled-closed", "string-closed", "null-order", "string-order",
            "fractional-order", "huge-order", "order-past-the-cap", "analytic-closed",
            "list-analytic", "file-extra",
            "null-file", "object-waypoints", "nan-waypoint", "segments-extra",
            "segments-string-closed", "circle-string-radius", "circle-nan-radius",
            "circle-null-center", "circle-string-unit_speed", "ellipse-null-span",
            "helix-string-pitch", "line-null-start", "line-unequal-ends",
            "circle-bool-radius", "line-bool-start", "circle-negative-radius",
            "circle-zero-radius", "ellipse-zero-a", "ellipse-negative-b",
            "helix-zero-radius", "circle-list-radius", "ellipse-list-a",
            "helix-list-pitch"])
    def test_malformed_path_spec_is_validation_failure(self, tmp_path, capsys,
                                                       path_file, scenario,
                                                       change, message):
        """A path spec holds the keys of its kind's builder, each of the
        type it takes; nothing is dropped or converted on the way."""
        name = "two_mass_line" if scenario in ("file", "segments") else scenario
        scen = json.loads((SCENARIOS / f"{name}.json").read_text())
        if scenario == "file":
            scen["path"] = {"file": str(path_file)}
        elif scenario == "segments":
            scen["path"] = json.loads(path_file.read_text())
        scen["path"].update(change)
        f = tmp_path / "path_spec.json"
        f.write_text(json.dumps(scen))
        rc = cli.main(["run", str(f), "--out", str(tmp_path / "log.csv")])
        assert rc == 1
        assert f"validation failure: {message}" in capsys.readouterr().err
        assert not (tmp_path / "log.csv").exists()

    @pytest.mark.parametrize("scenario, change, message", [
        ("two_mass_line", {"plant": ["example1"]},
         "unknown plant ['example1']; choices: ['cpm4', 'example1', 'example2']"),
        ("twisted_loop_4dof", {"plant_kwargs": {"m1": 1.0}},
         "unknown cpm4 plant_kwargs key(s) 'm1'; known: "),
        ("two_mass_line", {"plant_kwargs": {"m1": "a"}},
         "example1 parameter m1 must be a finite real number; got 'a'"),
        ("two_mass_line", {"plant_kwargs": {"m1": float("inf")}},
         "example1 parameter m1 must be a finite real number; got inf"),
        ("two_mass_line", {"plant_kwargs": {"b2": float("nan")}},
         "example1 parameter b2 must be a finite real number; got nan"),
        ("figure_eight_3r", {"plant_kwargs": {"damping": [2.0, float("nan"), 2.0]}},
         "example2 parameter damping must be finite real numbers; got [2.0, nan, 2.0]"),
        ("two_mass_line", {"plant_kwargs": {"m1": True}},
         "example1 parameter m1 must be a finite real number; got True"),
        ("figure_eight_3r", {"plant_kwargs": {"damping": [2.0, False, 2.0]}},
         "example2 parameter damping must be finite real numbers; "
         "got [2.0, False, 2.0]"),
        ("two_mass_line", {"plant_kwargs": {"m1": [1.0]}},
         "example1 parameter m1 must be a finite real number; got [1.0]"),
    ], ids=["list-plant", "cpm4-kwarg", "string-mass", "infinite-mass", "nan-friction",
            "nan-damping", "bool-mass", "bool-damping", "list-mass"])
    def test_malformed_plant_is_validation_failure(self, tmp_path, capsys, scenario,
                                                   change, message):
        """A plant's parameters are its factory's keyword arguments, each a
        finite real number."""
        scen = json.loads((SCENARIOS / f"{scenario}.json").read_text())
        scen.update(change)
        f = tmp_path / "plant.json"
        f.write_text(json.dumps(scen))
        rc = cli.main(["run", str(f), "--out", str(tmp_path / "log.csv")])
        assert rc == 1
        err = capsys.readouterr().err
        assert f"validation failure: {message}" in err
        assert "Traceback" not in err
        assert not (tmp_path / "log.csv").exists()

    @pytest.mark.parametrize("change, message", [
        ({}, "missing scenario key(s) path"),
        ({"path_spec": {"analytic": "line", "params": {"start": [-5.0], "end": [5.0]}}},
         "unknown scenario key(s) 'path_spec'; known: plant, q0, qd0, gains, "
         "duration, dt, substeps, plant_kwargs, redundancy, limits, "
         "encoder_resolution, frame_mode, frame_fixed, name, path"),
    ], ids=["no-path", "path_spec"])
    def test_scenario_key_is_path(self, tmp_path, capsys, change, message):
        """The scenario's JSON key for its path is ``path``, in every message."""
        scen = json.loads((SCENARIOS / "two_mass_line.json").read_text())
        del scen["path"]
        scen.update(change)
        f = tmp_path / "no_path.json"
        f.write_text(json.dumps(scen))
        rc = cli.main(["run", str(f), "--out", str(tmp_path / "log.csv")])
        assert rc == 1
        err = capsys.readouterr().err
        assert f"validation failure: {message}" in err
        assert "path_spec" not in err.replace("'path_spec'", "")

    def test_bad_scenario_is_validation_failure(self, tmp_path):
        f = tmp_path / "bad.json"
        f.write_text(json.dumps({"plant": "acrobot"}))
        assert cli.main(["run", str(f), "--out", str(tmp_path / "x.csv")]) == 1

    @pytest.mark.parametrize("value", [True, None, "x", float("nan"), 10**400],
                             ids=["true", "null", "string", "nan", "huge"])
    @pytest.mark.parametrize("name, where, key", _NUMERIC_LEAVES,
                             ids=[f"{n}-{'.'.join(map(str, w))}"
                                  for n, w, _ in _NUMERIC_LEAVES])
    def test_every_number_is_read_as_a_finite_real(self, tmp_path, capsys, name,
                                                   where, key, value):
        """Each number of a shipped scenario, replaced by a bool, null, a
        string, NaN or an integer too large for a float, exits 1 naming its
        nearest key, with no traceback and no log."""
        scen = json.loads((SCENARIOS / f"{name}.json").read_text())
        node = scen
        for step in where[:-1]:
            node = node[step]
        node[where[-1]] = value
        f = tmp_path / "leaf.json"
        f.write_text(json.dumps(scen))
        out = tmp_path / "log.csv"
        rc = cli.main(["run", str(f), "--out", str(out)])
        err = capsys.readouterr().err
        assert rc == 1, err
        assert err.startswith("validation failure: ") and key in err, err
        assert "Traceback" not in err
        assert not out.exists()


class TestPortrait:
    SPAN = ("the portrait grid needs finite entries and at least two distinct "
            "zeta_1 values")

    def test_small_portrait(self, tmp_path):
        out = tmp_path / "flows.csv"
        eq = tmp_path / "eq.json"
        rc = cli.main(["portrait", "--out", str(out), "--equilibria", str(eq),
                       "--grid", "2", "--duration", "0.5"])
        assert rc == 0
        data = json.loads(eq.read_text())
        assert data["grid_points"] == 4

    @pytest.mark.parametrize("args, message", [
        (["--grid", "2", "--duration", "-1"], PERIODS + "got duration -1.0, dt 0.02"),
        (["--grid", "2", "--duration", "0"], PERIODS + "got duration 0.0, dt 0.02"),
        (["--grid", "2", "--duration", "0.005"], PERIODS + "got duration 0.005, dt 0.02"),
        (["--grid", "2", "--duration", "1e308"], PERIODS + "got duration 1e+308, dt 0.02"),
        (["--grid", "0"], "grid must be an integer >= 1; got 0"),
        (["--grid", "-1"], "grid must be an integer >= 1; got -1"),
        (["--grid", "1"], SPAN),
        (["--grid", "2", "--zeta1-min", "0.3", "--zeta1-max", "0.3"], SPAN),
        (["--grid", "2", "--zeta1-min", "nan"], SPAN),
    ], ids=["negative", "zero", "under-a-period", "infinitely-many-periods",
            "no-grid", "negative-grid", "one-point",
            "one-zeta1", "nan-zeta1"])
    def test_empty_portrait_is_validation_failure(self, tmp_path, capsys, args,
                                                  message):
        out = tmp_path / "flows.csv"
        rc = cli.main(["portrait", "--out", str(out), "--equilibria",
                       str(tmp_path / "eq.json")] + args)
        assert rc == 1
        assert f"validation failure: {message}" in capsys.readouterr().err
        assert not out.exists()

    def test_straight_arm_in_the_scan_is_infeasible(self, tmp_path):
        """At radius 2.3 the boundary search meets a straight arm, which is
        an infeasible point of the scan, not a failure of the portrait."""
        rc = cli.main(["portrait", "--out", str(tmp_path / "flows.csv"),
                       "--equilibria", str(tmp_path / "eq.json"),
                       "--radius", "2.3", "--grid", "3", "--duration", "1"])
        assert rc == 0
