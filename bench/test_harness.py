"""Tests of the benchmark harness itself.

Run from the repository root (the package's own suite does not collect
this directory):

    python3 -m pytest -q bench/test_harness.py

Set BENCH_SLOW=1 to include twisted_4dof, whose plant build alone takes
about 90 s.
"""

import functools
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import checks  # noqa: E402
import run  # noqa: E402
import splinefollow  # noqa: E402
import workloads  # noqa: E402
from splinefollow import sim  # noqa: E402
from tracer import Tracer  # noqa: E402

LISTED = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]
SMOKE = [w for w in run.WORKLOAD_NAMES
         if w != "twisted_4dof" or os.environ.get("BENCH_SLOW")]


def bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, str(Path(cwd) / "bench" / "run.py"), *args],
                          capture_output=True, text=True, cwd=cwd, timeout=600)


@functools.lru_cache(maxsize=None)
def smoke_run(name):
    """One operation of a workload, set up once; its output stays in out/."""
    return bench("--workload", name, "--seed", "3", "--seconds", "0")


@pytest.fixture(params=SMOKE)
def smoke(request):
    return request.param, smoke_run(request.param)


def test_smoke_runs_and_passes_its_checks(smoke):
    name, proc = smoke
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["attempted"] == 1 and result["failed"] == 0
    assert {k: v["unit"] for k, v in result["metrics"].items()} == run.END_TO_END
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_benchmark_json_matches_the_harness():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert set(LISTED) <= set(run.WORKLOAD_NAMES)


def test_traced_run_reports_every_per_layer_metric():
    proc = bench("--workload", "two_mass_line", "--seconds", "0", "--trace", "1")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["attempted"] == 2
    metrics = result["metrics"]
    assert {k: v["unit"] for k, v in metrics.items()} == run.PER_LAYER
    assert metrics["dynamics.acceleration_calls"]["value"] == 20
    assert metrics["projection.descent_steps"]["value"] == 52
    layers = json.loads((HERE / "out" / "two_mass_line.layers.json").read_text())
    assert layers["sim.field_evals"] is None and layers["sim.portrait_self_s"] is None
    spans = np.load(HERE / "out" / "two_mass_line.trace.npz")
    assert len(spans["start"]) == len(spans["end"]) == len(spans["parent"])


def test_setup_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("out"))
    proc = bench("--workload", "two_mass_line", "--seconds", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


# --- the tracer ------------------------------------------------------------------


def _bindings(wl):
    owners = [m for n, m in sys.modules.items() if n.startswith("splinefollow")]
    owners += [sim.RunLog, wl.path, wl.system]
    return {(id(o), k): v for o in owners for k, v in list(vars(o).items())}


def test_traced_block_restores_the_package():
    wl = workloads.setup("two_mass_line")
    before = _bindings(wl)
    tracer = Tracer()
    with tracer.installed(splinefollow, wl.system, wl.path):
        assert sim.run is not before[(id(sim), "run")]
        wl.op()
    after = _bindings(wl)
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
    assert tracer.metrics(1)["dynamics.acceleration_calls"] == 20


def test_traced_block_restores_the_package_after_an_error():
    wl = workloads.setup("two_mass_line")
    before = _bindings(wl)
    with pytest.raises(RuntimeError):
        with Tracer().installed(splinefollow, wl.system, wl.path):
            raise RuntimeError
    after = _bindings(wl)
    assert all(after[k] is before[k] for k in before) and after.keys() == before.keys()


# --- the output checks -----------------------------------------------------------


@pytest.fixture(scope="module")
def fig8():
    """The figure-eight lap written by the smoke run, and its path oracle."""
    proc = smoke_run("fig8_3r")
    assert proc.returncode == 0, proc.stdout
    scen = sim.Scenario.from_file(ROOT / "scenarios" / "figure_eight_3r.json")
    path = checks.PolyPath(sim._build_path(scen.path_spec).to_dict())
    return checks.read_log(HERE / "out" / "fig8_3r.csv"), path


def _copy(log):
    return {k: np.array(v, copy=True) for k, v in log.items()}


def _periods(log):
    return np.arange(0, len(log["t"]), 97)


def test_fig8_checks_pass_unperturbed(fig8):
    log, path = fig8
    assert checks.tracked_point(log, path, checks.fk_planar3r, _periods(log)) == []
    assert checks.segment_sequence(log, path) == []
    assert checks.eta_increments(log, path, 0.005) == []
    assert checks.fig8_criteria(log, 0.2) == []


def test_tracked_point_rejects_shifted_lambda(fig8):
    log, path = _copy(fig8[0]), fig8[1]
    i = 1000
    log["lam"][i] += 1e-4
    assert checks.tracked_point(log, path, checks.fk_planar3r, np.array([i]))


def test_segment_sequence_rejects_the_other_branch_at_the_crossing(fig8):
    log, path = _copy(fig8[0]), fig8[1]
    # segments 7 -> 8 and 15 -> 0 meet at the self-intersection (1.5, 0.3)
    i = int(np.flatnonzero((log["k"][:-1] == 7) & (log["k"][1:] == 8))[0]) + 1
    lam8 = log["lam"][i] - path.domains[8][0]
    log["k"][i], log["lam"][i] = 0, path.domains[0][0] + lam8
    assert checks.segment_sequence(log, path)
    assert checks.tracked_point(log, path, checks.fk_planar3r, np.array([i]))


def test_eta_check_rejects_a_jump_in_eta1(fig8):
    log, path = _copy(fig8[0]), fig8[1]
    log["eta1"][2000:] += 1e-4
    assert checks.eta_increments(log, path, 0.005)


def test_fig8_criteria_reject_a_transversal_error(fig8):
    log = _copy(fig8[0])
    log["xi1"][3000] = 2e-5
    assert checks.fig8_criteria(log, 0.2)


def test_two_mass_check_rejects_zeta_off_the_midpoint():
    q = np.array([[0.0, 1.0]])
    log = {"q": q, "qd": np.zeros_like(q)}
    assert checks.two_mass_final(log, 6.0, -5.0, 0.0) == []
    log["q"] = q + [[2e-3, 0.0]]
    assert checks.two_mass_final(log, 6.0, -5.0, 0.0)


def test_portrait_check_rejects_moved_equilibria():
    R, bound = 2.2, checks.reach_bound(2.2)
    g1, g2 = np.meshgrid(np.linspace(-0.6, 1.25, 6), np.linspace(-0.8, 0.8, 6))
    grid = np.column_stack([g1.ravel(), g2.ravel()])
    failed = grid[:, 0] > bound

    def eqs(stable_at=0.0, boundary_at=bound):
        return [
            {"zeta": [stable_at, 0.0], "eigenvalues_real": [-0.48, -0.48], "stable": True},
            {"zeta": [boundary_at, 0.0], "eigenvalues_real": [81.4, -84.0], "stable": False},
        ]

    assert checks.portrait(eqs(), grid, failed, R) == []
    assert checks.portrait(eqs(stable_at=0.02), grid, failed, R)
    assert checks.portrait(eqs(boundary_at=bound - 1e-3), grid, failed, R)
    assert checks.portrait(eqs()[:1], grid, failed, R)
    moved = failed.copy()
    moved[0] = True
    assert checks.portrait(eqs(), grid, moved, R)
