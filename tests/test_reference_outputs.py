"""Shipped outputs against a checked-in reference.

``tests/reference`` holds every 100th log row of each shipped scenario
and both files of ``splinefollow portrait --grid 3 --duration 1``.  A
change that moves outputs on purpose rewrites them with
``PYTHONPATH=src python tests/test_reference_outputs.py`` and records
the largest difference it made.
"""

import json
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

from splinefollow import cli

HERE = Path(__file__).resolve().parent
REFERENCE = HERE / "reference"
SCENARIOS = HERE.parent / "scenarios"
NAMES = ("two_mass_line", "figure_eight_3r", "twisted_loop_4dof")
EVERY = 100
PORTRAIT = ["portrait", "--grid", "3", "--duration", "1"]
EXACT = {"k_star", "iterations", "saturated", "ic_index", "step"}
RTOL = 1e-12   # and an absolute floor of RTOL x the column's largest magnitude
# The equilibria are a bisected root and a 1e-5 difference of the flow,
# so they cannot be held to RTOL.  Moving the radius, the damping, the
# input bound or the joint window by 1e-12 relative moved zeta by at
# most 2.0e-12 and the eigenvalues by at most 5.9e-12 of the largest;
# replacing brentq by a bisection moved them by 4.5e-12 and 5.3e-11.
# The tolerances are ten times the larger of each.
EQ_ZETA_ATOL = 5e-11
EQ_EIG_RTOL = 5e-10


def _run(name, out):
    """The sampled rows (header first) of one scenario's log CSV."""
    assert cli.main(["run", str(SCENARIOS / f"{name}.json"), "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    return lines[:1] + lines[1::EVERY]


def _portrait(out):
    """The portrait's flows CSV lines and its equilibria JSON."""
    csv, eq = out / "p.csv", out / "p.json"
    assert cli.main(PORTRAIT + ["--out", str(csv), "--equilibria", str(eq)]) == 0
    return csv.read_text().splitlines(), json.loads(eq.read_text())


def _assert_table_close(lines, ref_lines):
    """Float columns to RTOL with the column floor; EXACT columns exactly."""
    assert lines[0] == ref_lines[0]
    assert len(lines) == len(ref_lines)
    got, ref = (np.array([row.split(",") for row in rows[1:]], dtype=float)
                for rows in (lines, ref_lines))
    for j, name in enumerate(lines[0].split(",")):
        if name in EXACT:
            np.testing.assert_array_equal(got[:, j], ref[:, j], err_msg=name)
        else:
            floor = RTOL * np.abs(ref[:, j]).max()
            np.testing.assert_allclose(got[:, j], ref[:, j], rtol=RTOL,
                                       atol=floor, err_msg=name)


@pytest.mark.parametrize("name", NAMES)
def test_scenario_log_matches_reference(name, tmp_path):
    ref = (REFERENCE / f"{name}.csv").read_text().splitlines()
    _assert_table_close(_run(name, tmp_path / "log.csv"), ref)


def test_portrait_matches_reference(tmp_path):
    lines, summary = _portrait(tmp_path)
    _assert_table_close(lines, (REFERENCE / "portrait.csv").read_text().splitlines())
    ref = json.loads((REFERENCE / "portrait.json").read_text())
    assert summary["grid_points"] == ref["grid_points"]
    assert summary["failed_grid_points"] == ref["failed_grid_points"]
    assert len(summary["equilibria"]) == len(ref["equilibria"])
    for e, r in zip(summary["equilibria"], ref["equilibria"]):
        assert e["stable"] == r["stable"]
        np.testing.assert_allclose(e["zeta"], r["zeta"], rtol=0, atol=EQ_ZETA_ATOL)
        eig, eig_ref = (np.array(x["eigenvalues_real"]) + 1j * np.array(x["eigenvalues_imag"])
                        for x in (e, r))
        scale = np.abs(eig_ref).max()
        assert np.abs(eig - eig_ref).max() <= EQ_EIG_RTOL * scale


def write_reference(out=REFERENCE):
    """Rewrite the reference files from the importable splinefollow."""
    out.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        for name in NAMES:
            rows = _run(name, tmp / f"{name}.csv")
            (out / f"{name}.csv").write_text("\n".join(rows) + "\n")
        _portrait(tmp)
        for src, dst in (("p.csv", "portrait.csv"), ("p.json", "portrait.json")):
            (out / dst).write_text((tmp / src).read_text())


if __name__ == "__main__":
    write_reference(Path(sys.argv[1]) if len(sys.argv) > 1 else REFERENCE)
