"""The projection's iterations per period in each shipped scenario, bounded.

Newton carries every period of the shipped runs, through segment
hand-offs too, in at most three iterations; a period that falls back to
the descent of Algorithm 1 takes 25 or more.  None of a run's logged
``iterations`` may exceed ``BUDGET``: a change that sends periods back to
the descent fails here, where the benchmark's percentiles would hide it
in their noise.  ``PYTHONPATH=src python tests/test_iterations.py``
prints the largest and the mean count per scenario.
"""

from pathlib import Path

import pytest

from splinefollow import sim

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"
NAMES = ("two_mass_line", "figure_eight_3r", "twisted_loop_4dof")
BUDGET = 8


def iterations(name):
    """The projection's iterations of each period of the shipped scenario ``name``."""
    return sim.run(sim.Scenario.from_file(SCENARIOS / f"{name}.json")).iterations


@pytest.mark.parametrize("name", NAMES)
def test_projection_within_budget(name):
    assert iterations(name).max() <= BUDGET


if __name__ == "__main__":
    print(f"{'scenario':20s} {'max':>4s} {'mean':>6s}")
    for name in NAMES:
        counts = iterations(name)
        print(f"{name:20s} {counts.max():4d} {counts.mean():6.3f}")
