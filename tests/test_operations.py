"""The arithmetic of each shipped scenario's generated code, counted.

A recorded function does the float operations its source writes, so
its cost is counted as the ``ast`` BinOp and UnaryOp nodes of that
source: those of the period's one call after the projection
(``control._period_code``), of the plant's recorded ``kinematics`` call,
which every period runs before it (``example1``'s is a constant lambda,
counted as 0), and of one RK4 stage (``dynamics._stage_code``).  None may
grow above ``BUDGET``, the counts since ``kinematics`` returns Jdot qd:
an arithmetic regression fails here, where the benchmark's timings would
hide it in their noise.  ``PYTHONPATH=src python tests/test_operations.py``
prints the counts.
"""

import ast
import inspect
from pathlib import Path

import pytest

from splinefollow import control, dynamics, sim

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"
# scenario: (period, kinematics, stage)
BUDGET = {
    "two_mass_line": (107, 0, 29),
    "figure_eight_3r": (432, 28, 133),
    "twisted_loop_4dof": (1099, 68, 242),
}


def operations(source):
    """The binary and unary operators in ``source``."""
    return sum(isinstance(node, (ast.BinOp, ast.UnaryOp))
               for node in ast.walk(ast.parse(source)))


def operation_counts(name):
    """(period, kinematics, stage) operations of the shipped scenario ``name``."""
    scenario = sim.Scenario.from_file(SCENARIOS / f"{name}.json")
    system = dynamics.make_plant(scenario.plant, **scenario.plant_kwargs)
    policy, gains, red = scenario.frame_policy, scenario.gains, scenario.redundancy
    constants = system.solves.constants
    period = control._period_code(
        *constants, system.p, policy.mode, policy.fixed_vectors, gains.tangential_mode,
        gains.transversal_mode, red.bias_mode, None if red.W is None else len(red.W))
    kinematics = (operations(inspect.getsource(system.kinematics))
                  if hasattr(system.kinematics, "arithmetic") else 0)
    return operations(period), kinematics, operations(dynamics._stage_code(*constants))


@pytest.mark.parametrize("name", BUDGET)
def test_generated_code_within_budget(name):
    for part, count, budget in zip(("period", "kinematics", "stage"),
                                   operation_counts(name), BUDGET[name]):
        assert count <= budget, f"{part}: {count} operations"


def test_counts_the_operators():
    """Each operator node once; calls, comparisons and literals not at all."""
    assert operations("def f(x, y):\n    return -(x + 2.0 * y) / abs(x) if x > y else x") == 4


if __name__ == "__main__":
    print(f"{'scenario':20s} {'period':>7s} {'kinematics':>11s} {'stage':>6s}")
    for name in BUDGET:
        period, kinematics, stage = operation_counts(name)
        print(f"{name:20s} {period:7d} {kinematics:11d} {stage:6d}")
