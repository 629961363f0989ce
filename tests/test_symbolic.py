"""The plants' recorded ``forces`` and ``kinematics`` against sympy.

``dynamics`` records each arm's calls from its geometry; ``symbolic``
derives the same quantities from the Lagrangian, with exact constants.
Over random states the two agree to a bound set from the measured
margin: the worst |recorded - derived| / (1 + |derived|) over 500 states
in [-3, 3] read 2.0e-15 for example2 and 1.2e-15 for cpm4; the bound
is ten times the larger.
"""

import numpy as np
import pytest

pytest.importorskip("sympy", reason="the symbolic derivation needs sympy")

import symbolic  # noqa: E402
from splinefollow import dynamics  # noqa: E402

BOUND = 2e-14


@pytest.mark.parametrize("call", ["forces", "kinematics"])
@pytest.mark.parametrize("plant", ["example2", "cpm4"])
def test_recorded_calls_match_the_derivation(plant, call):
    system = dynamics.make_plant(plant)
    recorded, derived = getattr(system, call), symbolic.oracle(plant, call)
    rng = np.random.default_rng(34)
    worst = 0.0
    for _ in range(500):
        q, qd = (rng.uniform(-3.0, 3.0, system.N).tolist() for _ in range(2))
        for got, want in zip(recorded(q, qd), derived(q, qd)):
            got, want = np.array(got, dtype=float), np.array(want, dtype=float)
            assert got.shape == want.shape
            worst = max(worst, (np.abs(got - want) / (1.0 + np.abs(want))).max())
    assert worst <= BOUND, worst
