"""A cold start loads only what the run calls.

``import splinefollow``, the ``example1`` plant, the ``two_mass_line``
path and a short run need numpy alone, and so do the symbolic plants,
whose code ships generated: neither scipy nor sympy loads.  The check
runs in a fresh interpreter, since the rest of the suite has loaded both
long before.  Run as a script, it checks whichever ``splinefollow`` the
interpreter imports (an installed copy, say) and exits 1 on a failure:

    python tests/test_cold_start.py
"""

import dataclasses
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SCENARIO = HERE.parent / "scenarios" / "two_mass_line.json"
HEAVY = ("scipy", "sympy")


def check():
    """Problems found in this interpreter, which must not have loaded HEAVY."""
    from splinefollow import dynamics, sim

    scenario = sim.Scenario.from_file(SCENARIO)
    # builds the example1 plant and the line path, then runs 50 periods
    sim.run(dataclasses.replace(scenario, duration=1.0))
    problems = [f"{name} loaded by the example1 run"
                for name in HEAVY if name in sys.modules]
    dynamics.make_example2()
    dynamics.make_cpm_like()
    problems += [f"{name} loaded by make_example2 or make_cpm_like"
                 for name in HEAVY if name in sys.modules]
    return problems


def test_cold_start_loads_numpy_only():
    src = str(HERE.parent / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, str(Path(__file__))], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stdout + proc.stderr


if __name__ == "__main__":
    found = check()
    for line in found:
        print(f"cold start: {line}")
    import splinefollow
    print(f"cold start checked {splinefollow.__file__}: "
          f"{'FAILED' if found else 'ok'}")
    sys.exit(1 if found else 0)
