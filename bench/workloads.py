"""The benchmark's workloads: set-up, one operation, and its checks.

A run workload makes the calls of ``splinefollow run`` (scenario file,
closed-loop run, CSV log, summary JSON), with the plant and path built
once in set-up and the simulated duration set to one lap.  The portrait
workload makes the calls of ``splinefollow portrait`` on a reduced grid.
"""

import hashlib
import json
from pathlib import Path
from time import perf_counter

import numpy as np

from splinefollow import control, curves, dynamics, sim

import checks

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SAMPLES = 64   # random periods per operation checked against the grid oracle


def digest(*files):
    """sha256 of the files' bytes, in order."""
    h = hashlib.sha256()
    for name in files:
        h.update(Path(name).read_bytes())
    return h.hexdigest()


def _force_arclength_tables(path):
    """Build the lazy arclength table of every segment, as a run would."""
    for k, seg in enumerate(path.segments):
        path.arclength_interp(k, seg.domain[0])


class _Timed:
    """Records the wall time of named set-up phases."""

    def __init__(self):
        self.timings = {}

    def timed(self, name, fn, *args, **kwargs):
        t0 = perf_counter()
        out = fn(*args, **kwargs)
        self.timings[name] = perf_counter() - t0
        return out


class RunWorkload(_Timed):
    """A scenario file run the way ``splinefollow run`` runs it."""

    def __init__(self, name, scenario_file, duration=None, fk=None):
        super().__init__()
        self.scenario = sim.Scenario.from_file(ROOT / scenario_file)
        if duration is not None:
            self.scenario.duration = duration
        self.system = self.timed("dynamics.plant_build_s", dynamics.make_plant,
                                 self.scenario.plant, **self.scenario.plant_kwargs)
        self.path = self.timed("curves.path_build_s", sim._build_path,
                               self.scenario.path_spec)
        self.timed("curves.arclength_tables_s", _force_arclength_tables, self.path)
        self.fk = fk
        self.csv = OUT / f"{name}.csv"
        self.oracle = None   # built at the first check, outside set-up

    def op(self):
        log = sim.run(self.scenario, path=self.path, system=self.system)
        log.to_csv(str(self.csv))
        with open(f"{self.csv}.summary.json", "w") as f:
            json.dump(log.summary(), f, indent=2)

    def criteria(self, log):
        return []

    def check(self, rng):
        """Problems found in the written log, and the log's digest."""
        log = checks.read_log(self.csv)
        if self.oracle is None:
            self.oracle = checks.PolyPath(self.path.to_dict())
        problems = self.criteria(log)
        n = len(log["t"])
        handoffs = np.flatnonzero(np.diff(log["k"]))
        periods = np.union1d(rng.choice(n, size=min(SAMPLES, n), replace=False),
                             np.concatenate([handoffs, handoffs + 1]))
        problems += checks.tracked_point(log, self.oracle, self.fk, periods)
        problems += checks.segment_sequence(log, self.oracle)
        return problems, digest(self.csv)


class Fig8(RunWorkload):
    def __init__(self):
        super().__init__("fig8_3r", "scenarios/figure_eight_3r.json", 30.0,
                         checks.fk_planar3r)

    def criteria(self, log):
        return (checks.fig8_criteria(log, self.scenario.gains.eta2_ref)
                + checks.eta_increments(log, self.oracle, self.scenario.dt))


class Twisted(RunWorkload):
    def __init__(self):
        super().__init__("twisted_4dof", "scenarios/twisted_loop_4dof.json", 30.0,
                         checks.fk_cpm4)

    def criteria(self, log):
        lim = self.scenario.limits
        return (checks.twisted_criteria(log, lim.q_min[3], lim.q_max[3])
                + checks.eta_increments(log, self.oracle, self.scenario.dt))


class TwoMass(RunWorkload):
    def __init__(self):
        super().__init__("two_mass_line", "scenarios/two_mass_line.json",
                         fk=lambda q: np.atleast_2d(q)[:, 1:2])

    def criteria(self, log):
        lim = self.scenario.limits or self.system.default_limits
        return checks.two_mass_final(
            log, self.scenario.gains.eta1_ref,
            self.scenario.path_spec["params"]["start"][0],
            0.5 * (lim.q_min[0] + lim.q_max[0]))


class Portrait(_Timed):
    """``splinefollow portrait`` defaults on a 6 x 6 grid with 4 s flows."""

    RADIUS = 2.2
    GRID = 6
    FLOW_S = 4.0

    def __init__(self):
        super().__init__()
        R = self.RADIUS
        self.system = self.timed("dynamics.plant_build_s", dynamics.make_example2)
        self.path = self.timed("curves.path_build_s", curves.circle_path, R,
                               span=(-np.pi * R, np.pi * R))
        self.timed("curves.arclength_tables_s", _force_arclength_tables, self.path)
        q0 = sim.ik_planar3r((R, 0.0), 0.0)
        self.limits = dynamics.Limits(q_min=q0 - 1.0, q_max=q0 + 1.0,
                                      u_min=[-10.0] * 3, u_max=[10.0] * 3)
        self.gains = control.OuterLoopGains(
            tangential_mode="position", K_P=20.0, K_D=9.0, eta1_ref=np.pi * R,
            xi_Kp=(40.0,), xi_Kd=(13.0,))
        g1, g2 = np.meshgrid(np.linspace(-0.6, 1.25, self.GRID),
                             np.linspace(-0.8, 0.8, self.GRID))
        self.grid = np.column_stack([g1.ravel(), g2.ravel()])
        self.csv = OUT / "portrait_3r.csv"
        self.json = OUT / "portrait_3r.equilibria.json"
        self.failed = None

    def op(self):
        portrait = sim.zero_dynamics_portrait(
            self.system, self.path, self.gains, self.grid, limits=self.limits,
            eta1_ref=np.pi * self.RADIUS, sim_duration=self.FLOW_S)
        sim.portrait_to_files(portrait, str(self.csv), str(self.json))
        self.failed = portrait.failed

    def check(self, rng):
        with open(self.json) as f:
            summary = json.load(f)
        problems = checks.portrait(summary["equilibria"], self.grid, self.failed,
                                   self.RADIUS)
        if summary["failed_grid_points"] != int(np.sum(self.failed)):
            problems.append("equilibria file and portrait disagree on failures")
        return problems, digest(self.csv, self.json)


WORKLOADS = {
    "fig8_3r": Fig8,
    "twisted_4dof": Twisted,
    "two_mass_line": TwoMass,
    "portrait_3r": Portrait,
}


def setup(name):
    OUT.mkdir(exist_ok=True)
    return WORKLOADS[name]()
