"""Closed-loop simulation, scenario plumbing, and zero-dynamics analysis.

The control input is held over each 20 ms (default) period while the
plant integrates with a fixed-step classical Runge-Kutta scheme at a
finer substep.  One substep is written once as list arithmetic,
``_rk4_code``, and runs as straight-line float code recorded for the
plant's N; each of its four stages is one call of ``acceleration``, the
plant's generated forces and solve.  One loop, ``_simulate``, runs every
period on q and qd as float lists: measurement, ``control.step``, the
RK4 hold and the clock.  ``run`` checks the initial ``State`` and drives
it once per scenario, appending each period's row to one float table
whose layout ``_log_columns`` states once; ``write_table`` writes every
CSV the package writes, np.savetxt's bytes, 256 rows at a time.  The
zero-dynamics portrait drives it once per initial condition from states
constructed on the path-following manifold, so the redundant flow
reflects the pipeline rather than a symbolic reduction.  Those states
come from the inverse kinematics of the unit-link planar 3R arm,
``ik_planar3r``, so the analysis takes that plant only (N = 3, p = 2,
Z = [[1, 1, 1]]) and rejects any other up front.  Its equilibrium search
reads the flow through one reader, ``_rate``: the zeta_2 rate, NaN where
the field raises (a root's bisection then reads it at the feasible end
of that stretch).  ``Scenario.from_dict`` reads a scenario file:
``from_json`` checks it, its sections and its path spec.
"""

import json
import math
from array import array
from contextlib import nullcontext
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from . import codegen, control, curves, dynamics, frames, projection
from .dynamics import Limits, State
from .errors import (DivergenceError, ParameterError, SingularManifoldError,
                     SplineFollowError, from_json, integer, reals)

DIVERGENCE_BOUND = 1e6
SUMMARY_TAIL = 0.25   # the share of a run's last periods its summary's tail covers

# zero-dynamics portrait: control period (flows and field), redundancy
# resolution and RK4 substeps of the flows, and the equilibrium search's
# tolerance and merge radius; the flows project with the default
# ProjectionConfig, whose bounds are fractions of the circle's width
PORTRAIT_DT = 0.02
PORTRAIT_REDUNDANCY = control.RedundancyConfig()
PORTRAIT_SUBSTEPS = 2
EQUILIBRIUM_TOL = 1e-6
CLUSTER_RADIUS = 1e-3


# --- scenario ----------------------------------------------------------------


_ANALYTIC_PATHS = {
    "circle": curves.circle_path,
    "ellipse": curves.ellipse_path,
    "line": curves.line_path,
    "helix": curves.helix_path,
}


def _analytic_path(analytic, params={}):   # params is read, not changed
    if not (isinstance(analytic, str) and analytic in _ANALYTIC_PATHS):
        raise ParameterError(f"unknown analytic path {analytic!r}")
    return from_json(f"{analytic} params", _ANALYTIC_PATHS[analytic], params)


def _path_file(file):
    if not isinstance(file, str):
        raise ParameterError(f"path 'file' must be a file name; got {file!r}")
    with open(file) as f:
        return curves.SplinePath.from_dict(json.load(f))


def _build_path(spec):
    """Path from a scenario path spec: the builder of the first of the
    kinds waypoints, analytic, file and segments that it holds, called
    with its keys."""
    if not isinstance(spec, dict):
        raise ParameterError(f"path spec must be a JSON object; got {spec!r}")
    for kind, build in (("waypoints", curves.fit_spline), ("analytic", _analytic_path),
                        ("file", _path_file), ("segments", curves.SplinePath.from_segments)):
        if kind in spec:
            return from_json("path", build, spec)
    raise ParameterError("path spec needs waypoints, analytic, file or segments")


@dataclass(eq=False)   # == is identity: q0, qd0 and the limits hold arrays
class Scenario:
    """Everything needed to reproduce one closed-loop run."""

    plant: str
    path_spec: dict
    q0: np.ndarray
    qd0: np.ndarray
    gains: control.OuterLoopGains = field(default_factory=control.OuterLoopGains)
    duration: float = 10.0
    dt: float = 0.02
    substeps: int = 10
    plant_kwargs: dict = field(default_factory=dict)
    redundancy: control.RedundancyConfig = field(
        default_factory=control.RedundancyConfig
    )
    limits: Limits | None = None
    encoder_resolution: np.ndarray | None = None  # per-joint quantization
    frame_mode: str = "frenet_serret"
    frame_fixed: tuple = ()
    name: str = "scenario"

    def __post_init__(self):
        self.duration, self.dt = (float(reals(key, getattr(self, key)))
                                  for key in ("duration", "dt"))
        self.q0, self.qd0 = (reals(key, getattr(self, key), (None,))
                             for key in ("q0", "qd0"))
        if self.encoder_resolution is not None:
            self.encoder_resolution = reals("encoder_resolution",
                                            self.encoder_resolution, (None,))
        if not isinstance(self.frame_fixed, (list, tuple)):
            raise ParameterError(f"frame_fixed must be a list; got {self.frame_fixed!r}")
        self.frame_fixed = tuple(self.frame_fixed)
        self.substeps = integer("substeps", self.substeps, 1)
        _periods(self.duration, self.dt)
        if not isinstance(self.plant_kwargs, dict):
            raise ParameterError(
                f"plant_kwargs must be a JSON object; got {self.plant_kwargs!r}")

    @property
    def frame_policy(self):
        return frames.FramePolicy(
            mode=self.frame_mode, fixed_vectors=self.frame_fixed
        )

    @classmethod
    def from_dict(cls, d):
        """Scenario from its JSON form, checked by ``from_json``: the key
        ``path`` gives ``path_spec``, and ``gains``, ``redundancy`` and
        ``limits`` are JSON objects of their classes' arguments."""
        sections = {key: partial(from_json, key, build) for key, build in (
            ("gains", control.OuterLoopGains), ("redundancy", control.RedundancyConfig),
            ("limits", Limits))}
        return from_json("scenario", cls, d, {"path_spec": "path"}, **sections)

    @classmethod
    def from_file(cls, filename):
        with open(filename) as f:
            return cls.from_dict(json.load(f))


# --- run log -----------------------------------------------------------------


def _log_columns(N, p):
    """The run log's layout for a plant's N and p: each RunLog field's CSV
    column names in row order, nested as the field is in one row, and the
    field's dtype."""
    return {"t": ("t", float),
            "q": ([f"q{i}" for i in range(N)], float),
            "qd": ([f"qd{i}" for i in range(N)], float),
            "u": ([f"u{i}" for i in range(N)], float),
            "eta": (["eta1", "eta2"], float),
            "xi": ([[f"xi{r}_{j}" for j in range(p - 1)] for r in (1, 2)], float),
            "zeta": ([f"zeta{i}" for i in range(2 * N - 2 * p)], float),
            "k_star": ("k_star", np.int64), "lambda_star": ("lambda_star", float),
            "iterations": ("iterations", np.int64), "saturated": ("saturated", bool)}


def write_table(out, table, header):
    """The rows of ``table`` as CSV under the ``header`` line, to a file name
    or an open text file: ``np.savetxt(fmt="%.17g")``'s bytes, 256 rows a write."""
    line = ",".join(["%.17g"] * np.shape(table)[1]) + "\n"
    with nullcontext(out) if hasattr(out, "write") else open(out, "w") as f:
        f.write(header + "\n")
        for i in range(0, len(table), 256):
            f.write("".join([line % tuple(r) for r in np.asarray(table[i:i + 256]).tolist()]))


@dataclass(eq=False)   # == is identity: the table is an array
class RunLog:
    """Uniform-grid time series of one simulation: ``table`` holds one float
    row per control period, its columns named by ``columns`` in the order of
    the ``_log_columns`` layout.  Each field of the layout holds its columns
    shaped (steps, *its row's shape) in its dtype: a view when float."""

    scenario_name: str
    table: np.ndarray
    layout: dict

    def __post_init__(self):
        self.columns = []
        for key, (names, dtype) in self.layout.items():
            start = len(self.columns)
            self.columns += np.ravel(names).tolist()
            view = self.table[:, start:len(self.columns)].reshape(
                len(self.table), *np.shape(names))
            setattr(self, key, view.astype(dtype, copy=False))

    def summary(self, limits=None):
        """Scalar health indicators of the run."""
        n_tail = max(int(len(self.t) * SUMMARY_TAIL), 1)
        xi1 = self.xi[:, 0, :] if self.xi.shape[2] else np.zeros((len(self.t), 1))
        out = {
            "max_xi1_norm": float(np.max(np.linalg.norm(xi1, axis=1))),
            "tail_xi1_norm": float(
                np.max(np.linalg.norm(xi1[-n_tail:], axis=1))
            ),
            "tail_eta2_mean": float(np.mean(self.eta[-n_tail:, 1])),
            "max_zeta_norm": float(np.max(np.linalg.norm(self.zeta, axis=1))),
            "saturation_steps": int(np.sum(self.saturated)),
            "final_zeta": self.zeta[-1].tolist(),
        }
        if limits is not None:
            viol = np.sum(
                (self.q < limits.q_min - 1e-12) | (self.q > limits.q_max + 1e-12)
            )
            out["joint_limit_violations"] = int(viol)
        return out

    def to_csv(self, filename):
        write_table(filename, self.table, ",".join(self.columns))


# --- measurement model -------------------------------------------------------


class _Measurement:
    """Optionally quantized state feedback with first-difference velocity;
    round(x, 0), unlike round(x), keeps a zero's sign, as np.round does."""

    def __init__(self, resolution, dt):
        self.resolution = None if resolution is None else list(map(float, resolution))
        self.dt = dt
        self._prev_q = None

    def observe(self, q, qd):
        if self.resolution is None:
            return q, qd
        q = [round(x / r, 0) * r for x, r in zip(q, self.resolution)]
        if self._prev_q is None:
            qd = [0.0] * len(q)
        else:
            qd = [(x - x0) / self.dt for x, x0 in zip(q, self._prev_q)]
        self._prev_q = q
        return q, qd


# --- simulation --------------------------------------------------------------


def _rk4_code(N):
    """Source of ``f(acceleration, system, q, qd, u, h, half, sixth)``:
    one RK4 substep.

    The four stages call ``acceleration(system, q, qd, u)``, and the
    updates of q and qd run as straight-line float code for the plant's
    N.  Returns the new q and qd as lists.
    """
    code = codegen.Recorder()
    q, qd = code.unpack("q", (N,)), code.unpack("qd", (N,))
    h, half, sixth = (codegen.Var(code, x) for x in ("h", "half", "sixth"))

    def acceleration(stage, q, qd):
        args = ", ".join(codegen.render(x, format) for x in (q, qd))
        return code.unpack(f"acceleration(system, {args}, u)", (N,),
                           f"a{stage}")

    a1 = acceleration(1, q, qd)
    q2 = [x + half * v for x, v in zip(q, qd)]
    v2 = [v + half * a for v, a in zip(qd, a1)]
    a2 = acceleration(2, q2, v2)
    q3 = [x + half * v for x, v in zip(q, v2)]
    v3 = [v + half * a for v, a in zip(qd, a2)]
    a3 = acceleration(3, q3, v3)
    q4 = [x + h * v for x, v in zip(q, v3)]
    v4 = [v + h * a for v, a in zip(qd, a3)]
    a4 = acceleration(4, q4, v4)
    q = [x + sixth * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
         for x, k1, k2, k3, k4 in zip(q, qd, v2, v3, v4)]
    qd = [v + sixth * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
          for v, k1, k2, k3, k4 in zip(qd, a1, a2, a3, a4)]
    return code.function("acceleration, system, q, qd, u, h, half, sixth", (q, qd))


def _rk4_hold(system, q, qd, u, h, substeps):
    """Integrate the plant over one control period with u held constant.

    Each substep is one call of the plant size's ``_rk4_code``, on lists
    of Python floats: q, qd and u in, the new (q, qd) out, its stages
    calling ``dynamics.acceleration`` as the module holds it.  A non-finite
    state, or one whose norm exceeds DIVERGENCE_BOUND at the end of the
    period, raises DivergenceError.
    """
    substep = codegen.kernel(_rk4_code, len(q))
    half, sixth = 0.5 * h, h / 6.0
    for _ in range(substeps):
        q, qd = substep(dynamics.acceleration, system, q, qd, u, h, half, sixth)
    if not math.hypot(*q, *qd) <= DIVERGENCE_BOUND:   # NaN fails too
        raise DivergenceError(f"state norm exceeded {DIVERGENCE_BOUND:g}")
    return q, qd


def _simulate(system, path, q, qd, gains, steps, dt, substeps, *,
              redundancy, limits, proj_cfg, policy=frames.FRENET,
              proj=None, resolution=None):
    """Run ``steps`` control periods; yield (t, q, qd, u, diag) for each.

    q and qd are the true state at the start of the period and ``u`` the
    input held over it, lists of floats.  The controller sees the state
    through the measurement model (quantized to ``resolution`` when
    given); the plant integrates the true state.  Without a projection
    state ``proj``, the closest point is found globally from the first
    measurement.  A library error raised during a control period carries
    that period's start time as ``time``.
    """
    meas = _Measurement(resolution, dt)
    q_meas, qd_meas = meas.observe(q, qd)
    if proj is None:
        proj = projection.global_initialize(path, system.h(q_meas), proj_cfg)
    integral = 0.0
    h = dt / substeps
    t = 0.0
    for _ in range(steps):
        try:
            u, integral, diag = control.step(
                system, path, q_meas, qd_meas, proj, integral, gains,
                redundancy=redundancy, limits=limits,
                proj_cfg=proj_cfg, policy=policy, dt=dt, t=t,
            )
            q_next, qd_next = _rk4_hold(system, q, qd, u, h, substeps)
        except SplineFollowError as exc:
            exc.time = t   # keeps the error's own fields (state, index)
            raise
        yield t, q, qd, u, diag
        proj, q, qd = diag.projection, q_next, qd_next
        q_meas, qd_meas = meas.observe(q, qd)
        t += dt


def _periods(duration, dt):
    """The number of periods dt in duration, rounded; ParameterError naming
    both unless dt > 0 and the number is finite and at least 1."""
    n = duration / dt if dt > 0 else math.nan
    if not (math.isfinite(n) and round(n) >= 1):
        raise ParameterError("dt must be > 0 and duration / dt finite and round to at "
                             f"least 1 period; got duration {duration!r}, dt {dt!r}")
    return round(n)


def _check_sizes(scenario, system, path, limits):
    """ParameterError unless the scenario's per-joint data and path fit the
    plant."""
    N = system.N
    vectors = {"q0": scenario.q0, "qd0": scenario.qd0}
    vectors.update((f"limits {name}", getattr(limits, name))
                   for name in ("q_min", "q_max", "u_min", "u_max"))
    enc = scenario.encoder_resolution
    if enc is not None:
        vectors["encoder_resolution"] = enc
    for name, x in vectors.items():
        if np.shape(x) != (N,):
            raise ParameterError(f"{name} must have {N} entries, one per joint "
                                 f"of plant {system.name!r}; got shape {np.shape(x)}")
    if enc is not None and not np.all(enc > 0.0):
        raise ParameterError("encoder_resolution entries must be finite and > 0")
    W = scenario.redundancy.W
    if W is not None and W.shape != (N, N):
        raise ParameterError(f"redundancy W must be {N} x {N} for plant "
                             f"{system.name!r}; got {W.shape[0]} x {W.shape[1]}")
    _check_outputs(system, path, scenario.gains, scenario.frame_policy)


def _check_outputs(system, path, gains, policy):
    """ParameterError unless the path's dimension, the frame policy and
    robust transversal gains fit the plant's p."""
    if path.output_dim != system.p:
        raise ParameterError(f"path dimension {path.output_dim} must equal the "
                             f"p = {system.p} of plant {system.name!r}")
    frames._completion(policy.mode, system.p, policy.fixed_vectors)
    m = system.p - 1   # transversal coordinates; none to act on when p = 1
    if (gains.transversal_mode == "robust" and m > 0
            and gains.robust_shape != (m, 2 * m)):
        raise ParameterError(f"robust gains K, K0 and K2 must be {m} x {2 * m} "
                             f"for plant {system.name!r} (p = {system.p}); got "
                             f"shape {gains.robust_shape}")


def run(scenario, path=None, system=None, proj_cfg=None):
    """Execute a scenario and return its RunLog.

    The controller sees the (optionally quantized) measured state; the
    plant always integrates the true state.  Per-joint sizes, a path
    dimension, a frame policy or robust gains that do not match the
    plant raise ParameterError before the first period.  Divergence (a
    non-finite state, or a state norm above 1e6) aborts.  A library error
    raised during a control period carries that period's start time as
    ``time``.
    """
    if system is None:
        system = dynamics.make_plant(scenario.plant, **scenario.plant_kwargs)
    if path is None:
        path = _build_path(scenario.path_spec)
    limits = scenario.limits or system.default_limits
    _check_sizes(scenario, system, path, limits)
    if proj_cfg is None:
        proj_cfg = projection.ProjectionConfig()
    start = State(q=scenario.q0, qd=scenario.qd0)

    layout = _log_columns(system.N, system.p)
    steps = _periods(scenario.duration, scenario.dt)
    rows = array("d")   # the log table, one row per period in layout order
    for t, q, qd, u, diag in _simulate(
            system, path, start.q.tolist(), start.qd.tolist(), scenario.gains,
            steps, scenario.dt, scenario.substeps, redundancy=scenario.redundancy,
            limits=limits, proj_cfg=proj_cfg, policy=scenario.frame_policy,
            resolution=scenario.encoder_resolution):
        ps, lin = diag.projection, diag.lin
        rows.extend((t, *q, *qd, *u, *lin.eta, *lin.xi[0], *lin.xi[1], *lin.zeta,
                     ps.k_star, ps.lambda_star, ps.last_iterations, diag.saturated))
    width = sum(np.size(names) for names, _ in layout.values())
    return RunLog(scenario.name, np.reshape(rows, (steps, width)), layout)


# --- planar 3R inverse kinematics on the zero-dynamics manifold --------------


def ik_planar3r(y, zeta1, elbow="up"):
    """Joint angles of the unit-link 3R arm: tip at y, tool angle zeta1."""
    y = np.asarray(y, dtype=float)
    w = y - np.array([np.cos(zeta1), np.sin(zeta1)])  # wrist center
    d2 = w @ w
    c2 = (d2 - 2.0) / 2.0
    if abs(c2) > 1.0:
        raise ParameterError(
            f"wrist target at distance {np.sqrt(d2):.3f} unreachable"
        )
    s2 = np.sqrt(max(1.0 - c2 * c2, 0.0))
    if elbow == "down":
        s2 = -s2
    q2 = np.arctan2(s2, c2)
    q1 = np.arctan2(w[1], w[0]) - np.arctan2(s2, 1.0 + c2)
    q3 = zeta1 - q1 - q2
    return np.array([q1, q2, q3])


def _check_planar3r(system):
    """ParameterError naming the plant unless ``ik_planar3r`` builds its
    manifold states: N = 3, p = 2 and Z = [[1, 1, 1]]."""
    if not (system.N == 3 and system.Z_rows == [[1.0, 1.0, 1.0]]):
        raise ParameterError(
            "the zero-dynamics analysis needs the planar 3R arm's manifold "
            f"(N = 3, p = 2, Z = [[1, 1, 1]]); plant {system.name!r} has "
            f"N = {system.N}, p = {system.p}, Z = {system.Z_rows}")


def zero_dynamics_state(system, path, zeta, eta1_ref=0.0):
    """State on the manifold eta = (eta1_ref, 0), xi = 0, at the given zeta.

    The configuration comes from the arm's inverse kinematics (elbow up),
    so the plant must be the planar 3R arm (``_check_planar3r``); the
    velocity solves J qd = 0 (output at rest) together with the
    redundant rate Z qd = zeta_2.
    """
    _check_planar3r(system)
    ps = _point_on_path(path, eta1_ref)
    return State(*_manifold_state(system, path, ps, zeta)), ps


def _manifold_state(system, path, ps, zeta):
    """zero_dynamics_state's (q, qd) lists at an already located point ps."""
    y_ref = path.evaluate(ps.k_star, ps.lambda_star, 0)
    q = ik_planar3r(y_ref, zeta[0])
    A = np.vstack([system.J(q), system.Z])
    try:
        qd = np.linalg.solve(A, np.array([0.0] * system.p + [zeta[1]]))
    except np.linalg.LinAlgError:
        raise SingularManifoldError(
            f"[J; Z] is singular at zeta = ({zeta[0]!r}, {zeta[1]!r})",
            zeta=(float(zeta[0]), float(zeta[1]))) from None
    return q.tolist(), qd.tolist()


def _point_on_path(path, eta1_ref):
    """Projection state whose arclength coordinate equals eta1_ref."""
    offs = path.arclength_offsets
    k = int(np.searchsorted(offs, eta1_ref, side="right") - 1)
    k = min(max(k, 0), path.n_segments - 1)
    lo, hi = path.segments[k].domain
    target = eta1_ref - offs[k]
    if target <= 0.0:
        lam = lo
    elif target >= path.cumulative_arclength[k]:
        lam = hi
    else:
        lam = curves.bisect(lambda l: path.arclength(k, l) < target,
                            lo, hi, 1e-12)
    return projection.ProjectionState(k_star=k, lambda_star=float(lam))


@dataclass(eq=False)   # == is identity: the fields hold arrays
class PhasePortrait:
    """Zero-dynamics flows and classified equilibria."""

    grid: np.ndarray          # (n, 2) initial conditions
    flows: list               # per IC: (steps, 2) zeta trajectory or None
    failed: np.ndarray        # bool mask of controller failures
    equilibria: list          # dicts: zeta, eigenvalues, stable, boundary
    field: callable           # zeta -> (zeta2, zetadot2)


def _zero_dynamics_field(system, path, gains, limits, ps):
    """The redundant flow (zeta1., zeta2.) at the held path point ps: zeta2.
    is Z qdd, qdd from ``acceleration`` under ``control._period``'s u."""

    def field(zeta):
        q, qd = _manifold_state(system, path, ps, zeta)
        u = control._period(system, path, q, qd, ps, system.kinematics(q, qd), 0.0,
                            gains, PORTRAIT_REDUNDANCY, limits, frames.FRENET,
                            PORTRAIT_DT, 0.0)[1]
        qdd = dynamics.acceleration(system, q, qd, u)
        return np.array([zeta[1], frames.dot(system.Z_rows[0], qdd)])

    return field


def zero_dynamics_portrait(system, path, gains, grid, limits=None,
                           eta1_ref=0.0, sim_duration=5.0):
    """Phase portrait of the redundant dynamics while a path point is held.

    The plant must be the unit-link planar 3R arm (N = 3, p = 2,
    Z = [[1, 1, 1]]), whose manifold states ``ik_planar3r`` builds.  Each
    grid point seeds a full closed-loop simulation, ``sim_duration`` long,
    whose zeta trace is recorded; grid points where the controller fails
    (singular decoupling, unreachable kinematics) are marked, not fatal.
    Equilibria are the roots of the flow's zeta_2 rate along zeta_2 = 0
    and the edges of its feasible zeta_1 interval toward which it decays;
    one reader, ``_rate``, evaluates the rate for the search and for the
    finite-difference linearization that classifies them.
    ParameterError, before the first flow or field evaluation, unless
    ``sim_duration`` is finite and covers at least one period
    PORTRAIT_DT, the grid holds at least one point, the plant is the 3R
    arm, the path and robust gains fit its p, and the grid's entries are
    finite and its zeta_1 values span an interval to search.
    """
    steps = _periods(sim_duration, PORTRAIT_DT)
    grid = np.asarray(grid, dtype=float).reshape(-1, 2)
    if not len(grid):
        raise ParameterError("the portrait grid must hold at least one point")
    _check_planar3r(system)
    _check_outputs(system, path, gains, frames.FRENET)
    if not (np.isfinite(grid).all() and len(np.unique(grid[:, 0])) >= 2):
        raise ParameterError("the portrait grid needs finite entries and at least "
                             "two distinct zeta_1 values")
    if limits is None:
        limits = system.default_limits
    ps0 = _point_on_path(path, eta1_ref)
    field = _zero_dynamics_field(system, path, gains, limits, ps0)

    flows = []
    failed = np.zeros(len(grid), dtype=bool)
    for i, z0 in enumerate(grid):
        try:
            periods = _simulate(
                system, path, *_manifold_state(system, path, ps0, z0), gains,
                steps, PORTRAIT_DT, PORTRAIT_SUBSTEPS,
                redundancy=PORTRAIT_REDUNDANCY, limits=limits,
                proj_cfg=projection.ProjectionConfig(), proj=ps0)
            flows.append(np.reshape([diag.lin.zeta for *_, diag in periods], (-1, 2)))
        except SplineFollowError:
            flows.append(None)
            failed[i] = True

    equilibria = _find_equilibria(field, grid)
    return PhasePortrait(grid=grid, flows=flows, failed=failed,
                         equilibria=equilibria, field=field)


def _rate(field, z1, z2=0.0):
    """The flow's zeta_2 rate at (z1, z2), or NaN where the field raises."""
    try:
        return field(np.array([z1, z2]))[1]
    except SplineFollowError:
        return np.nan


def _find_equilibria(field, grid):
    """Root-find the flow along zeta_2 = 0 over the grid's zeta_1 span, then
    classify.

    Interior equilibria come from sign changes of the rate on a 400-point
    scan.  Where the scan's feasible zeta_1 interval ends inside the scan
    (or just past its ends) the flow can vanish in the limit (the
    manifold's singular configurations); such an edge is an equilibrium,
    reported at the bisected boundary itself, if |flow| decays toward it.
    """
    lo, hi = grid[:, 0].min(), grid[:, 0].max()
    span = hi - lo
    scan = np.linspace(lo, hi, 400)
    g = np.array([_rate(field, z1) for z1 in scan])

    # whether the rate at z has g0's sign; where the field raises at z, the
    # rate at the z0 end of the stretch where it raises stands in for it
    def on_side(z0, g0, z):
        g = _rate(field, z)
        if np.isnan(g):
            g = _rate(field, curves.bisect(lambda x: not np.isnan(_rate(field, x)),
                                           z0, z, 0.0))
        return (g > 0.0) == (g0 > 0.0)

    roots = []   # in scan order
    for i in range(len(scan) - 1):
        a, b = g[i], g[i + 1]
        if np.isnan(a) or np.isnan(b):
            continue
        if a == 0.0:
            roots.append(scan[i])
        elif a * b < 0.0:
            roots.append(curves.bisect(partial(on_side, scan[i], a),
                                       scan[i], scan[i + 1], 1e-12))
    merged = []
    for rt in roots:
        if not merged or rt - merged[-1] > CLUSTER_RADIUS:
            merged.append(rt)
    equilibria = [_classify(field, z1) for z1 in merged
                  if abs(_rate(field, z1)) <= EQUILIBRIUM_TOL]

    feasible = np.flatnonzero(~np.isnan(g))
    for edge, sign in ((feasible[0], -1), (feasible[-1], 1)) if len(feasible) else ():
        a = scan[edge]
        if 0 <= edge + sign < len(scan):   # the next scan point is infeasible
            b = a + sign * (scan[1] - scan[0])
        else:   # feasible to the scan's end: probe just past it
            b = a + sign * 1e-3 * span
            if not np.isnan(_rate(field, b)):
                continue
        zb = curves.bisect(lambda z: not np.isnan(_rate(field, z)), a, b, 0.0)
        # a limit equilibrium needs the flow to decay toward the boundary
        probes = [abs(_rate(field, zb - sign * d * span)) for d in (1e-3, 1e-5, 1e-7)]
        if (np.isnan(probes).any() or not probes[2] < probes[0]
                or probes[2] > 0.05 * (1.0 + probes[0])):
            continue
        eq = _classify(field, zb, side=-sign)
        if all(abs(zb - e["zeta"][0]) > CLUSTER_RADIUS for e in equilibria):
            equilibria.append(eq)
    equilibria.sort(key=lambda e: e["zeta"][0])
    return equilibria


def _classify(field, z1, side=0):
    """Stability of the equilibrium (z1, 0) from the eigenvalues of the
    flow's finite-difference linearization.

    Its first row is (0, 1), as zeta_1' = zeta_2.  Its second row holds
    the rate's central differences, each one-sided from the centre where
    one side raises.  At a feasibility-boundary equilibrium (``side``
    points into the feasible interval) the flow is taken as zero, its
    limit, so the zeta_1 difference uses only the sample h inside, which
    is the zeta_2 difference's centre.
    """
    h = 1e-5
    z = np.array([z1 + side * h, 0.0])
    if side:
        slope1 = field(z)[1] / (side * h)
    else:
        slope1 = _slope(field, z, np.array([h, 0.0]), h)
    slope2 = _slope(field, z, np.array([0.0, h]), h)
    eig = np.linalg.eigvals([[0.0, 1.0], [slope1, slope2]])
    return {"zeta": np.array([z1, 0.0]), "eigenvalues": eig,
            "stable": bool(np.all(eig.real < -1e-9)), "boundary": side != 0}


def _slope(field, z, dz, h):
    """The rate's central difference at z along dz, of length h; one-sided
    from the centre where one side raises.  Raises where the centre, or
    both sides, raise."""
    up, down = _rate(field, *(z + dz)), _rate(field, *(z - dz))
    if not (np.isnan(up) or np.isnan(down)):
        return (up - down) / (2.0 * h)
    centre = field(z)[1]
    if not np.isnan(up):
        return (up - centre) / h
    return (centre - field(z - dz)[1]) / h   # evaluated again: raises if down did


def portrait_to_files(portrait, csv_file, json_file):
    """CSV of flows plus a JSON equilibria summary."""
    rows = [[i, step, *zeta] for i, trace in enumerate(portrait.flows)
            if trace is not None for step, zeta in enumerate(trace.tolist())]
    write_table(csv_file, np.reshape(rows, (-1, 4)), "ic_index,step,zeta1,zeta2")
    summary = {
        "equilibria": [
            {
                "zeta": e["zeta"].tolist(),
                "eigenvalues_real": e["eigenvalues"].real.tolist(),
                "eigenvalues_imag": e["eigenvalues"].imag.tolist(),
                "stable": e["stable"],
            }
            for e in portrait.equilibria
        ],
        "failed_grid_points": int(portrait.failed.sum()),
        "grid_points": len(portrait.grid),
    }
    with open(json_file, "w") as f:
        json.dump(summary, f, indent=2)
