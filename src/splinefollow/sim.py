"""Closed-loop simulation, scenario plumbing, and zero-dynamics analysis.

The control input is held over each 20 ms (default) period while the
plant integrates with a fixed-step classical Runge-Kutta scheme at a
finer substep.  One loop, ``_simulate``, runs every control period:
measurement, ``control.step``, the RK4 hold and the clock.  ``run``
drives it once per scenario and logs every period; the zero-dynamics
portrait drives it once per initial condition from states constructed
on the path-following manifold, so the redundant flow reflects the
actual pipeline rather than a symbolic reduction.
"""

import json
import math
from dataclasses import MISSING, dataclass, field, fields

import numpy as np

from . import control, curves, dynamics, frames, projection, transform
from .dynamics import Limits, State
from .errors import DivergenceError, ParameterError, SplineFollowError

DIVERGENCE_BOUND = 1e6
FMT = "%.17g"

# zero-dynamics portrait: control period (flows and field), redundancy
# resolution, RK4 substeps and projection settings of the flows, and the
# equilibrium search's tolerance and merge radius
PORTRAIT_DT = 0.02
PORTRAIT_REDUNDANCY = control.RedundancyConfig()
PORTRAIT_SUBSTEPS = 2
# flows start on the manifold, so a loose descent tolerance suffices
PORTRAIT_PROJECTION = projection.ProjectionConfig(eps=1e-6, alpha0=1e-3)
EQUILIBRIUM_TOL = 1e-6
CLUSTER_RADIUS = 1e-3


# --- scenario ----------------------------------------------------------------


_ANALYTIC_PATHS = {
    "circle": curves.circle_path,
    "ellipse": curves.ellipse_path,
    "line": curves.line_path,
    "helix": curves.helix_path,
}


def _build_path(spec):
    """Path from a scenario path spec (waypoints, analytic, or file)."""
    if "waypoints" in spec:
        return curves.fit_spline(
            np.asarray(spec["waypoints"], dtype=float),
            closed=bool(spec.get("closed", False)),
            smoothness_order=int(spec.get("smoothness_order", 4)),
        )
    if "analytic" in spec:
        kind = spec["analytic"]
        if kind not in _ANALYTIC_PATHS:
            raise ParameterError(f"unknown analytic path {kind!r}")
        return _ANALYTIC_PATHS[kind](**spec.get("params", {}))
    if "file" in spec:
        with open(spec["file"]) as f:
            return curves.SplinePath.from_dict(json.load(f))
    if "segments" in spec:
        return curves.SplinePath.from_dict(spec)
    raise ParameterError("path spec needs waypoints, analytic, file or segments")


@dataclass
class Scenario:
    """Everything needed to reproduce one closed-loop run."""

    plant: str
    path_spec: dict
    q0: np.ndarray
    qd0: np.ndarray
    gains: control.OuterLoopGains
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
        if not (0.0 < self.dt < math.inf and 0.0 < self.duration < math.inf
                and self.substeps >= 1):
            raise ParameterError(
                "need finite dt > 0 and duration > 0, substeps >= 1")
        if round(self.duration / self.dt) < 1:
            raise ParameterError("duration must cover at least one period dt")
        self.q0 = np.asarray(self.q0, dtype=float)
        self.qd0 = np.asarray(self.qd0, dtype=float)

    @property
    def frame_policy(self):
        return frames.FramePolicy(
            mode=self.frame_mode, fixed_vectors=self.frame_fixed
        )

    @classmethod
    def from_dict(cls, d):
        """Scenario from its JSON form, whose ``path`` is ``path_spec``.

        A key left out takes the dataclass default.  A missing required
        key, or a key that names no field at the top level or in
        ``gains``, ``redundancy`` or ``limits``, raises ParameterError.
        """
        names = {f.name: f for f in fields(cls)}
        names["path"] = names.pop("path_spec")
        kw = _known_keys("scenario", d, names)
        missing = [n for n, f in names.items() if n not in kw and n != "gains"
                   and f.default is MISSING and f.default_factory is MISSING]
        if missing:
            raise ParameterError(f"missing scenario key(s) {', '.join(missing)}")
        kw["path_spec"] = kw.pop("path")
        kw["gains"] = control.OuterLoopGains(**{
            k: tuple(map(tuple, v)) if isinstance(v, list)
            and v and isinstance(v[0], list) else tuple(v)
            if isinstance(v, list) else v
            for k, v in _known_keys("gains", kw.get("gains", {}),
                                    control.OuterLoopGains).items()
        })
        if "redundancy" in kw:
            kw["redundancy"] = control.RedundancyConfig(
                **_known_keys("redundancy", kw["redundancy"],
                              control.RedundancyConfig))
        if "limits" in kw:
            kw["limits"] = Limits(**_known_keys("limits", kw["limits"], Limits))
        if "encoder_resolution" in kw:
            enc = kw["encoder_resolution"]
            kw["encoder_resolution"] = np.asarray(enc, float) if enc else None
        for key, kind in (("duration", float), ("dt", float), ("substeps", int),
                          ("frame_fixed", tuple)):
            if key in kw:
                kw[key] = kind(kw[key])
        return cls(**kw)

    @classmethod
    def from_file(cls, filename):
        with open(filename) as f:
            return cls.from_dict(json.load(f))


def _known_keys(where, d, known):
    """A copy of the dict d; ParameterError if a key is not in ``known``.

    ``known`` is a collection of names or a dataclass, whose init fields
    are the names.
    """
    if isinstance(known, type):
        known = [f.name for f in fields(known) if f.init]
    unknown = [k for k in d if k not in known]
    if unknown:
        unknown = ", ".join(map(repr, unknown))
        raise ParameterError(f"unknown {where} key(s) {unknown}; "
                             f"known: {', '.join(known)}")
    return dict(d)


# --- run log -----------------------------------------------------------------


@dataclass
class RunLog:
    """Uniform-grid time series of one simulation, one row per control step."""

    scenario_name: str
    t: np.ndarray
    q: np.ndarray
    qd: np.ndarray
    u: np.ndarray
    eta: np.ndarray           # (steps, 2)
    xi: np.ndarray            # (steps, 2, p-1)
    zeta: np.ndarray
    k_star: np.ndarray
    lambda_star: np.ndarray
    iterations: np.ndarray
    saturated: np.ndarray

    def summary(self, limits=None, tail_fraction=0.25):
        """Scalar health indicators of the run."""
        n_tail = max(int(len(self.t) * tail_fraction), 1)
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
        N = self.q.shape[1]
        p1 = self.xi.shape[2]
        cols = (
            ["t"]
            + [f"q{i}" for i in range(N)]
            + [f"qd{i}" for i in range(N)]
            + [f"u{i}" for i in range(N)]
            + ["eta1", "eta2"]
            + [f"xi1_{j}" for j in range(p1)]
            + [f"xi2_{j}" for j in range(p1)]
            + [f"zeta{i}" for i in range(self.zeta.shape[1])]
            + ["k_star", "lambda_star", "iterations", "saturated"]
        )
        data = np.column_stack(
            [
                self.t, self.q, self.qd, self.u, self.eta,
                self.xi[:, 0, :], self.xi[:, 1, :], self.zeta,
                self.k_star, self.lambda_star, self.iterations,
                self.saturated.astype(float),
            ]
        )
        np.savetxt(filename, data, fmt=FMT, delimiter=",",
                   header=",".join(cols), comments="")


# --- measurement model -------------------------------------------------------


class _Measurement:
    """Optionally quantized state feedback with first-difference velocity."""

    def __init__(self, resolution, dt):
        self.resolution = resolution
        self.dt = dt
        self._prev_q = None

    def observe(self, state):
        if self.resolution is None:
            return state
        q = np.round(state.q / self.resolution) * self.resolution
        if self._prev_q is None:
            qd = np.zeros_like(q)
        else:
            qd = (q - self._prev_q) / self.dt
        self._prev_q = q
        return State(q=q, qd=qd)


# --- simulation --------------------------------------------------------------


def _rk4_hold(system, state, u, h, substeps):
    """Integrate the plant over one control period with u held constant.

    The stages run on lists of Python floats, converted from and to a
    State once per period.  A non-finite state, or one whose norm
    exceeds DIVERGENCE_BOUND at the end of the period, raises
    DivergenceError.
    """
    q, qd = state.q.tolist(), state.qd.tolist()
    u = np.asarray(u, dtype=float).tolist()
    half, sixth = 0.5 * h, h / 6.0
    for _ in range(substeps):
        a1 = dynamics.acceleration(system, q, qd, u)
        q2 = [x + half * v for x, v in zip(q, qd)]
        v2 = [v + half * a for v, a in zip(qd, a1)]
        a2 = dynamics.acceleration(system, q2, v2, u)
        q3 = [x + half * v for x, v in zip(q, v2)]
        v3 = [v + half * a for v, a in zip(qd, a2)]
        a3 = dynamics.acceleration(system, q3, v3, u)
        q4 = [x + h * v for x, v in zip(q, v3)]
        v4 = [v + h * a for v, a in zip(qd, a3)]
        a4 = dynamics.acceleration(system, q4, v4, u)
        q = [x + sixth * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
             for x, k1, k2, k3, k4 in zip(q, qd, v2, v3, v4)]
        qd = [v + sixth * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
              for v, k1, k2, k3, k4 in zip(qd, a1, a2, a3, a4)]
    if not math.hypot(*q, *qd) <= DIVERGENCE_BOUND:
        raise DivergenceError(f"state norm exceeded {DIVERGENCE_BOUND:g}")
    return State(q=q, qd=qd)


def _simulate(system, path, state, gains, steps, dt, substeps, *,
              redundancy, limits, proj_cfg, policy=frames.FRENET,
              proj=None, resolution=None):
    """Run ``steps`` control periods; yield (t, state, u, diag) for each.

    ``state`` is the true state at the start of the period and ``u`` the
    input held over it.  The controller sees the state through the
    measurement model (quantized to ``resolution`` when given); the plant
    integrates the true state.  Without a projection state ``proj``, the
    closest point is found globally from the first measurement.  A
    library error raised during a control period carries that period's
    start time as ``time``.
    """
    meas = _Measurement(resolution, dt)
    observed = meas.observe(state)
    if proj is None:
        proj = projection.global_initialize(path, system.h(observed.q), proj_cfg)
    ctrl = control.ControllerState()
    h = dt / substeps
    t = 0.0
    for _ in range(steps):
        try:
            u, proj, ctrl, diag = control.step(
                system, path, observed, proj, ctrl, gains,
                redundancy=redundancy, limits=limits,
                proj_cfg=proj_cfg, policy=policy, dt=dt, t=t,
            )
            new_state = _rk4_hold(system, state, u, h, substeps)
        except SplineFollowError as exc:
            exc.time = t   # keeps the error's own fields (state, index)
            raise
        yield t, state, u, diag
        state = new_state
        observed = meas.observe(state)
        t += dt


def _check_sizes(scenario, system, limits):
    """ParameterError unless the scenario's per-joint data fit the plant."""
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
    if enc is not None and not all(math.isfinite(x) and x > 0.0
                                   for x in np.asarray(enc, dtype=float).tolist()):
        raise ParameterError("encoder_resolution entries must be finite and > 0")
    W = scenario.redundancy.W
    if W is not None and W.shape != (N, N):
        raise ParameterError(f"redundancy W must be {N} x {N} for plant "
                             f"{system.name!r}; got {W.shape[0]} x {W.shape[1]}")
    _check_gains(scenario.gains, system)


def _check_gains(gains, system):
    """ParameterError unless robust transversal gains fit the plant's p."""
    m = system.p - 1   # transversal coordinates; none to act on when p = 1
    if (gains.transversal_mode == "robust" and m > 0
            and gains.robust_shape != (m, 2 * m)):
        raise ParameterError(f"robust gains K, K0 and K2 must be {m} x {2 * m} "
                             f"for plant {system.name!r} (p = {system.p}); got "
                             f"shape {gains.robust_shape}")


def run(scenario, path=None, system=None, proj_cfg=None):
    """Execute a scenario and return its RunLog.

    The controller sees the (optionally quantized) measured state; the
    plant always integrates the true state.  Per-joint sizes or robust
    gains that do not match the plant raise ParameterError before the
    first period.  Divergence (a non-finite state, or a state norm above
    1e6) aborts.  A library error raised during a control period carries
    that period's start time as ``time``.
    """
    if system is None:
        system = dynamics.make_plant(scenario.plant, **scenario.plant_kwargs)
    if path is None:
        path = _build_path(scenario.path_spec)
    limits = scenario.limits or system.default_limits
    _check_sizes(scenario, system, limits)
    if proj_cfg is None:
        proj_cfg = projection.ProjectionConfig()

    rows = [(t, state.q, state.qd, u, diag.eta, diag.xi, diag.zeta, diag.k_star,
             diag.lambda_star, diag.iterations, diag.saturated)
            for t, state, u, diag in _simulate(
                system, path, State(q=scenario.q0, qd=scenario.qd0),
                scenario.gains, int(round(scenario.duration / scenario.dt)),
                scenario.dt, scenario.substeps, redundancy=scenario.redundancy,
                limits=limits, proj_cfg=proj_cfg, policy=scenario.frame_policy,
                resolution=scenario.encoder_resolution)]
    columns = ("t", "q", "qd", "u", "eta", "xi", "zeta",
               "k_star", "lambda_star", "iterations", "saturated")
    return RunLog(scenario_name=scenario.name,
                  **{key: np.asarray(col) for key, col in zip(columns, zip(*rows))})


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


def zero_dynamics_state(system, path, zeta, eta1_ref=0.0):
    """State on the manifold eta = (eta1_ref, 0), xi = 0, at the given zeta.

    The configuration comes from the arm's inverse kinematics (elbow up);
    the velocity solves J qd = 0 (output at rest) together with the
    redundant rate Z qd = zeta_2.
    """
    ps = _point_on_path(path, eta1_ref)
    return _manifold_state(system, path, ps, zeta), ps


def _manifold_state(system, path, ps, zeta):
    """zero_dynamics_state at an already located path point ps."""
    y_ref = path.evaluate(ps.k_star, ps.lambda_star, 0)
    q = ik_planar3r(y_ref, zeta[0])
    A = np.vstack([system.J(q), system.Z])
    qd = np.linalg.solve(A, np.array([0.0] * system.p + [zeta[1]]))
    return State(q=q, qd=qd)


def _point_on_path(path, eta1_ref):
    """Projection state whose arclength coordinate equals eta1_ref."""
    from scipy.optimize import brentq

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
        lam = brentq(lambda l: path.arclength(k, l) - target, lo, hi,
                     xtol=1e-12)
    return projection.ProjectionState(k_star=k, lambda_star=float(lam))


@dataclass
class PhasePortrait:
    """Zero-dynamics flows and classified equilibria."""

    grid: np.ndarray          # (n, 2) initial conditions
    flows: list               # per IC: (steps, 2) zeta trajectory or None
    failed: np.ndarray        # bool mask of controller failures
    equilibria: list          # dicts: zeta, eigenvalues, stable
    field: callable           # zeta -> (zeta2, zetadot2)


def _zero_dynamics_field(system, path, gains, limits, ps):
    """The redundant flow (zeta1., zeta2.) at the held path point ps."""

    def field(zeta):
        st = _manifold_state(system, path, ps, zeta)
        lin = transform.linearize(system, st, path, ps)
        u = control.command(lin, st.q, control.ControllerState(), gains,
                            PORTRAIT_REDUNDANCY, limits,
                            dt=PORTRAIT_DT, t=0.0)[0]
        return np.array([zeta[1], float(system.Z[0] @ (lin.f_v + lin.g_v @ u))])

    return field


def zero_dynamics_portrait(system, path, gains, grid, limits=None,
                           eta1_ref=0.0, sim_duration=5.0):
    """Phase portrait of the redundant dynamics while a path point is held.

    Each grid point seeds a full closed-loop simulation, ``sim_duration``
    long, whose zeta trace is recorded; grid points where the controller
    fails (singular decoupling, unreachable kinematics) are marked, not
    fatal; robust gains that do not fit the plant raise ParameterError
    first.  Equilibria are found by driving the flow-field norm to zero
    along zeta_2 = 0 and classified by finite-difference linearization.
    """
    _check_gains(gains, system)
    if limits is None:
        limits = system.default_limits
    grid = np.asarray(grid, dtype=float).reshape(-1, 2)
    ps0 = _point_on_path(path, eta1_ref)
    field = _zero_dynamics_field(system, path, gains, limits, ps0)

    flows = []
    failed = np.zeros(len(grid), dtype=bool)
    steps = int(round(sim_duration / PORTRAIT_DT))
    for i, z0 in enumerate(grid):
        try:
            periods = _simulate(
                system, path, _manifold_state(system, path, ps0, z0), gains,
                steps, PORTRAIT_DT, PORTRAIT_SUBSTEPS,
                redundancy=PORTRAIT_REDUNDANCY, limits=limits,
                proj_cfg=PORTRAIT_PROJECTION, proj=ps0)
            flows.append(np.reshape([diag.zeta for *_, diag in periods], (-1, 2)))
        except SplineFollowError:
            flows.append(None)
            failed[i] = True

    equilibria = _find_equilibria(field, grid)
    return PhasePortrait(grid=grid, flows=flows, failed=failed,
                         equilibria=equilibria, field=field)


def _try_field(field, z1):
    try:
        return field(np.array([z1, 0.0]))[1]
    except SplineFollowError:
        return np.nan


def _find_equilibria(field, grid):
    """Root-find the flow field along zeta_2 = 0, then classify.

    Interior equilibria come from sign changes of the flow.  At the edges
    of the kinematically feasible zeta_1 interval the flow can vanish in
    the limit (the manifold's singular configurations); those are
    detected by checking that |flow| decays toward the feasibility
    boundary and reported at the boundary itself.
    """
    from scipy.optimize import brentq

    z1_vals = np.unique(grid[:, 0])
    lo, hi = z1_vals.min(), z1_vals.max()
    span = hi - lo
    scan = np.linspace(lo, hi, 400)
    g = np.array([_try_field(field, z1) for z1 in scan])

    roots = []
    for i in range(len(scan) - 1):
        a, b = g[i], g[i + 1]
        if np.isnan(a) or np.isnan(b):
            continue
        if a == 0.0:
            roots.append(scan[i])
        elif a * b < 0.0:
            roots.append(
                brentq(lambda z: field(np.array([z, 0.0]))[1],
                       scan[i], scan[i + 1], xtol=1e-12)
            )

    # deduplicate interior roots
    roots = sorted(roots)
    merged = []
    for rt in roots:
        if not merged or abs(rt - merged[-1]) > CLUSTER_RADIUS:
            merged.append(rt)

    equilibria = []
    for z1 in merged:
        z = np.array([z1, 0.0])
        if np.linalg.norm(field(z)) > EQUILIBRIUM_TOL:
            continue
        equilibria.append(_classify(field, z, boundary=0))

    for eq in _boundary_equilibria(field, scan, g, span):
        if not any(abs(eq["zeta"][0] - e["zeta"][0]) <= CLUSTER_RADIUS
                   for e in equilibria):
            equilibria.append(eq)
    equilibria.sort(key=lambda e: e["zeta"][0])
    return equilibria


def _boundary_equilibria(field, scan, g, span):
    """Limit equilibria at the edges of the feasible zeta_1 interval."""
    feasible = ~np.isnan(g)
    if not feasible.any():
        return []
    out = []
    idx = np.flatnonzero(feasible)
    for edge, sign in ((idx[0], -1), (idx[-1], +1)):
        nbr = edge + sign
        if 0 <= nbr < len(scan) and feasible[nbr]:
            continue  # feasible through the grid edge: no boundary inside
        # bisect the feasibility boundary between scan[edge] and beyond
        a = scan[edge]
        b = a + sign * (scan[1] - scan[0]) if 0 <= nbr < len(scan) else a
        if a == b:
            # feasibility ends exactly at the grid edge; probe just outside
            b = a + sign * 1e-3 * span
            if not np.isnan(_try_field(field, b)):
                continue
        for _ in range(60):
            mid = 0.5 * (a + b)
            if np.isnan(_try_field(field, mid)):
                b = mid
            else:
                a = mid
        zb = a
        # the flow must decay toward the boundary for a limit equilibrium
        probes = [abs(_try_field(field, zb - sign * d * span))
                  for d in (1e-3, 1e-5, 1e-7)]
        if any(np.isnan(probes)) or not (probes[2] < probes[0]):
            continue
        if probes[2] > 0.05 * (1.0 + probes[0]):
            continue
        eq = _classify(field, np.array([zb, 0.0]), boundary=-sign)
        out.append(eq)
    return out


def _classify(field, z, boundary=0):
    """Stability via eigenvalues of the finite-difference linearization."""
    Jac = _field_jacobian(field, z, side=boundary)
    eig = np.linalg.eigvals(Jac)
    return {
        "zeta": z,
        "jacobian": Jac,
        "eigenvalues": eig,
        "stable": bool(np.all(eig.real < -1e-9)),
        "boundary": boundary != 0,
    }


def _field_jacobian(field, z, h=1e-5, side=0):
    """FD linearization; side != 0 forces one-sided steps in zeta_1.

    At a feasibility-boundary equilibrium the flow itself is taken as
    zero (its limit value), so the one-sided difference uses only the
    interior sample.
    """
    Jac = np.empty((2, 2))
    for j in range(2):
        dz = np.zeros(2)
        dz[j] = h
        if side != 0 and j == 0:
            fi = field(z + side * dz)
            Jac[:, j] = (fi - np.array([z[1], 0.0])) / (side * h)
            continue
        if side != 0:
            base = z + side * h * np.array([1.0, 0.0])
        else:
            base = z
        try:
            fp = field(base + dz)
            fm = field(base - dz)
            Jac[:, j] = (fp - fm) / (2.0 * h)
        except SplineFollowError:
            f0 = field(base)
            try:
                fp = field(base + dz)
                Jac[:, j] = (fp - f0) / h
            except SplineFollowError:
                fm = field(base - dz)
                Jac[:, j] = (f0 - fm) / h
    return Jac


def portrait_to_files(portrait, csv_file, json_file):
    """CSV of flows plus a JSON equilibria summary."""
    rows = []
    for i, trace in enumerate(portrait.flows):
        if trace is None:
            continue
        n = len(trace)
        rows.append(
            np.column_stack([np.full(n, i), np.arange(n), trace])
        )
    data = np.vstack(rows) if rows else np.empty((0, 4))
    np.savetxt(csv_file, data, fmt=FMT, delimiter=",",
               header="ic_index,step,zeta1,zeta2", comments="")
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
