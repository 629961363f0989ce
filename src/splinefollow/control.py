"""Outer-loop controllers and redundancy-resolving feedback transform.

The virtual input v = (v_eta, v_xi) commands the second derivatives of
the tangential and transversal coordinates.  The actuator command solves
the static weighted least-squares problem min (u - r)' W (u - r) subject
to beta u + alpha = v, whose closed form uses the W-weighted right
pseudoinverse of beta.  The null-space bias r steers the redundant
degrees of freedom away from joint limits.

``step`` is one period: the projection update, then one generated call
(``_period``) on q, qd and constants as Python floats.  Its builder,
``_period_code``, records the transform layer (``transform._transformed``,
its drift solve on J's p rows), the tangential PI or PD loop with its
anti-windup clamp (``_tangential``), the transversal law, PD or robust
(``transversal_v``), the joint-limit bias (``bias_r``, on the slopes
``Limits`` computes once), the resolution (``_resolved``: beta W^-1
beta', its conditioning, in closed form for p <= 2 and with one
symmetric eigenvalue call for p >= 3, and the plant layer's recorded
Cholesky solve) and the actuator clamp, one function per plant, p,
frame policy and controller modes, generated at first use.  The public pieces
``transversal_v``, ``bias_r`` and ``resolve_input`` run the same
arithmetic alone.  ``step`` returns the clamped u, the PI loop's
integral (a float the caller hands back next period) and a
StepDiagnostics that points to the period's ProjectionState and
LinearizationData and adds only v, the unclamped u and whether u was
clamped.
"""

from dataclasses import dataclass, field
from types import SimpleNamespace

import numpy as np

from . import codegen, curves, dynamics, frames, projection, transform
from .errors import ParameterError, positive, reals
from .frames import dot

CONDITION_LIMIT = 1e10


@dataclass(frozen=True, eq=False)   # == is identity: W is an array
class RedundancyConfig:
    """Weighting and bias selection for the input resolution; W as floats in W_rows."""

    W: np.ndarray | None = None          # SPD weight, defaults to identity
    bias_mode: str = "joint_limit"       # or "zero"
    W_rows: list | None = field(default=None, init=False, repr=False)

    def __post_init__(self):
        if self.bias_mode not in ("joint_limit", "zero"):
            raise ParameterError(f"unknown bias_mode {self.bias_mode!r}")
        if self.W is not None:
            W = reals("redundancy W", self.W, (None, None))
            if W.shape[0] != W.shape[1]:
                raise ParameterError("W must be square")
            # to W's own scale: the resolution reads only its lower triangle
            if not np.allclose(W, W.T, rtol=0.0, atol=1e-12 * np.abs(W).max(initial=0.0)):
                raise ParameterError("W must be symmetric")
            if np.any(np.linalg.eigvalsh(W) <= 0):
                raise ParameterError("W must be positive definite")
            object.__setattr__(self, "W", W)
            object.__setattr__(self, "W_rows", W.tolist())


def _tuples(x):
    return tuple(map(_tuples, x)) if isinstance(x, list) else x


@dataclass(frozen=True)
class OuterLoopGains:
    """Gains for the tangential and transversal outer loops.

    Tangential modes: ``velocity`` is a PI loop on eta_2 tracking
    eta2_ref; ``position`` is a PD loop regulating eta_1 to eta1_ref.
    Transversal modes: ``pd`` is componentwise -Kp xi_1 - Kd xi_2;
    ``robust`` applies the norm-switched law (K + K0) xi plus
    K1 xi/||xi|| outside the boundary layer mu and K2 ||xi|| xi inside.
    K1 = mu^2 K2 is enforced so the switch is continuous.  K, K0 and K2
    act on the interleaved (xi_1^1, xi_2^1, ...), so each is
    (p - 1) x 2(p - 1); ``robust_shape`` is their common shape.  In
    robust mode ``robust_matrices`` holds the rows of K + K0, K1 and K2
    as lists of floats, converted once at construction;
    ``eta2_ref_columns`` holds the table's times and speeds the same way.
    Every gain and reference is read by ``errors.reals`` as floats.
    """

    tangential_mode: str = "velocity"
    K_P: float = 1.0
    K_I: float = 0.0
    K_D: float = 0.0                     # position mode only
    eta2_ref: float = 0.0
    eta1_ref: float = 0.0
    eta2_ref_table: tuple = ()           # ((t, eta2_ref), ...) ramp profile
    integral_limit: float = 10.0

    transversal_mode: str = "pd"
    xi_Kp: tuple = (1.0,)
    xi_Kd: tuple = (1.0,)
    robust_K: tuple = ()
    robust_K0: tuple = ()
    robust_K2: float = 0.0
    robust_mu: float = 0.01
    robust_matrices: tuple = field(default=(), init=False, repr=False, compare=False)
    eta2_ref_columns: tuple = field(default=(), init=False, repr=False, compare=False)

    def __post_init__(self):
        for name in ("eta2_ref_table", "robust_K", "robust_K0", "robust_K2"):
            # JSON lists, nested or not, as tuples
            object.__setattr__(self, name, _tuples(getattr(self, name)))
        if self.tangential_mode not in ("velocity", "position"):
            raise ParameterError(f"bad tangential_mode {self.tangential_mode!r}")
        if self.transversal_mode not in ("pd", "robust"):
            raise ParameterError(f"bad transversal_mode {self.transversal_mode!r}")
        for name in ("K_P", "K_I", "K_D", "eta2_ref", "eta1_ref", "integral_limit"):
            object.__setattr__(self, name, float(reals(name, getattr(self, name))))
        for name in ("xi_Kp", "xi_Kd"):
            object.__setattr__(self, name, tuple(
                reals(name, getattr(self, name), (None,)).tolist()))
        if self.K_P < 0 or self.K_I < 0 or self.K_D < 0:
            raise ParameterError("tangential gains must be nonnegative")
        if self.integral_limit < 0:
            raise ParameterError("integral_limit must be nonnegative")
        if self.transversal_mode == "pd":
            for name in ("xi_Kp", "xi_Kd"):
                gains = getattr(self, name)
                if not gains or min(gains) <= 0:
                    raise ParameterError(
                        f"PD transversal gains {name} must be nonempty and positive")
        object.__setattr__(self, "robust_mu", positive("robust_mu", self.robust_mu))
        if self.transversal_mode == "robust":
            K, K0, K2 = (reals(f"robust gains {name}", getattr(self, name), (None, None))
                         for name in ("robust_K", "robust_K0", "robust_K2"))
            if not K.shape == K0.shape == K2.shape or not 0 < 2 * len(K) == K.shape[1]:
                raise ParameterError(
                    "robust gains K, K0 and K2 must each be (p - 1) x 2(p - 1); got "
                    f"shapes {K.shape}, {K0.shape} and {K2.shape}")
            # K1 = mu^2 K2: continuity of the switched term at ||xi|| = mu
            object.__setattr__(self, "robust_matrices", tuple(
                X.tolist() for X in (K + K0, self.robust_mu**2 * K2, K2)))
        if self.eta2_ref_table:
            table = reals("eta2_ref_table rows", self.eta2_ref_table, (None, 2))
            if not np.all(np.diff(table[:, 0]) > 0):
                raise ParameterError("eta2_ref_table rows must be (t, eta2_ref) pairs "
                                     "of finite numbers, t strictly increasing")
            object.__setattr__(self, "eta2_ref_columns", tuple(table.T.tolist()))

    @property
    def robust_shape(self):
        """Common (rows, columns) of the robust gains, in robust mode."""
        return len(self.robust_matrices[2]), len(self.robust_matrices[2][0])

    def eta2_reference(self, t):
        """Reference speed at time t (piecewise-linear table, else constant)."""
        if not self.eta2_ref_columns:
            return self.eta2_ref
        return curves.interp(*self.eta2_ref_columns, t)


def bias_r(x_c, limits):
    """Joint-limit avoidance bias: affine, u_max at q_min, u_min at q_max.

    Takes a sequence of floats and returns a list of floats.
    """
    q_min, _, _, u_max, slopes = limits.floats
    return [s * (x - lq) + hu for x, lq, hu, s in zip(x_c, q_min, u_max, slopes)]


def _resolved(code, alpha, beta, v, r, W=None):
    """Record resolve_input's u into ``code``; return it.

    The arguments are lists and rows of Vars or floats; without ``W`` the
    weight is the identity.  The messages report beta, rendered from its
    entries, and the argument ``W``.
    """
    p = len(beta)
    # rows of beta W^-1, that is columns of W^-1 beta'
    bw = (dynamics.cholesky_solve(code, W, beta, "weight matrix", "W")
          if W is not None else beta)
    M = [[dot(b, c) for c in bw] for b in beta]
    if p == 1:   # eigvalsh([[m]]) is [m]: |m| / |m|, or inf for m = 0
        cond = f"cond = 1.0 if {M[0][0]} != 0.0 else inf"
    elif p == 2:
        # M's lower triangle [[a, b], [b, c]], as eigvalsh reads it; M is
        # positive semidefinite, so lmax = (a + c)/2 + hypot((a - c)/2, b)
        # and lmax / |lmin| = 1 / |det(M / lmax)|, whose entries are at
        # most 1: their products neither overflow nor underflow
        (a, _), (b, c) = M
        cond = (f"lmax = ({a} + {c}) / 2.0 + hypot(({a} - {c}) / 2.0, {b})"
                f"\n    det = abs(({a} / lmax) * ({c} / lmax) - ({b} / lmax) * ({b} / lmax))"
                " if lmax > 0.0 else 0.0"
                "\n    cond = 1.0 / det if det > 0.0 else inf")
    else:
        cond = (f"eig = [abs(x) for x in eigvalsh({codegen.render(M, format)}).tolist()]"
                "\n    cond = max(eig) / min(eig) if min(eig) > 0.0 else inf")
    code.source("cond = nan\n"
                f"if all(map(isfinite, {codegen.render(sum(M, []), format)})):\n    {cond}")
    code.require(f"cond <= {CONDITION_LIMIT!r}", "NearSingularDecouplingError",
                 "decoupling matrix nearly singular "
                 "(cond(beta W^-1 beta') = {cond:.3e})", cond="cond")
    rhs = [vi - ai - dot(b, r) for vi, ai, b in zip(v, alpha, beta)]
    (w,) = dynamics.cholesky_solve(code, M, [rhs], "decoupling matrix beta W^-1 beta'",
                                   "beta", codegen.render(beta, format))
    return [ri + dot(col, w) for ri, col in zip(r, zip(*bw))]


def _resolve_code(p, N, weighted):
    """Source of ``f(alpha, beta, v, r, W)``, the input u of resolve_input;
    without ``weighted``, W is the identity and the argument is unused."""
    code = codegen.Recorder()
    alpha, v = code.unpack("alpha", (p,)), code.unpack("v", (p,))
    beta, r = code.unpack("beta", (p, N)), code.unpack("r", (N,))
    W = code.unpack("W", (N, N)) if weighted else None
    return code.function("alpha, beta, v, r, W", _resolved(code, alpha, beta, v, r, W))


def resolve_input(alpha, beta, v, r, W=None):
    """Closed-form constrained least squares: u = b+ (v - a) + (I - b+ b) r.

    b+ is the W-weighted right pseudoinverse W^-1 beta' M^-1 with
    M = beta W^-1 beta', so u = r + W^-1 beta' M^-1 (v - alpha - beta r).
    M is symmetric, so the absolute values of its eigenvalues are its
    singular values; NearSingularDecouplingError (with ``cond``) is raised
    when their ratio is above 1e10 (the transform is degenerating) or M is
    not finite.  beta has p rows of N, W N rows of N (else ParameterError);
    u is N floats.
    """
    p, N = len(beta), len(beta[0])
    _check_weight(N, None if W is None else len(W))
    return codegen.kernel(_resolve_code, p, N, W is not None)(alpha, beta, v, r, W)


def _check_weight(N, W_size):
    """ParameterError unless W, of ``W_size`` rows (None without W), is N x N."""
    if W_size not in (None, N):
        raise ParameterError(f"redundancy W must be {N} x {N}, one row per joint "
                             f"of the plant; got {W_size} x {W_size}")


def _tangential(eta, integral, gains, dt, ref):
    """Tangential virtual input and updated integral at reference speed
    ``ref``, on floats or recorded on Vars: a PI loop on eta_2 whose
    integral is clamped (anti-windup), or in position mode a PD loop on
    eta_1 that keeps the integral."""
    if gains.tangential_mode == "position":
        v = gains.K_P * (gains.eta1_ref - eta[0]) - gains.K_D * eta[1]
        return v, integral
    err = ref - eta[1]
    lim = gains.integral_limit
    integral = codegen.clamp(integral + dt * err, -lim, lim)
    return gains.K_P * err + gains.K_I * integral, integral


def transversal_v(xi, gains):
    """Transversal virtual input, a list, from the two lists (xi_1, xi_2)
    of p - 1 offsets and rates, on floats or recorded on Vars.

    The PD gains repeat cyclically over the p - 1 components.  The robust
    law sums its inner products left to right; its switch,
    ``codegen.at_least``, evaluates K1 xi / ||xi|| only where ||xi|| >= mu.
    """
    if gains.transversal_mode == "pd":
        Kp, Kd = gains.xi_Kp, gains.xi_Kd
        return [-Kp[i % len(Kp)] * x1 - Kd[i % len(Kd)] * x2
                for i, (x1, x2) in enumerate(zip(*xi))]
    z = [x for pair in zip(*xi) for x in pair]
    KK0, K1, K2 = gains.robust_matrices
    nz = codegen.sqrt(dot(z, z))
    switched = codegen.at_least(nz, gains.robust_mu,
                                lambda: [dot(row, z) / nz for row in K1],
                                lambda: [nz * dot(row, z) for row in K2])
    return [dot(row, z) + x for row, x in zip(KK0, switched)]


@dataclass(slots=True)
class StepDiagnostics:
    """One control period's records and what neither of them holds.

    ``projection`` is the period's closest point (k*, lambda*, its
    iterations), ``lin`` its coordinates eta, xi, zeta, drift alpha and
    decoupling beta; v and the unclamped u are lists of floats.
    """

    projection: projection.ProjectionState
    lin: transform.LinearizationData
    v: list
    u_unclamped: list
    saturated: bool


def _period_code(A, Bd, forces, p, mode, fixed_vectors, tangential_mode,
                 transversal_mode, bias_mode, W_size):
    """Source of ``f(rows, lam, kinematics, q, qd, Z, eta1, integral, ref,
    gains, limits, W, dt)``, returning ((eta, xi, zeta, alpha, beta), u,
    u_unclamped, v, new_integral); ``ref`` is the reference speed, the
    modes' gains are read from ``gains`` and W, of ``W_size`` rows, is the
    identity if that is None.  A W_size other than N raises ParameterError."""
    N, m = len(A), p - 1
    _check_weight(N, W_size)
    code = codegen.Recorder()
    q, (eta2, xi, zeta, alpha, beta) = transform._transformed(
        code, A, Bd, forces, p, mode, fixed_vectors)
    names = (("K_P", "K_D", "eta1_ref") if tangential_mode == "position"
             else ("K_P", "K_I", "integral_limit"))
    gains = SimpleNamespace(tangential_mode=tangential_mode,
                            transversal_mode=transversal_mode,
                            **{x: code.unpack(f"gains.{x}", (), x) for x in names})
    eta1, integral, ref, dt = (codegen.Var(code, x) for x in "eta1 integral ref dt".split())
    v_eta, integral = _tangential([eta1, eta2], integral, gains, dt, ref)
    if m and transversal_mode == "pd":
        gains.xi_Kp, gains.xi_Kd = (code.unpack(f"(gains.{x} * {m})[:{m}]", (m,), x)
                                    for x in ("xi_Kp", "xi_Kd"))
    elif m:
        gains.robust_matrices = code.unpack("gains.robust_matrices", (3, m, 2 * m), "K")
        gains.robust_mu = code.unpack("gains.robust_mu", (), "mu")
    v = [v_eta, *(transversal_v(xi, gains) if m else [])]
    limits = code.unpack("limits", (5, N))
    r = (bias_r(q, SimpleNamespace(floats=limits))
         if bias_mode == "joint_limit" else [0.0] * N)
    u = _resolved(code, alpha, beta, v, r,
                  code.unpack("W", (N, N)) if W_size else None)
    clamped = [codegen.clamp(x, lo, hi) for x, lo, hi in zip(u, *limits[2:4])]
    return code.function(
        "rows, lam, kinematics, q, qd, Z, eta1, integral, ref, gains, limits, W, dt",
        (([eta1, eta2], xi, zeta, alpha, beta), clamped, u, v, integral))


def _period(system, path, q, qd, proj_state, kinematics, integral, gains,
            redundancy, limits, policy, dt, t):
    """The period after the projection: one call of ``_period_code``, the
    curve rows and eta_1 taken outside it, ``kinematics`` the plant's call.
    Returns the LinearizationData, u, u_unclamped, v and the new integral."""
    p = path.output_dim
    k, lam = proj_state.k_star, float(proj_state.lambda_star)
    call = system.solves[_period_code, p, policy.mode, policy.fixed_vectors,
                         gains.tangential_mode, gains.transversal_mode,
                         redundancy.bias_mode,
                         None if redundancy.W_rows is None else len(redundancy.W_rows)]
    rows = path.jet_unchecked(k, lam, p + 1)
    eta1 = path.arclength_offsets[k] + path.arclength_interp(k, lam)
    lin, *out = call(rows, lam, kinematics, q, qd, system.Z_rows, eta1, integral,
                     gains.eta2_reference(t), gains, limits.floats, redundancy.W_rows, dt)
    return transform.LinearizationData(*lin), *out


def step(system, path, q, qd, proj_state, integral, gains,
         redundancy=RedundancyConfig(), limits=None,
         proj_cfg=projection.ProjectionConfig(), policy=frames.FRENET,
         dt=0.02, t=0.0):
    """One full control pass: project, then transform, outer loops and
    resolution in one generated call (``_period``).

    q and qd are the measured state, float lists, and ``integral`` the PI
    loop's memory.  Returns (u, new_integral, diagnostics); u is clamped
    elementwise to the actuation limits, the pre-clamp value is kept in
    the diagnostics, and their ``projection`` is the new projection state.
    """
    if limits is None:
        limits = system.default_limits
    kinematics = system.kinematics(q, qd)
    proj_state = projection.update(proj_state, path, kinematics[0], proj_cfg)
    lin, u_clamped, u, v, integral = _period(
        system, path, q, qd, proj_state, kinematics, integral, gains, redundancy,
        limits, policy, dt, t)
    return u_clamped, integral, StepDiagnostics(proj_state, lin, v, u, u_clamped != u)
