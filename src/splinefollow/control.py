"""Outer-loop controllers and redundancy-resolving feedback transform.

The virtual input v = (v_eta, v_xi) commands the second derivatives of
the tangential and transversal coordinates.  The actuator command solves
the static weighted least-squares problem min (u - r)' W (u - r) subject
to beta u + alpha = v, whose closed form uses the W-weighted right
pseudoinverse of beta.  The null-space bias r steers the redundant
degrees of freedom away from joint limits.

The control pass runs once per period on lists of Python floats: the
outer loops, the bias, and the input resolution, which forms
beta W^-1 beta' on floats, checks its conditioning with one symmetric
eigenvalue call and solves with the plant layer's generated Cholesky
solve.
"""

import math
from dataclasses import dataclass, field, replace

import numpy as np

from . import dynamics, frames, projection, transform
from .errors import NearSingularDecouplingError, ParameterError
from .frames import dot

CONDITION_LIMIT = 1e10


@dataclass(frozen=True)
class RedundancyConfig:
    """Weighting and bias selection for the input resolution."""

    W: np.ndarray | None = None          # SPD weight, defaults to identity
    bias_mode: str = "joint_limit"       # or "zero"

    def __post_init__(self):
        if self.bias_mode not in ("joint_limit", "zero"):
            raise ParameterError(f"unknown bias_mode {self.bias_mode!r}")
        if self.W is not None:
            W = np.asarray(self.W, dtype=float)
            if W.ndim != 2 or W.shape[0] != W.shape[1]:
                raise ParameterError("W must be square")
            if not np.allclose(W, W.T, atol=1e-12):
                raise ParameterError("W must be symmetric")
            if np.any(np.linalg.eigvalsh(W) <= 0):
                raise ParameterError("W must be positive definite")
            object.__setattr__(self, "W", W)


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
    robust mode ``robust_matrices`` holds the arrays K + K0, K1 and K2,
    converted once at construction.
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

    def __post_init__(self):
        if self.tangential_mode not in ("velocity", "position"):
            raise ParameterError(f"bad tangential_mode {self.tangential_mode!r}")
        if self.transversal_mode not in ("pd", "robust"):
            raise ParameterError(f"bad transversal_mode {self.transversal_mode!r}")
        if self.K_P < 0 or self.K_I < 0 or self.K_D < 0:
            raise ParameterError("tangential gains must be nonnegative")
        if self.transversal_mode == "pd":
            if min(self.xi_Kp) <= 0 or min(self.xi_Kd) <= 0:
                raise ParameterError("PD transversal gains must be positive")
        if self.robust_mu <= 0:
            raise ParameterError("robust boundary layer mu must be positive")
        if self.transversal_mode == "robust":
            m, n = self.robust_shape
            if not 0 < 2 * m == n:
                raise ParameterError(
                    f"robust gains K, K0 and K2 must each be (p - 1) x 2(p - 1); "
                    f"got {m} x {n}")
            K, K0, K2 = (np.atleast_2d(np.asarray(x, dtype=float))
                         for x in (self.robust_K, self.robust_K0, self.robust_K2))
            # K1 = mu^2 K2: continuity of the switched term at ||xi|| = mu
            object.__setattr__(self, "robust_matrices",
                               (K + K0, self.robust_mu**2 * K2, K2))

    @property
    def robust_shape(self):
        """Common (rows, columns) of robust_K, robust_K0 and robust_K2."""
        try:
            shapes = [np.atleast_2d(np.asarray(K, dtype=float)).shape
                      for K in (self.robust_K, self.robust_K0, self.robust_K2)]
        except ValueError as exc:   # ragged rows
            raise ParameterError(f"robust gains must be matrices: {exc}") from None
        if len(set(shapes)) != 1 or len(shapes[0]) != 2:
            raise ParameterError("robust gains K, K0 and K2 must be matrices of "
                                 f"one shape; got shapes {shapes}")
        return shapes[0]

    def eta2_reference(self, t):
        """Reference speed at time t (piecewise-linear table, else constant)."""
        if not self.eta2_ref_table:
            return self.eta2_ref
        pts = np.asarray(self.eta2_ref_table, dtype=float)
        return float(np.interp(t, pts[:, 0], pts[:, 1]))


@dataclass(frozen=True)
class ControllerState:
    """Integrator memory of the tangential PI loop."""

    integral: float = 0.0


def bias_r(x_c, limits):
    """Joint-limit avoidance bias: affine, u_max at q_min, u_min at q_max.

    Returns a list of floats.
    """
    return [
        -(hu - lu) / (hq - lq) * (x - lq) + hu
        for x, lq, hq, lu, hu in zip(
            np.asarray(x_c, dtype=float).tolist(), limits.q_min.tolist(),
            limits.q_max.tolist(), limits.u_min.tolist(), limits.u_max.tolist())
    ]


def resolve_input(alpha, beta, v, r, W=None):
    """Closed-form constrained least squares: u = b+ (v - a) + (I - b+ b) r.

    b+ is the W-weighted right pseudoinverse W^-1 beta' M^-1 with
    M = beta W^-1 beta', so u = r + W^-1 beta' M^-1 (v - alpha - beta r).
    M is symmetric, so the absolute values of its eigenvalues are its
    singular values; NearSingularDecouplingError (with ``cond``) is
    raised when their ratio is above 1e10 (the transform is
    degenerating) or M is not finite.
    """
    beta = np.atleast_2d(np.asarray(beta, dtype=float)).tolist()
    alpha, v, r = (np.asarray(x, dtype=float).tolist() for x in (alpha, v, r))
    p, N = len(beta), len(beta[0])
    # rows of beta W^-1, that is columns of W^-1 beta'
    if W is None:
        bw = beta
    else:
        W = np.asarray(W, dtype=float).tolist()
        bw = dynamics._cholesky(N, "weight matrix", "W")(W, beta, W)
    M = [[dot(b, c) for c in bw] for b in beta]
    cond = math.nan
    if all(map(math.isfinite, (m for row in M for m in row))):
        eig = [abs(x) for x in np.linalg.eigvalsh(M).tolist()]
        cond = max(eig) / min(eig) if min(eig) > 0.0 else math.inf
    if not cond <= CONDITION_LIMIT:
        raise NearSingularDecouplingError(
            f"decoupling matrix nearly singular (cond(beta W^-1 beta') = {cond:.3e})",
            cond=cond,
        )
    rhs = [vi - ai - dot(b, r) for vi, ai, b in zip(v, alpha, beta)]
    (w,) = dynamics._cholesky(p, "decoupling matrix beta W^-1 beta'", "beta")(
        M, [rhs], beta)
    return np.array([ri + dot(col, w) for ri, col in zip(r, zip(*bw))])


def tangential_v(eta, ctrl_state, gains, dt, t=0.0):
    """Tangential virtual input and the updated integrator state.

    Velocity mode is a PI loop on eta_2; position mode is a PD loop on
    eta_1 (used for point stabilization).  The integral uses a
    first-order update and is clamped for anti-windup.
    """
    if gains.tangential_mode == "position":
        v = gains.K_P * (gains.eta1_ref - eta[0]) - gains.K_D * eta[1]
        return v, ctrl_state
    err = gains.eta2_reference(t) - eta[1]
    integral = ctrl_state.integral + dt * err
    lim = gains.integral_limit
    integral = min(max(integral, -lim), lim)
    v = gains.K_P * err + gains.K_I * integral
    return v, replace(ctrl_state, integral=integral)


def transversal_v(xi, gains):
    """Transversal virtual input, as a list, from the stacked (xi_1; xi_2).

    The PD gains repeat cyclically over the p - 1 components.
    """
    xi = np.asarray(xi, dtype=float).reshape(2, -1)
    if gains.transversal_mode == "pd":
        Kp, Kd = gains.xi_Kp, gains.xi_Kd
        return [-Kp[i % len(Kp)] * x1 - Kd[i % len(Kd)] * x2
                for i, (x1, x2) in enumerate(zip(*xi.tolist()))]
    # robust mode operates on the interleaved vector (xi_1^1, xi_2^1, ...)
    z = xi.T.ravel()
    KK0, K1, K2 = gains.robust_matrices
    lin = KK0 @ z
    nz = math.sqrt(z @ z)
    if nz >= gains.robust_mu:
        sw = (K1 @ z) / nz
    else:
        sw = nz * (K2 @ z)
    return (lin + sw).tolist()


@dataclass(frozen=True)
class StepDiagnostics:
    """Everything the logger wants to know about one control step."""

    k_star: int
    lambda_star: float
    eta: np.ndarray
    xi: np.ndarray
    zeta: np.ndarray
    v: np.ndarray
    alpha: np.ndarray
    iterations: int
    saturated: bool
    u_unclamped: np.ndarray


def command(lin, q, ctrl_state, gains, redundancy, limits, dt, t):
    """Outer loops, null-space bias and input resolution at one state.

    ``lin`` is the linearization at configuration ``q``.  Returns
    (u, u_unclamped, v, new_ctrl_state), the first three as arrays: u is
    u_unclamped clamped elementwise to the actuation limits.
    """
    p, N = lin.beta.shape
    ts = lin.transformed
    v_eta, ctrl_state = tangential_v(ts.eta.tolist(), ctrl_state, gains, dt, t)
    v = [v_eta]
    if p > 1:
        v += transversal_v(ts.xi, gains)

    if redundancy.bias_mode == "joint_limit":
        r = bias_r(q, limits)
    else:
        r = [0.0] * N
    u = resolve_input(lin.alpha, lin.beta, v, r, redundancy.W)
    clamped = [min(max(x, lo), hi) for x, lo, hi in zip(
        u.tolist(), limits.u_min.tolist(), limits.u_max.tolist())]
    return np.array(clamped), u, np.array(v), ctrl_state


def step(system, path, state, proj_state, ctrl_state, gains,
         redundancy=RedundancyConfig(), limits=None,
         proj_cfg=projection.ProjectionConfig(), policy=frames.FRENET,
         dt=0.02, t=0.0):
    """One full control pass: project, transform, outer loops, resolve.

    Returns (u, new_proj_state, new_ctrl_state, diagnostics).  u is
    clamped elementwise to the actuation limits; the pre-clamp value is
    kept in the diagnostics.
    """
    if limits is None:
        limits = system.default_limits
    kinematics = system.kinematics(state.q.tolist(), state.qd.tolist())
    proj_state = projection.update(proj_state, path, kinematics[0], proj_cfg)
    lin = transform.linearize(system, state, path, proj_state, policy, kinematics)
    u_clamped, u, v, ctrl_state = command(
        lin, state.q, ctrl_state, gains, redundancy, limits, dt, t
    )
    ts = lin.transformed
    diag = StepDiagnostics(
        k_star=proj_state.k_star,
        lambda_star=proj_state.lambda_star,
        eta=ts.eta,
        xi=ts.xi,
        zeta=ts.zeta,
        v=v,
        alpha=lin.alpha,
        iterations=proj_state.last_iterations,
        saturated=u_clamped.tolist() != u.tolist(),
        u_unclamped=u,
    )
    return u_clamped, proj_state, ctrl_state, diag
