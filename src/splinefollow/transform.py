"""Transverse feedback linearizing coordinates and decoupling matrices.

Maps a mechanical state x = (q, qd) to path-centric coordinates:
eta = (arclength to the closest point, tangential output speed),
xi = the p - 1 transversal (offset, offset rate) pairs resolved in the
moving frame, and zeta, the plant's redundant completion.  Double
differentiation of (eta_1, xi_1) along the dynamics yields the drift
vector alpha and decoupling matrix beta that render the virtual input
v = alpha + beta u exactly the second derivatives of those coordinates.
"""

from dataclasses import dataclass

import numpy as np

from . import frames
from .dynamics import drift_and_input


@dataclass(frozen=True)
class TransformedState:
    """Path coordinates of one mechanical state."""

    eta: np.ndarray            # (2,): arclength, tangential speed
    xi: np.ndarray             # (2, p-1): rows are offsets, offset rates
    zeta: np.ndarray           # (2N - 2p,)
    k_star: int
    lambda_star: float

    def flat(self):
        """Stacked vector (eta_1, eta_2, xi_1^1, xi_2^1, ..., zeta)."""
        return np.concatenate([self.eta, self.xi.T.ravel(), self.zeta])


@dataclass(frozen=True)
class LinearizationData:
    """Quantities needed by the control layer at one state."""

    transformed: TransformedState
    alpha: np.ndarray          # (p,): drift of (eta_1'', xi_1'')
    beta: np.ndarray           # (p, N): decoupling matrix
    f_v: np.ndarray            # qdd = f_v + g_v u
    g_v: np.ndarray


def path_arclength(path, k, lam):
    """eta_1: arclength from the path start to sigma_k(lam)."""
    return float(path.arclength_offsets[k] + path.arclength_interp(k, lam))


def _geometry(system, state, path, proj_state, policy):
    """Shared frame/output geometry for the transform and its derivatives."""
    fj = frames.frame_jet(path, proj_state.k_star, proj_state.lambda_star, policy)
    J = system.J(state.q)
    offset = system.h(state.q) - fj.sigma[0]
    return fj, J, offset, J @ state.qd


def _coordinates(system, state, path, fj, offset, Jqd):
    """(eta, xi, zeta) at the frame's path point (fj.k, fj.lam)."""
    eta2 = fj.e[0] @ Jqd
    lam_rate = eta2 / fj.speed[0]          # d lambda* / dt on the path
    xi = np.empty((2, system.p - 1))
    for j in range(1, system.p):
        xi[0, j - 1] = fj.e[j] @ offset
        xi[1, j - 1] = lam_rate * (fj.de[j] @ offset) + fj.e[j] @ Jqd
    return TransformedState(
        eta=np.array([path_arclength(path, fj.k, fj.lam), eta2]),
        xi=xi,
        zeta=system.completion(state),
        k_star=fj.k,
        lambda_star=fj.lam,
    )


def to_transformed(system, state, path, proj_state, policy=frames.FRENET):
    """Compute (eta, xi, zeta) at the tracked closest point."""
    fj, _, offset, Jqd = _geometry(system, state, path, proj_state, policy)
    return _coordinates(system, state, path, fj, offset, Jqd)


def linearize(system, state, path, proj_state, policy=frames.FRENET):
    """Drift alpha and decoupling beta of the linearizing coordinates.

    Row 0 corresponds to eta_1'' and rows 1..p-1 to the transversal
    offsets xi_1''.  beta is the matrix multiplying u in those second
    derivatives; it loses rank exactly where the transform degenerates.
    """
    fj, J, offset, Jqd = _geometry(system, state, path, proj_state, policy)
    transformed = _coordinates(system, state, path, fj, offset, Jqd)
    q, qd = state.q, state.qd
    p, N = system.p, system.N
    speed = fj.speed[0]
    f_v, g_v = drift_and_input(system, state)

    dJqd_dq = system.djqd_dq(q, qd)        # (p, N)
    accel_drift = dJqd_dq @ qd + J @ f_v   # d(J qd)/dt along the drift

    eta2 = transformed.eta[1]
    lam_rate = eta2 / speed

    # tangential channel
    lf2_eta1 = lam_rate * (fj.de[0] @ Jqd) + fj.e[0] @ accel_drift

    sig1, sig2 = fj.sigma[1], fj.sigma[2]
    # d/dt of lam_rate along the drift, input-independent part
    lam_rate_drift = lf2_eta1 / speed - eta2**2 * (sig1 @ sig2) / speed**4

    alpha = np.empty(p)
    beta = np.empty((p, N))
    Jg = J @ g_v
    alpha[0] = lf2_eta1
    beta[0] = fj.e[0] @ Jg

    for j in range(1, p):
        a_j = (offset @ fj.de[j]) / speed
        alpha[j] = (
            fj.e[j] @ accel_drift
            + lam_rate * (fj.de[j] @ (2.0 * Jqd - eta2 * fj.e[0]))
            + offset @ (fj.dde[j] * lam_rate**2 + fj.de[j] * lam_rate_drift)
        )
        beta[j] = (a_j * fj.e[0] + fj.e[j]) @ Jg

    return LinearizationData(
        transformed=transformed, alpha=alpha, beta=beta, f_v=f_v, g_v=g_v
    )


@dataclass(frozen=True)
class DifferentialReport:
    """Rank diagnostics of the coordinate-change differentials."""

    position_rows: np.ndarray   # (p, N): d(eta_1, xi_1)/dq
    velocity_rows: np.ndarray   # (p, N): d(eta_2, xi_2)/dqd
    min_sv_position: float
    min_sv_velocity: float
    independent: bool


def check_differentials(system, state, path, proj_state,
                        policy=frames.FRENET, sv_tol=1e-8):
    """Verify the 2p linearizing coordinates have independent differentials.

    The differential has block-triangular structure: (eta_1, xi_1) depend
    on q only, and the velocity-gradient block of (eta_2, xi_2) equals the
    position-gradient structure contracted with J.  Independence of all 2p
    rows is therefore equivalent to both p x N blocks having full rank,
    which is measured here by their smallest singular values.
    """
    fj, J, offset, Jqd = _geometry(system, state, path, proj_state, policy)
    p, N = system.p, system.N
    speed = fj.speed[0]
    sig1, sig2 = fj.sigma[1], fj.sigma[2]

    # implicit-function derivative of lambda* wrt q from the normality
    # condition <h(q) - sigma(lambda), sigma'(lambda)> = 0
    denom = speed**2 - offset @ sig2
    dlam_dq = (sig1 @ J) / denom

    position = np.empty((p, N))
    position[0] = speed * dlam_dq                      # d eta_1 / dq
    for j in range(1, p):
        position[j] = fj.e[j] @ J + (fj.de[j] @ offset) * dlam_dq

    velocity = np.empty((p, N))
    velocity[0] = fj.e[0] @ J                          # d eta_2 / dqd
    for j in range(1, p):
        a_j = (offset @ fj.de[j]) / speed
        velocity[j] = (a_j * fj.e[0] + fj.e[j]) @ J

    sv_pos = float(np.linalg.svd(position, compute_uv=False)[-1])
    sv_vel = float(np.linalg.svd(velocity, compute_uv=False)[-1])
    return DifferentialReport(
        position_rows=position,
        velocity_rows=velocity,
        min_sv_position=sv_pos,
        min_sv_velocity=sv_vel,
        independent=bool(sv_pos > sv_tol and sv_vel > sv_tol),
    )
