"""Transverse feedback linearizing coordinates and decoupling matrices.

Maps a mechanical state x = (q, qd) to path-centric coordinates:
eta = (arclength to the closest point, tangential output speed),
xi = the p - 1 transversal (offset, offset rate) pairs resolved in the
moving frame, and zeta, the plant's redundant completion.  Double
differentiation of (eta_1, xi_1) along the dynamics yields the drift
vector alpha and decoupling matrix beta that render the virtual input
v = alpha + beta u exactly the second derivatives of those coordinates.

``linearize`` runs once per control period on lists of Python floats,
fed by the plant's compiled ``kinematics`` call and the float frame jet.
"""

from dataclasses import dataclass

import numpy as np

from . import frames
from .dynamics import drift_and_input
from .frames import dot


@dataclass(frozen=True)
class TransformedState:
    """Path coordinates of one mechanical state."""

    eta: np.ndarray            # (2,): arclength, tangential speed
    xi: np.ndarray             # (2, p-1): rows are offsets, offset rates
    zeta: np.ndarray           # (2N - 2p,)
    k_star: int
    lambda_star: float


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


def linearize(system, state, path, proj_state, policy=frames.FRENET,
              kinematics=None):
    """Path coordinates, drift alpha and decoupling beta at one state.

    Row 0 corresponds to eta_1'' and rows 1..p-1 to the transversal
    offsets xi_1''.  beta is the matrix multiplying u in those second
    derivatives; it loses rank exactly where the transform degenerates.
    ``kinematics`` is the plant's call (h, J, d(J qd)/dq) at ``state``,
    made here when not given.  The arithmetic runs on Python floats.
    """
    fj = frames.frame_jet(path, proj_state.k_star, proj_state.lambda_star, policy)
    qd = state.qd.tolist()
    if kinematics is None:
        kinematics = system.kinematics(state.q.tolist(), qd)
    y, J, dJqd_dq = kinematics
    offset = [a - b for a, b in zip(y, fj.sigma[0].tolist())]
    Jqd = [dot(row, qd) for row in J]
    e, de, dde = fj.e.tolist(), fj.de.tolist(), fj.dde.tolist()
    speed = fj.speed[0].item()

    # (eta, xi, zeta) at the frame's path point (fj.k, fj.lam)
    eta2 = dot(e[0], Jqd)
    lam_rate = eta2 / speed     # d lambda* / dt on the path
    xi = [[dot(ej, offset) for ej in e[1:]],
          [lam_rate * dot(dej, offset) + dot(ej, Jqd)
           for ej, dej in zip(e[1:], de[1:])]]
    transformed = TransformedState(
        eta=np.array([path_arclength(path, fj.k, fj.lam), eta2]),
        xi=np.array(xi),
        zeta=system.completion(state),
        k_star=fj.k,
        lambda_star=fj.lam,
    )
    f_v, g_v = drift_and_input(system, state)

    # d(J qd)/dt along the drift
    accel_drift = [dot(row, qd) + dot(Ja, f_v) for row, Ja in zip(dJqd_dq, J)]

    # tangential channel
    lf2_eta1 = lam_rate * dot(de[0], Jqd) + dot(e[0], accel_drift)

    sig1, sig2 = fj.sigma[1:3].tolist()
    # d/dt of lam_rate along the drift, input-independent part
    lam_rate_drift = lf2_eta1 / speed - eta2**2 * dot(sig1, sig2) / speed**4

    # columns of J g_v; row j of beta is w_j J g_v
    Jg_cols = [[dot(Ja, col) for Ja in J] for col in zip(*g_v)]
    alpha, weights = [lf2_eta1], [e[0]]
    lr2 = lam_rate**2
    for ej, dej, ddej in zip(e[1:], de[1:], dde[1:]):
        a_j = dot(offset, dej) / speed
        alpha.append(
            dot(ej, accel_drift)
            + lam_rate * dot(dej, [2.0 * x - eta2 * t for x, t in zip(Jqd, e[0])])
            + dot(offset, [a * lr2 + b * lam_rate_drift
                            for a, b in zip(ddej, dej)])
        )
        weights.append([a_j * t + x for t, x in zip(e[0], ej)])
    beta = [[dot(w, col) for col in Jg_cols] for w in weights]

    return LinearizationData(
        transformed=transformed, alpha=np.array(alpha), beta=np.array(beta),
        f_v=np.array(f_v), g_v=np.array(g_v),
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
    fj = frames.frame_jet(path, proj_state.k_star, proj_state.lambda_star, policy)
    J, offset = system.J(state.q), system.h(state.q) - fj.sigma[0]
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
