"""Transverse feedback linearizing coordinates and decoupling matrices.

Maps a mechanical state x = (q, qd) to path-centric coordinates:
eta = (arclength to the closest point, tangential output speed),
xi = the p - 1 transversal (offset, offset rate) pairs resolved in the
moving frame, and zeta, the plant's redundant completion.  Double
differentiation of (eta_1, xi_1) along the dynamics yields the drift
vector alpha and decoupling matrix beta that render the virtual input
v = alpha + beta u exactly the second derivatives of those coordinates.

``linearize`` runs once per control period, on q and qd as lists of
Python floats: the plant's compiled ``kinematics`` call, the frame jet
and the affine dynamics feed one straight-line function, generated at
first use for the plant's N and the path's p from the arithmetic
written out in ``_linearize_code``.  Its one record, LinearizationData,
holds eta, xi, zeta, alpha, beta and the affine dynamics; the closest
point (k*, lambda*) stays in the ProjectionState it was given.
"""

from dataclasses import dataclass

from . import codegen, frames
from .dynamics import drift_and_input
from .frames import dot


@dataclass(frozen=True)
class LinearizationData:
    """Path coordinates and control-layer quantities at one state, as
    Python floats; the closest point (k*, lambda*) is the ProjectionState's."""

    eta: list                  # 2: arclength, tangential speed
    xi: list                   # 2 lists of p - 1: offsets, offset rates
    zeta: list                 # 2N - 2p
    alpha: list                # p: drift of (eta_1'', xi_1'')
    beta: list                 # p rows of N: decoupling matrix
    f_v: list                  # qdd = f_v + g_v u; N
    g_v: list                  # N rows of N


def _linearize_code(p, N):
    """Source of ``f(rows, frame, kinematics, qd, f_v, g_v)``.

    The arguments are the FrameJet's rows and values, the plant's
    (h, J, d(J qd)/dq), the velocity and the affine dynamics
    qdd = f_v + g_v u; the function returns (eta_2, xi, alpha, beta).
    """
    code = codegen.Recorder()
    sigma = code.unpack("rows", (p + 2, p))
    e, de, dde, _, _, (speed, _, _) = frames._parts(
        code.unpack("frame", (3 * p * p + 2 * p + 1,)), p)
    code.source("y, J, dJqd_dq = kinematics")
    y, J, dJqd_dq = (code.unpack("y", (p,)), code.unpack("J", (p, N)),
                     code.unpack("dJqd_dq", (p, N)))
    qd, f_v = code.unpack("qd", (N,)), code.unpack("f_v", (N,))
    g_v = code.unpack("g_v", (N, N))

    offset = [a - b for a, b in zip(y, sigma[0])]
    Jqd = [dot(row, qd) for row in J]

    # (eta, xi) at the frame's path point
    eta2 = dot(e[0], Jqd)
    lam_rate = eta2 / speed     # d lambda* / dt on the path
    xi = [[dot(ej, offset) for ej in e[1:]],
          [lam_rate * dot(dej, offset) + dot(ej, Jqd)
           for ej, dej in zip(e[1:], de[1:])]]

    # d(J qd)/dt along the drift
    accel_drift = [dot(row, qd) + dot(Ja, f_v) for row, Ja in zip(dJqd_dq, J)]

    # tangential channel
    lf2_eta1 = lam_rate * dot(de[0], Jqd) + dot(e[0], accel_drift)

    sig1, sig2 = sigma[1:3]
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
    return code.function("rows, frame, kinematics, qd, f_v, g_v",
                         (eta2, xi, alpha, beta)), {}


def linearize(system, q, qd, path, proj_state, policy=frames.FRENET,
              kinematics=None):
    """Path coordinates, drift alpha and decoupling beta at one state.

    Row 0 corresponds to eta_1'' and rows 1..p-1 to the transversal
    offsets xi_1''.  beta is the matrix multiplying u in those second
    derivatives; it loses rank exactly where the transform degenerates.
    The frame is taken at proj_state's (k*, lambda*).
    ``kinematics`` is the plant's call (h, J, d(J qd)/dq) at the float
    lists q and qd, made here when not given.
    """
    fj = frames.frame_jet(path, proj_state.k_star, proj_state.lambda_star, policy)
    if kinematics is None:
        kinematics = system.kinematics(q, qd)
    f_v, g_v = drift_and_input(system, q, qd)
    eta2, xi, alpha, beta = codegen.kernel(_linearize_code, system.p, system.N)(
        fj.rows, fj.values, kinematics, qd, f_v, g_v)
    eta1 = path.arclength_offsets[fj.k] + path.arclength_interp(fj.k, fj.lam)
    return LinearizationData(
        eta=[eta1, eta2], xi=xi,
        zeta=system.completion(q, qd), alpha=alpha, beta=beta, f_v=f_v, g_v=g_v)
