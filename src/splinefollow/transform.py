"""Transverse feedback linearizing coordinates and decoupling matrices.

Maps a mechanical state x = (q, qd) to path-centric coordinates:
eta = (arclength to the closest point, tangential output speed),
xi = the p - 1 transversal (offset, offset rate) pairs resolved in the
moving frame, and zeta, the plant's redundant completion.  Double
differentiation of (eta_1, xi_1) along the dynamics yields the drift
vector alpha and decoupling matrix beta that render the virtual input
v = alpha + beta u exactly the second derivatives of those coordinates.

``_transformed`` records, in this order, the frame at the closest point
(``frames._frame_values``), the plant's ``forces`` and the drift solve of
the affine dynamics (``dynamics._drift_and_input``), the linearization
(``_linearized``) and zeta, on the curve rows of one ``jet_unchecked``
call, the plant's ``kinematics`` call, q, qd and the rows of Z; a plant's
p, frame mode and completion vectors are constants of the code.  The
control period records it into its one generated call after the
projection (``control._period``); ``linearize`` compiles it alone.  The
record, LinearizationData, holds eta (eta_1 from the arclength table,
outside the call), xi, zeta, alpha and beta; the frame values, D, f_v
and D^-1 A stay in the call, and (k*, lambda*) in the ProjectionState.
"""

from dataclasses import dataclass

from . import codegen, dynamics, frames
from .frames import dot


@dataclass(slots=True)
class LinearizationData:
    """Path coordinates and control-layer quantities at one state, as
    Python floats; the closest point (k*, lambda*) is the ProjectionState's."""

    eta: list                  # 2: arclength, tangential speed
    xi: list                   # 2 lists of p - 1: offsets, offset rates
    zeta: list                 # 2N - 2p
    alpha: list                # p: drift of (eta_1'', xi_1'')
    beta: list                 # p rows of N: decoupling matrix


def _linearized(code, p, N, sigma, values, qd, f_v, g_v):
    """Record (eta_2, xi, alpha, beta) into ``code``; return them.

    ``sigma`` holds the curve rows and ``values`` the frame values at
    the closest point, ``qd`` the velocity and f_v, g_v the affine
    dynamics qdd = f_v + g_v u.  The plant's (h, J, d(J qd)/dq) are read
    from the argument ``kinematics``.
    """
    e, de, dde, _, _, (speed, _, _) = frames._parts(values, p)
    code.source("y, J, dJqd_dq = kinematics")
    y, J, dJqd_dq = (code.unpack("y", (p,)), code.unpack("J", (p, N)),
                     code.unpack("dJqd_dq", (p, N)))

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
    return eta2, xi, alpha, beta


def _transformed(code, A, Bd, forces, p, mode, fixed_vectors):
    """Record the transform layer, the frame's checks first, on the arguments
    rows, lam (as ``frames._frame_code``), kinematics, q, qd and Z; return
    the Vars of q and (eta_2, xi, zeta, alpha, beta)."""
    N = len(A)
    sigma, values = frames._frame_values(code, p, mode, fixed_vectors)
    q, qd, f_v, g_v = dynamics._drift_and_input(code, A, Bd, forces)
    eta2, xi, alpha, beta = _linearized(code, p, N, sigma, values, qd, f_v, g_v)
    zeta = dynamics._completion(code.unpack("Z", (N - p, N)), q, qd)
    return q, (eta2, xi, zeta, alpha, beta)


def _transform_code(A, Bd, forces, p, mode, fixed_vectors):
    """Source of ``f(rows, lam, kinematics, q, qd, Z)``, ``_transformed``
    with A, Bd, ``fixed_vectors`` and the plant's ``forces`` recorded in."""
    code = codegen.Recorder()
    return code.function("rows, lam, kinematics, q, qd, Z",
                         _transformed(code, A, Bd, forces, p, mode, fixed_vectors)[1])


def linearize(system, q, qd, path, proj_state, policy=frames.FRENET):
    """Path coordinates, drift alpha and decoupling beta at one state.

    Row 0 corresponds to eta_1'' and rows 1..p-1 to the transversal
    offsets xi_1''.  beta is the matrix multiplying u in those second
    derivatives; it loses rank exactly where the transform degenerates.
    The frame is taken at proj_state's (k*, lambda*), and its failures
    are ``frames.frame_jet``'s; those of the drift solve are
    ``dynamics.drift_and_input``'s.  q and qd are float lists.
    """
    p = path.output_dim
    k, lam = proj_state.k_star, float(proj_state.lambda_star)
    transform = system.solves[_transform_code, p, policy.mode, policy.fixed_vectors]
    rows = path.jet_unchecked(k, lam, p + 1)
    eta2, *rest = transform(rows, lam, system.kinematics(q, qd), q, qd, system.Z_rows)
    eta1 = path.arclength_offsets[k] + path.arclength_interp(k, lam)
    return LinearizationData([eta1, eta2], *rest)
