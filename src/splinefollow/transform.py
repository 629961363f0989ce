"""Transverse feedback linearizing coordinates and decoupling matrices.

Maps a mechanical state x = (q, qd) to path-centric coordinates:
eta = (arclength to the closest point, tangential output speed),
xi = the p - 1 transversal (offset, offset rate) pairs resolved in the
moving frame, and zeta, the plant's redundant completion.  Double
differentiation of (eta_1, xi_1) along the dynamics yields the drift
vector alpha and decoupling matrix beta that render the virtual input
v = alpha + beta u exactly the second derivatives of those coordinates.

``linearize`` runs once per control period, on q and qd as lists of
Python floats, as one generated call: ``_transform_code`` records, in
this order, the frame at the closest point (``frames._frame_values``),
the drift solve of the affine dynamics (``dynamics._drift_and_input``),
the linearization (``_linearized``) and zeta into one straight-line
function per plant, p, frame mode and completion vectors (constants of
the code), generated at first use.  It takes the curve rows of one
``jet_unchecked`` call, the plant's ``kinematics`` and ``forces`` calls
and the rows of the plant's completion matrix Z.  Its one record, the
period's LinearizationData, holds eta (eta_1 from the arclength table),
xi, zeta, alpha and beta; the frame values and the drift solve's f_v and
D^-1 A stay in the call, and (k*, lambda*) in the ProjectionState given.
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


def _transform_code(A, Bd, p, mode, fixed_vectors):
    """Source of ``f(rows, lam, kinematics, d, bias, qd, q, Z)``, the
    transform layer with the constants A, Bd and ``fixed_vectors``.

    The arguments are those of the frame code (``frames._frame_code``),
    the plant's (h, J, d(J qd)/dq), ``forces`` rows of D and bias, qd, q
    and the rows of Z.  It returns (eta_2, xi, zeta, alpha, beta), the
    LinearizationData after eta_1.  The frame's checks come before the
    drift solve's.
    """
    N = len(A)
    code = codegen.Recorder()
    sigma, values = frames._frame_values(code, p, mode, fixed_vectors)
    d = code.unpack("d", (N, N))
    bias, qd = code.unpack("bias", (N,)), code.unpack("qd", (N,))
    f_v, g_v = dynamics._drift_and_input(code, A, Bd, d, bias, qd)
    eta2, xi, alpha, beta = _linearized(code, p, N, sigma, values, qd, f_v, g_v)
    Z, q = code.unpack("Z", (N - p, N)), code.unpack("q", (N,))
    zeta = dynamics._completion(Z, q, qd)
    return code.function("rows, lam, kinematics, d, bias, qd, q, Z",
                         (eta2, xi, zeta, alpha, beta))


def linearize(system, q, qd, path, proj_state, policy=frames.FRENET,
              kinematics=None):
    """Path coordinates, drift alpha and decoupling beta at one state.

    Row 0 corresponds to eta_1'' and rows 1..p-1 to the transversal
    offsets xi_1''.  beta is the matrix multiplying u in those second
    derivatives; it loses rank exactly where the transform degenerates.
    The frame is taken at proj_state's (k*, lambda*), and its failures
    are ``frames.frame_jet``'s; those of the drift solve are
    ``dynamics.drift_and_input``'s.  ``kinematics`` is the plant's call
    (h, J, d(J qd)/dq) at the float lists q and qd, made here when not
    given.
    """
    p = path.output_dim
    k, lam = proj_state.k_star, float(proj_state.lambda_star)
    transform = system.solves[_transform_code, p, policy.mode, policy.fixed_vectors]
    rows = path.jet_unchecked(k, lam, p + 1)
    if kinematics is None:
        kinematics = system.kinematics(q, qd)
    eta2, *rest = transform(rows, lam, kinematics,
                            *system.forces(q, qd), qd, q, system.Z_rows)
    eta1 = path.arclength_offsets[k] + path.arclength_interp(k, lam)
    return LinearizationData([eta1, eta2], *rest)
