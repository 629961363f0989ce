"""Array views and diagnostics that only the tests use.

Each is a second, numpy computation that tests compare the package with:
- ``FrameArrays``, a FrameJet whose parts read as numpy arrays, and
  ``frame_jet``, which returns one;
- ``G`` and ``Jdot_qd``, array views of a plant's compiled ``forces`` and
  ``kinematics`` calls;
- ``acceleration`` and ``drift_and_input``, a float ``forces`` call and
  then a generated solve that takes its values as arguments, which the
  package's calls, with ``forces`` recorded in, must match bit for bit,
  and ``output_drift_and_input``, the same for the solve on J's p rows
  that the transform layer records;
- ``check_differentials``, the rank of the transform's gradient rows,
  reported as a ``DifferentialReport``;
- ``linearize_pieces`` and ``command_pieces``, the transform and input
  layers as separate calls of their public pieces, and ``period_pieces``,
  the one after the other, which ``test_layers.py`` compares with the
  period's one generated call after the projection (``control._period``)
  and ``transform.linearize``; ``tangential_v``, the tangential loop
  alone.
"""

import math
from dataclasses import dataclass

import numpy as np

from splinefollow import codegen, control, dynamics, frames, transform
from splinefollow.dynamics import _floats, _output_drift_and_input, _rhs, cholesky_solve
from splinefollow.errors import DivergenceError


class FrameArrays(frames.FrameJet):
    """A FrameJet whose frame values read as numpy arrays."""

    def _array(self, i):
        return np.array(frames._parts(self.values, len(self.rows[0]))[i])

    e = property(lambda self: self._array(0), doc="(p, p): e_i in row i")
    de = property(lambda self: self._array(1), doc="(p, p)")
    dde = property(lambda self: self._array(2), doc="(p, p)")
    curvatures = property(lambda self: self._array(3), doc="(p-1,)")
    curvature_rates = property(lambda self: self._array(4), doc="(p-1,)")
    speed = property(lambda self: self._array(5), doc="(3,): jet of ||sigma'||")
    sigma = property(lambda self: np.array(self.rows), doc="(p+2, p)")


def frame_jet(path, k, lam, policy=frames.FRENET):
    """``frames.frame_jet`` at (k, lam), as FrameArrays."""
    fj = frames.frame_jet(path, k, lam, policy)
    return FrameArrays(fj.k, fj.lam, fj.rows, fj.values)


def G(system, q):
    """(N,) gravity vector: C qd + G at rest."""
    return np.array(system.forces(_floats(q), [0.0] * system.N)[1])


def Jdot_qd(system, q, qd):
    """(p,) Jdot qd, the output's acceleration at qdd = 0."""
    return np.array(system.kinematics(_floats(q), _floats(qd))[2], dtype=float)


def _solve_code(A, Bd, inputs):
    """Source of the plant solve for the constant rows A and Bd.

    ``f(d, bias, u, qd, q)`` returns qdd = D^-1 (A u - Bd qd - bias) for
    the rows ``d`` of D and ``bias`` = C qd + G.  With ``inputs``,
    ``f(d, bias, qd, q)`` returns f_v and the rows of g_v
    from one factorization of D.  ``q`` only goes into error messages.
    """
    N = len(A)
    code = codegen.Recorder()
    d = code.unpack("d", (N, N))
    bias, qd = code.unpack("bias", (N,)), code.unpack("qd", (N,))
    if inputs:
        f_v, *g = cholesky_solve(code, d, [_rhs(A, Bd, [0.0] * N, qd, bias), *zip(*A)])
        return code.function("d, bias, qd, q", (f_v, [list(x) for x in zip(*g)]))
    u = code.unpack("u", (N,))
    (qdd,) = cholesky_solve(code, d, [_rhs(A, Bd, u, qd, bias)])
    return code.function("d, bias, u, qd, q", qdd)


def acceleration(system, q, qd, u):
    """``dynamics.acceleration`` as a ``forces`` call, then the solve."""
    try:
        d, bias = system.forces(q, qd)
    except ValueError:   # math.sin of an infinite angle, say
        if all(map(math.isfinite, q)):
            raise
        raise DivergenceError(f"non-finite configuration q={q}") from None
    A, Bd, _ = system.solves.constants
    return codegen.kernel(_solve_code, A, Bd, False)(d, bias, u, qd, q)


def drift_and_input(system, q, qd):
    """``dynamics.drift_and_input`` as a ``forces`` call, then the solve."""
    A, Bd, _ = system.solves.constants
    return codegen.kernel(_solve_code, A, Bd, True)(*system.forces(q, qd), qd, q)


def _output_solve_code(A, Bd, p):
    """Source of ``f(d, bias, qd, J, q)``: J f_v and the rows of J g_v
    (``dynamics._output_drift_and_input``) for the rows ``d`` of D, ``bias``
    = C qd + G and the p rows ``J``; ``q`` only goes into error messages."""
    N = len(A)
    code = codegen.Recorder()
    d, bias = code.unpack("d", (N, N)), code.unpack("bias", (N,))
    qd, J = code.unpack("qd", (N,)), code.unpack("J", (p, N))
    return code.function("d, bias, qd, J, q",
                         _output_drift_and_input(code, A, Bd, qd, d, bias, J))


def output_drift_and_input(system, q, qd, J):
    """J f_v and the rows of J g_v at (q, qd) for the rows J: a ``forces``
    call, then the solve on J's rows that the transform layer records."""
    A, Bd, _ = system.solves.constants
    return codegen.kernel(_output_solve_code, A, Bd, len(J))(
        *system.forces(q, qd), qd, J, q)


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
    fj = frame_jet(path, proj_state.k_star, proj_state.lambda_star, policy)
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


def _linearize_code(p, N):
    """Source of ``f(rows, frame, kinematics, qd, Jf_v, Jg_v)``: the
    linearization alone, from a FrameJet's rows and values, the plant's
    (h, J, Jdot qd), qd, J f_v and the rows of J g_v; returns
    (eta_2, xi, alpha, beta)."""
    code = codegen.Recorder()
    sigma = code.unpack("rows", (p + 2, p))
    values = code.unpack("frame", (3 * p * p + 2 * p + 1,))
    code.source("y, J, Jdot_qd = kinematics")
    kinematics = (code.unpack("y", (p,)), code.unpack("J", (p, N)),
                  code.unpack("Jdot_qd", (p,)))
    qd, Jf_v = code.unpack("qd", (N,)), code.unpack("Jf_v", (p,))
    Jg_v = code.unpack("Jg_v", (p, N))
    return code.function("rows, frame, kinematics, qd, Jf_v, Jg_v", transform._linearized(
        code, p, sigma, values, kinematics, qd, Jf_v, Jg_v))


def linearize_pieces(system, q, qd, path, proj_state, policy=frames.FRENET,
                     full_solve=False):
    """``transform.linearize``'s LinearizationData from
    ``frames.frame_jet``, the plant's ``kinematics`` call,
    ``output_drift_and_input`` and the linearization compiled alone,
    called one after another.  With ``full_solve`` J f_v and J g_v are
    instead J times ``dynamics.drift_and_input``'s f_v and g_v, the solve
    on N + 1 right-hand sides, as floats."""
    fj = frames.frame_jet(path, proj_state.k_star, proj_state.lambda_star, policy)
    kinematics = system.kinematics(q, qd)
    if full_solve:
        f_v, g_v = dynamics.drift_and_input(system, q, qd)
        Jf_v = [frames.dot(row, f_v) for row in kinematics[1]]
        Jg_v = [[frames.dot(row, col) for col in zip(*g_v)] for row in kinematics[1]]
    else:
        Jf_v, Jg_v = output_drift_and_input(system, q, qd, kinematics[1])
    eta2, xi, alpha, beta = codegen.kernel(_linearize_code, system.p, system.N)(
        fj.rows, fj.values, kinematics, qd, Jf_v, Jg_v)
    eta1 = path.arclength_offsets[fj.k] + path.arclength_interp(fj.k, fj.lam)
    return transform.LinearizationData(
        eta=[eta1, eta2], xi=xi, zeta=system.completion(q, qd), alpha=alpha,
        beta=beta)


def tangential_v(eta, integral, gains, dt, t=0.0):
    """Tangential virtual input and the updated integral, both floats:
    ``control._tangential`` alone, at the reference speed of time t."""
    return control._tangential(eta, integral, gains, dt, gains.eta2_reference(t))


def command_pieces(lin, q, integral, gains, redundancy, limits, dt, t):
    """The input layer's (u, u_unclamped, v, new_integral) at the
    linearization ``lin``, from ``tangential_v``, ``transversal_v``,
    ``bias_r``, ``resolve_input`` and the clamp, called one after another."""
    v_eta, integral = tangential_v(lin.eta, integral, gains, dt, t)
    v = [v_eta]
    if len(lin.alpha) > 1:
        v += control.transversal_v(lin.xi, gains)
    r = (control.bias_r(q, limits) if redundancy.bias_mode == "joint_limit"
         else [0.0] * len(q))
    u = control.resolve_input(lin.alpha, lin.beta, v, r, redundancy.W_rows)
    clamped = [min(max(x, lo), hi) for x, lo, hi in zip(u, *limits.floats[2:4])]
    return clamped, u, v, integral


def period_pieces(system, path, q, qd, proj_state, integral, gains, redundancy,
                  limits, policy, dt, t):
    """``control._period``'s (lin, u, u_unclamped, v, new_integral) from
    ``linearize_pieces`` and then ``command_pieces``."""
    lin = linearize_pieces(system, q, qd, path, proj_state, policy)
    return (lin, *command_pieces(lin, q, integral, gains, redundancy, limits, dt, t))
