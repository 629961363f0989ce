"""Euler-Lagrange plants: D(q) qdd + C(q, qd) qd + G(q) + Bd qd = A u.

The manipulator models are derived symbolically (mass-centre Jacobians
-> inertia matrix -> Christoffel symbols), so the skew-symmetry of
Ddot - 2C holds structurally rather than incidentally.  The derivation
lives in ``symbolic``, the one module that loads sympy, and runs only
when the plant code is regenerated (``python -m splinefollow.symbolic``):
``make_example2`` and ``make_cpm_like`` import the plain Python it wrote,
``_plants_generated``, and ``example1``, whose matrices are constant,
needs neither.  Viscous damping is kept as a separate matrix term Bd,
outside C.  The input matrix A and the damping Bd are constant.

A plant is described once: its compiled ``forces`` call gives D and
C qd + G, its compiled ``kinematics`` call gives the output map h, its
Jacobian J and d(J qd)/dq, and the constant completion matrix Z gives
the redundant coordinates zeta = (Z q, Z qd).  The array-valued
D, G, h, J, dJ_dq and ``completion`` are ``MechanicalSystem`` methods
derived from those calls, for callers outside the loop.

``acceleration`` and ``drift_and_input`` run on Python floats: one
``forces`` call, then a Cholesky solve unrolled for the plant's N gives
D^-1 times the right-hand sides.
"""

import math
from dataclasses import dataclass, field
from functools import lru_cache
from operator import mul

import numpy as np

from .errors import DivergenceError, NonSPDInertiaError, ParameterError


@dataclass(frozen=True)
class State:
    """Configuration and velocity of a plant."""

    q: np.ndarray
    qd: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "q", np.asarray(self.q, dtype=float))
        object.__setattr__(self, "qd", np.asarray(self.qd, dtype=float))
        entries = self.q.ravel().tolist() + self.qd.ravel().tolist()
        if not all(map(math.isfinite, entries)):
            raise ValueError("state entries must be finite")


@dataclass(frozen=True)
class Limits:
    """Per-joint configuration windows and per-input actuation windows."""

    q_min: np.ndarray
    q_max: np.ndarray
    u_min: np.ndarray
    u_max: np.ndarray

    def __post_init__(self):
        for name in ("q_min", "q_max", "u_min", "u_max"):
            object.__setattr__(self, name, np.asarray(getattr(self, name), float))
        if np.any(self.q_min >= self.q_max) or np.any(self.u_min >= self.u_max):
            raise ParameterError("limit windows must satisfy min < max")


@dataclass
class MechanicalSystem:
    """Evaluator bundle for one plant; immutable in practice.

    The float columns of A, ``rhs(u, qd, bias)`` = A u - Bd qd - bias
    and the inertia solve are set at construction, for ``acceleration``
    and ``drift_and_input``.  The methods evaluate the compiled calls
    at rest (qd = 0) or along unit velocities and return arrays.
    """

    name: str
    N: int
    p: int
    A: np.ndarray          # (N, N) input matrix
    damping: np.ndarray    # (N, N) viscous matrix Bd, force Bd @ qd
    Z: np.ndarray          # (N - p, N) completion matrix, zeta = (Z q, Z qd)
    forces: callable       # q, qd floats -> (rows of D, entries of C qd + G)
    kinematics: callable   # q, qd floats -> (h, rows of J, rows of d(J qd)/dq)
    default_limits: Limits = None
    A_cols: list = field(init=False, repr=False)
    rhs: callable = field(init=False, repr=False)
    solve: callable = field(init=False, repr=False)

    def __post_init__(self):
        self.A_cols = self.A.T.tolist()
        self.rhs = _input_minus_damping(self.A.tolist(), self.damping.tolist())
        self.solve = _cholesky(self.N)

    def D(self, q):
        """(N, N) inertia matrix."""
        return np.array(self.forces(_floats(q), [0.0] * self.N)[0])

    def G(self, q):
        """(N,) gravity vector: C qd + G at rest."""
        return np.array(self.forces(_floats(q), [0.0] * self.N)[1])

    def h(self, q):
        """(p,) output map."""
        return np.array(self.kinematics(_floats(q), [0.0] * self.N)[0], dtype=float)

    def J(self, q):
        """(p, N) output Jacobian."""
        return np.array(self.kinematics(_floats(q), [0.0] * self.N)[1], dtype=float)

    def dJ_dq(self, q):
        """(p, N, N) array d J[a, b] / d q[c].

        Column b of d(J qd)/dq at qd = e_b is dJ/dq_b.
        """
        q = _floats(q)
        return np.array([self.kinematics(q, e)[2] for e in np.eye(self.N).tolist()],
                        dtype=float).transpose(1, 0, 2)

    def completion(self, state):
        """(2N - 2p,) redundant coordinates zeta = (Z q, Z qd), on floats."""
        Z = self.Z.tolist()
        return np.array([sum(map(mul, z, x))
                         for x in (state.q.tolist(), state.qd.tolist()) for z in Z])


@lru_cache(maxsize=None)
def _cholesky(n, name="inertia matrix", at="q"):
    """Solve ``f(d, cols, where)``: D^-1 b for each b in cols, as float lists.

    The factorization D = L L^T of the rows ``d`` (lower triangle read)
    and the two triangular substitutions are unrolled into straight-line
    code for this n, so a solve costs a few microseconds of float
    arithmetic and no array calls.  A non-finite D or solution raises
    DivergenceError; a pivot that is not positive raises
    NonSPDInertiaError.  The messages call D ``name`` and report
    ``where`` as ``at`` (the plant's configuration q by default).
    """
    r = range(n)

    def minus(products):
        return "".join(f" - {a} * {b}" for a, b in products)

    def low(i, j):
        return f"l{i}_{j}"

    def finite(names):
        return f"isfinite({' + '.join(names)})"

    rows = ", ".join(
        "(" + ", ".join(f"d{i}_{j}" if j <= i else "_" for j in r) + ",)"
        for i in r)
    x = [f"x{i}" for i in r]
    src = [
        "def f(d, cols, where):",
        f"    ({rows},) = d",
        f"    if not {finite(f'd{i}_{j}' for i in r for j in range(i + 1))}:",
        f'        raise DivergenceError(f"non-finite {name} at {at}={{where}}")',
    ]
    for j in r:   # column j of L
        src += [
            f"    p = d{j}_{j}{minus((low(j, k), low(j, k)) for k in range(j))}",
            "    if not p > 0.0:",
            f'        raise NonSPDInertiaError(f"{name} not SPD at {at}={{where}}")',
            f"    {low(j, j)} = sqrt(p)",
        ] + [
            f"    {low(i, j)} = "
            f"(d{i}_{j}{minus((low(i, k), low(j, k)) for k in range(j))}) / {low(j, j)}"
            for i in range(j + 1, n)
        ]
    src += ["    out = []", f"    for ({', '.join(f'b{i}' for i in r)},) in cols:"]
    src += [   # L y = b, then L^T x = y
        f"        y{i} = (b{i}{minus((low(i, k), f'y{k}') for k in range(i))})"
        f" / {low(i, i)}"
        for i in r
    ] + [
        f"        x{i} = (y{i}{minus((low(k, i), x[k]) for k in range(i + 1, n))})"
        f" / {low(i, i)}"
        for i in reversed(r)
    ]
    src += [
        f"        if not {finite(x)}:",
        "            raise DivergenceError(",
        f'                f"non-finite solution of the {name} system at {at}={{where}}")',
        f"        out.append([{', '.join(x)}])",
        "    return out",
    ]
    return _generated(src, sqrt=math.sqrt, isfinite=math.isfinite,
                      DivergenceError=DivergenceError,
                      NonSPDInertiaError=NonSPDInertiaError)


def _input_minus_damping(A, Bd):
    """``rhs(u, qd, bias)`` = A u - Bd qd - bias for the constant rows A, Bd.

    Unrolled over the nonzero entries, which are written into the code.
    """
    def entry(k):
        terms = ([(a, f"u[{j}]") for j, a in enumerate(A[k])]
                 + [(-b, f"qd[{j}]") for j, b in enumerate(Bd[k])])
        code = "".join(f" {'-' if c < 0 else '+'} {abs(c)!r} * {v}"
                       for c, v in terms if c != 0.0)
        return f"{code} - bias[{k}]".lstrip(" +")

    return _generated(["def f(u, qd, bias):", "    return ["]
                      + [f"        {entry(k)}," for k in range(len(A))]
                      + ["    ]"])


def _generated(src, **names):
    """The function ``f`` that the source lines ``src`` define over ``names``."""
    namespace = dict(names)
    exec("\n".join(src), namespace)
    return namespace["f"]


def drift_and_input(system, state):
    """Affine velocity dynamics: qdd = f_v(x) + g_v(q) u.

    One Cholesky factorization of D serves the drift and every column
    of A.  Returns float lists: f_v, and the rows of g_v.
    """
    q, qd = state.q.tolist(), state.qd.tolist()
    d, bias = system.forces(q, qd)
    drift = system.rhs([0.0] * system.N, qd, bias)
    f_v, *cols = system.solve(d, [drift, *system.A_cols], q)
    return f_v, [list(row) for row in zip(*cols)]


def acceleration(system, q, qd, u):
    """qdd for a given input, solving D qdd = A u - Bd qd - (C qd + G) once.

    Takes and returns sequences of floats; the integrator calls it on lists.
    """
    try:
        d, bias = system.forces(q, qd)
    except ValueError:   # math.sin of an infinite angle, say
        if all(map(math.isfinite, q)):
            raise
        raise DivergenceError(f"non-finite configuration q={q}") from None
    return system.solve(d, (system.rhs(u, qd, bias),), q)[0]


def _floats(v):
    """Entries of a configuration or velocity as Python floats."""
    return np.asarray(v, dtype=float).tolist()


# --- plants -----------------------------------------------------------------


def make_example1(m1=1.0, m2=1.0, b1=1.0, b2=1.0):
    """Two stacked masses on a line; output is the top (second) block.

    N = 2, p = 1.  Linear dynamics; the coupling friction b2 appears as an
    off-diagonal viscous term.  zeta = (q1, qd1).
    """
    if min(m1, m2, b1, b2) <= 0:
        raise ParameterError("example1 parameters must be positive")
    forces = ([[m1, 0.0], [0.0, m2]], [0.0, 0.0])
    return MechanicalSystem(
        name="example1",
        N=2,
        p=1,
        A=np.eye(2),
        damping=np.array([[b1 + b2, -b2], [-b2, b2]]),
        Z=np.array([[1.0, 0.0]]),
        forces=lambda q, qd: forces,
        kinematics=lambda q, qd: ([q[1]], [[0.0, 1.0]], [[0.0, 0.0]]),
        default_limits=Limits(
            q_min=[-2.0, -5.0], q_max=[2.0, 5.0],
            u_min=[-5.0, -5.0], u_max=[5.0, 5.0],
        ),
    )


def make_example2(damping=(2.0, 2.0, 2.0)):
    """Planar 3R manipulator, unit links/masses/inertias, no gravity.

    N = 3, p = 2 (end-effector position); one redundant degree of freedom:
    zeta = (q1 + q2 + q3, qd1 + qd2 + qd3), the end-effector angle and its
    rate.
    """
    d = np.asarray(damping, dtype=float)
    if d.shape != (3,) or np.any(d < 0):
        raise ParameterError("damping must be 3 nonnegative coefficients")
    from ._plants_generated import planar3r_forces, planar3r_kinematics

    return MechanicalSystem(
        name="example2",
        N=3,
        p=2,
        A=np.eye(3),
        damping=np.diag(d),
        Z=np.ones((1, 3)),
        forces=planar3r_forces,
        kinematics=planar3r_kinematics,
        default_limits=Limits(
            q_min=[-np.pi, -np.pi, -np.pi], q_max=[np.pi, np.pi, np.pi],
            u_min=[-10.0, -10.0, -10.0], u_max=[10.0, 10.0, 10.0],
        ),
    )


# Synthetic 4-DOF arm: revolute waist + 3-link arm in the rotating vertical
# plane.  Parameter values are invented (desk-scale), chosen for a
# well-conditioned Jacobian over the operating region.
_CPM_LENGTHS = (0.45, 0.40, 0.30)
_CPM_MASSES = (2.5, 1.8, 1.0)
_CPM_ROTOR = (0.08, 0.05, 0.04, 0.02)
_CPM_BASE_HEIGHT = 0.30
_CPM_GRAVITY = 9.81
_CPM_GAINS = (2.0, 1.6, 1.3, 1.0)


def make_cpm_like():
    """Synthetic 4-DOF arm with 3-D output: N = 4, p = 3, n - 2p = 2.

    Mirrors the structure of a waist + shoulder/elbow/wrist manipulator
    with viscous damping and static actuator gains folded into A.
    zeta = (q2 + q3 + q4, qd2 + qd3 + qd4), the wrist-plane angle sum.
    """
    from ._plants_generated import cpm_forces, cpm_kinematics

    return MechanicalSystem(
        name="cpm4",
        N=4,
        p=3,
        A=np.diag(_CPM_GAINS),
        damping=np.diag([3.0, 4.0, 3.0, 1.5]),
        Z=np.array([[0.0, 1.0, 1.0, 1.0]]),
        forces=cpm_forces,
        kinematics=cpm_kinematics,
        default_limits=Limits(
            q_min=[-np.pi, -0.4, -2.4, -2.0],
            q_max=[np.pi, 1.8, 2.4, 2.0],
            u_min=[-40.0, -60.0, -40.0, -20.0],
            u_max=[40.0, 60.0, 40.0, 20.0],
        ),
    )


PLANTS = {
    "example1": make_example1,
    "example2": make_example2,
    "cpm4": make_cpm_like,
}


def make_plant(name, **kwargs):
    """Plant factory used by scenario configs."""
    try:
        factory = PLANTS[name]
    except KeyError:
        raise ParameterError(f"unknown plant {name!r}; choices: {sorted(PLANTS)}")
    return factory(**kwargs)
