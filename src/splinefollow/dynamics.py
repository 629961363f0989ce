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
D, h and J are ``MechanicalSystem`` methods derived from those calls,
for callers outside the control period (h seeds the projection, J the
zero-dynamics velocity); ``completion`` gives zeta as floats.

``acceleration`` and ``drift_and_input`` run on float lists q and qd:
one ``forces`` call, then one generated call.  ``_plant_code`` records
the right-hand side A u - Bd qd - (C qd + G) and the Cholesky solve of
D, ``cholesky_solve``, with ``codegen``'s recorder into one
straight-line function per plant and use.  The RK4 hold and the
portrait's field call ``acceleration``; the control period records the
drift solve, ``_drift_and_input``, into the transform layer's function,
and the input resolution's solves with the same ``cholesky_solve``,
whose checks raise their typed errors from the generated code.
"""

import math
from dataclasses import dataclass, field
from operator import mul

import numpy as np

from . import codegen
from .errors import DivergenceError, ParameterError, from_json, positive, reals


@dataclass(frozen=True, eq=False)   # == is identity: the fields are arrays
class State:
    """Finite configuration and velocity arrays, for callers outside the loop."""

    q: np.ndarray
    qd: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "q", np.asarray(self.q, dtype=float))
        object.__setattr__(self, "qd", np.asarray(self.qd, dtype=float))
        if not (np.isfinite(self.q).all() and np.isfinite(self.qd).all()):
            raise ParameterError("state entries must be finite")


@dataclass(frozen=True, eq=False)   # == is identity: the fields are arrays
class Limits:
    """Per-joint configuration windows and per-input actuation windows.

    ``floats`` holds (q_min, q_max, u_min, u_max) as lists of floats,
    converted once at construction, for the control period.
    """

    q_min: np.ndarray
    q_max: np.ndarray
    u_min: np.ndarray
    u_max: np.ndarray
    floats: tuple = field(default=(), init=False, repr=False)

    def __post_init__(self):
        names = ("q_min", "q_max", "u_min", "u_max")
        for name in names:
            object.__setattr__(self, name,
                               reals(f"limits {name}", getattr(self, name), (None,)))
        for lo, hi in (("q_min", "q_max"), ("u_min", "u_max")):
            if len(getattr(self, lo)) != len(getattr(self, hi)):
                raise ParameterError(
                    f"limits {lo} and {hi} must have the same length; got "
                    f"{len(getattr(self, lo))} and {len(getattr(self, hi))}")
        if not (np.all(self.q_min < self.q_max) and np.all(self.u_min < self.u_max)):
            raise ParameterError("limit windows must satisfy min < max")
        object.__setattr__(self, "floats",
                           tuple(getattr(self, name).tolist() for name in names))


@dataclass(eq=False)   # == is identity: the fields hold arrays
class MechanicalSystem:
    """Evaluator bundle for one plant; immutable in practice.

    N = len(A) and p = N - len(Z) are derived.  ``solves`` holds the
    generated code with A and Bd written into it: the solves of
    ``acceleration`` and ``drift_and_input`` and the transform layer's
    function, each compiled at first use.  ``Z_rows``, Z's rows as
    floats, serves ``completion`` and the transform layer.  D, h and J
    evaluate the compiled calls at rest (qd = 0) and return arrays.
    """

    name: str
    N: int = field(init=False)
    p: int = field(init=False)
    A: np.ndarray          # (N, N) input matrix
    damping: np.ndarray    # (N, N) viscous matrix Bd, force Bd @ qd
    Z: np.ndarray          # (N - p, N) completion matrix, zeta = (Z q, Z qd)
    forces: callable       # q, qd floats -> (rows of D, entries of C qd + G)
    kinematics: callable   # q, qd floats -> (h, rows of J, rows of d(J qd)/dq)
    default_limits: Limits = None
    solves: dict = field(init=False, repr=False, compare=False)
    Z_rows: list = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.N, self.p = len(self.A), len(self.A) - len(self.Z)
        self.solves = _PlantSolves(self.A, self.damping)
        self.Z_rows = self.Z.tolist()

    def D(self, q):
        """(N, N) inertia matrix."""
        return np.array(self.forces(_floats(q), [0.0] * self.N)[0])

    def h(self, q):
        """(p,) output map."""
        return np.array(self.kinematics(_floats(q), [0.0] * self.N)[0], dtype=float)

    def J(self, q):
        """(p, N) output Jacobian."""
        return np.array(self.kinematics(_floats(q), [0.0] * self.N)[1], dtype=float)

    def completion(self, q, qd):
        """The 2N - 2p redundant coordinates zeta = (Z q, Z qd), as floats."""
        return _completion(self.Z_rows, q, qd)


def _completion(Z, q, qd):
    """zeta = (Z q, Z qd) for the rows Z, on floats or recorded Vars."""
    return [sum(map(mul, z, x)) for x in (q, qd) for z in Z]


def cholesky_solve(code, d, cols, name="inertia matrix", at="q"):
    """Record D^-1 b for each b in cols into ``code``; return them as lists.

    ``d`` holds the rows of D as Vars (the lower triangle is read), each
    b Vars or floats.  The factorization D = L L^T and the two
    triangular substitutions are recorded as straight-line code.  A
    non-finite D or solution raises DivergenceError; a pivot that is not
    positive raises NonSPDInertiaError.  The messages call D ``name``
    and report the value of the source expression ``at`` (the plant's
    configuration q by default).
    """
    n = len(d)
    r = range(n)

    def finite(xs, what):
        code.require(f"isfinite({' + '.join(map(format, xs))})",
                     "DivergenceError", f"non-finite {what} at {at}={{{at}}}")

    finite([d[i][j] for i in r for j in range(i + 1)], name)
    L = [[None] * n for _ in r]
    for j in r:   # column j of L
        p = d[j][j]
        for k in range(j):
            p = p - L[j][k] * L[j][k]
        code.require(f"{p} > 0.0", "NonSPDInertiaError",
                     f"{name} not SPD at {at}={{{at}}}")
        L[j][j] = codegen.sqrt(p)
        for i in range(j + 1, n):
            s = d[i][j]
            for k in range(j):
                s = s - L[i][k] * L[j][k]
            L[i][j] = s / L[j][j]
    out = []
    for b in cols:   # L y = b, then L^T x = y
        y, x = [], [None] * n
        for i in r:
            s = b[i]
            for k in range(i):
                s = s - L[i][k] * y[k]
            y.append(s / L[i][i])
        for i in reversed(r):
            s = y[i]
            for k in range(i + 1, n):
                s = s - L[k][i] * x[k]
            x[i] = s / L[i][i]
        finite(x, f"solution of the {name} system")
        out.append(x)
    return out


def _rhs(A, Bd, u, qd, bias):
    """A u - Bd qd - bias for the constant rows A, Bd, as recorded entries.

    Each row sums its terms with a nonzero coefficient left to right.
    """
    out = []
    for a_row, b_row, b in zip(A, Bd, bias):
        terms = [c * x for c, x in [*zip(a_row, u), *zip([-c for c in b_row], qd)]
                 if c != 0.0]
        out.append(sum(terms[1:], terms[0]) - b if terms else -b)
    return out


def _drift_and_input(code, A, Bd, d, bias, qd):
    """Record f_v = D^-1 (-Bd qd - bias) and the rows of g_v = D^-1 A,
    from one factorization of D, into ``code``; return them."""
    f_v, *g = cholesky_solve(code, d, [_rhs(A, Bd, [0.0] * len(A), qd, bias),
                                       *zip(*A)])
    return f_v, [list(x) for x in zip(*g)]


def _plant_code(A, Bd, inputs):
    """Source of the plant solve for the constant rows A and Bd.

    ``f(d, bias, u, qd, q)`` returns qdd = D^-1 (A u - Bd qd - bias) for
    the rows ``d`` of D and ``bias`` = C qd + G.  With ``inputs``,
    ``f(d, bias, qd, q)`` returns f_v and the rows of g_v
    (``_drift_and_input``).  ``q`` only goes into error messages.
    """
    N = len(A)
    code = codegen.Recorder()
    d = code.unpack("d", (N, N))
    bias, qd = code.unpack("bias", (N,)), code.unpack("qd", (N,))
    if inputs:
        return code.function("d, bias, qd, q",
                             _drift_and_input(code, A, Bd, d, bias, qd))
    u = code.unpack("u", (N,))
    (qdd,) = cholesky_solve(code, d, [_rhs(A, Bd, u, qd, bias)])
    return code.function("d, bias, u, qd, q", qdd)


class _PlantSolves(dict):
    """A plant's generated code with its A and Bd written in, compiled at
    first use: ``_plant_code``'s by its ``inputs`` flag, and that of
    another builder ``build(A, Bd, *key)`` by the tuple (build, *key)."""

    def __init__(self, A, Bd):
        super().__init__()
        self.constants = tuple(tuple(map(tuple, X.tolist())) for X in (A, Bd))

    def __missing__(self, key):
        build, *rest = key if isinstance(key, tuple) else (_plant_code, key)
        solve = self[key] = codegen.kernel(build, *self.constants, *rest)
        return solve


def drift_and_input(system, q, qd):
    """Affine velocity dynamics: qdd = f_v(x) + g_v(q) u.

    One Cholesky factorization of D serves the drift and every column
    of A.  Takes and returns float lists: f_v, and the rows of g_v.
    """
    return system.solves[True](*system.forces(q, qd), qd, q)


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
    return system.solves[False](d, bias, u, qd, q)


def _floats(v):
    """Entries of a configuration or velocity as Python floats."""
    return np.asarray(v, dtype=float).tolist()


# --- plants -----------------------------------------------------------------


def make_example1(m1=1.0, m2=1.0, b1=1.0, b2=1.0):
    """Two stacked masses on a line; output is the top (second) block.

    N = 2, p = 1.  Linear dynamics; the coupling friction b2 appears as an
    off-diagonal viscous term.  zeta = (q1, qd1).
    """
    m1, m2, b1, b2 = (positive(f"example1 parameter {k}", v)
                      for k, v in (("m1", m1), ("m2", m2), ("b1", b1), ("b2", b2)))
    forces = ([[m1, 0.0], [0.0, m2]], [0.0, 0.0])
    return MechanicalSystem(
        name="example1",
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
    d = reals("example2 parameter damping", damping, (None,))
    if d.shape != (3,) or np.any(d < 0):
        raise ParameterError("damping must be 3 nonnegative coefficients")
    from ._plants_generated import planar3r_forces, planar3r_kinematics

    return MechanicalSystem(
        name="example2",
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
    """Plant ``name``, from keyword arguments of its factory in ``kwargs``."""
    if not (isinstance(name, str) and name in PLANTS):
        raise ParameterError(f"unknown plant {name!r}; choices: {sorted(PLANTS)}")
    return from_json(f"{name} plant_kwargs", PLANTS[name], kwargs)
