"""Euler-Lagrange plants: D(q) qdd + C(q, qd) qd + G(q) + Bd qd = A u.

The arms ``example2`` and ``cpm4`` are written once, as their geometry
(``_Arm``): links with point masses, and the constant inertia of links
or rotors.  Then D = I + sum_i m_i Jc_i^T Jc_i and C qd + G =
sum_i m_i Jc_i^T (a_i + g z), with Jc_i the Jacobian of mass centre i
and a_i its acceleration at qdd = 0 (Spong, Hutchinson & Vidyasagar,
ch. 7).  ``codegen`` records that arithmetic, as it records all
generated code: the float calls are the compiled records, and the
plant's stage, drift and transform code records the same arithmetic.
``example1``'s matrices are constant.  Viscous damping is a separate
matrix term Bd, outside C.  The input matrix A and Bd are constant.

A plant is described once: its compiled ``forces`` call gives D and
C qd + G, its compiled ``kinematics`` call gives the output map h, its
Jacobian J and d(J qd)/dq, and the constant completion matrix Z gives
the redundant coordinates zeta = (Z q, Z qd).  The array-valued
D, h and J are ``MechanicalSystem`` methods derived from those calls,
for callers outside the control period (h seeds the projection, J the
zero-dynamics velocity); ``completion`` gives zeta as floats.

``acceleration`` and ``drift_and_input`` are one generated call each on
float lists q and qd: ``_stage_code`` and ``_plant_code`` record the
plant's ``forces``, the right-hand side A u - Bd qd - (C qd + G) and the
Cholesky solve of D, ``cholesky_solve``, into one straight-line function
per plant and use (a constant D folds into literals; its checks still
run).  The RK4 stages and the portrait's field call ``acceleration``; the
transform layer records the forces and the drift solve, and the input
resolution its solves, with the same ``cholesky_solve``.
"""

import math
from dataclasses import dataclass, field
from functools import lru_cache
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
    generated code with A and Bd written into it and ``forces`` recorded:
    the calls of ``acceleration`` and ``drift_and_input``, the transform
    layer's and the period's, each compiled at first use.  ``Z_rows``, Z's
    rows as floats, serves ``completion`` and the transform layer.  D, h and J
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
        self.solves = _PlantSolves(self.A, self.damping, self.forces)
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


def cholesky_solve(code, d, cols, name="inertia matrix", at="q", value=None):
    """Record D^-1 b for each b in cols into ``code``; return them as lists.

    ``d`` holds the rows of D (the lower triangle is read) and each b,
    Vars or floats.  The factorization D = L L^T and the two
    triangular substitutions are recorded as straight-line code.  A
    non-finite D or solution raises DivergenceError; a pivot that is not
    positive raises NonSPDInertiaError.  The messages call D ``name``
    and report ``at`` (q by default) as the source expression ``value``
    (``at`` by default), evaluated only when a check fails.
    """
    n, value = len(d), value or at
    r = range(n)

    def finite(xs, what):
        code.require(f"isfinite({' + '.join(map(format, xs))})",
                     "DivergenceError", f"non-finite {what} at {at}={{{value}}}")

    finite([d[i][j] for i in r for j in range(i + 1)], name)
    L = [[None] * n for _ in r]
    for j in r:   # column j of L
        p = d[j][j]
        for k in range(j):
            p = p - L[j][k] * L[j][k]
        code.require(f"{p} > 0.0", "NonSPDInertiaError",
                     f"{name} not SPD at {at}={{{value}}}")
        # a constant pivot folds, unless the check rejects it at run time
        L[j][j] = (math.sqrt(p) if not isinstance(p, codegen.Var) and p > 0.0
                   else code.let("sqrt({})", p))
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


def _drift_and_input(code, A, Bd, forces):
    """Record the plant's ``forces``, then f_v = D^-1 (-Bd qd - bias) and the
    rows of g_v = D^-1 A from one factorization of D; return q, qd, f_v, g_v."""
    q, qd, d, bias = _recorded_forces(code, forces, len(A))
    f_v, *g = cholesky_solve(code, d, [_rhs(A, Bd, [0.0] * len(A), qd, bias),
                                       *zip(*A)])
    return q, qd, f_v, [list(x) for x in zip(*g)]


def _recorded_forces(code, forces, N):
    """Vars of the arguments q and qd, and the plant's ``forces`` recorded on
    them: (q, qd, D, C qd + G).  A compiled call records the arithmetic it
    keeps as ``arithmetic``; another (a constant one) is called on the Vars."""
    q, qd = code.unpack("q", (N,)), code.unpack("qd", (N,))
    return q, qd, *getattr(forces, "arithmetic", forces)(q, qd)


def _stage_code(A, Bd, forces):
    """Source of ``f(q, qd, u)``, one RK4 stage of the plant: its ``forces``,
    then qdd = D^-1 (A u - Bd qd - (C qd + G))."""
    code = codegen.Recorder()
    q, qd, d, bias = _recorded_forces(code, forces, len(A))
    (qdd,) = cholesky_solve(code, d, [_rhs(A, Bd, code.unpack("u", (len(A),)), qd, bias)])
    return code.function("q, qd, u", qdd)


def _plant_code(A, Bd, forces):
    """Source of ``f(q, qd)``: f_v and the rows of g_v (``_drift_and_input``)."""
    code = codegen.Recorder()
    return code.function("q, qd", _drift_and_input(code, A, Bd, forces)[2:])


class _PlantSolves(dict):
    """A plant's generated code, compiled at first use: that of a builder
    ``build(A, Bd, forces, *key)`` under the key ``build`` or (build, *key)."""

    def __init__(self, A, Bd, forces):
        super().__init__()
        self.constants = (*(tuple(map(tuple, X.tolist())) for X in (A, Bd)), forces)

    def __missing__(self, key):
        build, *rest = key if isinstance(key, tuple) else (key,)
        solve = self[key] = codegen.kernel(build, *self.constants, *rest)
        return solve


def drift_and_input(system, q, qd):
    """Affine velocity dynamics: qdd = f_v(x) + g_v(q) u.

    One Cholesky factorization of D serves the drift and every column
    of A.  Takes and returns float lists: f_v, and the rows of g_v.
    """
    return system.solves[_plant_code](q, qd)


def acceleration(system, q, qd, u):
    """qdd for a given input, solving D qdd = A u - Bd qd - (C qd + G) once.

    Takes and returns sequences of floats; the integrator calls it on lists.
    """
    try:
        return system.solves[_stage_code](q, qd, u)
    except ValueError:   # math.sin of an infinite angle, say
        if all(map(math.isfinite, q)):
            raise
        raise DivergenceError(f"non-finite configuration q={q}") from None


def _floats(v):
    """Entries of a configuration or velocity as Python floats."""
    return np.asarray(v, dtype=float).tolist()


# --- plants -----------------------------------------------------------------


@lru_cache(maxsize=None)   # one per value: equal plants share their code
def _constant_forces(rows, bias):
    """``forces`` of a plant whose D and C qd + G are ``rows`` and ``bias``."""
    return lambda q, qd: (rows, bias)


def make_example1(m1=1.0, m2=1.0, b1=1.0, b2=1.0):
    """Two stacked masses on a line; output is the top (second) block.

    N = 2, p = 1.  Linear dynamics; the coupling friction b2 appears as an
    off-diagonal viscous term.  zeta = (q1, qd1).
    """
    m1, m2, b1, b2 = (positive(f"example1 parameter {k}", v)
                      for k, v in (("m1", m1), ("m2", m2), ("b1", b1), ("b2", b2)))
    return MechanicalSystem(
        name="example1",
        A=np.eye(2),
        damping=np.array([[b1 + b2, -b2], [-b2, b2]]),
        Z=np.array([[1.0, 0.0]]),
        forces=_constant_forces(((m1, 0.0), (0.0, m2)), (0.0, 0.0)),
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
    forces, kinematics = _float_calls(_PLANAR3R)
    return MechanicalSystem(
        name="example2",
        A=np.eye(3),
        damping=np.diag(d),
        Z=np.ones((1, 3)),
        forces=forces,
        kinematics=kinematics,
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
    forces, kinematics = _float_calls(_CPM)
    return MechanicalSystem(
        name="cpm4",
        A=np.diag(_CPM_GAINS),
        damping=np.diag([3.0, 4.0, 3.0, 1.5]),
        Z=np.array([[0.0, 1.0, 1.0, 1.0]]),
        forces=forces,
        kinematics=kinematics,
        default_limits=Limits(
            q_min=[-np.pi, -0.4, -2.4, -2.0],
            q_max=[np.pi, 1.8, 2.4, 2.0],
            u_min=[-40.0, -60.0, -40.0, -20.0],
            u_max=[40.0, 60.0, 40.0, 20.0],
        ),
    )


def _sum(terms):
    """The terms added left to right, literal zeros left out; 0.0 if none."""
    terms = [t for t in terms if isinstance(t, codegen.Var) or t != 0.0]
    return sum(terms[1:], terms[0]) if terms else 0.0


def _times(a, b):
    """a * b, a literal factor 0.0, 1.0 or -1.0 folded."""
    for c, x in ((a, b), (b, a)):
        if not isinstance(c, codegen.Var) and c in (0.0, 1.0, -1.0):
            return 0.0 if c == 0.0 else x if c == 1.0 else -x
    return a * b


def _turn(x):
    """z x x: x turned a quarter about the normal of its first two axes."""
    return [_times(-1.0, x[1]), x[0], *[0.0] * (len(x) - 2)]


@dataclass(frozen=True, repr=False)   # its name labels its generated code
class _Arm:
    """A revolute arm: a chain of links in a plane that joint 0 turns.

    Link k's angle in the plane is the sum of the joint angles
    ``links[k]``; it has length ``lengths[k]`` and a point mass
    ``masses[k]`` at its middle.  The chain starts at ``base`` = (u, w) in
    the plane.  With ``dim`` 2 the plane is horizontal and joint 0, at
    its origin, turns every link.  With ``dim`` 3 the plane is the (x, z)
    plane of a waist, which joint 0 turns, and ``gravity`` pulls along
    -z.  ``rotor`` holds the rows of D's constant part.

    ``forces`` and ``kinematics`` are list arithmetic on Vars, in which
    the geometry's literal zeros and ones fold.  ``forces`` works in the
    frame of the first moving link: cpm4's D[0][j], j > 0, is a literal
    zero there, and example2's link angles are 0, q1 and q1 + q2.
    """

    name: str
    links: tuple
    lengths: tuple
    masses: tuple
    rotor: tuple
    base: tuple
    dim: int
    gravity: float = 0.0

    def __repr__(self):
        return self.name

    def _frame(self, v):
        """The plane's vector v = (u, w) in the frame."""
        return list(v) if self.dim == 2 else [v[0], 0.0, v[1]]

    def _chain(self, q, qd, weights, first_link):
        """The links (w_k, (cos, sin, angle rate), joints), last first, of
        the point base + sum_k w_k e_k, e_k = (cos, sin) of link k; its plane
        position; and each joint j's tail, sum_k w_k e_k over the links j
        turns (j's Jacobian column turned back a quarter), summed from the
        point on.  Angles are the first moving link's if ``first_link``
        (q0 dropped), else the world's."""
        links = []
        for joints in self.links:
            angle = _sum(q[j] for j in joints if not (first_link and j == 0))
            links.append((codegen.cos(angle), codegen.sin(angle),
                          _sum(qd[j] for j in joints)))
        terms = [*zip(weights, links, self.links)][::-1]
        tails = [[_sum(_times(w, e[c]) for w, e, joints in terms if j in joints)
                  for c in (0, 1)] for j in range(len(q))]
        position = [_sum([*(_times(w, e[c]) for w, e, _ in terms), b])
                    for c, b in enumerate(self.base)]
        return terms, position, tails

    def forces(self, q, qd):
        """(rows of D, C qd + G): ``rotor`` + sum_i m_i Jc_i^T Jc_i, and
        sum_i m_i Jc_i^T (a_i + g z) with a_i mass centre i's acceleration
        at qdd = 0, the gravity term being the potential's gradient.  The
        vectors are taken in the first moving link's frame turned a quarter
        back about the plane's normal, where a joint's column is its tail."""
        N, spin = len(q), qd[0]
        bodies = []
        for i, mass in enumerate(self.masses):
            weights = [*self.lengths[:i], self.lengths[i] / 2]
            terms, position, tails = self._chain(q, qd, weights, True)
            cols = [self._frame(t) for t in tails]
            # relative to the frame: -sum_k w_k rate_k^2 e_k, turned back
            acc = self._frame([_sum(_times(_times(sign * w, _times(rate, rate)), e[1 - c])
                                    for w, (*e, rate), _ in terms)
                               for c, sign in enumerate((-1.0, 1.0))])
            if self.dim == 3:   # the waist's column, the turning frame's parts, gravity
                cols[0] = [0.0, position[0], 0.0]
                v = _sum(map(_times, [t[1] for t in tails], qd))
                acc = [_sum([acc[0], self.gravity]), _times(_times(-2.0, spin), v),
                       _sum([acc[2], _times(_times(spin, spin), position[0])])]
            bodies.append((mass, cols, acc))
        # D[b][a] records the same entries as D[a][b], so it is computed once
        return [[_sum([self.rotor[a][b], *(_times(m, _sum(map(_times, cols[a], cols[b])))
                                           for m, cols, _ in bodies)])
                 for b in range(N)] for a in range(N)], [_sum(_times(m, _sum(map(_times, cols[a], acc)))
                        for m, cols, acc in bodies) for a in range(N)]

    def kinematics(self, q, qd):
        """(h, rows of J, rows of d(J qd)/dq) of the chain's end; a waist's
        are taken in its frame and turned into the world's by q0."""
        terms, position, tails = self._chain(q, qd, self.lengths, False)
        p, cols = self._frame(position), [self._frame(_turn(t)) for t in tails]
        # d/dq_j of J qd in the plane: -sum_k w_k rate_k e_k over the links j turns
        dcols = [self._frame([_sum(_times(_times(-w, rate), e[c])
                                   for w, (*e, rate), joints in terms if j in joints)
                              for c in (0, 1)]) for j in range(len(q))]
        if self.dim == 3:   # the waist's column and velocity, then the world's axes
            spin, cw, sw = qd[0], codegen.cos(q[0]), codegen.sin(q[0])
            cols[0] = _turn(p)
            v = [_sum([_times(spin, x), _sum(map(_times, y, qd[1:]))])
                 for x, y in zip(cols[0], zip(*cols[1:]))]
            dcols = [_turn(v), *([_sum([_times(spin, x), y]) for x, y in zip(_turn(c), r)]
                                 for c, r in zip(cols[1:], dcols[1:]))]

            def world(x):
                return [_sum([_times(cw, x[0]), _times(-sw, x[1])]),
                        _sum([_times(sw, x[0]), _times(cw, x[1])]), x[2]]

            p, cols, dcols = world(p), [*map(world, cols)], [*map(world, dcols)]
        return p, [list(r) for r in zip(*cols)], [list(r) for r in zip(*dcols)]


def _arm_code(arm, call):
    """Source of ``f(q, qd)``, the list arithmetic ``getattr(arm, call)``."""
    code = codegen.Recorder()
    q, qd = (code.unpack(name, (len(arm.rotor),)) for name in ("q", "qd"))
    return code.function("q, qd", getattr(arm, call)(q, qd))


def _float_calls(arm):
    """The arm's float ``forces`` and ``kinematics``: records compiled once per
    arm, named ``<arm>_<call>``, each keeping what it records as ``arithmetic``."""
    calls = [codegen.kernel(_arm_code, arm, name) for name in ("forces", "kinematics")]
    for call, name in zip(calls, ("forces", "kinematics")):
        call.__name__ = call.__qualname__ = f"{arm}_{name}"
        call.arithmetic = getattr(arm, name)
    return calls


# unit links, masses and inertias; link i turns at q0 + ... + qi, so its
# inertia adds 1 to every D[a][b] with a, b <= i
_PLANAR3R = _Arm("planar3r", links=((0,), (0, 1), (0, 1, 2)), lengths=(1.0,) * 3,
                 masses=(1.0,) * 3, base=(0.0, 0.0), dim=2,
                 rotor=((3.0, 2.0, 1.0), (2.0, 2.0, 1.0), (1.0, 1.0, 1.0)))
# the rotor inertia keeps D SPD everywhere
_CPM = _Arm("cpm", links=((1,), (1, 2), (1, 2, 3)), lengths=_CPM_LENGTHS,
            masses=_CPM_MASSES, base=(0.0, _CPM_BASE_HEIGHT), dim=3,
            rotor=tuple(map(tuple, np.diag(_CPM_ROTOR).tolist())), gravity=_CPM_GRAVITY)


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
