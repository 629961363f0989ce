"""Euler-Lagrange plants: D(q) qdd + C(q, qd) qd + G(q) + Bd qd = A u.

The manipulator models are derived symbolically once per parameter set
(mass-centre Jacobians -> inertia matrix -> Christoffel symbols), so the
skew-symmetry of Ddot - 2C holds structurally rather than incidentally.
Viscous damping is kept as a separate matrix term Bd, outside C.  The
input matrix A and the damping Bd are constant.

``acceleration`` and ``drift_and_input`` run on Python floats: one
compiled call gives D and C qd + G, and a Cholesky solve unrolled for
the plant's N gives D^-1 times the right-hand sides.  A second compiled
call, ``kinematics``, gives the output map, its Jacobian J and
d(J qd)/dq as float lists for the control pass.  The array-valued D, C,
G, h, J and dJ_dq are views of these calls for callers outside the loop.
"""

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np
import sympy as sp
from sympy.simplify.fu import TR8

from .errors import DivergenceError, NonSPDInertiaError, ParameterError


@dataclass(frozen=True)
class State:
    """Configuration and velocity of a plant."""

    q: np.ndarray
    qd: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "q", np.asarray(self.q, dtype=float))
        object.__setattr__(self, "qd", np.asarray(self.qd, dtype=float))
        if not (np.all(np.isfinite(self.q)) and np.all(np.isfinite(self.qd))):
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
    and ``drift_and_input``.
    """

    name: str
    N: int
    p: int
    D: callable            # (N,) -> (N, N) inertia
    C: callable            # (N,), (N,) -> (N, N) Coriolis (Christoffel)
    G: callable            # (N,) -> (N,) gravity
    A: np.ndarray          # (N, N) input matrix
    damping: np.ndarray    # (N, N) viscous matrix Bd, force Bd @ qd
    h: callable            # (N,) -> (p,) output map
    J: callable            # (N,) -> (p, N) output Jacobian
    dJ_dq: callable        # (N,) -> (p, N, N), d J[a,b] / d q[c]
    completion: callable   # State -> (2N - 2p,) redundant coordinates zeta
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


def energy(system, state):
    """Kinetic energy (1/2) qd^T D qd; gravity potential not included."""
    return 0.5 * state.qd @ system.D(state.q) @ state.qd


# --- symbolic helpers -------------------------------------------------------


def _floats(v):
    """Entries of a configuration or velocity as Python floats."""
    return np.asarray(v, dtype=float).tolist()


def _cse_nested(tree):
    """sympy.cse over every entry of nested lists of expressions.

    sympy's own cse, which ``lambdify(cse=True)`` calls, shares
    subexpressions between the top-level items only, so it finds none
    in a list of matrices.
    """
    leaves = []

    def layout(t):
        if isinstance(t, list):
            return [layout(x) for x in t]
        leaves.append(t)
        return len(leaves) - 1

    shape = layout(tree)
    cses, reduced = sp.cse(leaves)

    def rebuild(t):
        return [rebuild(x) for x in t] if isinstance(t, list) else reduced[t]

    return cses, rebuild(shape)


def _lambdify(args, tree):
    """Float function of ``args`` returning the nested lists ``tree``."""
    return sp.lambdify(args, tree, "math", cse=_cse_nested)


def _lagrangian(q, coms, masses, inertia, potential, output):
    """Compile the dynamics and output kinematics of a plant.

    D = inertia + sum_i m_i Jc_i^T Jc_i, with Jc_i the Jacobian of mass
    centre ``coms[i]`` (Spong, Hutchinson & Vidyasagar, ch. 7); ``inertia``
    is the constant rotational part.  TR8 turns the products of sines and
    cosines in each entry into sums, which is all the simplification D
    needs.  C holds the Christoffel symbols of D, G is the gradient of
    ``potential`` and J is the Jacobian of the output map ``output``.

    The seventh function, the plant's ``forces``, maps float lists q, qd
    to (rows of D, C qd + G) in one call that shares subexpressions
    between the two.  C qd + G is summed over the velocity products
    qd_i qd_j, which evaluates faster than the product of C with qd;
    D and G are ``forces`` at rest.

    The eighth, ``kinematics``, maps q, qd to (h, rows of J, rows of
    d(J qd)/dq) in one call, again with shared subexpressions; h, J and
    dJ/dq are its views (column b of d(J qd)/dq at qd = e_b is dJ/dq_b).
    These functions return nested lists of Python numbers: lambdified
    with the math module's sin and cos, each entry is a few float
    operations.
    """
    n = len(q)
    qv = sp.Matrix(q)
    qd = sp.symbols(f"qdot0:{n}")
    D = sp.Matrix(inertia)
    for com, m in zip(coms, masses):
        Jc = sp.Matrix(com).jacobian(qv)
        D += m * Jc.T * Jc
    D = D.applyfunc(lambda e: sp.expand(TR8(sp.expand(e))))
    # Christoffel symbols times 2: gamma[k][i][j] qd_i qd_j / 2 summed is (C qd)_k
    gamma = [[[D[k, j].diff(q[i]) + D[k, i].diff(q[j]) - D[i, j].diff(q[k])
               for j in range(n)] for i in range(n)] for k in range(n)]
    C = sp.Matrix(n, n, lambda k, j: sum(gamma[k][i][j] * qd[i]
                                         for i in range(n)) / 2)
    # C qd + G with the symmetric pairs (i, j), (j, i) taken together
    bias = [sp.diff(potential, q[k]) + sum(
        gamma[k][i][j] / (2 if i == j else 1) * qd[i] * qd[j]
        for i in range(n) for j in range(i, n)) for k in range(n)]
    forces = _lambdify([q, qd], [D.tolist(), bias])
    coriolis = _lambdify([q, qd], C.tolist())
    J = sp.Matrix(output).jacobian(qv)
    kinematics = _lambdify(
        [q, qd], [list(output), J.tolist(), (J * sp.Matrix(qd)).jacobian(qv).tolist()])
    rest = [0.0] * n   # at qd = 0 the forces are (D, G)
    units = np.eye(n).tolist()

    def dJ_dq(q):
        q = _floats(q)
        return np.array([kinematics(q, e)[2] for e in units]).transpose(1, 0, 2)

    return (
        lambda q: np.array(forces(_floats(q), rest)[0]),
        lambda q, qd: np.array(coriolis(_floats(q), _floats(qd)), dtype=float),
        lambda q: np.array(forces(_floats(q), rest)[1]),
        lambda q: np.array(kinematics(_floats(q), rest)[0], dtype=float),
        lambda q: np.array(kinematics(_floats(q), rest)[1], dtype=float),
        dJ_dq,
        forces,
        kinematics,
    )


# --- plants -----------------------------------------------------------------


def make_example1(m1=1.0, m2=1.0, b1=1.0, b2=1.0):
    """Two stacked masses on a line; output is the top (second) block.

    N = 2, p = 1.  Linear dynamics; the coupling friction b2 appears as an
    off-diagonal viscous term.  zeta = (q1, qd1).
    """
    if min(m1, m2, b1, b2) <= 0:
        raise ParameterError("example1 parameters must be positive")
    N, p = 2, 1
    Dm = np.diag([m1, m2])
    Bd = np.array([[b1 + b2, -b2], [-b2, b2]])
    zero2 = np.zeros((N, N))
    forces = (Dm.tolist(), [0.0] * N)
    J = np.array([[0.0, 1.0]])
    dJ = np.zeros((p, N, N))

    return MechanicalSystem(
        name="example1",
        N=N,
        p=p,
        D=lambda q: Dm,
        C=lambda q, qd: zero2,
        G=lambda q: np.zeros(N),
        A=np.eye(N),
        damping=Bd,
        h=lambda q: np.array([q[1]]),
        J=lambda q: J,
        dJ_dq=lambda q: dJ,
        completion=lambda st: np.array([st.q[0], st.qd[0]]),
        forces=lambda q, qd: forces,
        kinematics=lambda q, qd: ([q[1]], [[0.0, 1.0]], [[0.0, 0.0]]),
        default_limits=Limits(
            q_min=[-2.0, -5.0], q_max=[2.0, 5.0],
            u_min=[-5.0, -5.0], u_max=[5.0, 5.0],
        ),
    )


@lru_cache(maxsize=1)
def _planar3r_symbolic():
    q = sp.symbols("q0:3")
    # unit links, masses and inertias; link i turns at q0 + ... + qi, so
    # its inertia adds 1 to every D[a, b] with a, b <= i
    coms, jx, jy, phi = [], sp.Integer(0), sp.Integer(0), sp.Integer(0)
    for qi in q:
        phi += qi
        coms.append((jx + sp.cos(phi) / 2, jy + sp.sin(phi) / 2))
        jx, jy = jx + sp.cos(phi), jy + sp.sin(phi)
    inertia = sp.Matrix(3, 3, lambda a, b: 3 - max(a, b))
    return _lagrangian(q, coms, (1, 1, 1), inertia, 0, (jx, jy))


def make_example2(damping=(2.0, 2.0, 2.0)):
    """Planar 3R manipulator, unit links/masses/inertias, no gravity.

    N = 3, p = 2 (end-effector position); one redundant degree of freedom:
    zeta = (q1 + q2 + q3, qd1 + qd2 + qd3), the end-effector angle and its
    rate.
    """
    d = np.asarray(damping, dtype=float)
    if d.shape != (3,) or np.any(d < 0):
        raise ParameterError("damping must be 3 nonnegative coefficients")
    D_fn, C_fn, G_fn, h_fn, J_fn, dJ_fn, forces, kinematics = _planar3r_symbolic()

    return MechanicalSystem(
        name="example2",
        N=3,
        p=2,
        D=D_fn,
        C=C_fn,
        G=G_fn,
        A=np.eye(3),
        damping=np.diag(d),
        h=h_fn,
        J=J_fn,
        dJ_dq=dJ_fn,
        completion=lambda st: np.array([st.q.sum(), st.qd.sum()]),
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


@lru_cache(maxsize=1)
def _cpm_symbolic():
    q = sp.symbols("q0:4")
    cw, sw = sp.cos(q[0]), sp.sin(q[0])
    phi = [q[1], q[1] + q[2], q[1] + q[2] + q[3]]
    lengths = [sp.Rational(str(v)) for v in _CPM_LENGTHS]
    coms, reach, height = [], sp.Integer(0), sp.Float(_CPM_BASE_HEIGHT)
    for length, f in zip(lengths, phi):
        c_r = reach + length * sp.cos(f) / 2
        coms.append((cw * c_r, sw * c_r, height + length * sp.sin(f) / 2))
        reach, height = reach + length * sp.cos(f), height + length * sp.sin(f)
    V = sum(m * _CPM_GRAVITY * c[2] for m, c in zip(_CPM_MASSES, coms))
    # rotor inertia keeps D SPD everywhere
    return _lagrangian(q, coms, _CPM_MASSES, sp.diag(*_CPM_ROTOR), V,
                       (cw * reach, sw * reach, height))


def make_cpm_like():
    """Synthetic 4-DOF arm with 3-D output: N = 4, p = 3, n - 2p = 2.

    Mirrors the structure of a waist + shoulder/elbow/wrist manipulator
    with viscous damping and static actuator gains folded into A.
    zeta = (q2 + q3 + q4, qd2 + qd3 + qd4), the wrist-plane angle sum.
    """
    D_fn, C_fn, G_fn, h_fn, J_fn, dJ_fn, forces, kinematics = _cpm_symbolic()

    return MechanicalSystem(
        name="cpm4",
        N=4,
        p=3,
        D=D_fn,
        C=C_fn,
        G=G_fn,
        A=np.diag(_CPM_GAINS),
        damping=np.diag([3.0, 4.0, 3.0, 1.5]),
        h=h_fn,
        J=J_fn,
        dJ_dq=dJ_fn,
        completion=lambda st: np.array([st.q[1:].sum(), st.qd[1:].sum()]),
        forces=forces,
        kinematics=kinematics,
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
