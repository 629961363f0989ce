"""Euler-Lagrange plants: D(q) qdd + C(q, qd) qd + G(q) + Bd qd = A(q) u.

The manipulator models are derived symbolically once per parameter set
(kinetic energy -> inertia matrix -> Christoffel symbols), so the
skew-symmetry of Ddot - 2C holds structurally rather than incidentally.
Viscous damping is kept as a separate matrix term Bd, outside C.
"""

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np
import sympy as sp
from scipy.linalg.lapack import dpotrf, dpotrs

from .errors import NonSPDInertiaError, ParameterError


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
    """Evaluator bundle for one plant; immutable in practice."""

    name: str
    N: int
    p: int
    D: callable            # (N,) -> (N, N) inertia
    C: callable            # (N,), (N,) -> (N, N) Coriolis (Christoffel)
    G: callable            # (N,) -> (N,) gravity
    A: callable            # (N,) -> (N, N) input matrix
    damping: np.ndarray    # (N, N) viscous matrix Bd, force Bd @ qd
    h: callable            # (N,) -> (p,) output map
    J: callable            # (N,) -> (p, N) output Jacobian
    dJ_dq: callable        # (N,) -> (p, N, N), d J[a,b] / d q[c]
    completion: callable   # State -> (2N - 2p,) redundant coordinates zeta
    default_limits: Limits = None

    def djqd_dq(self, q, qd):
        """Matrix d(J qd)/dq of shape (p, N)."""
        return self.dJ_dq(q).transpose(0, 2, 1) @ qd


def _inertia_solve(D, rhs, q):
    """Solve D x = rhs through the Cholesky factorization of D.

    Calls the LAPACK pair (potrf/potrs) directly: for the N <= 4 plants
    here the checking wrappers around it cost several times the
    factorization itself.  potrf reads one triangle and lets NaN through,
    so finiteness is checked here; a failed factorization means the
    model's inertia matrix is not positive definite.
    """
    if not (np.isfinite(D).all() and np.isfinite(rhs).all()):
        raise ValueError(f"non-finite inertia matrix or right-hand side at q={q}")
    c, info = dpotrf(D, lower=True)
    if info != 0:
        raise NonSPDInertiaError(f"inertia matrix not SPD at q={q}")
    return dpotrs(c, rhs, lower=True)[0]


def drift_and_input(system, state):
    """Affine velocity dynamics: qdd = f_v(x) + g_v(q) u.

    D is inverted through its Cholesky factorization; a failure there
    means the model's inertia matrix is not positive definite.
    """
    q, qd = state.q, state.qd
    rhs_drift = -(system.C(q, qd) @ qd + system.G(q) + system.damping @ qd)
    x = _inertia_solve(system.D(q), np.column_stack([rhs_drift, system.A(q)]), q)
    return x[:, 0], x[:, 1:]


def acceleration(system, q, qd, u):
    """qdd for a given input, solving D qdd = A u - C qd - G - Bd qd once."""
    rhs = (
        system.A(q) @ u
        - system.C(q, qd) @ qd
        - system.G(q)
        - system.damping @ qd
    )
    return _inertia_solve(system.D(q), rhs, q)


def energy(system, state):
    """Kinetic energy (1/2) qd^T D qd; gravity potential not included."""
    return 0.5 * state.qd @ system.D(state.q) @ state.qd


# --- symbolic helpers -------------------------------------------------------


def _christoffel(D_sym, q_sym):
    n = len(q_sym)
    qd_sym = sp.symbols(f"qdot0:{n}")
    C = sp.zeros(n, n)
    for k in range(n):
        for j in range(n):
            cc = 0
            for i in range(n):
                cc += (
                    sp.Rational(1, 2)
                    * (
                        sp.diff(D_sym[k, j], q_sym[i])
                        + sp.diff(D_sym[k, i], q_sym[j])
                        - sp.diff(D_sym[i, j], q_sym[k])
                    )
                    * qd_sym[i]
                )
            C[k, j] = sp.simplify(cc)
    return C, qd_sym


def _floats(v):
    """Entries of a configuration or velocity as Python floats."""
    return np.asarray(v, dtype=float).tolist()


def _compile(args, expr, shape):
    """Lambdify expr into a callable returning a float array of ``shape``.

    Each argument is one configuration or velocity, so the generated
    expressions act on scalars: fed Python floats, with sin/cos from the
    math module, they cost a fraction of the same arithmetic on numpy
    scalars.  A constant expression (a plant without gravity, say) is
    evaluated once.
    """
    f = sp.lambdify(args, expr, ["math", "numpy"], cse=True)
    if not sp.Array(expr).free_symbols:
        const = np.asarray(f(*[[0.0] * len(a) for a in args]), dtype=float)
        const = const.reshape(shape)
        return lambda *vals: const
    return lambda *vals: np.asarray(
        f(*map(_floats, vals)), dtype=float
    ).reshape(shape)


def _lambdify_plant(q_sym, qd_sym, D_sym, C_sym, G_sym, h_sym):
    """Lambdify D, C, G, h, J and dJ/dq as callables returning arrays."""
    n = len(q_sym)
    p = len(h_sym)
    J_sym = h_sym.jacobian(sp.Matrix(q_sym))
    dJ_list = [[[sp.diff(J_sym[a, b], q_sym[c]) for c in range(n)]
                for b in range(n)] for a in range(p)]
    return (
        _compile([q_sym], D_sym, (n, n)),
        _compile([q_sym, qd_sym], C_sym, (n, n)),
        _compile([q_sym], G_sym, (n,)),
        _compile([q_sym], h_sym, (p,)),
        _compile([q_sym], J_sym, (p, n)),
        _compile([q_sym], dJ_list, (p, n, n)),
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
    eye2 = np.eye(N)
    J = np.array([[0.0, 1.0]])
    dJ = np.zeros((p, N, N))

    return MechanicalSystem(
        name="example1",
        N=N,
        p=p,
        D=lambda q: Dm,
        C=lambda q, qd: zero2,
        G=lambda q: np.zeros(N),
        A=lambda q: eye2,
        damping=Bd,
        h=lambda q: np.array([q[1]]),
        J=lambda q: J,
        dJ_dq=lambda q: dJ,
        completion=lambda st: np.array([st.q[0], st.qd[0]]),
        default_limits=Limits(
            q_min=[-2.0, -5.0], q_max=[2.0, 5.0],
            u_min=[-5.0, -5.0], u_max=[5.0, 5.0],
        ),
    )


@lru_cache(maxsize=1)
def _planar3r_symbolic():
    n = 3
    q = sp.symbols(f"q0:{n}")
    masses = [1, 1, 1]
    lengths = [1, 1, 1]
    inertias = [1, 1, 1]

    qd_tmp = sp.symbols(f"qdot0:{n}")
    phi = [sum(q[: i + 1]) for i in range(n)]
    phid = [sum(qd_tmp[: i + 1]) for i in range(n)]
    # joint and COM positions
    jx, jy = sp.Integer(0), sp.Integer(0)
    T = sp.Integer(0)
    tips = []
    for i in range(n):
        cx = jx + sp.Rational(1, 2) * lengths[i] * sp.cos(phi[i])
        cy = jy + sp.Rational(1, 2) * lengths[i] * sp.sin(phi[i])
        vcx = sum(sp.diff(cx, q[j]) * qd_tmp[j] for j in range(n))
        vcy = sum(sp.diff(cy, q[j]) * qd_tmp[j] for j in range(n))
        T += sp.Rational(1, 2) * masses[i] * (vcx**2 + vcy**2)
        T += sp.Rational(1, 2) * inertias[i] * phid[i] ** 2
        jx = jx + lengths[i] * sp.cos(phi[i])
        jy = jy + lengths[i] * sp.sin(phi[i])
    T = sp.expand(sp.trigsimp(T))
    D_sym = sp.Matrix(
        [[sp.simplify(sp.diff(T, qd_tmp[i], qd_tmp[j])) for j in range(n)]
         for i in range(n)]
    )
    C_sym, qd_sym = _christoffel(D_sym, q)
    G_sym = sp.Matrix([0, 0, 0])  # gravity ignored for this plant
    h_sym = sp.Matrix([jx, jy])
    return _lambdify_plant(q, qd_sym, D_sym, C_sym, G_sym, h_sym)


def make_example2(damping=(2.0, 2.0, 2.0)):
    """Planar 3R manipulator, unit links/masses/inertias, no gravity.

    N = 3, p = 2 (end-effector position); one redundant degree of freedom:
    zeta = (q1 + q2 + q3, qd1 + qd2 + qd3), the end-effector angle and its
    rate.
    """
    d = np.asarray(damping, dtype=float)
    if d.shape != (3,) or np.any(d < 0):
        raise ParameterError("damping must be 3 nonnegative coefficients")
    D_fn, C_fn, G_fn, h_fn, J_fn, dJ_fn = _planar3r_symbolic()
    eye3 = np.eye(3)

    return MechanicalSystem(
        name="example2",
        N=3,
        p=2,
        D=D_fn,
        C=C_fn,
        G=G_fn,
        A=lambda q: eye3,
        damping=np.diag(d),
        h=h_fn,
        J=J_fn,
        dJ_dq=dJ_fn,
        completion=lambda st: np.array([st.q.sum(), st.qd.sum()]),
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
    n = 4
    q = sp.symbols(f"q0:{n}")
    qd_tmp = sp.symbols(f"qdot0:{n}")
    lengths = [sp.Rational(str(v)) for v in _CPM_LENGTHS]
    masses = list(_CPM_MASSES)

    cw, sw = sp.cos(q[0]), sp.sin(q[0])
    phi = [q[1], q[1] + q[2], q[1] + q[2] + q[3]]
    T = sp.Integer(0)
    V = sp.Integer(0)
    reach, height = sp.Integer(0), sp.Float(_CPM_BASE_HEIGHT)
    for i in range(3):
        c_r = reach + sp.Rational(1, 2) * lengths[i] * sp.cos(phi[i])
        c_z = height + sp.Rational(1, 2) * lengths[i] * sp.sin(phi[i])
        cx, cy, cz = cw * c_r, sw * c_r, c_z
        vel = [sum(sp.diff(c, q[j]) * qd_tmp[j] for j in range(n)) for c in (cx, cy, cz)]
        T += sp.Rational(1, 2) * masses[i] * sum(v**2 for v in vel)
        V += masses[i] * _CPM_GRAVITY * cz
        reach = reach + lengths[i] * sp.cos(phi[i])
        height = height + lengths[i] * sp.sin(phi[i])
    T = sp.expand(T)
    D_sym = sp.Matrix(
        [[sp.diff(T, qd_tmp[i], qd_tmp[j]) for j in range(n)] for i in range(n)]
    )
    D_sym = D_sym + sp.diag(*_CPM_ROTOR)  # rotor inertia keeps D SPD everywhere
    C_sym, qd_sym = _christoffel(D_sym, q)
    G_sym = sp.Matrix([sp.diff(V, q[i]) for i in range(n)])
    h_sym = sp.Matrix([cw * reach, sw * reach, height])
    return _lambdify_plant(q, qd_sym, D_sym, C_sym, G_sym, h_sym)


def make_cpm_like():
    """Synthetic 4-DOF arm with 3-D output: N = 4, p = 3, n - 2p = 2.

    Mirrors the structure of a waist + shoulder/elbow/wrist manipulator
    with viscous damping and static actuator gains folded into A(q).
    zeta = (q2 + q3 + q4, qd2 + qd3 + qd4), the wrist-plane angle sum.
    """
    D_fn, C_fn, G_fn, h_fn, J_fn, dJ_fn = _cpm_symbolic()
    A_mat = np.diag(_CPM_GAINS)
    damping = np.diag([3.0, 4.0, 3.0, 1.5])

    return MechanicalSystem(
        name="cpm4",
        N=4,
        p=3,
        D=D_fn,
        C=C_fn,
        G=G_fn,
        A=lambda q: A_mat,
        damping=damping,
        h=h_fn,
        J=J_fn,
        dJ_dq=dJ_fn,
        completion=lambda st: np.array([st.q[1:].sum(), st.qd[1:].sum()]),
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
