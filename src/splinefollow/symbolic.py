"""Symbolic derivation of the manipulator plants; the one module loading sympy.

``_lagrangian`` forms the inertia matrix from mass-centre Jacobians, its
Christoffel symbols, the gravity vector and the output kinematics, and
compiles them into functions of Python floats.  ``make_example2`` and
``make_cpm_like`` import this module when called, so a run on a plant
with constant matrices (``example1``) never loads sympy.  Each plant is
derived once per process.
"""

from functools import lru_cache

import numpy as np
import sympy as sp
from sympy.simplify.fu import TR8

from .dynamics import (
    _CPM_BASE_HEIGHT,
    _CPM_GRAVITY,
    _CPM_LENGTHS,
    _CPM_MASSES,
    _CPM_ROTOR,
    _floats,
)


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

    It returns three functions.  The first maps q, qd to the (N, N) array
    C.  The plant's ``forces`` maps float lists q, qd to (rows of D,
    C qd + G) in one call that shares subexpressions between the two;
    C qd + G is summed over the velocity products qd_i qd_j, which
    evaluates faster than the product of C with qd.  ``kinematics`` maps
    q, qd to (h, rows of J, rows of d(J qd)/dq) in one call, again with
    shared subexpressions.  These two return nested lists of Python
    numbers: lambdified with the math module's sin and cos, each entry is
    a few float operations.
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
    return (
        lambda q, qd: np.array(coriolis(_floats(q), _floats(qd)), dtype=float),
        forces,
        kinematics,
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
