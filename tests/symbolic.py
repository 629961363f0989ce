"""Symbolic derivation of the manipulator plants, the tests' oracle.

``_lagrangian`` forms the inertia matrix from mass-centre Jacobians, its
Christoffel symbols, the gravity vector and the output kinematics (h, J
and Jdot qd) with sympy, apart from the package, which records each
arm's ``forces`` and ``kinematics`` from its geometry (``dynamics._Arm``).
``oracle`` compiles one of them to float code: the forces and kinematics,
which ``test_symbolic.py`` compares with the package's calls, and the
Christoffel matrix and kinetic energy, which the other tests check the
package's dynamics with.  The constants are exact rationals, so terms
that cancel in the derivation leave no rounding residue.
"""

from functools import lru_cache

import numpy as np
import sympy as sp
from sympy.simplify.fu import TR8

from splinefollow.dynamics import (
    _CPM_BASE_HEIGHT,
    _CPM_GRAVITY,
    _CPM_LENGTHS,
    _CPM_MASSES,
    _CPM_ROTOR,
    _floats,
)


def _lagrangian(q, coms, masses, inertia, potential, output):
    """Derive the dynamics and output kinematics of a plant.

    D = inertia + sum_i m_i Jc_i^T Jc_i, with Jc_i the Jacobian of mass
    centre ``coms[i]`` (Spong, Hutchinson & Vidyasagar, ch. 7); ``inertia``
    is the constant rotational part.  TR8 turns the products of sines and
    cosines in each entry into sums, which is all the simplification D
    needs.  C holds the Christoffel symbols of D, G is the gradient of
    ``potential`` and J is the Jacobian of the output map ``output``.

    Returns the velocity symbols qd and nested lists of expressions in
    q, qd: ``forces`` is (rows of D, C qd + G); ``kinematics`` is (h,
    rows of J, Jdot qd: J qd's Jacobian times qd, the output's
    acceleration at qdd = 0); ``christoffel`` is the rows of C and
    ``energy`` is qd^T D qd / 2.
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
    Cqd = C * sp.Matrix(qd)
    bias = [sp.diff(potential, q[k]) + Cqd[k] for k in range(n)]
    J, qdv = sp.Matrix(output).jacobian(qv), sp.Matrix(qd)
    return qd, {
        "forces": [D.tolist(), bias],
        "kinematics": [list(output), J.tolist(),
                       list((J * qdv).jacobian(qv) * qdv)],
        "christoffel": C.tolist(),
        "energy": (sp.Matrix(qd).T * D * sp.Matrix(qd))[0] / 2,
    }


@lru_cache(maxsize=1)
def _planar3r():
    q = sp.symbols("q0:3")
    # unit links, masses and inertias; link i turns at q0 + ... + qi, so
    # its inertia adds 1 to every D[a, b] with a, b <= i
    coms, jx, jy, phi = [], sp.Integer(0), sp.Integer(0), sp.Integer(0)
    for qi in q:
        phi += qi
        coms.append((jx + sp.cos(phi) / 2, jy + sp.sin(phi) / 2))
        jx, jy = jx + sp.cos(phi), jy + sp.sin(phi)
    inertia = sp.Matrix(3, 3, lambda a, b: 3 - max(a, b))
    return q, *_lagrangian(q, coms, (1, 1, 1), inertia, 0, (jx, jy))


def _exact(values):
    return [sp.Rational(str(v)) for v in values]


@lru_cache(maxsize=1)
def _cpm():
    q = sp.symbols("q0:4")
    cw, sw = sp.cos(q[0]), sp.sin(q[0])
    phi = [q[1], q[1] + q[2], q[1] + q[2] + q[3]]
    masses, rotor = _exact(_CPM_MASSES), _exact(_CPM_ROTOR)
    gravity, base_height = _exact((_CPM_GRAVITY, _CPM_BASE_HEIGHT))
    coms, reach, height = [], sp.Integer(0), base_height
    for length, f in zip(_exact(_CPM_LENGTHS), phi):
        c_r = reach + length * sp.cos(f) / 2
        coms.append((cw * c_r, sw * c_r, height + length * sp.sin(f) / 2))
        reach, height = reach + length * sp.cos(f), height + length * sp.sin(f)
    V = sum(m * gravity * c[2] for m, c in zip(masses, coms))
    # rotor inertia keeps D SPD everywhere
    return q, *_lagrangian(q, coms, masses, sp.diag(*rotor), V,
                           (cw * reach, sw * reach, height))


# plant name -> its derivation
PLANTS = {"example2": _planar3r, "cpm4": _cpm}


@lru_cache(maxsize=None)
def oracle(plant, what):
    """Float function of q, qd: ``what`` of ``plant`` as nested lists of
    floats, or as an array for "christoffel" and "energy".

    ``what`` is "forces" (rows of D, C qd + G), "kinematics" (h, rows of
    J, Jdot qd), "christoffel", the (N, N) matrix C with C qd
    the Coriolis and centrifugal forces, or "energy", the kinetic energy
    qd^T D qd / 2.
    """
    q, qd, trees = PLANTS[plant]()
    f = sp.lambdify([q, qd], trees[what], "math")
    if what in ("forces", "kinematics"):
        return lambda q, qd: f(_floats(q), _floats(qd))
    return lambda q, qd: np.array(f(_floats(q), _floats(qd)), dtype=float)
