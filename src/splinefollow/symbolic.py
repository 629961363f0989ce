"""Symbolic derivation of the manipulator plants; the one module loading sympy.

``_lagrangian`` forms the inertia matrix from mass-centre Jacobians, its
Christoffel symbols, the gravity vector and the output kinematics.  This
module is a generator, not a run-time dependency: run from the
repository root,

    python -m splinefollow.symbolic

it writes the float code of each plant's ``forces`` and ``kinematics``
calls to ``_plants_generated.py`` next to this file, and that checked-in
module is all that ``make_example2`` and ``make_cpm_like`` import, so no
run loads sympy.  Regenerate after changing a plant here; a test
regenerates the text and fails while the checked-in file differs.

``oracle`` compiles the Christoffel matrix and the kinetic energy, which
only the tests use, as independent checks of the generated code.
"""

import re
from functools import lru_cache
from inspect import getsource
from pathlib import Path

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

GENERATED = Path(__file__).with_name("_plants_generated.py")

_HEADER = '''"""Float code of the symbolic plants' ``forces`` and ``kinematics`` calls.

Written by ``python -m splinefollow.symbolic`` from the derivations in
``symbolic.py``; do not edit.  ``<plant>_forces(q, qd)`` returns (rows of
D, C qd + G) and ``<plant>_kinematics(q, qd)`` returns (h, rows of J,
rows of d(J qd)/dq), as nested lists of floats.
"""

from math import cos, sin
'''


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


def _lambdify(q, qd, tree):
    """Float function of q, qd returning the nested lists ``tree``."""
    return sp.lambdify([q, qd], tree, "math", cse=_cse_nested)


def _lagrangian(q, coms, masses, inertia, potential, output):
    """Derive the dynamics and output kinematics of a plant.

    D = inertia + sum_i m_i Jc_i^T Jc_i, with Jc_i the Jacobian of mass
    centre ``coms[i]`` (Spong, Hutchinson & Vidyasagar, ch. 7); ``inertia``
    is the constant rotational part.  TR8 turns the products of sines and
    cosines in each entry into sums, which is all the simplification D
    needs.  C holds the Christoffel symbols of D, G is the gradient of
    ``potential`` and J is the Jacobian of the output map ``output``.

    Returns the velocity symbols qd and nested lists of expressions in
    q, qd: ``forces`` is (rows of D, C qd + G), with C qd + G summed over
    the velocity products qd_i qd_j, which evaluates faster than the
    product of C with qd; ``kinematics`` is (h, rows of J, rows of
    d(J qd)/dq); ``christoffel`` is the rows of C and ``energy`` is
    qd^T D qd / 2.
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
    J = sp.Matrix(output).jacobian(qv)
    return qd, {
        "forces": [D.tolist(), bias],
        "kinematics": [list(output), J.tolist(),
                       (J * sp.Matrix(qd)).jacobian(qv).tolist()],
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


@lru_cache(maxsize=1)
def _cpm():
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
    return q, *_lagrangian(q, coms, _CPM_MASSES, sp.diag(*_CPM_ROTOR), V,
                           (cw * reach, sw * reach, height))


# plant name, as it prefixes the generated functions -> its derivation
PLANTS = {"planar3r": _planar3r, "cpm": _cpm}


def _function_source(plant, call):
    """Source of ``<plant>_<call>(q, qd)`` as lambdify prints it.

    lambdify unpacks each list argument from a ``_Dummy_<n>`` whose
    number comes from a global counter; those become ``q`` and ``qd``.
    """
    q, qd, trees = PLANTS[plant]()
    src = getsource(_lambdify(q, qd, trees[call]))
    head = re.match(r"def _lambdifygenerated\((\w+), (\w+)\):", src)
    for dummy, name in zip(head.groups(), ("q", "qd")):
        src = re.sub(rf"\b{dummy}\b", name, src)
    return src.replace("_lambdifygenerated", f"{plant}_{call}", 1)


def source():
    """Text of ``_plants_generated.py``."""
    return _HEADER + "".join(
        "\n\n" + _function_source(plant, call)
        for plant in PLANTS for call in ("forces", "kinematics"))


@lru_cache(maxsize=None)
def oracle(plant, what):
    """Float function of q, qd: the array ``what`` of ``plant``.

    ``what`` is "christoffel", the (N, N) matrix C with C qd the
    Coriolis and centrifugal forces, or "energy", the kinetic energy
    qd^T D qd / 2.  Both are compiled here from the derivation, apart
    from the generated module.
    """
    q, qd, trees = PLANTS[plant]()
    f = _lambdify(q, qd, trees[what])
    return lambda q, qd: np.array(f(_floats(q), _floats(qd)), dtype=float)


def main():
    """Write ``_plants_generated.py``."""
    GENERATED.write_text(source())
    print(f"wrote {GENERATED}")


if __name__ == "__main__":
    main()
