"""Generalized Frenet-Serret frames along a path.

Frames are built by Gram-Schmidt on the curve derivatives sigma', ...,
sigma^(p).  First and second lambda-derivatives of the frame vectors are
obtained by forward-mode differentiation of the Gram-Schmidt recursion
(jets of order 2), which needs curve derivatives only up to order p+1:
the last vector's second derivative is recovered from the generalized
Frenet-Serret equations instead of a third-order jet.

Curves violating the framed assumption (straight lines, planar curves in
a 3-D workspace) are handled by fallback policies per the supported
completion modes.

The jet arithmetic is written once, in ``_frame_values``, and runs on
the recorded variables of ``codegen``.  ``frame_jet`` compiles it alone,
one straight-line function of Python floats per output dimension p,
completion mode and vectors (its constants), generated at first use; the
control period records it into its one function after the projection
(see ``transform``).  A curve derivative that is NaN or infinite fails the
regularity, the degeneracy or, last, the finiteness check of the frame
values.
"""

import math
from dataclasses import dataclass
from operator import mul

from . import codegen
from .errors import ParameterError, reals

REGULARITY_TOL = 1e-12
DEGENERACY_TOL = 1e-10


@dataclass(frozen=True)
class FramePolicy:
    """How to complete an orthonormal frame along the curve.

    ``frenet_serret`` runs Gram-Schmidt on sigma', ..., sigma^(p).
    ``line_fallback`` orthonormalizes user completion vectors against the
    unit tangent, in the given order.  ``planar_fallback`` builds an
    orientation-consistent frame that survives inflection points (where
    sigma'' is parallel to sigma' and strict Gram-Schmidt collapses):
    with p = 2, e2 is the 90 degree rotation of e1; with p = 3,
    fixed_vectors[0] is the plane normal, e2 = n x e1 and e3 = n.  Each
    fixed vector a fallback uses has exactly p entries.  The vectors are
    kept as tuples of floats; a zero or non-finite one is a ParameterError,
    and the plane normal is stored as a unit vector.  ``_completion``
    checks that they fit p when they are written into the frame code.
    """

    mode: str = "frenet_serret"
    fixed_vectors: tuple = ()

    def __post_init__(self):
        if self.mode not in ("frenet_serret", "planar_fallback", "line_fallback"):
            raise ParameterError(f"unknown frame policy mode {self.mode!r}")
        vectors = []
        for j, v in enumerate(self.fixed_vectors):
            v = reals(f"completion vector {j}", v, (None,))
            if not v.any():
                raise ParameterError(f"completion vector {j} must be a nonzero list "
                                     f"of finite numbers; got {v.tolist()}")
            vectors.append(v.tolist())
        if self.mode == "planar_fallback" and vectors:
            n = vectors[0]   # the plane normal, made a unit vector once
            norm = math.sqrt(dot(n, n))
            vectors[0] = [x / norm for x in n]
        object.__setattr__(self, "fixed_vectors", tuple(map(tuple, vectors)))


FRENET = FramePolicy()


# --- order-2 jet arithmetic -------------------------------------------------
# A vector jet is a triple of lists (value, d/dlam, d2/dlam2), each of
# length p; a scalar jet is a triple.  The entries are floats, or the
# recorded variables of the generated frame code.


def dot(u, v):
    """Inner product: 0.0 + u0 v0 + u1 v1 + ..., summed left to right."""
    return sum(map(mul, u, v), 0.0)


def _jinner(u, v):
    (u0, u1, u2), (v0, v1, v2) = u, v
    return (
        dot(u0, v0),
        dot(u1, v0) + dot(u0, v1),
        dot(u2, v0) + 2.0 * dot(u1, v1) + dot(u0, v2),
    )


def _jminus_scaled(b, s, v):
    """The vector jet b - s v."""
    (b0, b1, b2), (s0, s1, s2), (v0, v1, v2) = b, s, v
    return (
        [y - s0 * x for y, x in zip(b0, v0)],
        [y - (s1 * x + s0 * dx) for y, x, dx in zip(b1, v0, v1)],
        [y - (s2 * x + 2.0 * s1 * dx + s0 * ddx)
         for y, x, dx, ddx in zip(b2, v0, v1, v2)],
    )


def _jnorm(u, check):
    """The jet of ||u||; ``check(n0)`` records the test of ||u|| before the
    division by it."""
    s0, s1, s2 = _jinner(u, u)
    n0 = codegen.sqrt(s0)
    check(n0)
    n1 = s1 / (2.0 * n0)
    return n0, n1, (s2 - 2.0 * n1 * n1) / (2.0 * n0)


def _jdiv(v, n):
    """The vector jet v / n for a scalar jet n."""
    (v0, v1, v2), (n0, n1, n2) = v, n
    w0 = [x / n0 for x in v0]
    w1 = [(x - a * n1) / n0 for x, a in zip(v1, w0)]
    w2 = [(x - 2.0 * b * n1 - a * n2) / n0 for x, b, a in zip(v2, w1, w0)]
    return w0, w1, w2


def _gram_schmidt_jets(code, base_jets):
    """Orthonormalize jet vectors, propagating derivatives."""
    out = []
    for j, B in enumerate(base_jets, 1):
        eb = B
        for e in out:
            eb = _jminus_scaled(eb, _jinner(B, e), e)

        def nondegenerate(n0, j=j):
            code.require(f"{n0} >= {DEGENERACY_TOL!r}", "DegenerateFrameError",
                         f"Gram-Schmidt residual collapsed at vector {j} "
                         f"(norm {{{n0}:.3e}})", index=j)

        out.append(_jdiv(eb, _jnorm(eb, nondegenerate)))
    return out


def _parts(values, p):
    """(e, de, dde, curvatures, curvature rates, speed jet) of the frame values.

    e, de and dde are lists of p rows of p; the rest are lists.
    """
    sq = p * p
    rows = [list(values[i:i + p]) for i in range(0, 3 * sq, p)]
    tail = list(values[3 * sq:])
    return (rows[:p], rows[p:2 * p], rows[2 * p:],
            tail[:p - 1], tail[p - 1:2 * p - 2], tail[2 * p - 2:])


@dataclass(slots=True)
class FrameJet:
    """The frame at (k, lam) and its first two lambda-derivatives, as floats.

    ``rows`` holds sigma, sigma', ..., sigma^(p+1).  ``values`` is what
    the generated frame code returns: the frame vectors e_i, their
    derivatives e_i' and e_i'' (p rows of p each), the p - 1 curvatures
    chi_i = <e_i', e_{i+1}> / ||sigma'||, their derivatives, and the jet
    of ||sigma'||; ``_parts`` splits them.
    """

    k: int
    lam: float
    rows: list
    values: tuple


def _completion(mode, p, fixed_vectors):
    """The fixed vectors ``mode`` completes a p-dimensional frame with;
    ParameterError if the mode or the vectors do not fit p."""
    if mode == "planar_fallback" and p not in (2, 3):
        raise ParameterError("planar_fallback requires a 2-D or 3-D output")
    count = {"line_fallback": p - 1, "planar_fallback": int(p == 3)}.get(mode, 0)
    vectors = fixed_vectors[:count]
    if len(vectors) < count:
        raise ParameterError(f"{mode} needs {count} completion vector(s) "
                             f"for p = {p}; got {len(vectors)}")
    for j, v in enumerate(vectors):
        if len(v) != p:
            raise ParameterError(f"{mode} completion vector {j} must "
                                 f"have p = {p} entries; got {len(v)}")
    return vectors


def _frame_values(code, p, mode, fixed_vectors):
    """Record the frame values at one point into ``code``.

    They are computed from the argument ``rows`` (sigma, ...,
    sigma^(p+1)) and the mode's completion vectors, written in as
    constants, and the checks report ``lam``.  Returns the Vars of the
    rows and the values.
    """
    fixed = _completion(mode, p, fixed_vectors)
    sigma = code.unpack("rows", (p + 2, p))
    # curve derivatives sigma^(0) .. sigma^(p+1); beyond that jets get zeros
    zero = [0.0] * p
    rows = sigma + [zero, zero]

    def sigma_jet(j):
        # jet of sigma^(j): value sigma^(j), d1 sigma^(j+1), d2 sigma^(j+2)
        return rows[j], rows[j + 1], rows[j + 2]

    def regular(n0):
        code.require(f"{n0} >= {REGULARITY_TOL!r}", "IrregularCurveError",
                     f"||sigma'({{lam}})|| = {{{n0}:.3e}} (irregular)")

    speed = _jnorm(sigma_jet(1), regular)
    if mode == "frenet_serret":
        ejets = _gram_schmidt_jets(code, [sigma_jet(j) for j in range(1, p + 1)])
    elif mode == "line_fallback":
        ejets = _gram_schmidt_jets(
            code, [sigma_jet(1)] + [(v, zero, zero) for v in fixed])
    elif p == 2:
        (e1,) = _gram_schmidt_jets(code, [sigma_jet(1)])
        # e2 is e1 turned by +90 degrees
        ejets = [e1, tuple([-y, x] for x, y in e1)]
    else:
        (n,) = fixed   # the unit plane normal
        (e1,) = _gram_schmidt_jets(code, [sigma_jet(1)])
        code.require(f"{abs(dot(n, e1[0]))} <= 1e-08", "DegenerateFrameError",
                     "tangent is not orthogonal to the supplied plane normal",
                     index=2)
        n0, n1, n2 = n
        e2 = tuple([n1 * z - n2 * y, n2 * x - n0 * z, n0 * y - n1 * x]
                   for x, y, z in e1)   # n x e1
        ejets = [e1, e2, (n, zero, zero)]

    e, de, dde = (list(r) for r in zip(*ejets))
    s0, s1, _ = speed

    # generalized curvatures chi_i = <e_i', e_{i+1}> / ||sigma'||
    chi = [dot(de[i], e[i + 1]) / s0 for i in range(p - 1)]
    chi_rate = [
        (dot(dde[i], e[i + 1]) + dot(de[i], de[i + 1])) / s0 - chi[i] * s1 / s0
        for i in range(p - 1)
    ]

    if mode == "frenet_serret" and p > 1:
        # sigma^(p+2) is unavailable, so e_p'' from the jet is wrong:
        # e_p' = -||sigma'|| chi_{p-1} e_{p-1}; differentiate once more
        cm, cmr = chi[p - 2], chi_rate[p - 2]
        c = -(s1 * cm + s0 * cmr)
        dde[p - 1] = [c * x - s0 * cm * dx for x, dx in zip(e[p - 2], de[p - 2])]

    values = [x for block in (e, de, dde) for row in block for x in row]
    values += chi + chi_rate + list(speed)
    # a NaN or an infinity in any value makes their sum NaN or infinite
    total = " + ".join(dict.fromkeys(
        format(x) for x in values if isinstance(x, codegen.Var)))
    code.require(f"isfinite({total})", "DegenerateFrameError",
                 f"the {mode} frame (p = {p}) at lambda = {{lam}} has values "
                 "that are not finite")
    return sigma, values


def _frame_code(p, mode, fixed_vectors):
    """Source of ``f(rows, lam)``, the frame values at one point.

    ``rows`` holds sigma, ..., sigma^(p+1), and ``lam`` is reported by
    the checks; the mode's completion vectors are constants of the code.
    """
    code = codegen.Recorder()
    _, values = _frame_values(code, p, mode, fixed_vectors)
    return code.function("rows, lam", tuple(values))


def frame_jet(path, k, lam, policy=FRENET):
    """Compute the frame and its first two derivatives at (k, lam).

    Runs the generated frame code of the path's p and the policy's mode
    and completion vectors on the curve derivatives at (k, lam).
    ParameterError if the policy does not fit p.  IrregularCurveError if
    ||sigma'|| is below 1e-12 or NaN, DegenerateFrameError (with the
    vector's ``index``) if a Gram-Schmidt residual is below 1e-10 or NaN,
    and DegenerateFrameError (index None, naming lam and the frame) if
    any returned value is not finite.
    """
    p = path.output_dim
    lam = float(lam)
    frame = codegen.kernel(_frame_code, p, policy.mode, policy.fixed_vectors)
    rows = path.jet_unchecked(k, lam, p + 1)
    return FrameJet(k, lam, rows, frame(rows, lam))
