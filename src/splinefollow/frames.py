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

``frame_jet`` runs once per control period, so its jet arithmetic works
on lists of Python floats: for an output of a few dimensions that costs
a fraction of the same arithmetic on small numpy arrays.
"""

import math
from dataclasses import dataclass
from operator import mul

import numpy as np

from .errors import DegenerateFrameError, IrregularCurveError

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
    fixed_vectors[0] is the plane normal, e2 = n x e1 and e3 = n.
    """

    mode: str = "frenet_serret"
    fixed_vectors: tuple = ()

    def __post_init__(self):
        if self.mode not in ("frenet_serret", "planar_fallback", "line_fallback"):
            raise ValueError(f"unknown frame policy mode {self.mode!r}")
        object.__setattr__(
            self,
            "fixed_vectors",
            tuple(np.asarray(v, dtype=float) for v in self.fixed_vectors),
        )


FRENET = FramePolicy()


@dataclass(frozen=True)
class Frame:
    """Orthonormal moving frame at (k, lambda) with generalized curvatures."""

    vectors: np.ndarray      # (p, p), row j is e_{j+1}
    curvatures: np.ndarray   # (p-1,)
    lam: float
    k: int
    policy: FramePolicy = FRENET


# --- order-2 jet arithmetic -------------------------------------------------
# A vector jet is a triple of float lists (value, d/dlam, d2/dlam2), each
# of length p; a scalar jet is a triple of floats.


def dot(u, v):
    """Inner product of two sequences of floats."""
    return sum(map(mul, u, v))


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


def _jnorm(u):
    s0, s1, s2 = _jinner(u, u)
    n0 = math.sqrt(s0)
    if n0 == 0.0:
        return 0.0, 0.0, 0.0
    n1 = s1 / (2.0 * n0)
    return n0, n1, (s2 - 2.0 * n1 * n1) / (2.0 * n0)


def _jdiv(v, n):
    """The vector jet v / n for a scalar jet n."""
    (v0, v1, v2), (n0, n1, n2) = v, n
    w0 = [x / n0 for x in v0]
    w1 = [(x - a * n1) / n0 for x, a in zip(v1, w0)]
    w2 = [(x - 2.0 * b * n1 - a * n2) / n0 for x, b, a in zip(v2, w1, w0)]
    return w0, w1, w2


@dataclass
class FrameJet:
    """Frame vectors together with their first two lambda-derivatives."""

    e: np.ndarray     # (p, p)
    de: np.ndarray    # (p, p)
    dde: np.ndarray   # (p, p)
    curvatures: np.ndarray          # (p-1,)
    curvature_rates: np.ndarray     # (p-1,), d chi / d lambda
    speed: np.ndarray               # jet of ||sigma'||, shape (3,)
    lam: float
    k: int
    sigma: np.ndarray               # (p+2, p): sigma, sigma', ..., sigma^(p+1)


def _gram_schmidt_jets(base_jets):
    """Orthonormalize jet vectors, propagating derivatives."""
    out = []
    for j, B in enumerate(base_jets):
        eb = B
        for e in out:
            eb = _jminus_scaled(eb, _jinner(B, e), e)
        n = _jnorm(eb)
        if n[0] < DEGENERACY_TOL:
            raise DegenerateFrameError(
                f"Gram-Schmidt residual collapsed at vector {j + 1} "
                f"(norm {n[0]:.3e})",
                index=j + 1,
            )
        out.append(_jdiv(eb, n))
    return out


def frame_jet(path, k, lam, policy=FRENET):
    """Compute the frame and its first two derivatives at (k, lam).

    The jets and Gram-Schmidt run on Python floats; the FrameJet's
    arrays are built once, at the end.
    """
    p = path.output_dim
    lam = float(lam)
    # curve derivatives sigma^(0) .. sigma^(p+1); beyond that jets get zeros
    sigma = path.jet_unchecked(k, lam, p + 1)
    zero = [0.0] * p
    rows = sigma.tolist() + [zero, zero]

    def sigma_jet(j):
        # jet of sigma^(j): value sigma^(j), d1 sigma^(j+1), d2 sigma^(j+2)
        return rows[j], rows[j + 1], rows[j + 2]

    speed = _jnorm(sigma_jet(1))
    if speed[0] < REGULARITY_TOL:
        raise IrregularCurveError(
            f"||sigma'({lam})|| = {speed[0]:.3e} (irregular)")

    last_dde_from_fs = False
    if policy.mode == "frenet_serret":
        ejets = _gram_schmidt_jets([sigma_jet(j) for j in range(1, p + 1)])
        # sigma^(p+2) is unavailable, so e_p'' from the jet is wrong for p>1
        last_dde_from_fs = p > 1
    elif policy.mode == "line_fallback":
        if len(policy.fixed_vectors) < p - 1:
            raise ValueError("line_fallback needs p-1 completion vectors")
        ejets = _gram_schmidt_jets([sigma_jet(1)] + [
            (v.tolist(), zero, zero) for v in policy.fixed_vectors[: p - 1]
        ])
    elif policy.mode == "planar_fallback":
        if p == 2:
            (e1,) = _gram_schmidt_jets([sigma_jet(1)])
            # e2 is e1 turned by +90 degrees
            ejets = [e1, tuple([-y, x] for x, y in e1)]
        elif p == 3:
            if not policy.fixed_vectors:
                raise ValueError("planar_fallback needs the plane normal")
            n = policy.fixed_vectors[0].tolist()
            norm = math.sqrt(dot(n, n))
            n = [x / norm for x in n]
            (e1,) = _gram_schmidt_jets([sigma_jet(1)])
            if abs(dot(n, e1[0])) > 1e-8:
                raise DegenerateFrameError(
                    "tangent is not orthogonal to the supplied plane normal",
                    index=2,
                )
            n0, n1, n2 = n
            e2 = tuple([n1 * z - n2 * y, n2 * x - n0 * z, n0 * y - n1 * x]
                       for x, y, z in e1)   # n x e1
            ejets = [e1, e2, (n, zero, zero)]
        else:
            raise ValueError("planar_fallback requires a 2-D or 3-D output")

    e, de, dde = (list(r) for r in zip(*ejets))
    s0, s1, _ = speed

    # generalized curvatures chi_i = <e_i', e_{i+1}> / ||sigma'||
    chi = [dot(de[i], e[i + 1]) / s0 for i in range(p - 1)]
    chi_rate = [
        (dot(dde[i], e[i + 1]) + dot(de[i], de[i + 1])) / s0 - chi[i] * s1 / s0
        for i in range(p - 1)
    ]

    if last_dde_from_fs:
        # e_p' = -||sigma'|| chi_{p-1} e_{p-1}; differentiate once more
        cm, cmr = chi[p - 2], chi_rate[p - 2]
        c = -(s1 * cm + s0 * cmr)
        dde[p - 1] = [c * x - s0 * cm * dx for x, dx in zip(e[p - 2], de[p - 2])]

    e, de, dde = np.array([e, de, dde])
    return FrameJet(
        e=e,
        de=de,
        dde=dde,
        curvatures=np.array(chi),
        curvature_rates=np.array(chi_rate),
        speed=np.array(speed),
        lam=lam,
        k=k,
        sigma=sigma,
    )


def frame_at(path, k, lam, policy=FRENET):
    """Orthonormal frame at (k, lam) under the given policy."""
    fj = frame_jet(path, k, lam, policy)
    return Frame(
        vectors=fj.e, curvatures=fj.curvatures, lam=fj.lam, k=fj.k, policy=policy
    )


def curvatures_at(path, k, lam, policy=FRENET):
    """Generalized curvatures chi_1..chi_{p-1} from analytic derivatives."""
    return frame_jet(path, k, lam, policy).curvatures


def fs_coefficient_matrix(curvatures, speed):
    """Skew-symmetric tridiagonal matrix of the generalized FS equations."""
    p = len(curvatures) + 1
    M = np.zeros((p, p))
    for i, c in enumerate(curvatures):
        M[i, i + 1] = c
        M[i + 1, i] = -c
    return speed * M
