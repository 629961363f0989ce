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
"""

from dataclasses import dataclass, field

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
# A vector jet is a (3, p) array: rows are value, d/dlam, d2/dlam2.
# A scalar jet is a (3,) array.


def _jinner(u, v):
    return np.array(
        [
            u[0] @ v[0],
            u[1] @ v[0] + u[0] @ v[1],
            u[2] @ v[0] + 2.0 * (u[1] @ v[1]) + u[0] @ v[2],
        ]
    )


def _jscale(s, v):
    return np.array(
        [
            s[0] * v[0],
            s[1] * v[0] + s[0] * v[1],
            s[2] * v[0] + 2.0 * s[1] * v[1] + s[0] * v[2],
        ]
    )


def _jnorm(u):
    s = _jinner(u, u)
    n0 = np.sqrt(s[0])
    if n0 == 0.0:
        return np.zeros(3)
    n1 = s[1] / (2.0 * n0)
    n2 = (s[2] - 2.0 * n1 * n1) / (2.0 * n0)
    return np.array([n0, n1, n2])


def _jdiv(v, n):
    w0 = v[0] / n[0]
    w1 = (v[1] - w0 * n[1]) / n[0]
    w2 = (v[2] - 2.0 * w1 * n[1] - w0 * n[2]) / n[0]
    return np.array([w0, w1, w2])


def _const_jet(vec, p):
    j = np.zeros((3, p))
    j[0] = vec
    return j


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
        eb = B.copy()
        for e in out:
            eb = eb - _jscale(_jinner(B, e), e)
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
    """Compute the frame and its first two derivatives at (k, lam)."""
    p = path.output_dim
    lam = float(lam)
    # curve derivatives sigma^(0) .. sigma^(p+1); beyond that jets get zeros
    sigma = path.jet_unchecked(k, lam, p + 1)
    speed0 = np.linalg.norm(sigma[1])
    if speed0 < REGULARITY_TOL:
        raise IrregularCurveError(f"||sigma'({lam})|| = {speed0:.3e} (irregular)")

    def sigma_jet(j):
        # jet of sigma^(j): value sigma^(j), d1 sigma^(j+1), d2 sigma^(j+2)
        jet = np.zeros((3, p))
        rows = sigma[j : j + 3]
        jet[: len(rows)] = rows
        return jet

    last_dde_from_fs = False
    if policy.mode == "frenet_serret":
        base = [sigma_jet(j) for j in range(1, p + 1)]
        ejets = _gram_schmidt_jets(base)
        # sigma^(p+2) is unavailable, so e_p'' from the jet is wrong for p>1
        last_dde_from_fs = p > 1
    elif policy.mode == "line_fallback":
        if len(policy.fixed_vectors) < p - 1:
            raise ValueError("line_fallback needs p-1 completion vectors")
        base = [sigma_jet(1)] + [
            _const_jet(v, p) for v in policy.fixed_vectors[: p - 1]
        ]
        ejets = _gram_schmidt_jets(base)
    elif policy.mode == "planar_fallback":
        if p == 2:
            (e1,) = _gram_schmidt_jets([sigma_jet(1)])
            rot = np.array([[0.0, -1.0], [1.0, 0.0]])
            ejets = [e1, e1 @ rot.T]
        elif p == 3:
            if not policy.fixed_vectors:
                raise ValueError("planar_fallback needs the plane normal")
            n_vec = policy.fixed_vectors[0]
            n_vec = n_vec / np.linalg.norm(n_vec)
            (e1,) = _gram_schmidt_jets([sigma_jet(1)])
            if abs(n_vec @ e1[0]) > 1e-8:
                raise DegenerateFrameError(
                    "tangent is not orthogonal to the supplied plane normal",
                    index=2,
                )
            e2 = np.stack([np.cross(n_vec, e1[i]) for i in range(3)])
            ejets = [e1, e2, _const_jet(n_vec, p)]
        else:
            raise ValueError("planar_fallback requires a 2-D or 3-D output")

    e, de, dde = np.array(ejets).transpose(1, 0, 2)

    speed = _jnorm(sigma_jet(1))

    # generalized curvatures chi_i = <e_i', e_{i+1}> / ||sigma'||
    chi = np.array([de[i] @ e[i + 1] for i in range(p - 1)]) / speed[0]
    chi_rate = np.array(
        [
            (dde[i] @ e[i + 1] + de[i] @ de[i + 1]) / speed[0]
            - chi[i] * speed[1] / speed[0]
            for i in range(p - 1)
        ]
    )

    if last_dde_from_fs:
        # e_p' = -||sigma'|| chi_{p-1} e_{p-1}; differentiate once more
        cm, cmr = chi[p - 2], chi_rate[p - 2]
        dde[p - 1] = (
            -(speed[1] * cm + speed[0] * cmr) * e[p - 2]
            - speed[0] * cm * de[p - 2]
        )

    return FrameJet(
        e=e,
        de=de,
        dde=dde,
        curvatures=chi,
        curvature_rates=chi_rate,
        speed=speed,
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
