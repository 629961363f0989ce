"""Moving-frame construction: analytic cases, finite differences, fallbacks.

``frame_jet`` runs its jet arithmetic on Python floats; the numpy jet
helpers below are the reference it must agree with.
"""

import numpy as np
import pytest

import oracles
from splinefollow import curves, frames
from splinefollow.errors import DegenerateFrameError, IrregularCurveError

def _fs_coefficient_matrix(curvatures, speed):
    """Skew-symmetric tridiagonal matrix of the generalized FS equations."""
    p = len(curvatures) + 1
    M = np.zeros((p, p))
    for i, c in enumerate(curvatures):
        M[i, i + 1] = c
        M[i + 1, i] = -c
    return speed * M


# --- numpy reference: a vector jet is a (3, p) array (value, d1, d2) ---------


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


def _gram_schmidt_jets(base_jets):
    out = []
    for B in base_jets:
        eb = B.copy()
        for e in out:
            eb = eb - _jscale(_jinner(B, e), e)
        out.append(_jdiv(eb, _jnorm(eb)))
    return out


def _reference_frame_jet(path, k, lam, policy):
    """(e, de, dde, curvatures, curvature rates, speed jet) on numpy arrays."""
    p = path.output_dim
    sigma = path.jet_unchecked(k, lam, p + 1)

    def sigma_jet(j):
        jet = np.zeros((3, p))
        rows = sigma[j : j + 3]
        jet[: len(rows)] = rows
        return jet

    if policy.mode == "frenet_serret":
        ejets = _gram_schmidt_jets([sigma_jet(j) for j in range(1, p + 1)])
    elif policy.mode == "line_fallback":
        ejets = _gram_schmidt_jets(
            [sigma_jet(1)]
            + [_const_jet(v, p) for v in policy.fixed_vectors[: p - 1]])
    elif p == 2:
        (e1,) = _gram_schmidt_jets([sigma_jet(1)])
        rot = np.array([[0.0, -1.0], [1.0, 0.0]])
        ejets = [e1, e1 @ rot.T]
    else:
        n_vec = np.asarray(policy.fixed_vectors[0])
        n_vec = n_vec / np.linalg.norm(n_vec)
        (e1,) = _gram_schmidt_jets([sigma_jet(1)])
        e2 = np.stack([np.cross(n_vec, e1[i]) for i in range(3)])
        ejets = [e1, e2, _const_jet(n_vec, p)]
    e, de, dde = np.array(ejets).transpose(1, 0, 2)
    speed = _jnorm(sigma_jet(1))
    chi = np.array([de[i] @ e[i + 1] for i in range(p - 1)]) / speed[0]
    chi_rate = np.array(
        [
            (dde[i] @ e[i + 1] + de[i] @ de[i + 1]) / speed[0]
            - chi[i] * speed[1] / speed[0]
            for i in range(p - 1)
        ]
    )
    if policy.mode == "frenet_serret" and p > 1:
        cm, cmr = chi[p - 2], chi_rate[p - 2]
        dde[p - 1] = (
            -(speed[1] * cm + speed[0] * cmr) * e[p - 2]
            - speed[0] * cm * de[p - 2]
        )
    return e, de, dde, chi, chi_rate, speed


class TestCircleFrame:
    def test_tangent_and_normal(self):
        path = curves.circle_path(radius=2.0)
        for lam in np.linspace(0.1, 4.0, 5):
            f = oracles.frame_jet(path, 0, lam)
            t = lam / 2.0
            np.testing.assert_allclose(
                f.e[0], [-np.sin(t), np.cos(t)], atol=1e-10
            )
            np.testing.assert_allclose(
                f.e[1], [-np.cos(t), -np.sin(t)], atol=1e-10
            )

    def test_curvature_is_inverse_radius(self):
        for radius in (0.5, 2.0, 3.7):
            path = curves.circle_path(radius=radius)
            chi = oracles.frame_jet(path, 0, 1.0).curvatures
            assert chi[0] == pytest.approx(1.0 / radius, rel=1e-10)


class TestHelixFrame:
    def test_curvature_and_torsion(self):
        R, c = 2.0, 0.5
        path = curves.helix_path(radius=R, pitch=c)
        chi = oracles.frame_jet(path, 0, 1.3).curvatures
        denom = R * R + c * c
        assert chi[0] == pytest.approx(R / denom, rel=1e-9)
        assert chi[1] == pytest.approx(c / denom, rel=1e-9)

    def test_frame_is_orthonormal(self):
        path = curves.helix_path()
        for lam in np.linspace(0.5, 10.0, 7):
            f = oracles.frame_jet(path, 0, lam)
            np.testing.assert_allclose(
                f.e @ f.e.T, np.eye(3), atol=1e-12
            )


class TestJetDerivatives:
    @pytest.mark.parametrize("fixture", ["wavy_path", "fig8_path", "twisted_path"])
    def test_finite_difference_oracle(self, fixture, request):
        path = request.getfixturevalue(fixture)
        policy = (
            frames.FramePolicy(mode="planar_fallback")
            if fixture == "fig8_path"
            else frames.FRENET
        )
        h = 1e-5
        rng = np.random.default_rng(11)
        for _ in range(6):
            k = int(rng.integers(path.n_segments))
            lo, hi = path.segments[k].domain
            lam = rng.uniform(lo + 2 * h, hi - 2 * h)
            fj = oracles.frame_jet(path, k, lam, policy)
            fp = oracles.frame_jet(path, k, lam + h, policy)
            fm = oracles.frame_jet(path, k, lam - h, policy)
            np.testing.assert_allclose(
                (fp.e - fm.e) / (2.0 * h), fj.de, atol=1e-5
            )
            np.testing.assert_allclose(
                (fp.e - 2.0 * fj.e + fm.e) / h**2, fj.dde, atol=2e-4
            )

    def test_fs_equations_hold(self, twisted_path):
        """e' = ||sigma'|| S(chi) e with S the skew tridiagonal matrix."""
        rng = np.random.default_rng(5)
        for _ in range(5):
            k = int(rng.integers(twisted_path.n_segments))
            lo, hi = twisted_path.segments[k].domain
            lam = rng.uniform(lo, hi)
            fj = oracles.frame_jet(twisted_path, k, lam)
            S = _fs_coefficient_matrix(fj.curvatures, fj.speed[0])
            np.testing.assert_allclose(fj.de, S @ fj.e, atol=1e-8)

    def test_speed_jet(self):
        path = curves.ellipse_path()
        lam = 0.7
        fj = oracles.frame_jet(path, 0, lam)
        speed = lambda t: np.linalg.norm(path.evaluate(0, t, 1))  # noqa: E731
        h = 1e-6
        assert fj.speed[0] == pytest.approx(speed(lam), rel=1e-12)
        assert fj.speed[1] == pytest.approx(
            (speed(lam + h) - speed(lam - h)) / (2 * h), abs=1e-6
        )


class TestNumpyReference:
    """The float frame jet against the numpy jet arithmetic, 1e-12 relative.

    Relative to the larger of the block's entries and the curve
    derivatives it is computed from: an entry can be a small difference
    of terms the size of sigma^(p+1).  At the first wavy_path sample
    (k = 4, lam = 0.166874) row 2 of de is 0.070 and sigma^(3) is 26.3; a
    50-digit evaluation of the reference formulas puts the frame code
    2.2e-13 and this reference 4.8e-13 from the true value, so no float
    evaluation is within 1e-12 of the entry's own size there.
    """

    LINE = curves.line_path([0.0, 0.0, 0.0], [1.0, 0.5, 0.2])
    PLANAR = frames.FramePolicy(mode="planar_fallback")

    @pytest.mark.parametrize("fixture, policy", [
        ("wavy_path", frames.FRENET),
        ("twisted_path", frames.FRENET),
        ("fig8_path", PLANAR),
        ("line", frames.FramePolicy(mode="line_fallback",
                                    fixed_vectors=([0.0, 0.0, 1.0], [0.0, 1.0, 0.0]))),
        ("circle", frames.FramePolicy(mode="planar_fallback",
                                      fixed_vectors=([0.3, -0.2, 1.0],))),
        ("line1d", frames.FRENET),
        ("wavy_path", frames.FramePolicy(mode="line_fallback",
                                         fixed_vectors=([0.0, 1.0],))),
    ])
    def test_matches_numpy_jets(self, fixture, policy, request):
        if fixture == "line":
            path = self.LINE
        elif fixture == "line1d":   # a 1-D output whose speed varies
            path = curves.fit_spline(np.array([[0.0], [0.3], [1.1], [1.5], [2.6]]))
        elif fixture == "circle":   # a circle in the plane normal to (0.3, -0.2, 1)
            n = np.array([0.3, -0.2, 1.0]) / np.linalg.norm([0.3, -0.2, 1.0])
            a = np.cross(n, [1.0, 0.0, 0.0])
            a /= np.linalg.norm(a)
            t = np.linspace(0.0, 2.0 * np.pi, 13)[:-1]
            path = curves.fit_spline(
                np.outer(np.cos(t), a) + np.outer(np.sin(t), np.cross(n, a)),
                closed=True)
        else:
            path = request.getfixturevalue(fixture)
        rng = np.random.default_rng(21)
        for _ in range(12):
            k = int(rng.integers(path.n_segments))
            lam = rng.uniform(*path.segments[k].domain)
            fj = oracles.frame_jet(path, k, lam, policy)
            got = (fj.e, fj.de, fj.dde, fj.curvatures, fj.curvature_rates,
                   fj.speed)
            p = path.output_dim
            # the highest curve derivative each block is computed from
            tops = (p, p + 1, p + 1, p + 1, p + 1, min(p + 1, 3))
            want_all = _reference_frame_jet(path, k, lam, policy)
            for g, want, top in zip(got, want_all, tops):
                assert g.shape == want.shape
                scale = max(np.abs(want).max(initial=0.0),
                            np.abs(fj.sigma[1:top + 1]).max(), 1e-300)
                assert np.abs(g - want).max(initial=0.0) <= 1e-12 * scale


class TestFallbacks:
    def test_line_needs_completion_vectors(self):
        path = curves.line_path([0.0, 0.0], [1.0, 0.0])
        with pytest.raises(DegenerateFrameError):
            frames.frame_jet(path, 0, 0.5)
        policy = frames.FramePolicy(
            mode="line_fallback", fixed_vectors=([0.0, 1.0],)
        )
        f = oracles.frame_jet(path, 0, 0.5, policy)
        np.testing.assert_allclose(f.e, np.eye(2), atol=1e-12)

    @pytest.mark.parametrize("mode, end, vectors, p", [
        ("line_fallback", [1.0, 1.0], ([-1.0, 1.0, 5.0],), 2),    # too long
        ("line_fallback", [1.0, 1.0], ([1.0],), 2),               # too short
        ("line_fallback", [1.0, 1.0, 1.0], ([1.0, 0.0], [0.0, 1.0]), 3),
        ("line_fallback", [1.0, 1.0, 1.0], ([1.0, 0.0, 0.0],), 3),  # too few
        ("planar_fallback", [1.0, 1.0, 0.0], ([0.0, 1.0],), 3),
        ("planar_fallback", [1.0, 1.0, 0.0], (), 3),             # no normal
    ])
    def test_completion_vectors_need_p_entries(self, mode, end, vectors, p):
        """Each completion vector a fallback uses has exactly p entries."""
        path = curves.line_path([0.0] * len(end), end)
        policy = frames.FramePolicy(mode=mode, fixed_vectors=vectors)
        with pytest.raises(ValueError, match=f"p = {p}"):
            frames.frame_jet(path, 0, 0.5, policy)

    def test_planar_fallback_survives_inflection(self, fig8_path):
        """Strict Gram-Schmidt degenerates somewhere on the figure-eight;
        the rotated-tangent frame does not."""
        policy = frames.FramePolicy(mode="planar_fallback")
        degenerate_hits = 0
        for k in range(fig8_path.n_segments):
            lo, hi = fig8_path.segments[k].domain
            for lam in np.linspace(lo, hi, 16):
                f = oracles.frame_jet(fig8_path, k, lam, policy)
                np.testing.assert_allclose(
                    f.e @ f.e.T, np.eye(2), atol=1e-12
                )
                try:
                    frames.frame_jet(fig8_path, k, lam)
                except DegenerateFrameError:
                    degenerate_hits += 1
        assert degenerate_hits > 0

    def test_planar_fallback_orientation_continuous(self, fig8_path):
        policy = frames.FramePolicy(mode="planar_fallback")
        prev = None
        for k in range(fig8_path.n_segments):
            lo, hi = fig8_path.segments[k].domain
            for lam in np.linspace(lo, hi, 24):
                e = oracles.frame_jet(fig8_path, k, lam, policy).e
                if prev is not None:
                    assert prev[1] @ e[1] > 0.5
                prev = e

    def test_planar_fallback_3d_requires_planar_curve(self):
        helix = curves.helix_path()
        policy = frames.FramePolicy(
            mode="planar_fallback", fixed_vectors=([0.0, 0.0, 1.0],)
        )
        with pytest.raises(DegenerateFrameError):
            # helix tangent is not orthogonal to z: not a planar curve
            frames.frame_jet(helix, 0, 1.0, policy)

    def test_planar_fallback_needs_2d_or_3d_output(self):
        path = curves.line_path([0.0] * 4, [1.0, 1.0, 0.0, 0.0])
        policy = frames.FramePolicy(
            mode="planar_fallback", fixed_vectors=([0.0, 0.0, 1.0, 0.0],)
        )
        with pytest.raises(ValueError, match="2-D or 3-D output"):
            frames.frame_jet(path, 0, 0.5, policy)

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError):
            frames.FramePolicy(mode="parallel_transport")

    @pytest.mark.parametrize("mode", ["planar_fallback", "line_fallback"])
    @pytest.mark.parametrize("vector", [
        [0.0, 0.0, 0.0], [0.0, np.nan, 1.0], [np.inf, 0.0, 0.0], [[1.0, 0.0, 0.0]],
    ], ids=["zero", "nan", "inf", "nested"])
    def test_bad_completion_vector_rejected(self, mode, vector):
        with pytest.raises(ValueError, match="completion vector 0"):
            frames.FramePolicy(mode=mode, fixed_vectors=(vector,))

    def test_plane_normal_normalized_once(self):
        """The policy holds the unit normal, computed as the frame code did."""
        n = [0.3, -0.2, 1.0]
        norm = np.sqrt(0.3 * 0.3 + -0.2 * -0.2 + 1.0 * 1.0)
        policy = frames.FramePolicy(mode="planar_fallback", fixed_vectors=(n,))
        assert policy.fixed_vectors == (tuple(x / norm for x in n),)
        line = frames.FramePolicy(mode="line_fallback", fixed_vectors=(n,))
        assert line.fixed_vectors == (tuple(n),)


class _CircleNanAt:
    """The unit circle on [0, 3] by angle, its rows of the given orders NaN
    in the jet at bad_lam."""

    def __init__(self, bad_lam, orders):
        circle = curves.circle_path(unit_speed=False, span=(0.0, 3.0)).segments[0]
        self.circle, self.domain, self.dim = circle, circle.domain, circle.dim
        self.bad_lam, self.orders = bad_lam, orders

    def evaluate(self, lam, order=0):
        return self.circle.evaluate(lam, order)

    def jet(self, lam, max_order):
        rows = self.circle.jet(lam, max_order)
        if lam != self.bad_lam:
            return rows
        return [[np.nan] * 2 if r in self.orders else row for r, row in enumerate(rows)]


def _circle_nan_at(bad_lam, orders):
    """A unit circle whose derivatives of the given orders are NaN at bad_lam."""
    return curves.SplinePath([_CircleNanAt(bad_lam, orders)])


class TestNonFiniteCurve:
    """A NaN curve derivative fails the regularity or degeneracy check."""

    @pytest.mark.parametrize("policy", [
        frames.FRENET, frames.FramePolicy(mode="planar_fallback")])
    def test_nan_curve_is_irregular(self, policy):
        path = _circle_nan_at(1.5, range(4))
        frames.frame_jet(path, 0, 1.4, policy)
        with pytest.raises(IrregularCurveError, match="nan"):
            frames.frame_jet(path, 0, 1.5, policy)

    def test_nan_curvature_is_degenerate(self):
        path = _circle_nan_at(1.5, (2,))
        with pytest.raises(DegenerateFrameError) as exc:
            frames.frame_jet(path, 0, 1.5)
        assert exc.value.index == 2

    def test_nan_second_derivative_planar_is_not_finite(self):
        """The planar frame reads sigma'' only in its derivatives, which no
        norm check sees."""
        path = _circle_nan_at(1.5, (2,))
        with pytest.raises(DegenerateFrameError, match="planar_fallback .*1.5") as exc:
            frames.frame_jet(path, 0, 1.5, frames.FramePolicy(mode="planar_fallback"))
        assert exc.value.index is None

    def test_nan_third_derivative_frenet_is_not_finite(self):
        """sigma''' enters only e'' and the curvature rates."""
        path = _circle_nan_at(1.5, (3,))
        with pytest.raises(DegenerateFrameError, match="frenet_serret .*1.5"):
            frames.frame_jet(path, 0, 1.5)
