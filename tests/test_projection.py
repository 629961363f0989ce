"""Closest-point tracking and the descent-window criterion."""

import numpy as np
import pytest

from splinefollow import curves, projection
from splinefollow.errors import NonConvergenceError


def _dense_oracle(path, y, n=20000):
    """Brute-force closest point over a dense grid."""
    best = (np.inf, 0, 0.0)
    for k, seg in enumerate(path.segments):
        lo, hi = seg.domain
        grid = np.linspace(lo, hi, n)
        d = np.linalg.norm(seg.evaluate(grid, 0) - y, axis=1)
        i = int(np.argmin(d))
        if d[i] < best[0]:
            best = (float(d[i]), k, float(grid[i]))
    return best


class TestGlobalInitialize:
    def test_circle_analytic(self):
        path = curves.circle_path(radius=2.0)
        y = np.array([3.0, 3.0])
        st = projection.global_initialize(path, y)
        sigma = path.evaluate(st.k_star, st.lambda_star, 0)
        np.testing.assert_allclose(sigma, np.sqrt(2.0) * np.ones(2), atol=1e-5)

    def test_matches_dense_oracle(self, wavy_path):
        rng = np.random.default_rng(2)
        for _ in range(8):
            y = rng.uniform([0.5, -1.0], [2.5, 1.0])
            st = projection.global_initialize(wavy_path, y)
            d_star = np.linalg.norm(
                wavy_path.evaluate(st.k_star, st.lambda_star, 0) - y
            )
            d_oracle, _, _ = _dense_oracle(wavy_path, y)
            assert d_star <= d_oracle + 1e-6

    def test_deterministic_tie_break(self):
        # the circle center is equidistant from every path point
        path = curves.circle_path(radius=1.0)
        a = projection.global_initialize(path, np.zeros(2))
        b = projection.global_initialize(path, np.zeros(2))
        assert (a.k_star, a.lambda_star) == (b.k_star, b.lambda_star)


class TestUpdate:
    def test_tracks_moving_query(self, wavy_path):
        cfg = projection.ProjectionConfig()
        st = projection.global_initialize(wavy_path, wavy_path.evaluate(0, 0.0), cfg)
        # walk a query point along the path; distance must stay small
        for k in range(wavy_path.n_segments):
            lo, hi = wavy_path.segments[k].domain
            for lam in np.linspace(lo, hi, 12):
                y = wavy_path.evaluate(k, lam, 0) + 0.01
                st = projection.update(st, wavy_path, y, cfg)
                d = np.linalg.norm(
                    wavy_path.evaluate_unchecked(st.k_star, st.lambda_star, 0) - y
                )
                assert d < 0.05

    def test_monotone_descent(self, wavy_path):
        """The returned point is never farther than the seed point."""
        cfg = projection.ProjectionConfig(max_iters=5000)
        rng = np.random.default_rng(4)
        for _ in range(6):
            k = int(rng.integers(wavy_path.n_segments))
            lo, hi = wavy_path.segments[k].domain
            seed = projection.ProjectionState(
                k_star=k, lambda_star=rng.uniform(lo, hi)
            )
            y = rng.uniform([0.5, -1.0], [2.5, 1.0])
            d0 = np.linalg.norm(
                wavy_path.evaluate(seed.k_star, seed.lambda_star, 0) - y
            )
            st = projection.update(seed, wavy_path, y, cfg)
            d1 = np.linalg.norm(
                wavy_path.evaluate_unchecked(st.k_star, st.lambda_star, 0) - y
            )
            assert d1 <= d0 + 1e-12

    def test_segment_handoff(self, wavy_path):
        cfg = projection.ProjectionConfig()
        hi0 = wavy_path.segments[0].domain[1]
        st = projection.ProjectionState(k_star=0, lambda_star=hi0 - 1e-3)
        y = wavy_path.evaluate(1, 0.2 * wavy_path.segments[1].domain[1], 0)
        st = projection.update(st, wavy_path, y, cfg)
        assert st.k_star == 1

    def test_open_end_clamps(self):
        path = curves.line_path([0.0, 0.0], [1.0, 0.0])
        cfg = projection.ProjectionConfig()
        st = projection.ProjectionState(k_star=0, lambda_star=0.9)
        st = projection.update(st, path, np.array([2.0, 0.3]), cfg)
        assert st.clamped
        assert st.lambda_star == pytest.approx(1.0)

    def test_closed_path_wraps(self, fig8_path):
        cfg = projection.ProjectionConfig()
        hi = fig8_path.segments[-1].domain[1]
        st = projection.ProjectionState(
            k_star=fig8_path.n_segments - 1, lambda_star=hi - 1e-3,
        )
        y = fig8_path.evaluate(0, 0.1, 0)
        st = projection.update(st, fig8_path, y, cfg)
        assert st.k_star == 0

    def test_no_branch_jump_within_segment(self):
        """A circle traced three times is one segment crossing itself
        everywhere.  Seen from y = (0.1, 0), the Newton step from
        lambda = 1.42 is -tan(1.42) = -6.6 and lands one turn back at a
        smaller distance; tracking must stay on the seed's turn."""
        path = curves.circle_path(span=(-3.0 * np.pi, 3.0 * np.pi))
        cfg = projection.ProjectionConfig()
        seed = projection.ProjectionState(k_star=0, lambda_star=1.42)
        st = projection.update(seed, path, np.array([0.1, 0.0]), cfg)
        assert st.lambda_star == pytest.approx(0.0, abs=1e-6)

    def test_many_wraps_reach_the_minimizer(self):
        """On a closed one-segment circle far smaller than alpha0, the
        descent wraps around the path again and again before its step
        shrinks below the segment's length; it must end at the closest
        point inside the domain, not at wherever a restart count ran out."""
        path = curves.circle_path(radius=1e-3)
        cfg = projection.ProjectionConfig(alpha0=0.1)
        seed = projection.ProjectionState(
            k_star=0, lambda_star=0.0020985102684017063
        )
        y = np.array([0.004547833942294458, -0.00673240765426])
        st = projection.update(seed, path, y, cfg)
        lo, hi = path.segments[0].domain
        assert lo <= st.lambda_star <= hi
        d = np.linalg.norm(path.evaluate(0, st.lambda_star, 0) - y)
        d_grid, _, _ = _dense_oracle(path, y, n=200001)
        assert d <= d_grid + 1e-12

    def test_iteration_cap_raises(self, wavy_path):
        cfg = projection.ProjectionConfig(max_iters=2, eps=1e-14)
        st = projection.ProjectionState(k_star=0, lambda_star=0.01)
        with pytest.raises(NonConvergenceError) as exc:
            projection.update(st, wavy_path, np.array([5.0, 5.0]), cfg)
        assert exc.value.state is not None

    def test_config_validation(self):
        """alpha0 = 0 would leave lambda* where it starts; NaN would turn
        off the Newton step bound."""
        for name, bad in [("eps", 0.0), ("eps", np.nan), ("eps", np.inf),
                          ("alpha0", 0.0), ("alpha0", -1e-2), ("alpha0", np.nan),
                          ("alpha0", np.inf), ("max_iters", 0), ("max_iters", 2.5)]:
            with pytest.raises(ValueError, match=name):
                projection.ProjectionConfig(**{name: bad})


class TestDeltaLambda:
    def test_ellipse_reference_value(self):
        path = curves.ellipse_path(a=2.0, b=1.0)
        lam, delta, _ = projection.allowable_delta_lambda(path, 0, samples=129)
        i = int(np.argmin(np.abs(lam)))
        assert lam[i] == pytest.approx(0.0, abs=1e-9)
        assert delta[i] == pytest.approx(1.51356, abs=1e-3)

    def test_line_window_spans_segment(self):
        path = curves.line_path([0.0, 0.0], [4.0, 0.0])
        _, delta, dmin = projection.allowable_delta_lambda(path, 0, samples=17)
        assert dmin == pytest.approx(4.0, rel=1e-3)

    def test_margin_zero_on_path(self):
        path = curves.ellipse_path()
        m = projection.convexity_margin(path, 0, 0.3, np.array([0.3]))
        assert m[0] == 0.0
