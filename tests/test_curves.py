"""Spline fitting, path evaluation, arclength, and serialization."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from splinefollow import curves
from splinefollow.errors import (
    DegenerateChordError,
    DomainError,
    UnsupportedOrderError,
)


def _junction_mismatch(path, order):
    """Largest derivative mismatch of the given order over all junctions."""
    worst = 0.0
    junctions = [(k, k + 1) for k in range(path.n_segments - 1)]
    if path.closed:
        junctions.append((path.n_segments - 1, 0))
    for ka, kb in junctions:
        sa, sb = path.segments[ka], path.segments[kb]
        va = sa.evaluate(sa.domain[1], order)
        vb = sb.evaluate(sb.domain[0], order)
        worst = max(worst, float(np.linalg.norm(va - vb)))
    return worst


class TestFitSpline:
    def test_interpolates_waypoints(self, wavy_path):
        s = np.linspace(0.0, 1.0, 15)
        wp = np.column_stack(
            [0.8 + 1.4 * s, 0.6 * np.sin(2.5 * np.pi * s) + 0.2 * s]
        )
        for k in range(wavy_path.n_segments):
            seg = wavy_path.segments[k]
            np.testing.assert_allclose(
                seg.evaluate(seg.domain[0]), wp[k], atol=1e-9
            )
        last = wavy_path.segments[-1]
        np.testing.assert_allclose(
            last.evaluate(last.domain[1]), wp[-1], atol=1e-9
        )

    def test_c4_junctions(self, wavy_path):
        for order in range(1, 5):
            assert _junction_mismatch(wavy_path, order) < 1e-7

    def test_closed_path_periodic_junction(self, fig8_path):
        assert fig8_path.closed
        for order in range(1, 5):
            assert _junction_mismatch(fig8_path, order) < 1e-7

    def test_chord_length_domains(self, wavy_path):
        s = np.linspace(0.0, 1.0, 15)
        wp = np.column_stack(
            [0.8 + 1.4 * s, 0.6 * np.sin(2.5 * np.pi * s) + 0.2 * s]
        )
        chords = np.linalg.norm(np.diff(wp, axis=0), axis=1)
        for k, seg in enumerate(wavy_path.segments):
            assert seg.domain == (0.0, pytest.approx(chords[k]))

    def test_coincident_waypoints_raise(self):
        with pytest.raises(DegenerateChordError):
            curves.fit_spline([[0.0, 0.0], [0.0, 0.0], [1.0, 0.0]])

    def test_waypoint_objects_accepted(self):
        wps = [curves.Waypoint([0.0, 0.0]), curves.Waypoint([1.0, 1.0])]
        path = curves.fit_spline(wps, smoothness_order=2)
        assert path.n_segments == 1

    def test_bad_smoothness_order(self):
        with pytest.raises(ValueError):
            curves.fit_spline([[0, 0], [1, 1]], smoothness_order=3)

    @pytest.mark.parametrize("waypoints, closed, kind", [
        ([[0.0, 0.0], [1.0, 1.0]], True, "closed paths need at least 3"),
        ([[0.0, 0.0]], False, "open paths need at least 2"),
    ], ids=["closed-2", "open-1"])
    def test_too_few_waypoints(self, waypoints, closed, kind):
        with pytest.raises(ValueError, match=kind):
            curves.fit_spline(waypoints, closed=closed)

    @settings(max_examples=25, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.floats(-3, 3, allow_nan=False),
                st.floats(-3, 3, allow_nan=False),
            ),
            min_size=4,
            max_size=8,
            unique=True,
        )
    )
    # chords 1e-6 and 1: rejected by an absolute residual bound
    @example(pts=[(0.0, 1e-6), (0.0, 6.6e-158), (0.0, 1.0), (0.0, 0.0)])
    def test_fit_always_interpolates(self, pts):
        wp = np.asarray(pts, dtype=float)
        chords = np.linalg.norm(np.diff(wp, axis=0), axis=1)
        if np.any(chords < 1e-6):
            return
        path = curves.fit_spline(wp)
        scale = 1.0 + np.abs(wp).max()
        for k, seg in enumerate(path.segments):
            assert np.linalg.norm(seg.evaluate(seg.domain[0]) - wp[k]) < 1e-6 * scale


class TestSplinePath:
    def test_domain_check(self, wavy_path):
        hi = wavy_path.segments[0].domain[1]
        with pytest.raises(DomainError):
            wavy_path.evaluate(0, hi + 0.5, 0)
        # unchecked extrapolates without complaint
        wavy_path.evaluate_unchecked(0, hi + 0.5, 0)

    @pytest.mark.parametrize("lam", [np.nan, np.array([0.5, np.nan]), -np.inf],
                             ids=["nan", "array-with-nan", "-inf"])
    @pytest.mark.parametrize("method", ["evaluate", "arclength"])
    def test_non_finite_lambda_is_outside(self, method, lam):
        path = curves.circle_path(2.0)
        with pytest.raises(DomainError, match="outside segment domain"):
            getattr(path, method)(0, lam)

    def test_order_cap(self, wavy_path):
        with pytest.raises(UnsupportedOrderError):
            wavy_path.evaluate(0, 0.0, wavy_path.output_dim + 2)

    def test_arclength_of_line(self):
        path = curves.line_path([0.0, 0.0], [3.0, 4.0])
        assert path.total_arclength == pytest.approx(5.0, abs=1e-9)
        assert path.arclength(0, 2.5) == pytest.approx(2.5, abs=1e-9)

    def test_arclength_of_circle(self):
        path = curves.circle_path(radius=2.0)
        assert path.total_arclength == pytest.approx(4.0 * np.pi, rel=1e-8)

    def test_arclength_interp_matches_quadrature(self, fig8_path):
        rng = np.random.default_rng(3)
        for _ in range(10):
            k = int(rng.integers(fig8_path.n_segments))
            lo, hi = fig8_path.segments[k].domain
            lam = rng.uniform(lo, hi)
            assert fig8_path.arclength_interp(k, lam) == pytest.approx(
                fig8_path.arclength(k, lam), abs=1e-7
            )

    @pytest.mark.parametrize("name", ["fig8", "ellipse", "helix"])
    def test_arclength_matches_adaptive_quadrature(self, name, fig8_path):
        """s_k(lam) against scipy's quad at interior lam of every segment."""
        from scipy.integrate import quad

        path = {"fig8": fig8_path, "ellipse": curves.ellipse_path(),
                "helix": curves.helix_path(radius=1.5, pitch=0.4)}[name]
        rng = np.random.default_rng(5)
        for k, seg in enumerate(path.segments):
            lo, hi = seg.domain
            for lam in rng.uniform(lo, hi, 6):
                want, _ = quad(lambda l: float(np.linalg.norm(seg.evaluate(l, 1))),
                               lo, lam, epsabs=1e-13, epsrel=1e-13, limit=500)
                assert abs(path.arclength(k, lam) - want) <= 1e-12

    @pytest.mark.parametrize("path, want", [
        (curves.circle_path(radius=2.0), 4.0 * np.pi),
        (curves.circle_path(radius=0.7, unit_speed=False), 1.4 * np.pi),
        (curves.helix_path(radius=1.5, pitch=0.4), 4.0 * np.pi * np.hypot(1.5, 0.4)),
    ], ids=["circle", "circle-angle", "helix"])
    def test_total_arclength_closed_form(self, path, want):
        assert path.total_arclength == pytest.approx(want, rel=1e-12, abs=0.0)

    def test_round_trip_serialization(self, wavy_path):
        clone = curves.SplinePath.from_dict(wavy_path.to_dict())
        assert clone.n_segments == wavy_path.n_segments
        assert clone.closed == wavy_path.closed
        for k in range(clone.n_segments):
            lo, hi = clone.segments[k].domain
            for lam in np.linspace(lo, hi, 5):
                for order in range(3):
                    np.testing.assert_allclose(
                        clone.evaluate(k, lam, order),
                        wavy_path.evaluate(k, lam, order),
                        atol=1e-12,
                    )

    def test_callback_segments_not_serializable(self):
        path = curves.circle_path()
        with pytest.raises(TypeError):
            path.to_dict()

    def test_mixed_dimensions_rejected(self):
        a = curves.PolynomialSegment(np.ones((2, 3)), (0.0, 1.0))
        b = curves.PolynomialSegment(np.ones((3, 3)), (0.0, 1.0))
        with pytest.raises(ValueError):
            curves.SplinePath([a, b])


class TestCheckAssumptions:
    def test_grid_density_below_two_rejected(self, wavy_path):
        with pytest.raises(ValueError, match="grid_density"):
            curves.check_assumptions(wavy_path, grid_density=1)

    def test_fitted_path_passes(self, wavy_path):
        report = curves.check_assumptions(wavy_path)
        assert report.smooth_ok
        assert report.worst_junction_error < 1e-8
        assert report.framed_ok

    def test_twisted_loop_is_framed(self, twisted_path):
        report = curves.check_assumptions(twisted_path)
        assert report.smooth_ok
        assert report.framed_ok

    def test_straight_line_is_not_framed(self):
        path = curves.line_path([0.0, 0.0], [1.0, 1.0])
        report = curves.check_assumptions(path)
        assert not report.framed_ok

    def test_helix_is_framed(self):
        report = curves.check_assumptions(curves.helix_path())
        assert report.framed_ok


class TestAnalyticPaths:
    def test_circle_unit_speed(self):
        path = curves.circle_path(radius=3.0)
        for lam in np.linspace(0, path.segments[0].domain[1], 7):
            speed = np.linalg.norm(path.evaluate(0, lam, 1))
            assert speed == pytest.approx(1.0, abs=1e-12)

    def test_circle_span_open(self):
        path = curves.circle_path(radius=1.0, span=(0.0, np.pi))
        assert not path.closed

    @pytest.mark.parametrize("name", ["circle", "circle-angle", "ellipse", "helix"])
    def test_jets_match_closed_form(self, name):
        """Rows 0..4 of the jet against the shapes' derivatives written out."""
        R, cx, cy, a, b, pitch = 1.7, 0.3, -0.8, 2.0, 0.6, 0.45

        def circle(w):
            def rows(lam):
                c, s = np.cos(lam / w), np.sin(lam / w)
                return [[R * c + cx, R * s + cy], [-R / w * s, R / w * c],
                        [-R / w**2 * c, -R / w**2 * s], [R / w**3 * s, -R / w**3 * c],
                        [R / w**4 * c, R / w**4 * s]]
            return rows

        def ellipse(lam):
            c, s = np.cos(lam), np.sin(lam)
            return [[a * c, b * s], [-a * s, b * c], [-a * c, -b * s],
                    [a * s, -b * c], [a * c, b * s]]

        def helix(lam):
            c, s = np.cos(lam), np.sin(lam)
            return [[R * c, R * s, pitch * lam], [-R * s, R * c, pitch],
                    [-R * c, -R * s, 0.0], [R * s, -R * c, 0.0], [R * c, R * s, 0.0]]

        path, want = {
            "circle": (curves.circle_path(R, (cx, cy)), circle(R)),
            "circle-angle": (curves.circle_path(R, (cx, cy), unit_speed=False),
                             circle(1.0)),
            "ellipse": (curves.ellipse_path(a, b), ellipse),
            "helix": (curves.helix_path(R, pitch), helix),
        }[name]
        seg = path.segments[0]
        for lam in np.linspace(*seg.domain, 9):
            np.testing.assert_allclose(seg.jet(lam, 4), want(lam),
                                       rtol=1e-12, atol=1e-12)

    def test_ellipse_points(self):
        path = curves.ellipse_path(a=2.0, b=1.0)
        np.testing.assert_allclose(path.evaluate(0, 0.0), [2.0, 0.0], atol=1e-12)
        np.testing.assert_allclose(
            path.evaluate(0, np.pi / 2), [0.0, 1.0], atol=1e-12
        )

    def test_line_degenerate(self):
        with pytest.raises(DegenerateChordError):
            curves.line_path([1.0, 2.0], [1.0, 2.0])
