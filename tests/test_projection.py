"""Closest-point tracking and the descent-window criterion."""

import collections
import math

import numpy as np
import pytest

from splinefollow import codegen, curves, projection
from splinefollow.errors import NonConvergenceError, ParameterError
from splinefollow.projection import ProjectionConfig, ProjectionState
from splinefollow.frames import dot


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

    def test_zero_length_path_is_parameter_error(self):
        """A path of total arclength 0 sets no grid: ParameterError."""
        path = curves.SplinePath([curves.PolynomialSegment([[0.5]], (0.0, 1.0))])
        with pytest.raises(ParameterError, match="total arclength 0.0"):
            projection.global_initialize(path, [0.3])


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

    @pytest.mark.parametrize("closed", [False, True], ids=["open", "closed"])
    def test_handoff_backward(self, closed):
        """Leaving segment 0 at its start clamps on an open path and wraps
        to the last segment on a closed one; leaving a later segment at
        its start hands off to the previous one."""
        wp = np.array([[0.0, 0.0], [1.0, 0.5], [2.0, 0.0], [3.0, 0.5]])
        path = curves.fit_spline(wp, closed=closed)
        cfg = projection.ProjectionConfig()
        st = projection.ProjectionState(k_star=1, lambda_star=1e-3)
        y = path.evaluate(0, 0.5 * path.segments[0].domain[1], 0)
        assert projection.update(st, path, y, cfg).k_star == 0
        st = projection.ProjectionState(k_star=0, lambda_star=1e-3)
        last = path.n_segments - 1
        y = path.evaluate(last, path.segments[last].domain[1] - 0.1, 0)
        got = projection.update(st, path, y if closed else [-1.0, 0.3], cfg)
        assert (got.k_star, got.clamped) == ((last, False) if closed else (0, True))
        if not closed:
            assert got.lambda_star == 0.0

    @pytest.mark.parametrize("closed", [False, True], ids=["open", "closed"])
    def test_nan_lambda_leaves_the_loop(self, closed):
        """A NaN lambda* is neither past an end nor handed off: the pass
        ends on its segment, and the caller's checks see the NaN."""
        wp = np.array([[0.0, 0.0], [1.0, 0.5], [2.0, 0.0], [3.0, 0.5], [4.0, 0.0]])
        path = curves.fit_spline(wp, closed=closed)
        st = projection.ProjectionState(k_star=1, lambda_star=np.nan)
        got = projection.update(st, path, np.array([1.0, 0.2]),
                                projection.ProjectionConfig())
        assert got.k_star == 1 and np.isnan(got.lambda_star) and not got.clamped

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

    def test_iteration_cap_reports_this_pass_clamp_flag(self):
        """The state carried by NonConvergenceError is the pass's own: an
        incoming clamped flag does not survive a descent inside the
        segment."""
        path = curves.line_path([0.0], [1.0])
        hi = path.segments[0].domain[1]
        st = ProjectionState(0, hi, 3, clamped=True)
        with pytest.raises(NonConvergenceError) as exc:
            projection.update(st, path, [0.3], ProjectionConfig(max_iters=3))
        got = exc.value.state
        assert (got.k_star, got.last_iterations, got.clamped) == (0, 3, False)
        assert 0.0 < got.lambda_star < hi

    def test_config_validation(self):
        """alpha0 = 0 would leave lambda* where it starts; NaN would turn
        off the Newton step bound."""
        for name, bad in [("eps", 0.0), ("eps", np.nan), ("eps", np.inf),
                          ("alpha0", 0.0), ("alpha0", -1e-2), ("alpha0", np.nan),
                          ("alpha0", np.inf), ("max_iters", 0), ("max_iters", 2.5)]:
            with pytest.raises(ValueError, match=name):
                projection.ProjectionConfig(**{name: bad})


def _reference_newton(path, k, lam, y, cfg):
    """The Newton iteration written on jet_unchecked and dot, and its exit."""
    lo, hi = path.segments[k].domain
    s0, s1, s2 = path.jet_unchecked(k, lam, 2)
    diff = [a - b for a, b in zip(s0, y)]
    dist2 = dot(diff, diff)
    iters = 0
    while iters < cfg.max_iters:
        gp = dot(s1, s1) + dot(diff, s2)
        if not gp > 0.0:
            return lam, iters, False, "g' <= 0"
        step = dot(diff, s1) / gp
        lam_new = lam - step
        if abs(step) > cfg.alpha0:
            return lam, iters, False, "long step"
        if not lo <= lam_new <= hi:
            return lam, iters, False, "leaves the domain"
        iters += 1
        t0, t1, t2 = path.jet_unchecked(k, lam_new, 2)
        diff_new = [a - b for a, b in zip(t0, y)]
        dist2_new = dot(diff_new, diff_new)
        if abs(step) < cfg.eps:
            if dist2_new <= dist2:
                lam = lam_new
            return lam, iters, True, "converged"
        if dist2_new > dist2:
            return lam, iters, False, "uphill"
        lam, s1, s2, diff, dist2 = lam_new, t1, t2, diff_new, dist2_new
    return lam, iters, False, "iteration cap"


class TestNewton:
    def test_matches_the_jet_and_dot_iteration(self, fig8_path):
        """(lam, iterations, converged) of _newton are bit-identical to
        the iteration on jet_unchecked and dot, for queries near a fitted
        figure-eight, a line, a circle, an ellipse and a helix, and every
        exit of the iteration occurs."""
        paths = [fig8_path, curves.line_path([0.0, 0.5], [2.0, -0.5]),
                 curves.circle_path(radius=2.0, center=(0.5, -1.0)),
                 curves.ellipse_path(), curves.helix_path(pitch=0.3)]
        cfgs = [projection.ProjectionConfig(), projection.ProjectionConfig(alpha0=0.5),
                projection.ProjectionConfig(alpha0=10.0),
                projection.ProjectionConfig(max_iters=2, eps=1e-14)]
        rng = np.random.default_rng(22)
        exits = collections.Counter()
        for path in paths:
            for _ in range(300):
                k = int(rng.integers(path.n_segments))
                lo, hi = path.segments[k].domain
                lam = float(rng.uniform(lo, hi))
                near = float(np.clip(lam + rng.normal(0.0, 0.2 * (hi - lo)), lo, hi))
                y = (path.evaluate(k, near, 0)
                     + 10.0 ** rng.uniform(-4.0, 0.5) * rng.normal(size=path.output_dim))
                y = y.tolist()
                cfg = cfgs[int(rng.integers(len(cfgs)))]
                *want, why = _reference_newton(path, k, lam, y, cfg)
                assert projection._newton(path, k, lam, y, cfg) == tuple(want), why
                exits[why] += 1
        assert set(exits) == {"g' <= 0", "long step", "leaves the domain", "uphill",
                              "converged", "iteration cap"}, exits


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


def _reference_objective(path, k, lam, y):
    """The distance and its derivative on evaluate_unchecked rows, as the
    descent read them before it stepped on the Newton call's slope: below
    1e-12, the derivative of the squared distance."""
    sigma = path.evaluate_unchecked(k, lam, 0)
    dsigma = path.evaluate_unchecked(k, lam, 1)
    diff = [a - b for a, b in zip(y, sigma)]
    dist = math.sqrt(dot(diff, diff))
    if dist < 1e-12:
        return dist, -2.0 * dot(diff, dsigma)
    return dist, -dot(diff, dsigma) / dist


def _reference_update(state, path, y, cfg):
    """update with its descent written on evaluate_unchecked rows: the
    state, or the error, it ends with and the exits that it took."""
    y = [float(x) for x in y]
    k = state.k_star
    lam, iters, converged = projection._newton(path, k, float(state.lambda_star),
                                               y, cfg)
    if converged:
        return ProjectionState(k, lam, iters), ["newton"]
    alpha, clamped, exits = cfg.alpha0, False, []
    while True:
        obj, grad = _reference_objective(path, k, lam, y)
        while True:
            if iters >= cfg.max_iters:
                return NonConvergenceError(
                    f"projection did not converge in {cfg.max_iters} iterations",
                    state=ProjectionState(k, lam, iters, clamped)), exits + ["cap"]
            iters += 1
            direction = (-1.0 if grad == 0.0 else math.copysign(1.0, grad)
                         if grad == grad else grad)
            lam_new = lam - alpha * direction
            obj_new, grad_new = _reference_objective(path, k, lam_new, y)
            if obj_new < obj:
                lam, obj, grad = lam_new, obj_new, grad_new
                alpha *= projection.GROW
            else:
                alpha *= projection.SHRINK
            if alpha < cfg.eps:
                break
        lo, hi = path.segments[k].domain
        step = 1 if lam > hi else -1 if lam < lo else 0
        if not step:
            return ProjectionState(k, lam, iters, clamped), exits + ["descent"]
        if not (path.closed or 0 <= k + step < path.n_segments):
            lam = hi if step > 0 else lo
            return ProjectionState(k, lam, iters, True), exits + ["clamp"]
        exits.append("wrap" if not 0 <= k + step < path.n_segments
                     else "forward" if step > 0 else "backward")
        k = (k + step) % path.n_segments
        start, end = path.segments[k].domain
        lam = start + (lam - hi) if step > 0 else end - (lo - lam)
        alpha = max(alpha, cfg.eps * 2.0)


def _outcome(call, *args):
    try:
        return repr(call(*args))
    except NonConvergenceError as exc:
        return str(exc), repr(exc.state)


class TestDescent:
    def test_recorded_step_is_the_float_arithmetic(self, fig8_path, twisted_path):
        """The segment's Newton call gives the squared distance and the
        slope g of the float helper on the rows evaluate_unchecked returns,
        by repr; the square root of the first is the distance of the
        descent written on those rows, and g has the sign of its
        derivative.  On polynomial segments (p = 1, 2, 3) and harmonic
        ones (a circle, an ellipse, a helix), at lambda up to 10 % outside
        the domain, on the path (the old squared-distance branch) and off
        it."""
        paths = [fig8_path, twisted_path, curves.line_path([0.2], [1.5]),
                 curves.line_path([0.0, 0.5], [2.0, -0.5]),
                 curves.circle_path(radius=2.0, center=(0.5, -1.0)),
                 curves.ellipse_path(), curves.helix_path(pitch=0.3)]
        rng = np.random.default_rng(33)
        on_path = 0
        for path in paths:
            for _ in range(300):
                k = int(rng.integers(path.n_segments))
                seg = path.segments[k]
                lo, hi = seg.domain
                lam = float(rng.uniform(lo - 0.1 * (hi - lo), hi + 0.1 * (hi - lo)))
                y = path.evaluate_unchecked(k, lam, 0)
                if rng.random() < 0.8:
                    near = lam + rng.normal(0.0, 0.1 * (hi - lo))
                    y = (np.array(path.evaluate_unchecked(k, near, 0))
                         + 10.0 ** rng.uniform(-14.0, 0.5)
                         * rng.normal(size=path.output_dim)).tolist()
                step = codegen.kernel(projection._newton_code, *seg.code)
                rows = [path.evaluate_unchecked(k, lam, r) for r in (0, 1)]
                dist2, _, g = step(seg.consts, lam, y)
                assert repr((dist2, g)) == repr(
                    projection._distance2_and_slope(*rows, y))
                dist, grad = _reference_objective(path, k, lam, y)
                assert repr(math.sqrt(dist2)) == repr(dist)
                assert ((g > 0.0, g < 0.0, g == 0.0)
                        == (grad > 0.0, grad < 0.0, grad == 0.0))
                on_path += dist < 1e-12
            dist2, gp, g = step(seg.consts, math.nan, y)
            assert math.isnan(dist2) and math.isnan(gp) and math.isnan(g)
        assert on_path > 100

    def test_update_matches_the_row_descent(self, fig8_path, wavy_path):
        """update returns the state, or raises the error, of the descent
        written on evaluate_unchecked rows, for random queries on a closed
        figure-eight, an open fitted path, a line and a circle, and every
        exit occurs: Newton, a descent ending inside its segment, a forward
        and a backward hand-off, the wrap of a closed path, a clamp at an
        open end and the iteration cap."""
        paths = [fig8_path, wavy_path, curves.line_path([0.0, 0.5], [2.0, -0.5]),
                 curves.circle_path(radius=0.5)]
        cfgs = [ProjectionConfig(), ProjectionConfig(alpha0=0.3),
                ProjectionConfig(max_iters=20), ProjectionConfig(max_iters=4)]
        rng = np.random.default_rng(34)
        exits = collections.Counter()
        for path in paths:
            n = path.n_segments
            for _ in range(250):
                k = int(rng.integers(n))
                lo, hi = path.segments[k].domain
                seed = ProjectionState(k, float(rng.uniform(lo, hi)),
                                       clamped=bool(rng.integers(2)))
                # the query lies near the segment, a neighbour or past an end
                j = int(np.clip(k + rng.integers(-1, 2), 0, n - 1))
                lo, hi = path.segments[j].domain
                near = rng.uniform(lo - 0.2 * (hi - lo), hi + 0.2 * (hi - lo))
                y = (np.array(path.evaluate_unchecked(j, near, 0))
                     + 10.0 ** rng.uniform(-4.0, -0.5) * rng.normal(size=2)).tolist()
                cfg = cfgs[int(rng.integers(len(cfgs)))]
                want, how = _reference_update(seed, path, y, cfg)
                want = ((str(want), repr(want.state))
                        if isinstance(want, NonConvergenceError) else repr(want))
                assert _outcome(projection.update, seed, path, y, cfg) == want, how
                exits.update(how if path is not fig8_path else
                             [e.replace("wrap", "wrap on the figure-eight") for e in how])
        assert set(exits) == {"newton", "descent", "forward", "backward", "wrap",
                              "wrap on the figure-eight", "clamp", "cap"}, exits
