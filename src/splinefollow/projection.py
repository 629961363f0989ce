"""Closest-point tracking on a composite path.

Maintains the (k*, lambda*) pair: brute-force global initialization on a
quantized path, then per step a safeguarded Newton iteration on the
normality condition, backed by monotonic gradient descent with adaptive
step size.  Both search only the incumbent segment, and no Newton step is
longer than the descent's first probe, so tracking does not jump branch
at self-intersections; segment hand-off happens only when lambda* leaves
the current domain.

The per-step search runs on Python floats.  Each Newton iterate and each
descent step is one call of ``_newton_code``, recorded once per segment
kind and key from the rows the kind records for its jet: the squared
distance, g' and g at one lambda.  The descent steps on the sign of g
and compares distances.  Its entry reads sigma and sigma' through the
path's ``evaluate_unchecked``.  The global initializer and the window
analysis evaluate many lambda at once with numpy.
"""

import math
from dataclasses import dataclass, replace

import numpy as np

from . import codegen
from .curves import bisect
from .errors import NonConvergenceError, ParameterError, integer, positive
from .frames import dot

GROW, SHRINK = 1.2, 0.5  # descent step factors after a success / a failure
INIT_GRID = 2000  # global-initializer grid spacing: total arclength / INIT_GRID


@dataclass(frozen=True)
class ProjectionConfig:
    """Tolerance, first descent step and iteration cap of the projection."""

    eps: float = 1e-8
    alpha0: float = 1e-2
    max_iters: int = 200

    def __post_init__(self):
        positive("eps", self.eps)
        positive("alpha0", self.alpha0)
        integer("max_iters", self.max_iters, 1)


@dataclass(slots=True)
class ProjectionState:
    """Tracked closest point: segment index, parameter, descent bookkeeping."""

    k_star: int
    lambda_star: float
    last_iterations: int = 0
    clamped: bool = False  # lambda* pinned to an open-path endpoint


def _distance2_and_slope(sigma, dsigma, y):
    """||sigma - y||^2 and g = <sigma - y, sigma'> from the rows sigma,
    sigma', as list arithmetic on floats or recorded on Vars."""
    diff = [a - b for a, b in zip(sigma, y)]
    return dot(diff, diff), dot(diff, dsigma)


def _newton_code(rows, *key):
    """Source of ``f(c, lam, y)``: ||sigma - y||^2, g' and g at lam.

    g = <sigma - y, sigma'> and g' = ||sigma'||^2 + <sigma - y, sigma''>
    for a segment of the kind that ``rows`` records for ``key`` (see
    ``curves.Segment``), from the same recorded rows as its jet.
    """
    code = codegen.Recorder()
    s0, s1, s2 = rows(code, codegen.Var(code, "lam"), 2, *key)
    y = code.unpack("y", (len(s0),))
    dist2, g = _distance2_and_slope(s0, s1, y)
    # g' is ||sigma'||^2 plus the slope of sigma'' (sigma - y is recorded once)
    return code.function("c, lam, y", (
        dist2, dot(s1, s1) + _distance2_and_slope(s0, s2, y)[1], g))


def _newton(path, k, lam, y, cfg):
    """Safeguarded Newton iteration on g(lam) = <sigma - y, sigma'> = 0.

    Second-order point projection (Hu & Wallner, CAGD 22(3), 2005) from
    the warm lambda*: g' = ||sigma'||^2 + <sigma - y, sigma''>.  A step is
    taken only where g' > 0 (the squared distance is locally convex), it
    is no longer than the descent's first probe ``cfg.alpha0``, the new
    point stays in the incumbent segment and the distance does not
    increase.  The length bound keeps a step where g' is small from
    leaping over a distance ridge to another branch of the same segment.
    Each iterate is one call of the segment's ``newton``, its kind's
    ``_newton_code`` compiled at first use.
    Returns (lam, iterations, converged); lam is always the last accepted
    iterate.
    """
    seg = path.segments[k]
    lo, hi = seg.domain
    newton = seg.newton = seg.newton or codegen.kernel(_newton_code, *seg.code)
    dist2, gp, g = newton(seg.consts, lam, y)
    iters = 0
    while iters < cfg.max_iters:
        if not gp > 0.0:
            break
        step = g / gp
        lam_new = lam - step
        if abs(step) > cfg.alpha0 or not lo <= lam_new <= hi:
            break
        iters += 1
        dist2_new, gp_new, g_new = newton(seg.consts, lam_new, y)
        if abs(step) < cfg.eps:
            # converged; a sub-eps step that rounding made look uphill
            # is simply not taken
            if dist2_new <= dist2:
                lam = lam_new
            return lam, iters, True
        if dist2_new > dist2:
            break
        lam, dist2, gp, g = lam_new, dist2_new, gp_new, g_new
    return lam, iters, False


def update(state, path, y, cfg):
    """One projection pass: Newton from the warm lambda*, else Algorithm 1.

    The Newton iteration (see ``_newton``) usually converges in a few
    steps.  When one of its safeguards trips, the monotone descent of
    Algorithm 1 takes over from the last accepted iterate, followed by
    the segment hand-off; both count toward ``cfg.max_iters``.  Each
    descent step is one call of the segment's ``newton``: it steps
    against the sign of g, half the derivative of the squared distance,
    and is taken when the distance, the root of the first result, falls.

    Raises NonConvergenceError (carrying this pass's state, the best so
    far) if the iteration cap is hit.
    """
    y = [float(x) for x in y]
    k = state.k_star
    lam, iters, converged = _newton(path, k, float(state.lambda_star), y, cfg)
    if converged:
        return ProjectionState(k, lam, iters)
    alpha = cfg.alpha0
    clamped = False

    while True:
        seg = path.segments[k]
        newton = seg.newton = seg.newton or codegen.kernel(_newton_code, *seg.code)
        # the entry reads the path, which is how bench/tracer.py tells a
        # descent period; each step is one call of the segment's newton
        dist2, g = _distance2_and_slope(path.evaluate_unchecked(k, lam, 0),
                                        path.evaluate_unchecked(k, lam, 1), y)
        dist = math.sqrt(dist2)
        while True:
            if iters >= cfg.max_iters:
                raise NonConvergenceError(
                    f"projection did not converge in {cfg.max_iters} iterations",
                    state=ProjectionState(k, lam, iters, clamped))
            iters += 1
            # the sign of the slope, NaN at NaN; an exactly-zero slope
            # (ridge between branches, or on the path) nudges forward
            direction = (-1.0 if g == 0.0 else math.copysign(1.0, g)
                         if g == g else g)
            lam_new = lam - alpha * direction
            dist2_new, _, g_new = newton(seg.consts, lam_new, y)
            # distances, as Algorithm 1 compares: squares differ where roots tie
            dist_new = math.sqrt(dist2_new)
            if dist_new < dist:
                lam, dist, g = lam_new, dist_new, g_new
                alpha *= GROW
            else:
                alpha *= SHRINK
            if alpha < cfg.eps:
                break

        # hand-off to the next or previous segment, wrapping when closed, else a clamp
        lo, hi = seg.domain
        step = 1 if lam > hi else -1 if lam < lo else 0   # 0 at NaN too
        if not step:
            break
        if not (path.closed or 0 <= k + step < path.n_segments):
            lam, clamped = (hi if step > 0 else lo), True
            break
        k = (k + step) % path.n_segments
        start, end = path.segments[k].domain
        lam = start + (lam - hi) if step > 0 else end - (lo - lam)
        # restart the descent on the new segment (Algorithm 1 re-entry)
        alpha = max(alpha, cfg.eps * 2.0)

    return ProjectionState(k, lam, iters, clamped)


def global_initialize(path, y, cfg=ProjectionConfig()):
    """Brute-force grid argmin over the whole path, then one local polish.

    Ties are broken lexicographically in (k, lambda), so repeated runs are
    deterministic.  ParameterError if y does not have the path's p entries
    or the path's total arclength, which sets the grid, is not positive.
    """
    y = np.asarray(y, dtype=float)
    if y.shape != (path.output_dim,):
        raise ParameterError(f"query y must have p = {path.output_dim} "
                             f"entries; got shape {y.shape}")
    if not path.total_arclength > 0.0:
        raise ParameterError("cannot project onto a path of total arclength "
                             f"{path.total_arclength}; it must be positive")
    spacing = path.total_arclength / INIT_GRID
    best = (np.inf, 0, 0.0)
    for k, seg in enumerate(path.segments):
        lo, hi = seg.domain
        n = max(int(np.ceil((hi - lo) / spacing)) + 1, 2)
        grid = np.linspace(lo, hi, n)
        pts = seg.evaluate(grid, 0)
        dists = np.linalg.norm(pts - y, axis=1)
        i = int(np.argmin(dists))
        # lexicographic tie-break: strictly better distance wins; equal
        # distance keeps the earlier (k, lambda)
        if dists[i] < best[0] - 1e-15:
            best = (float(dists[i]), k, float(grid[i]))
    seed = ProjectionState(k_star=best[1], lambda_star=best[2])
    return update(seed, path, y, replace(cfg, alpha0=spacing))


def convexity_margin(path, k, lam_star, lams):
    """LHS - RHS of the descent-window convexity inequality, vectorized.

    Negative values mean the squared-distance objective seen from the
    on-path point sigma(lam_star) is still locally convex at lams.
    """
    seg = path.segments[k]
    sstar = seg.evaluate(lam_star, 0)
    lams = np.atleast_1d(np.asarray(lams, dtype=float))
    s0 = seg.evaluate(lams, 0)
    s1 = seg.evaluate(lams, 1)
    s2 = seg.evaluate(lams, 2)
    d = sstar - s0
    dn2 = np.einsum("ij,ij->i", d, d)
    rhs = np.einsum("ij,ij->i", s1, s1)
    with np.errstate(divide="ignore", invalid="ignore"):
        lhs = (
            np.einsum("ij,ij->i", d, s2)
            + np.einsum("ij,ij->i", d, s1) ** 2 / dn2
        )
    margin = lhs - rhs
    # at lam == lam_star the ratio is 0/0 with limit rhs; treat as tight
    margin[dn2 < 1e-24] = 0.0
    return margin


def _window_ok(path, k, lam_star, delta, n_grid=2048, rel_tol=1e-9):
    lo, hi = path.segments[k].domain
    a = max(lam_star - delta, lo)
    b = min(lam_star + delta, hi)
    lams = np.linspace(a, b, n_grid)
    margin = convexity_margin(path, k, lam_star, lams)
    rhs_scale = np.linalg.norm(path.evaluate_unchecked(k, lam_star, 1)) ** 2
    return bool(np.all(margin <= rel_tol * (1.0 + rhs_scale)))


def allowable_delta_lambda(path, k, samples=64):
    """Largest convex descent window around each sampled lambda*.

    Returns (lam_stars, deltas, path_minimum).  The window is found by
    bisection on delta with an inner grid check of the convexity
    inequality; 0 is reported where the inequality fails immediately.
    ParameterError unless k is an integer in 0..n_segments - 1 and
    samples an integer >= 1.
    """
    k = integer("segment k", k, 0, path.n_segments - 1)
    samples = integer("samples", samples, 1)
    lo, hi = path.segments[k].domain
    width = hi - lo
    lam_stars = np.linspace(lo, hi, samples)
    deltas = np.empty(samples)
    for i, ls in enumerate(lam_stars):
        if _window_ok(path, k, ls, width):
            deltas[i] = width
            continue
        tiny = 1e-6 * width
        if not _window_ok(path, k, ls, tiny):
            deltas[i] = 0.0
            continue
        deltas[i] = bisect(lambda d: _window_ok(path, k, ls, d),
                           tiny, width, 1e-5 * width)
    return lam_stars, deltas, float(deltas.min())
