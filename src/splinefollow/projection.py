"""Closest-point tracking on a composite path.

Maintains the (k*, lambda*) pair: brute-force global initialization on a
quantized path, then per step a safeguarded Newton iteration on the
normality condition, backed by monotonic gradient descent with adaptive
step size.  Both search only the incumbent segment, and no Newton step is
longer than the descent's first probe, so tracking does not jump branch
at self-intersections; segment hand-off happens only when lambda* leaves
the current domain.
"""

from dataclasses import dataclass, replace

import numpy as np

from .errors import NonConvergenceError

ON_PATH_TOL = 1e-12  # below this distance, descend on the squared distance
GROW, SHRINK = 1.2, 0.5  # descent step factors after a success / a failure
INIT_GRID = 2000  # global-initializer grid spacing: total arclength / INIT_GRID


@dataclass(frozen=True)
class ProjectionConfig:
    """Tolerance, first descent step and iteration cap of the projection."""

    eps: float = 1e-8
    alpha0: float = 1e-2
    max_iters: int = 200

    def __post_init__(self):
        if self.eps <= 0.0:
            raise ValueError("eps must be positive")


@dataclass(frozen=True)
class ProjectionState:
    """Tracked closest point: segment index, parameter, descent bookkeeping."""

    k_star: int
    lambda_star: float
    last_iterations: int = 0
    clamped: bool = False  # lambda* pinned to an open-path endpoint


def _objective_and_gradient(path, k, lam, y):
    sigma = path.evaluate_unchecked(k, lam, 0)
    dsigma = path.evaluate_unchecked(k, lam, 1)
    diff = y - sigma
    dist = np.linalg.norm(diff)
    if dist < ON_PATH_TOL:
        # the norm is not differentiable on the path; use squared distance
        return dist, -2.0 * (diff @ dsigma)
    return dist, -(diff @ dsigma) / dist


def _newton(path, k, lam, y, cfg):
    """Safeguarded Newton iteration on g(lam) = <sigma - y, sigma'> = 0.

    Second-order point projection (Hu & Wallner, CAGD 22(3), 2005) from
    the warm lambda*: g' = ||sigma'||^2 + <sigma - y, sigma''>.  A step is
    taken only where g' > 0 (the squared distance is locally convex), it
    is no longer than the descent's first probe ``cfg.alpha0``, the new
    point stays in the incumbent segment and the distance does not
    increase.  The length bound keeps a step where g' is small from
    leaping over a distance ridge to another branch of the same segment.
    Returns (lam, iterations, converged); lam is always the last accepted
    iterate.
    """
    lo, hi = path.segments[k].domain
    sig = path.jet_unchecked(k, lam, 2)
    diff = sig[0] - y
    dist2 = diff @ diff
    iters = 0
    while iters < cfg.max_iters:
        gp = sig[1] @ sig[1] + diff @ sig[2]
        if not gp > 0.0:
            break
        step = (diff @ sig[1]) / gp
        lam_new = lam - step
        if abs(step) > cfg.alpha0 or not lo <= lam_new <= hi:
            break
        iters += 1
        sig_new = path.jet_unchecked(k, lam_new, 2)
        diff_new = sig_new[0] - y
        dist2_new = diff_new @ diff_new
        if abs(step) < cfg.eps:
            # converged; a sub-eps step that rounding made look uphill
            # is simply not taken
            if dist2_new <= dist2:
                lam = lam_new
            return lam, iters, True
        if dist2_new > dist2:
            break
        lam, sig, diff, dist2 = lam_new, sig_new, diff_new, dist2_new
    return lam, iters, False


def update(state, path, y, cfg):
    """One projection pass: Newton from the warm lambda*, else Algorithm 1.

    The Newton iteration (see ``_newton``) usually converges in a few
    steps.  When one of its safeguards trips, the monotone descent of
    Algorithm 1 takes over from the last accepted iterate, followed by
    the segment hand-off; both count toward ``cfg.max_iters``.

    Raises NonConvergenceError (carrying the best state so far) if the
    iteration cap is hit.
    """
    y = np.asarray(y, dtype=float)
    k = state.k_star
    lam, iters, converged = _newton(path, k, state.lambda_star, y, cfg)
    if converged:
        return ProjectionState(k_star=k, lambda_star=float(lam),
                               last_iterations=iters)
    alpha = cfg.alpha0
    clamped = False

    while True:
        obj, grad = _objective_and_gradient(path, k, lam, y)
        while True:
            if iters >= cfg.max_iters:
                raise NonConvergenceError(
                    f"projection did not converge in {cfg.max_iters} iterations",
                    state=replace(state, k_star=k, lambda_star=lam,
                                  last_iterations=iters),
                )
            iters += 1
            # exactly-zero gradient (ridge between branches): nudge forward
            direction = np.sign(grad) if grad != 0.0 else -1.0
            lam_new = lam - alpha * direction
            obj_new, grad_new = _objective_and_gradient(path, k, lam_new, y)
            if obj_new < obj:
                lam, obj, grad = lam_new, obj_new, grad_new
                alpha *= GROW
            else:
                alpha *= SHRINK
            if alpha < cfg.eps:
                break

        lo, hi = path.segments[k].domain
        if lam > hi:
            if k + 1 < path.n_segments:
                lam = path.segments[k + 1].domain[0] + (lam - hi)
                k += 1
            elif path.closed:
                lam = path.segments[0].domain[0] + (lam - hi)
                k = 0
            else:
                lam, clamped = hi, True
                break
        elif lam < lo:
            if k > 0:
                lam = path.segments[k - 1].domain[1] - (lo - lam)
                k -= 1
            elif path.closed:
                lam = path.segments[-1].domain[1] - (lo - lam)
                k = path.n_segments - 1
            else:
                lam, clamped = lo, True
                break
        else:
            break
        # restart the descent on the new segment (Algorithm 1 re-entry)
        alpha = max(alpha, cfg.eps * 2.0)

    return ProjectionState(k_star=k, lambda_star=float(lam),
                           last_iterations=iters, clamped=clamped)


def global_initialize(path, y, cfg=ProjectionConfig()):
    """Brute-force grid argmin over the whole path, then one local polish.

    Ties are broken lexicographically in (k, lambda), so repeated runs are
    deterministic.
    """
    y = np.asarray(y, dtype=float)
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
    """
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
        a, b = tiny, width
        while b - a > 1e-5 * width:
            mid = 0.5 * (a + b)
            if _window_ok(path, k, ls, mid):
                a = mid
            else:
                b = mid
        deltas[i] = a
    return lam_stars, deltas, float(deltas.min())
