"""Composite parametrized paths and quintic spline fitting.

A path is an ordered list of curve segments, each defined on a closed
parameter interval.  Fitted segments are polynomials in the chord-length
parameter; analytic curves (circles, ellipses, ...) plug into the same
pipeline through :class:`CallbackSegment`.

At one lambda, a segment's ``jet`` returns the derivatives 0..r as
lists of p floats: for polynomial segments, straight-line Horner code
generated by ``codegen`` once per (p, ncoef, r).  Over many lambda,
``evaluate`` is numpy.

Arclength is the integral of the speed ||sigma'|| by composite
Gauss-Legendre quadrature: one table per segment, built once with the
path, holds s_k at every node of a uniform grid, and ``arclength``
adds the same rule over the remainder past the grid node below lambda.
``arclength_interp`` interpolates the table on floats.  The module
needs numpy only.
"""

from bisect import bisect_right
from dataclasses import dataclass
from math import perm

import numpy as np

from . import codegen
from .errors import (
    DegenerateChordError,
    DomainError,
    FitFailureError,
    UnsupportedOrderError,
)

JUNCTION_TOL = 1e-8
GRAM_DET_THRESHOLD = 1e-10
ARC_GRID = 2049   # nodes of a segment's arclength table
# 4-point Gauss-Legendre rule mapped to [0, 1]: nodes and weights
_GL_X, _GL_W = np.polynomial.legendre.leggauss(4)
GL_NODES, GL_WEIGHTS = (_GL_X + 1.0) / 2.0, _GL_W / 2.0


def _gauss_legendre(seg, a, h):
    """Integral of ||sigma'|| over the cells [a, a + h], one per entry."""
    nodes = a[:, None] + h[:, None] * GL_NODES
    speeds = np.linalg.norm(seg.evaluate(nodes.ravel(), 1), axis=1)
    return h * (speeds.reshape(nodes.shape) @ GL_WEIGHTS)


@dataclass(frozen=True)
class Waypoint:
    """A point in the output space the fitted path must interpolate."""

    position: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "position", np.asarray(self.position, dtype=float))


class PolynomialSegment:
    """One polynomial piece sigma_k of a composite path.

    Parameters
    ----------
    coeffs : (p, ncoef) array
        Ascending-power polynomial coefficients, one row per output
        dimension.
    domain : (float, float)
        Closed parameter interval [lambda_min, lambda_max].

    Derivatives come from a table built once at construction: entry
    ``[r, :, j]`` is the coefficient of lambda^j in d^r sigma / d lambda^r,
    with the falling factorial i!/(i-r)! of the source power i = j + r
    folded in.  Over many lambda, one derivative is a (p, ncoef)
    matrix product against the powers of lambda.  At one lambda, ``jet``
    runs the Horner evaluation of the table's rows as straight-line
    float code.  Orders at or above ncoef are zero and have no table
    entry.
    """

    def __init__(self, coeffs, domain):
        self.coeffs = np.ascontiguousarray(coeffs, dtype=float)
        if self.coeffs.ndim == 1:
            self.coeffs = self.coeffs[None, :]
        lo, hi = float(domain[0]), float(domain[1])
        if not lo < hi:
            raise DomainError(f"degenerate segment domain [{lo}, {hi}]")
        self.domain = (lo, hi)
        self.dim, ncoef = self.coeffs.shape
        table = np.zeros((ncoef, self.dim, ncoef))
        for r in range(ncoef):
            fac = [perm(i, r) for i in range(r, ncoef)]
            table[r, :, : ncoef - r] = self.coeffs[:, r:] * fac
        self._table = table
        # the table's nonzero entries in the order _jet_code reads them
        self._flat = tuple(np.concatenate(
            [table[r, :, : ncoef - r].ravel() for r in range(ncoef)]).tolist())

    def evaluate(self, lam, order=0):
        """Evaluate d^order sigma / d lambda^order; no domain check."""
        if np.isscalar(lam):
            return np.array(self.row(lam, order))
        ncoef = len(self._table)
        if order >= ncoef:
            return np.zeros((np.size(lam), self.dim))
        lams = np.asarray(lam, dtype=float).reshape(-1, 1)
        return (lams ** np.arange(ncoef)) @ self._table[order].T

    def jet(self, lam, max_order):
        """Derivatives 0..max_order at scalar lam: max_order + 1 lists of p floats."""
        return codegen.kernel(_jet_code, self.dim, len(self._table), max_order)(
            self._flat, float(lam))

    def row(self, lam, order):
        """d^order sigma / d lambda^order at scalar lam, as a list of p floats."""
        return self.jet(lam, order)[order]

    def to_dict(self):
        return {"coeffs": self.coeffs.tolist(), "domain": list(self.domain)}


def _jet_code(p, ncoef, r):
    """Source of ``f(c, lam)``, the derivatives 0..r of a segment at lam.

    ``c`` is the segment's flattened table: order by order, the p rows
    of the ncoef - order coefficients of that order.  Each row is one
    Horner evaluation; orders at or above ncoef are rows of zeros.
    """
    code = codegen.Recorder()
    lam = codegen.Var(code, "lam")
    coef = iter(code.unpack("c", (p * ncoef * (ncoef + 1) // 2,)))
    rows = []
    for order in range(min(r + 1, ncoef)):
        row = []
        for _ in range(p):
            *rest, value = [next(coef) for _ in range(ncoef - order)]
            for c in reversed(rest):
                value = value * lam + c
            row.append(value)
        rows.append(row)
    rows += [[0.0] * p for _ in range(r + 1 - len(rows))]
    return code.function("c, lam", rows), {}


class CallbackSegment:
    """Adapter wrapping closed-form derivative callbacks.

    ``fn(lam, order)`` must return the order-th derivative at ``lam`` and
    broadcast over arrays of ``lam``.  Lets non-polynomial curves (the
    ellipse, circles, helices) run through the same machinery.
    """

    def __init__(self, fn, domain, dim):
        self.fn = fn
        lo, hi = float(domain[0]), float(domain[1])
        if not lo < hi:
            raise DomainError(f"degenerate segment domain [{lo}, {hi}]")
        self.domain = (lo, hi)
        self.dim = dim

    def evaluate(self, lam, order=0):
        out = np.asarray(self.fn(lam, order), dtype=float)
        if np.isscalar(lam):
            return out.reshape(self.dim)
        return out.reshape(len(np.atleast_1d(lam)), self.dim)

    def jet(self, lam, max_order):
        """Derivatives 0..max_order at scalar lam: max_order + 1 lists of p floats."""
        lam = float(lam)
        return np.array([self.fn(lam, r) for r in range(max_order + 1)],
                        dtype=float).reshape(max_order + 1, self.dim).tolist()

    def row(self, lam, order):
        """d^order sigma / d lambda^order at scalar lam, as a list of p floats."""
        return np.asarray(self.fn(float(lam), order), dtype=float).reshape(
            self.dim).tolist()

    def to_dict(self):
        raise TypeError("callback segments are not serializable")


class SplinePath:
    """An ordered chain of curve segments with precomputed arclength tables.

    Immutable after construction; safe for concurrent reads.
    """

    def __init__(self, segments, closed=False):
        if not segments:
            raise ValueError("path needs at least one segment")
        dims = {s.dim for s in segments}
        if len(dims) != 1:
            raise ValueError("segments have inconsistent output dimensions")
        self.segments = list(segments)
        self.closed = bool(closed)
        self.output_dim = segments[0].dim
        self._arc_tables = [self._arc_table(s) for s in self.segments]
        self.cumulative_arclength = np.array([cum[-1] for _, cum in self._arc_tables])
        # eta_1 offset of segment k is the total arclength of segments < k
        self.arclength_offsets = np.concatenate(
            ([0.0], np.cumsum(self.cumulative_arclength)[:-1])
        )

    @property
    def n_segments(self):
        return len(self.segments)

    @property
    def total_arclength(self):
        return float(np.sum(self.cumulative_arclength))

    @staticmethod
    def _arc_table(seg):
        """Arclength table (grid, s) of one segment: s at every grid node,
        as memoryviews of float arrays."""
        grid = np.linspace(*seg.domain, ARC_GRID)
        cells = _gauss_legendre(seg, grid[:-1], np.diff(grid))
        return memoryview(grid), memoryview(np.concatenate(([0.0], np.cumsum(cells))))

    def arclength(self, k, lam):
        """Arclength s_k(lam) from the segment start.

        The table entry at the grid node below lam plus the same
        Gauss-Legendre rule over the remainder.
        """
        seg = self.segments[k]
        self._check_domain(seg, lam)
        grid, cum = self._arc_tables[k]
        lam = float(lam)
        i = min(max(bisect_right(grid, lam) - 1, 0), len(grid) - 2)
        rest = _gauss_legendre(seg, np.array([grid[i]]), np.array([lam - grid[i]]))
        return float(cum[i] + rest[0])

    def arclength_interp(self, k, lam):
        """Fast s_k(lam): linear interpolation in the segment's table.

        Exact at the grid nodes; between them it errs by at most
        h^2/8 max |d||sigma'||/dlambda| for the grid spacing h (3e-9 on the
        fitted figure-eight).  The control loop queries this every step,
        so it does np.interp's float arithmetic on the table itself:
        clamped to the end values outside the grid, NaN at NaN.
        """
        grid, cum = self._arc_tables[k]
        j = bisect_right(grid, lam) - 1
        if j < 0:
            return cum[0]
        if j == len(grid) - 1:   # at or past the last node, or NaN
            return cum[j] if lam == lam else lam
        slope = (cum[j + 1] - cum[j]) / (grid[j + 1] - grid[j])
        return slope * (lam - grid[j]) + cum[j]

    def evaluate(self, k, lam, order=0):
        """Evaluate d^order sigma_k / d lambda^order with domain checks."""
        if order > self.output_dim + 1:
            raise UnsupportedOrderError(
                f"order {order} > p+1 = {self.output_dim + 1}"
            )
        seg = self.segments[k]
        self._check_domain(seg, lam)
        return seg.evaluate(lam, order)

    def evaluate_unchecked(self, k, lam, order=0):
        """Evaluate extrapolating outside the domain (projection internals).

        At a scalar lam the result is a list of p floats.
        """
        if np.isscalar(lam):
            return self.segments[k].row(lam, order)
        return self.segments[k].evaluate(lam, order)

    def jet_unchecked(self, k, lam, max_order):
        """Derivatives 0..max_order of sigma_k at scalar lam, no domain check:
        max_order + 1 lists of p floats."""
        return self.segments[k].jet(lam, max_order)

    @staticmethod
    def _check_domain(seg, lam):
        lo, hi = seg.domain
        tol = 1e-12 * (1.0 + hi - lo)
        if np.any(np.asarray(lam) < lo - tol) or np.any(np.asarray(lam) > hi + tol):
            raise DomainError(f"lambda {lam} outside segment domain [{lo}, {hi}]")

    def to_dict(self):
        return {
            "segments": [s.to_dict() for s in self.segments],
            "cumulative_arclength": self.cumulative_arclength.tolist(),
            "p": self.output_dim,
            "closed": self.closed,
        }

    @classmethod
    def from_dict(cls, d):
        segs = [PolynomialSegment(s["coeffs"], s["domain"]) for s in d["segments"]]
        return cls(segs, closed=d.get("closed", False))


@dataclass
class AssumptionReport:
    """Result of the smoothness / framed-curve sampling checks."""

    smooth_ok: bool
    framed_ok: bool
    worst_junction_error: float
    min_gram_determinant: float
    worst_junction: int = -1


def _power_row(ncoef, lam, order):
    """Row of d^order lambda^i / d lambda^order coefficients."""
    row = np.zeros(ncoef)
    for i in range(order, ncoef):
        row[i] = perm(i, order) * lam ** (i - order)
    return row


def fit_spline(waypoints, closed=False, smoothness_order=4):
    """Fit a chord-length-parametrized polynomial spline through waypoints.

    Junction derivatives up to ``smoothness_order`` are matched; open ends
    get natural conditions (derivative orders 2..smoothness_order/2 + 1
    set to zero), which closes the linear system.  ``smoothness_order=4``
    yields the classic C^4 quintic spline.

    The system is solved for the coefficients in each segment's unit
    parameter t = lambda / chord_k, so the interpolation rows stay O(1)
    however unequal the chords are; the coefficients are mapped back to
    lambda afterwards.

    Raises
    ------
    DegenerateChordError
        If consecutive waypoints coincide.
    FitFailureError
        If the assembled linear system is rank deficient.
    """
    pts = np.array(
        [w.position if isinstance(w, Waypoint) else np.asarray(w, float) for w in waypoints]
    )
    if pts.ndim != 2:
        raise ValueError("waypoints must share a common dimension")
    n_wp, p = pts.shape
    if smoothness_order < 2 or smoothness_order % 2 != 0:
        raise ValueError("smoothness_order must be an even integer >= 2")
    if closed and n_wp < 3:
        raise ValueError("closed paths need at least 3 waypoints")
    if not closed and n_wp < 2:
        raise ValueError("open paths need at least 2 waypoints")

    m = smoothness_order
    ncoef = m + 2  # polynomial degree m+1
    if closed:
        chords = np.linalg.norm(np.roll(pts, -1, axis=0) - pts, axis=1)
        n_seg = n_wp
    else:
        chords = np.linalg.norm(np.diff(pts, axis=0), axis=1)
        n_seg = n_wp - 1
    bad = np.where(chords <= 0)[0]
    if bad.size:
        raise DegenerateChordError(
            f"waypoints {bad[0]} and {bad[0] + 1} coincide (zero chord)"
        )

    n_unknown = ncoef * n_seg
    A = np.zeros((n_unknown, n_unknown))
    B = np.zeros((n_unknown, p))
    row = 0

    def sl(k):
        return slice(ncoef * k, ncoef * (k + 1))

    # interpolation at both segment ends
    for k in range(n_seg):
        A[row, sl(k)] = _power_row(ncoef, 0.0, 0)
        B[row] = pts[k]
        row += 1
        A[row, sl(k)] = _power_row(ncoef, chords[k], 0)
        B[row] = pts[(k + 1) % n_wp]
        row += 1

    # junction continuity of derivative orders 1..m
    junctions = [(k, k + 1) for k in range(n_seg - 1)]
    if closed:
        junctions.append((n_seg - 1, 0))
    for ka, kb in junctions:
        for order in range(1, m + 1):
            A[row, sl(ka)] = _power_row(ncoef, chords[ka], order)
            A[row, sl(kb)] -= _power_row(ncoef, 0.0, order)
            row += 1

    if not closed:
        # natural end conditions
        for order in range(2, 2 + m // 2):
            A[row, sl(0)] = _power_row(ncoef, 0.0, order)
            row += 1
            A[row, sl(n_seg - 1)] = _power_row(ncoef, chords[-1], order)
            row += 1

    assert row == n_unknown
    # unknowns in unit parameter: column i of segment k scaled by chord_k^i
    powers = np.arange(ncoef)
    A *= np.concatenate([chords[k] ** -powers for k in range(n_seg)])
    try:
        X = np.linalg.solve(A, B)
    except np.linalg.LinAlgError as exc:
        raise FitFailureError(f"spline fit system is singular: {exc}") from exc
    # backward-error test: relative to the size of the terms it balances
    resid = np.linalg.norm(A @ X - B)
    scale = np.linalg.norm(A) * np.linalg.norm(X) + np.linalg.norm(B)
    if not np.isfinite(resid) or resid > 1e-10 * scale:
        raise FitFailureError(f"spline fit residual too large: {resid:.3e}")

    segments = [
        PolynomialSegment(X[sl(k)].T / chords[k] ** powers, (0.0, chords[k]))
        for k in range(n_seg)
    ]
    return SplinePath(segments, closed=closed)


def check_assumptions(path, grid_density=64):
    """Sample-based check of junction smoothness and the framed condition.

    Sampling, not proof: ``framed_ok`` means the Gram determinant of
    {sigma', ..., sigma^(p)} stayed above threshold on the grid.
    """
    if grid_density < 2:
        raise ValueError("grid_density must be >= 2")
    p = path.output_dim
    worst = 0.0
    worst_j = -1
    junctions = [(k, k + 1) for k in range(path.n_segments - 1)]
    if path.closed:
        junctions.append((path.n_segments - 1, 0))
    for ka, kb in junctions:
        sa, sb = path.segments[ka], path.segments[kb]
        for order in range(0, p + 2):
            va = sa.evaluate(sa.domain[1], order)
            vb = sb.evaluate(sb.domain[0], order)
            err = np.linalg.norm(va - vb) / (1.0 + np.linalg.norm(va))
            if err > worst:
                worst, worst_j = err, ka

    min_det = np.inf
    for seg in path.segments:
        lo, hi = seg.domain
        grid = np.linspace(lo, hi, grid_density)
        for lam in grid:
            V = np.stack([seg.evaluate(lam, r) for r in range(1, p + 1)])
            norms = np.linalg.norm(V, axis=1)
            if np.any(norms < 1e-300):
                min_det = 0.0
                continue
            G = V @ V.T
            d = np.linalg.det(G) / np.prod(norms**2)
            min_det = min(min_det, d)

    return AssumptionReport(
        smooth_ok=worst < JUNCTION_TOL,
        framed_ok=min_det > GRAM_DET_THRESHOLD,
        worst_junction_error=worst,
        min_gram_determinant=float(min_det),
        worst_junction=worst_j,
    )


# --- analytic path constructors used by scenarios and tests ---


def circle_path(radius=1.0, center=(0.0, 0.0), unit_speed=True, span=None):
    """Single-segment circular path in R^2.

    With ``unit_speed`` the parameter is arclength (domain length 2*pi*R),
    otherwise it is the angle.
    """
    cx, cy = center
    w = radius if unit_speed else 1.0

    def fn(lam, order):
        ang = np.asarray(lam) / w + order * np.pi / 2.0
        r = radius / w**order
        if order == 0:
            return np.array([r * np.cos(ang) + cx, r * np.sin(ang) + cy]).T
        return np.array([r * np.cos(ang), r * np.sin(ang)]).T

    domain = span if span is not None else (0.0, 2.0 * np.pi * w)
    return SplinePath([CallbackSegment(fn, domain, 2)], closed=span is None)


def ellipse_path(a=2.0, b=1.0, span=(-np.pi, np.pi)):
    """Single-segment ellipse (a*cos(lam), b*sin(lam))."""

    def fn(lam, order):
        t = np.asarray(lam)
        phase = order * np.pi / 2.0
        return np.array([a * np.cos(t + phase), b * np.sin(t + phase)]).T

    return SplinePath([CallbackSegment(fn, span, 2)], closed=False)


def line_path(start, end):
    """Single polynomial segment tracing the straight line start -> end."""
    start = np.asarray(start, float)
    end = np.asarray(end, float)
    length = np.linalg.norm(end - start)
    if length <= 0:
        raise DegenerateChordError("line endpoints coincide")
    direction = (end - start) / length
    coeffs = np.stack([start, direction], axis=1)
    return SplinePath([PolynomialSegment(coeffs, (0.0, length))])


def helix_path(radius=1.0, pitch=1.0, span=(0.0, 4.0 * np.pi)):
    """Helix (R cos, R sin, pitch*lam) in R^3; framed everywhere."""

    def fn(lam, order):
        t = np.asarray(lam)
        phase = order * np.pi / 2.0
        z = {0: pitch * t, 1: pitch * np.ones_like(t)}.get(order, np.zeros_like(t))
        return np.array(
            [radius * np.cos(t + phase), radius * np.sin(t + phase), z]
        ).T

    return SplinePath([CallbackSegment(fn, span, 3)], closed=False)
