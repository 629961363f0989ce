"""Composite parametrized paths and quintic spline fitting.

A path is an ordered list of curve segments, each defined on a closed
parameter interval.  Fitted segments and lines are polynomials; circles,
ellipses and helices are harmonic (sums of a cos, a sin, b lambda and c
terms).  Each kind writes the recording of its derivative rows 0..r
once, and ``codegen`` compiles it per key, r and first row: bound to
``math``, a segment's ``jet`` runs the rows 0..r at one lambda and
returns lists of p floats; bound to numpy, ``evaluate`` runs the row r
alone over an array of lambda.  The projection's Newton call records
the same rows 0..2.

Arclength is the integral of the speed ||sigma'|| by composite
Gauss-Legendre quadrature: one table per segment, built once with the
path, holds s_k at every node of a uniform grid, and ``arclength``
adds the same rule over the remainder past the grid node below lambda.
``arclength_interp`` interpolates the table on floats with ``interp``,
which the control layer's reference-speed table uses too; ``bisect``
is every layer's scalar search.  The module needs numpy only.
"""

import math
from bisect import bisect_right
from dataclasses import dataclass
from functools import partial

import numpy as np

from . import codegen
from .errors import (
    DegenerateChordError,
    DomainError,
    FitFailureError,
    ParameterError,
    UnsupportedOrderError,
    flag,
    from_json,
    integer,
    positive,
    reals,
)

JUNCTION_TOL = 1e-8
GRAM_DET_THRESHOLD = 1e-10
ARC_GRID = 2049   # nodes of a segment's arclength table
# the fit's dense system has (order + 2) * n_seg unknowns, and its rounding
# error grows with the order: past 12, fits of the shipped waypoints miss JUNCTION_TOL
MAX_SMOOTHNESS_ORDER = 12
# 4-point Gauss-Legendre rule mapped to [0, 1]: nodes and weights
_GL_X, _GL_W = np.polynomial.legendre.leggauss(4)
GL_NODES, GL_WEIGHTS = (_GL_X + 1.0) / 2.0, _GL_W / 2.0


def _gauss_legendre(seg, a, h):
    """Integral of ||sigma'|| over the cells [a, a + h], one per entry."""
    nodes = a[:, None] + h[:, None] * GL_NODES
    speeds = np.linalg.norm(seg.evaluate(nodes.ravel(), 1), axis=1)
    return h * (speeds.reshape(nodes.shape) @ GL_WEIGHTS)


class Segment:
    """One piece sigma_k of a composite path on a closed parameter interval.

    A segment is its kind's recorder and key ``code = (rows, *key)`` and
    its own constants ``consts``: ``rows(recorder, lam, r, *key)``
    records the derivatives 0..r at lam as rows of p values, reading the
    constants from ``c``.  ``_jet_code`` writes them as ``f(c, lam)``:
    bound to ``math``, ``jet`` runs rows 0..r on one float, compiled once
    per r and kept in ``jets``; bound to numpy, ``evaluate`` runs the same
    arithmetic of row r alone on arrays.
    """

    def __init__(self, domain, dim, code, consts):
        lo, hi = float(domain[0]), float(domain[1])
        if not lo < hi:
            raise DomainError(f"degenerate segment domain [{lo}, {hi}]")
        self.domain = (lo, hi)
        self.dim = dim
        self.code, self.consts = code, consts
        self.jets = {}   # max_order -> compiled jet, filled at first use
        self.newton = None   # the projection's compiled Newton iterate, likewise

    def evaluate(self, lam, order=0):
        """d^order sigma / d lambda^order at scalar lam, shape (p,), or at
        each entry of a 1-D array of lam, shape (n, p); no domain check."""
        lam = np.asarray(lam, dtype=float)
        (row,) = codegen.kernel(_jet_code, order, order, *self.code, lib=np)(
            self.consts, lam)
        # a row entry that is constant in lambda is one float
        return np.stack(np.broadcast_arrays(lam, *row)[1:], axis=-1)

    def jet(self, lam, max_order):
        """Derivatives 0..max_order at scalar lam: max_order + 1 lists of p floats."""
        try:
            jet = self.jets[max_order]
        except KeyError:
            jet = self.jets[max_order] = codegen.kernel(_jet_code, max_order, 0,
                                                        *self.code)
        return jet(self.consts, float(lam))


def _jet_code(r, first, rows, *key):
    """Source of ``f(c, lam)``, the derivatives first..r at lam of a
    segment whose kind records its rows with ``rows`` for ``key``."""
    code = codegen.Recorder()
    out = rows(code, codegen.Var(code, "lam"), r, *key)
    return code.function("c, lam", out[first:])


class PolynomialSegment(Segment):
    """A polynomial piece: row i of ``coeffs`` (p, ncoef) holds the
    ascending-power coefficients of output dimension i.

    The constants are, order by order, the coefficients of
    d^r sigma / d lambda^r: that of lambda^j is the coefficient of the
    source power i = j + r times the falling factorial i!/(i-r)!.
    """

    def __init__(self, coeffs, domain):
        self.coeffs = np.atleast_2d(np.ascontiguousarray(coeffs, dtype=float))
        dim, ncoef = self.coeffs.shape
        flat = []
        for r in range(ncoef):
            fac = [math.perm(i, r) for i in range(r, ncoef)]
            flat += (self.coeffs[:, r:] * fac).ravel().tolist()
        super().__init__(domain, dim, (_polynomial_rows, dim, ncoef), tuple(flat))

    def to_dict(self):
        return {"coeffs": self.coeffs.tolist(), "domain": list(self.domain)}


def _polynomial_rows(code, lam, r, p, ncoef):
    """The derivatives 0..r at lam of a polynomial segment.

    ``c`` is the segment's derivative coefficients: order by order, the
    p rows of the ncoef - order coefficients of that order.  Each row is
    one Horner evaluation; orders at or above ncoef are rows of zeros.
    """
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
    return rows + [[0.0] * p for _ in range(r + 1 - len(rows))]


class HarmonicSegment(Segment):
    """An analytic piece: coordinate i is the sum of the terms named by
    the tuple ``terms[i]`` (see ``_harmonic_rows``), whose constants
    ``consts`` lists in the same order; w scales lambda in the
    trigonometric terms."""

    def __init__(self, terms, consts, w, domain):
        super().__init__(domain, len(terms), (_harmonic_rows, terms),
                         tuple(map(float, (w, *consts))))

    def to_dict(self):
        raise TypeError("analytic segments are not serializable")


def _harmonic_rows(code, lam, r, terms):
    """The derivatives 0..r at lam of a harmonic segment.

    ``c`` is w followed by the constants of ``terms``, whose entries name
    the terms of a coordinate: ``"cos"`` or ``"sin"`` for a trig(lam / w),
    ``"b"`` for b lam, ``"c"`` for c.  The order-r derivative of
    a trig(lam / w) is a / w^r trig(lam / w + r pi / 2); a coordinate
    whose terms all vanish is zero.
    """
    w, *consts = code.unpack("c", (1 + sum(map(len, terms)),))
    consts = iter(consts)
    coords = [[(term, next(consts)) for term in coord] for coord in terms]
    rows = []
    for order in range(r + 1):
        ang = lam / w + order * math.pi / 2.0
        row = []
        for coord in coords:
            parts = []
            for term, k in coord:
                if term in ("cos", "sin"):
                    parts.append(k / w ** order * getattr(codegen, term)(ang))
                elif order == 0:
                    parts.append(k * lam if term == "b" else k)
                elif order == 1 and term == "b":
                    parts.append(k)
            row.append(sum(parts[1:], parts[0]) if parts else 0.0)
        rows.append(row)
    return rows


class SplinePath:
    """An ordered chain of curve segments with precomputed arclength tables.

    Immutable after construction; safe for concurrent reads.
    """

    def __init__(self, segments, closed=False):
        if not segments:
            raise ParameterError("path needs at least one segment")
        dims = {s.dim for s in segments}
        if len(dims) != 1:
            raise ParameterError("segments have inconsistent output dimensions")
        self.segments = list(segments)
        self.closed = bool(closed)
        self.output_dim = segments[0].dim
        self._arc_tables = [self._arc_table(s) for s in self.segments]
        self.cumulative_arclength = np.array([cum[-1] for _, cum in self._arc_tables])
        # eta_1 offset (a float) of segment k: total arclength of segments < k
        self.arclength_offsets = np.concatenate(
            ([0.0], np.cumsum(self.cumulative_arclength)[:-1])
        ).tolist()

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
        so it runs ``interp`` on the table itself.
        """
        return interp(*self._arc_tables[k], lam)

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
        """d^order sigma_k / d lambda^order at scalar lam, extrapolating
        outside the domain (projection internals): a list of p floats."""
        return self.segments[k].jet(lam, order)[order]

    def jet_unchecked(self, k, lam, max_order):
        """Derivatives 0..max_order of sigma_k at scalar lam, no domain check:
        max_order + 1 lists of p floats."""
        return self.segments[k].jet(lam, max_order)

    @staticmethod
    def _check_domain(seg, lam):
        lo, hi = seg.domain
        tol = 1e-12 * (1.0 + hi - lo)
        lams = np.asarray(lam)
        # a NaN fails both comparisons
        if not np.all((lo - tol <= lams) & (lams <= hi + tol)):
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
        """The path ``to_dict`` wrote: a JSON object of the arguments of
        ``from_segments``, else ParameterError."""
        return from_json("path", cls.from_segments, d)

    @classmethod
    def from_segments(cls, segments, cumulative_arclength=None, p=None, closed=False):
        """The path of the polynomial segments ``to_dict`` wrote, each the
        JSON object of ``_segment``'s keys; the arclengths and p are
        recomputed from them.  ParameterError, naming the key, unless
        ``segments`` is a list and ``closed`` a bool."""
        if not isinstance(segments, list):
            raise ParameterError(f"path 'segments' must be a list; got {segments!r}")
        closed = flag("path 'closed'", closed)
        return cls([from_json(f"path segment {k}", partial(_segment, k), s)
                    for k, s in enumerate(segments)], closed=closed)


def _segment(k, coeffs, domain):
    """Path segment k; ParameterError, naming the key, unless ``domain`` is
    two finite numbers and ``coeffs`` a non-empty matrix of finite numbers."""
    lam = reals(f"path segment {k} 'domain'", domain, (2,))
    c = reals(f"path segment {k} 'coeffs'", coeffs, (None, None))
    if not c.size:
        raise ParameterError(f"path segment {k} 'coeffs' must be a non-empty "
                             f"matrix of finite numbers; got {coeffs!r}")
    return PolynomialSegment(c, lam)


@dataclass
class AssumptionReport:
    """Result of the smoothness / framed-curve sampling checks."""

    smooth_ok: bool
    framed_ok: bool
    worst_junction_error: float
    min_gram_determinant: float


def interp(xs, ys, x):
    """np.interp(x, xs, ys)'s float arithmetic on sequences of floats.

    xs strictly increase; the result is clamped to the end values outside
    them, and NaN at NaN.
    """
    j = bisect_right(xs, x) - 1
    if j < 0:
        return ys[0]
    if j == len(xs) - 1:   # at or past the last node, or NaN
        return ys[j] if x == x else x
    slope = (ys[j + 1] - ys[j]) / (xs[j + 1] - xs[j])
    return slope * (x - xs[j]) + ys[j]


def bisect(inside, a, b, xtol):
    """Bisect from a, where ``inside`` holds, toward b, where it does not.

    Stops at |b - a| <= xtol or at adjacent floats; returns a.  b < a is fine.
    """
    mid = 0.5 * (a + b)
    while abs(b - a) > xtol and a != mid != b:
        a, b = (mid, b) if inside(mid) else (a, mid)
        mid = 0.5 * (a + b)
    return a


def _power_row(ncoef, lam, order):
    """Row of d^order lambda^i / d lambda^order coefficients."""
    row = np.zeros(ncoef)
    for i in range(order, ncoef):
        row[i] = math.perm(i, order) * lam ** (i - order)
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
    ParameterError
        If the waypoints are not lists of finite real numbers of one length,
        ``closed`` is not a bool or ``smoothness_order`` not an even
        integer in 2..MAX_SMOOTHNESS_ORDER.
    DegenerateChordError
        If consecutive waypoints coincide.
    FitFailureError
        If the linear system is rank deficient, or the fit's backward
        error or its miss of a waypoint (forward error) is too large.
    """
    pts = reals("waypoints", waypoints, (None, None))
    n_wp, p = pts.shape
    closed = flag("closed", closed)
    m = integer("smoothness_order", smoothness_order, 2, MAX_SMOOTHNESS_ORDER, even=True)
    if closed and n_wp < 3:
        raise ParameterError("closed paths need at least 3 waypoints")
    if not closed and n_wp < 2:
        raise ParameterError("open paths need at least 2 waypoints")

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
    # forward-error test: each segment's ends pass through their waypoints
    wp, tol = pts.tolist(), JUNCTION_TOL * (1.0 + np.abs(pts).max())
    for k, seg in enumerate(segments):
        for lam, i in zip(seg.domain, (k, (k + 1) % n_wp)):
            miss = max(abs(a - b) for a, b in zip(seg.jet(lam, 0)[0], wp[i]))
            if not miss <= tol:
                raise FitFailureError(f"spline fit misses waypoint {i} by {miss:.3e}")
    return SplinePath(segments, closed=closed)


def check_assumptions(path, grid_density=64):
    """Sample-based check of junction smoothness and the framed condition.

    Sampling, not proof: ``framed_ok`` means the Gram determinant of
    {sigma', ..., sigma^(p)} stayed above threshold on the grid.
    """
    grid_density = integer("grid_density", grid_density, 2)
    p = path.output_dim
    worst = 0.0
    junctions = [(k, k + 1) for k in range(path.n_segments - 1)]
    if path.closed:
        junctions.append((path.n_segments - 1, 0))
    for ka, kb in junctions:
        sa, sb = path.segments[ka], path.segments[kb]
        for order in range(0, p + 2):
            va = sa.evaluate(sa.domain[1], order)
            vb = sb.evaluate(sb.domain[0], order)
            err = np.linalg.norm(va - vb) / (1.0 + np.linalg.norm(va))
            worst = max(worst, err)

    min_det = np.inf
    for seg in path.segments:
        grid = np.linspace(*seg.domain, grid_density)
        # V[i] stacks sigma', ..., sigma^(p) at grid[i] as rows
        V = np.stack([seg.evaluate(grid, r) for r in range(1, p + 1)], axis=1)
        norms = np.linalg.norm(V, axis=2)
        with np.errstate(divide="ignore", invalid="ignore"):
            d = np.linalg.det(V @ V.transpose(0, 2, 1)) / np.prod(norms**2, axis=1)
        min_det = min(min_det, *np.where((norms < 1e-300).any(axis=1), 0.0, d))

    return AssumptionReport(
        smooth_ok=worst < JUNCTION_TOL,
        framed_ok=min_det > GRAM_DET_THRESHOLD,
        worst_junction_error=worst,
        min_gram_determinant=float(min_det),
    )


# --- analytic path constructors used by scenarios and tests ---


def circle_path(radius=1.0, center=(0.0, 0.0), unit_speed=True, span=None):
    """Single-segment circular path in R^2 of radius > 0.

    With ``unit_speed`` the parameter is arclength (domain length 2*pi*R),
    otherwise it is the angle.
    """
    radius = positive("circle parameter radius", radius)
    cx, cy = reals("circle parameter center", center, (2,))
    if span is not None:
        span = reals("circle parameter span", span, (2,))
    w = radius if flag("circle parameter unit_speed", unit_speed) else 1.0
    domain = span if span is not None else (0.0, 2.0 * np.pi * w)
    seg = HarmonicSegment((("cos", "c"), ("sin", "c")),
                          (radius, cx, radius, cy), w, domain)
    return SplinePath([seg], closed=span is None)


def ellipse_path(a=2.0, b=1.0, span=(-np.pi, np.pi)):
    """Single-segment ellipse (a*cos(lam), b*sin(lam)), a and b > 0."""
    a, b = positive("ellipse parameter a", a), positive("ellipse parameter b", b)
    span = reals("ellipse parameter span", span, (2,))
    seg = HarmonicSegment((("cos",), ("sin",)), (a, b), 1.0, span)
    return SplinePath([seg], closed=False)


def line_path(start, end):
    """Single polynomial segment tracing the straight line start -> end,
    lists of the same number of finite coordinates."""
    if not (isinstance(start, (list, tuple, np.ndarray)) and len(start)):
        raise ParameterError("line parameter start must be a non-empty list of "
                             f"finite real numbers; got {start!r}")
    start, end = (reals(f"line parameter {key}", x, (len(start),))
                  for key, x in (("start", start), ("end", end)))
    length = np.linalg.norm(end - start)
    if length <= 0:
        raise DegenerateChordError("line endpoints coincide")
    direction = (end - start) / length
    coeffs = np.stack([start, direction], axis=1)
    return SplinePath([PolynomialSegment(coeffs, (0.0, length))])


def helix_path(radius=1.0, pitch=1.0, span=(0.0, 4.0 * np.pi)):
    """Helix (R cos, R sin, pitch*lam) in R^3, R > 0; framed everywhere."""
    radius = positive("helix parameter radius", radius)
    pitch = float(reals("helix parameter pitch", pitch))
    span = reals("helix parameter span", span, (2,))
    seg = HarmonicSegment((("cos",), ("sin",), ("b",)), (radius, radius, pitch),
                          1.0, span)
    return SplinePath([seg], closed=False)
