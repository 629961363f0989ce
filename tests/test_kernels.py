"""Segment evaluation: one recorded source, bound to floats and to arrays.

A segment's ``jet`` (recorded straight-line code bound to ``math``, one
Horner evaluation per row of a polynomial) is the evaluator the control
loop runs, and ``evaluate`` runs the same source bound to numpy over
many lambda.  For polynomials, ``numpy.polynomial`` and the
term-by-term loop below are the references both must agree with; for
every segment kind, the two bindings must agree bit for bit.
"""

import numpy as np
import pytest

from splinefollow import curves
from splinefollow.curves import PolynomialSegment


@pytest.fixture
def rng():
    return np.random.default_rng(7)


def _loop_reference(coeffs, lam, order):
    """Order-th derivative of a polynomial bundle, one power at a time.

    coeffs has shape (p, ncoef), ascending powers; returns shape (p,).
    """
    p, ncoef = coeffs.shape
    out = np.zeros(p)
    for i in range(order, ncoef):
        # falling factorial i * (i-1) * ... * (i-order+1)
        fac = 1.0
        for r in range(order):
            fac *= i - r
        out += fac * coeffs[:, i] * lam ** (i - order)
    return out


def test_poly_eval_matches_polyval(rng):
    coeffs = rng.normal(size=(3, 6))
    seg = PolynomialSegment(coeffs, (0.0, 1.0))
    for order in range(6):
        for lam in (-1.3, 0.0, 0.4, 2.7):
            got = seg.evaluate(lam, order)
            jet = np.asarray(seg.jet(lam, order))
            for j in range(3):
                c = np.polynomial.polynomial.Polynomial(coeffs[j])
                want = c.deriv(order)(lam) if order else c(lam)
                assert got[j] == pytest.approx(want, rel=1e-12, abs=1e-12)
                assert jet[order, j] == pytest.approx(want, rel=1e-12, abs=1e-12)


def test_poly_eval_many_matches_scalar(rng):
    coeffs = rng.normal(size=(2, 7))
    seg = PolynomialSegment(coeffs, (0.0, 1.0))
    lams = rng.uniform(-2.0, 2.0, size=11)
    for order in range(4):
        many = seg.evaluate(lams, order)
        for i, lam in enumerate(lams):
            np.testing.assert_allclose(
                many[i], seg.evaluate(lam, order), rtol=1e-13
            )


def test_order_beyond_degree_is_zero(rng):
    coeffs = rng.normal(size=(2, 4))
    seg = PolynomialSegment(coeffs, (0.0, 1.0))
    assert np.all(seg.evaluate(0.7, 4) == 0.0)
    assert np.all(seg.evaluate(np.array([0.7]), 9) == 0.0)
    jet = np.asarray(seg.jet(0.7, 6))
    assert jet.shape == (7, 2)
    assert np.all(jet[4:] == 0.0)


def test_fallback_path_matches_active_kernels(rng):
    """The loop reference agrees with the table evaluator the loop runs."""
    coeffs = rng.normal(size=(3, 6))
    seg = PolynomialSegment(coeffs, (0.0, 1.0))
    lams = rng.uniform(-1.0, 1.0, size=9)
    for order in range(5):
        np.testing.assert_allclose(
            np.array([_loop_reference(coeffs, lam, order) for lam in lams]),
            seg.evaluate(lams, order),
            rtol=1e-12, atol=1e-12,
        )
        np.testing.assert_allclose(
            _loop_reference(coeffs, lams[0], order),
            seg.evaluate(lams[0], order),
            rtol=1e-12, atol=1e-12,
        )
        np.testing.assert_allclose(
            [_loop_reference(coeffs, lams[0], r) for r in range(order + 1)],
            seg.jet(lams[0], order),
            rtol=1e-12, atol=1e-12,
        )


@pytest.mark.parametrize("ncoef", range(2, 11))
def test_jet_rows_match_array_evaluate(rng, ncoef):
    """Rows 0..r of the jet are lists of p floats equal to numpy's array
    evaluation to 1e-13 relative, zero beyond the degree."""
    coeffs = rng.normal(size=(3, ncoef))
    seg = PolynomialSegment(coeffs, (0.0, 1.0))
    lams = rng.uniform(-1.5, 1.5, size=5)
    for r in range(ncoef + 2):
        want = [seg.evaluate(lams, order) for order in range(r + 1)]
        for i, lam in enumerate(lams):
            rows = seg.jet(lam, r)
            assert len(rows) == r + 1
            for order, row in enumerate(rows):
                assert all(type(x) is float for x in row) and len(row) == 3
                if order >= ncoef:
                    assert row == [0.0, 0.0, 0.0]
                np.testing.assert_allclose(row, want[order][i], rtol=1e-13,
                                           atol=1e-13 * np.abs(want[order][i]).max())


@pytest.mark.parametrize("name", ["fitted", "circle", "circle-angle", "ellipse", "helix"])
def test_array_evaluate_equals_float_jet(name, fig8_path):
    """Over an array of lambda, ``evaluate`` of orders 0..p+1 equals the
    jet rows at each lambda with ``==``: both bindings run the same
    float operations of one recorded source."""
    path = {
        "fitted": fig8_path,
        "circle": curves.circle_path(1.3, center=(0.4, -0.2)),
        "circle-angle": curves.circle_path(0.7, unit_speed=False, span=(-2.0, 2.5)),
        "ellipse": curves.ellipse_path(a=2.0, b=0.6),
        "helix": curves.helix_path(radius=1.5, pitch=-0.4),
    }[name]
    p = path.output_dim
    for seg in path.segments:
        lams = np.concatenate([np.linspace(*seg.domain, 37), [-0.0, 0.0]])
        rows = [seg.jet(lam, p + 1) for lam in lams]
        for order in range(p + 2):
            many = seg.evaluate(lams, order)
            assert many.shape == (len(lams), p)
            assert np.array_equal(many, [r[order] for r in rows]), order
