"""Newton polygon construction, distance, bisectrix classes, edge polynomials."""

from fractions import Fraction

import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st

from newton_sublevel import (
    PuiseuxPoly,
    bisectrix_classify,
    edge_polynomial,
    newton_distance,
    newton_polygon_of,
    polygon_subset,
)
from helpers import _fraction_hull, phase, CATALOG


def test_polygon_of_parabola_square():
    # (y - x^2)^2: vertices (0,2) and (4,0), one edge of inverse slope 2
    np_ = newton_polygon_of(phase((1, 0, 2), (-2, 2, 1), (1, 4, 0)))
    assert np_.vertices == ((Fraction(0), Fraction(2)), (Fraction(4), Fraction(0)))
    (e,) = np_.edges
    assert (e.m, e.alpha) == (Fraction(2), Fraction(4))
    assert e.lo == (Fraction(0), Fraction(2)) and e.hi == (Fraction(4), Fraction(0))
    # the cross term (2,1) lies on the edge, not at a vertex
    assert np_.contains(Fraction(2), Fraction(1))


def test_newton_distance_catalog():
    expected = {
        "x^2+y^2": Fraction(1),
        "x*y": Fraction(1),
        "x^2-y^2": Fraction(1),
        "(y-x^2)^2": Fraction(4, 3),
        "x^2y^2+x^5": Fraction(2),
        "y^2-x^3": Fraction(6, 5),
    }
    for name, p, *_ in CATALOG:
        assert newton_distance(newton_polygon_of(p)) == expected[name], name


def test_bisectrix_classes():
    assert bisectrix_classify(newton_polygon_of(phase((1, 1, 1)))).tag == "Vertex"
    assert bisectrix_classify(newton_polygon_of(phase((1, 2, 0), (1, 0, 2)))).tag == "EdgeInterior"
    # y^2 alone: the diagonal first meets the horizontal ray b = 2
    assert bisectrix_classify(newton_polygon_of(phase((1, 0, 2)))).tag == "HorizontalRayInterior"
    assert bisectrix_classify(newton_polygon_of(phase((1, 2, 0)))).tag == "VerticalRayInterior"
    cls = bisectrix_classify(newton_polygon_of(phase((1, 2, 2), (1, 5, 0))))
    assert cls.tag == "Vertex" and cls.touch_point == (Fraction(2), Fraction(2))


def test_edge_polynomial_signs():
    # x^2 - y^2 on its single edge: at x = 1 gives 1 - y^2, at x = -1 the same
    p = phase((1, 2, 0), (-1, 0, 2))
    (e,) = newton_polygon_of(p).edges
    q1 = edge_polynomial(p, e, 1)
    assert dict(q1.items()) == {(Fraction(0), 0): Fraction(1), (Fraction(0), 2): Fraction(-1)}
    q2 = edge_polynomial(p, e, -1)
    assert q2.terms == q1.terms
    # odd x-power flips sign on the x < 0 side
    p2 = phase((1, 3, 0), (1, 0, 3))
    (e2,) = newton_polygon_of(p2).edges
    assert dict(edge_polynomial(p2, e2, -1).items())[(Fraction(0), 0)] == Fraction(-1)


def test_edge_polynomial_fractional_rejects_negative_side():
    p = phase((1, Fraction(3, 2), 1), (1, 0, 2))
    (e,) = newton_polygon_of(p).edges
    with pytest.raises(ValueError):
        edge_polynomial(p, e, -1)


def test_polygon_subset():
    # polygon_subset(A, B) <=> region(A) subset region(B); extra support grows the region
    big = newton_polygon_of(phase((1, 0, 2), (1, 7, 0)))   # y^2 + x^7
    small = newton_polygon_of(phase((1, 0, 2)))            # y^2 alone
    assert polygon_subset(small, big)
    assert not polygon_subset(big, small)


x_exps = st.fractions(min_value=0, max_value=8, max_denominator=3)
y_exps = st.integers(min_value=0, max_value=6)


@st.composite
def supports(draw):
    n = draw(st.integers(min_value=1, max_value=6))
    pts = {(draw(x_exps), draw(y_exps)) for _ in range(n)}
    return PuiseuxPoly({pt: Fraction(1) for pt in pts})


@given(supports())
def test_support_inside_polygon(p):
    np_ = newton_polygon_of(p)
    for (a, b) in p.support():
        assert np_.contains(a, b)
    # vertices are support points
    assert set(np_.vertices) <= set(p.support())


@given(supports(), supports())
def test_distance_monotone_under_more_terms(p, q):
    # enlarging the support can only enlarge the region, shrinking d
    np_p = newton_polygon_of(p)
    union = PuiseuxPoly({**q.terms, **p.terms})
    np_u = newton_polygon_of(union)
    assert newton_distance(np_u) <= newton_distance(np_p)
    assert polygon_subset(np_p, np_u)


@given(supports())
def test_distance_is_diagonal_entry_time(p):
    np_ = newton_polygon_of(p)
    d = newton_distance(np_)
    assert np_.contains(d, d)
    eps = Fraction(1, 1000)
    if d > 0:
        assert not np_.contains(d - eps, d - eps)


@st.composite
def ramified_polys(draw):
    """Up to eight terms, maybe truncated, with x-exponents a/d (d up to 4) on a
    coarse grid, so that collinear and dominated points are common."""
    terms, d = {}, draw(st.integers(1, 4))
    for _ in range(draw(st.integers(1, 8))):
        a = Fraction(draw(st.integers(0, 3 * d)), draw(st.sampled_from([1, d])))
        terms[(a, draw(st.integers(0, 4)))] = draw(st.sampled_from([-2, -1, Fraction(1, 3), 1, 5]))
    trunc = draw(st.none() | st.fractions(min_value=1, max_value=12, max_denominator=3))
    return PuiseuxPoly(terms, trunc)


@given(ramified_polys())
@example(phase((1, 0, 2), (-2, 2, 1), (1, 4, 0)))                    # a collinear edge point
@example(phase((1, 0, 4), (1, Fraction(1, 2), 3), (1, Fraction(3, 2), 1), (1, 2, 0)))
def test_integer_hull_matches_the_fraction_hull(p):
    assume(not p.is_zero())
    assert newton_polygon_of(p) == _fraction_hull(p)


def test_polygon_is_built_once_per_polynomial():
    p = phase((1, 0, 2), (-2, 2, 1), (1, 4, 0))
    assert newton_polygon_of(p) is newton_polygon_of(p)
    with pytest.raises(ValueError, match="zero phase"):
        newton_polygon_of(PuiseuxPoly.zero())
