"""Superadapted reduction: shear search, growth index, lexicographic order."""

from fractions import Fraction

import pytest

from newton_sublevel import (
    GrowthIndex,
    growth_index,
    is_morse,
    is_superadapted,
    newton_polygon_of,
    parse_expression,
    to_superadapted,
)
from helpers import phase, CATALOG, PHASES


def test_catalog_indices_exact():
    for name, expr, j, pp, mh in PHASES:
        rep = to_superadapted(parse_expression(expr).poly)
        assert rep.index.j == j, name
        assert rep.index.p == pp, name
        assert rep.index.morse_hyperbolic is mh, name
        assert is_superadapted(rep.final)


def test_parabola_square_one_shear_to_y2():
    rep = to_superadapted(phase((1, 0, 2), (-2, 2, 1), (1, 4, 0)))  # (y-x^2)^2
    assert rep.iterations == 1
    assert dict(rep.final.items()) == {(Fraction(0), 2): Fraction(1)}
    (s,) = rep.shears_applied
    assert (s.m, s.root) == (Fraction(2), Fraction(1))


def test_hyperbola_one_shear_to_vertex():
    rep = to_superadapted(phase((1, 2, 0), (-1, 0, 2)))  # x^2 - y^2
    assert rep.iterations == 1
    np_ = newton_polygon_of(rep.final)
    cls_vertices = set(np_.vertices)
    assert (Fraction(1), Fraction(1)) in cls_vertices
    assert rep.index == GrowthIndex(j=Fraction(1), p=1, morse_hyperbolic=True)


def test_double_shear_chain():
    # (y - x^2 - x^3)^2 needs the x^2 shear, then the x^3 correction
    p = phase((1, 0, 2), (-2, 2, 1), (-2, 3, 1), (1, 4, 0), (2, 5, 0), (1, 6, 0))
    rep = to_superadapted(p)
    assert rep.iterations == 2
    assert dict(rep.final.items()) == {(Fraction(0), 2): Fraction(1)}
    assert [s.curve for s in rep.shears_applied][0].terms == {(Fraction(2), 0): Fraction(1)}


def test_superadapted_is_fixed_point():
    for _, p, *_ in CATALOG:
        rep = to_superadapted(p)
        again = to_superadapted(rep.final)
        assert again.iterations == 0
        assert again.final.terms == rep.final.terms


def test_growth_index_requires_superadapted():
    with pytest.raises(ValueError):
        growth_index(phase((1, 0, 2), (-2, 2, 1), (1, 4, 0)))


def test_fractional_slope_needs_axis_swap():
    # (y - x^(3/2))^2: offending edge has inverse slope 3/2
    p = phase((1, 0, 2), (-2, Fraction(3, 2), 1), (1, 3, 0))
    with pytest.raises(ValueError, match="nonintegral slope"):
        to_superadapted(p)


def test_irrational_root_rejected():
    # (y^2 - 2x^2)^2: edge roots +-sqrt(2) of order 2 >= d = 2
    p = phase((1, 0, 4), (-4, 2, 2), (4, 4, 0))
    with pytest.raises(ValueError, match="irrational"):
        to_superadapted(p)


def test_negative_root_shear():
    # (y + x^3)^2 + x^8: kills the branch at root -1, leaving y^2 + x^8
    p = phase((1, 0, 2), (2, 3, 1), (1, 6, 0), (1, 8, 0))
    rep = to_superadapted(p)
    assert is_superadapted(rep.final)
    assert rep.iterations == 1
    assert rep.shears_applied[0].root == Fraction(-1)
    assert dict(rep.final.items()) == {(Fraction(0), 2): Fraction(1),
                                       (Fraction(8), 0): Fraction(1)}
    assert rep.index.j == Fraction(5, 8) and rep.index.p == 0


def test_key_orders_by_j_then_p():
    a = GrowthIndex(j=Fraction(1, 2), p=0, morse_hyperbolic=False)
    b = GrowthIndex(j=Fraction(1, 2), p=1, morse_hyperbolic=False)
    c = GrowthIndex(j=Fraction(2, 3), p=0, morse_hyperbolic=False)
    # larger j decays better: c is the best, then a, then b
    assert c.key() < a.key() < b.key()
    assert b.key() == b.key()
    assert sorted([b, a, c], key=GrowthIndex.key) == [c, a, b]


def test_is_morse():
    assert is_morse(phase((1, 2, 0), (1, 0, 2)))
    assert is_morse(phase((1, 1, 1)))
    assert not is_morse(phase((1, 0, 2), (-1, 3, 0)))
    assert not is_morse(phase((1, 1, 0)))
