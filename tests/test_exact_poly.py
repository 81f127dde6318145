"""Exact polynomial layer: ring identities, substitutions, evaluation."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from newton_sublevel import (
    PuiseuxPoly,
    deriv_x,
    deriv_y,
    divide_out_x,
    edge_polynomial,
    eval_rational,
    eval_real,
    format_poly,
    newton_polygon_of,
    poly_add,
    poly_mul,
    poly_scale,
    reflect_axes,
    subst_scale,
    subst_shear,
    subst_y,
)
from helpers import phase

rationals = st.fractions(min_value=-5, max_value=5, max_denominator=6)
# exponents: x rational with small denominator, y small nonnegative integer
x_exps = st.fractions(min_value=0, max_value=6, max_denominator=3)
y_exps = st.integers(min_value=0, max_value=5)


@st.composite
def polys(draw, max_terms=5):
    n = draw(st.integers(min_value=0, max_value=max_terms))
    terms = {}
    for _ in range(n):
        a = draw(x_exps)
        b = draw(y_exps)
        c = draw(rationals)
        if c:
            terms[(a, b)] = terms.get((a, b), Fraction(0)) + c
    return PuiseuxPoly({k: v for k, v in terms.items() if v})


@given(polys(), polys())
def test_add_commutes(p, q):
    assert poly_add(p, q).terms == poly_add(q, p).terms


@given(polys(), polys(), polys())
def test_mul_distributes(p, q, r):
    lhs = poly_mul(p, poly_add(q, r))
    rhs = poly_add(poly_mul(p, q), poly_mul(p, r))
    assert lhs.terms == rhs.terms


@given(polys(), polys())
def test_mul_commutes(p, q):
    assert poly_mul(p, q).terms == poly_mul(q, p).terms


@st.composite
def int_exp_polys(draw, max_terms=5):
    n = draw(st.integers(min_value=0, max_value=max_terms))
    terms = {}
    for _ in range(n):
        a = Fraction(draw(st.integers(min_value=0, max_value=6)))
        b = draw(y_exps)
        c = draw(rationals)
        if c:
            terms[(a, b)] = terms.get((a, b), Fraction(0)) + c
    return PuiseuxPoly({k: v for k, v in terms.items() if v})


@given(int_exp_polys(), st.fractions(min_value=0, max_value=3, max_denominator=4),
       st.fractions(min_value=-3, max_value=3, max_denominator=4))
def test_eval_is_ring_hom(p, x, y):
    # evaluation of a product equals the product of evaluations
    q = poly_mul(p, p)
    px = eval_rational(p, x, y)
    assert eval_rational(q, x, y) == px * px


@given(polys())
def test_scale_shear_roundtrip(p):
    # y -> y + x^2 then y -> y - x^2 is the identity
    shifted = subst_shear(p, 1, PuiseuxPoly.monomial(1, Fraction(2), 0))
    back = subst_shear(shifted, 1, PuiseuxPoly.monomial(-1, Fraction(2), 0))
    assert back.terms == p.terms


def test_subst_shear_expands_square():
    # (y + x^2)^2 pulled back through y -> y - x^2 gives y^2
    p = phase((1, 0, 2), (-2, 2, 1), (1, 4, 0))  # (y - x^2)^2
    sheared = subst_shear(p, 1, PuiseuxPoly.monomial(1, Fraction(2), 0))
    assert sheared.terms == phase((1, 0, 2)).terms


def _subst_shear_binomial(p, sign_y, g):
    """Reference for subst_shear: each term's (sign_y·y + g)^b expanded by the
    binomial theorem over a table of powers of g."""
    if p.truncation_order is None and g.truncation_order is None:
        trunc = None
    else:
        cands = []
        g_ord = min((a for (a, _b) in g.terms), default=Fraction(1))
        if p.truncation_order is not None:
            cands.append(p.truncation_order * min(Fraction(1), g_ord))
        if g.truncation_order is not None:
            cands.append(g.truncation_order)
        trunc = min(cands)
    g_pows = [PuiseuxPoly.constant(1)]
    for _ in range(p.y_degree()):
        g_pows.append(poly_mul(g_pows[-1], g))
    out = PuiseuxPoly.zero()
    sy = Fraction(sign_y)
    for (a, b), c in p.terms.items():
        acc = PuiseuxPoly.zero()
        for k in range(b + 1):
            part = poly_mul(PuiseuxPoly.monomial(math.comb(b, k) * sy ** k, 0, k),
                            g_pows[b - k])
            acc = poly_add(acc, part)
        out = poly_add(out, poly_mul(PuiseuxPoly.monomial(c, a, 0), acc))
    return PuiseuxPoly(out.terms, trunc)


truncations = st.none() | st.fractions(min_value=1, max_value=12, max_denominator=3)


@st.composite
def curves(draw):
    """g(x) with one to three terms of positive x-exponent, maybe truncated."""
    terms = {}
    for _ in range(draw(st.integers(min_value=1, max_value=3))):
        a = draw(st.fractions(min_value=Fraction(1, 3), max_value=4, max_denominator=3))
        terms[(a, 0)] = draw(rationals.filter(bool))
    return PuiseuxPoly(terms, draw(truncations))


@settings(max_examples=150)
@given(polys(), truncations, st.sampled_from((1, -1)), curves())
def test_subst_shear_matches_binomial_expansion(p, p_trunc, sign_y, g):
    p = PuiseuxPoly(p.terms, p_trunc)
    got = subst_shear(p, sign_y, g)
    want = _subst_shear_binomial(p, sign_y, g)
    assert got.terms == want.terms
    assert got.truncation_order == want.truncation_order


def test_subst_scale_moves_exponents():
    # y -> x^m y multiplies each term by x^(m b)
    p = phase((1, 1, 2), (2, 3, 0))
    q = subst_scale(p, Fraction(3, 2))
    assert dict(q.items()) == {(Fraction(4), 2): Fraction(1), (Fraction(3), 0): Fraction(2)}


def test_divide_out_x():
    p = phase((1, 4, 2), (2, 3, 0))
    q = divide_out_x(p, Fraction(3))
    assert dict(q.items()) == {(Fraction(1), 2): Fraction(1), (Fraction(0), 0): Fraction(2)}
    with pytest.raises(ValueError):
        divide_out_x(p, Fraction(4))  # would create a negative exponent


def test_reflect_axes_involution():
    p = phase((1, 2, 1), (-3, 1, 3))
    assert reflect_axes(reflect_axes(p, -1, -1), -1, -1).terms == p.terms
    # x -> -x on odd x-power flips the sign (integer exponents only)
    q = reflect_axes(phase((1, 3, 0)), -1, 1)
    assert dict(q.items()) == {(Fraction(3), 0): Fraction(-1)}


def test_reflect_axes_fractional_exponent_rejected():
    with pytest.raises(ValueError):
        reflect_axes(phase((1, Fraction(1, 2), 0)), -1, 1)


@given(polys())
def test_deriv_y_kills_constants(p):
    d = deriv_y(p, 1)
    assert all(b >= 0 for (_, b) in d.support())
    again = deriv_y(p, 2) if p.y_degree() >= 2 else None
    if again is not None:
        assert deriv_y(deriv_y(p, 1), 1).terms == again.terms


def test_deriv_x_product_rule_spot():
    p = phase((1, 2, 1))
    q = phase((1, 1, 0))
    lhs = deriv_x(poly_mul(p, q), 1)
    rhs = poly_add(poly_mul(deriv_x(p, 1), q), poly_mul(p, deriv_x(q, 1)))
    assert lhs.terms == rhs.terms


def test_eval_real_matches_rational():
    p = phase((1, 3, 1), (-2, 0, 2))
    xr, yr = Fraction(1, 4), Fraction(3, 2)
    exact = eval_rational(p, xr, yr)
    approx = eval_real(p, float(xr), float(yr))
    assert abs(approx - float(exact)) < 1e-12


def test_eval_real_fractional_exponent():
    # x^(3/2)*y at (1/4, 3/2): (1/8)*(3/2) = 3/16
    p = phase((1, Fraction(3, 2), 1))
    assert abs(eval_real(p, 0.25, 1.5) - 3 / 16) < 1e-15
    with pytest.raises(ValueError):
        eval_rational(p, Fraction(1, 4), Fraction(3, 2))


def test_format_poly_readable():
    p = phase((1, 0, 2), (-2, 2, 1), (1, 4, 0))
    s = format_poly(p)
    assert s == "y^2 - 2*x^2*y + x^4"
    assert format_poly(PuiseuxPoly.zero()) == "0"
    assert "x^(1/2)" in format_poly(phase((1, Fraction(1, 2), 0)))


# ---- differential: the integer-exponent kernel against plain Fraction code ----
#
# A reference polynomial is (terms, truncation_order, ramification), built
# the way PuiseuxPoly.__init__ builds one: nonzero terms below the
# truncation order, in insertion order.


def _ref(terms, trunc):
    kept = {k: c for k, c in terms.items()
            if c != 0 and (trunc is None or k[0] + k[1] < trunc)}
    return kept, trunc, math.lcm(*[a.denominator for a, _b in kept])


def _ref_of(p):
    return dict(p.terms), p.truncation_order, p.ramification


def _ref_min(t1, t2):
    return t2 if t1 is None else (t1 if t2 is None else min(t1, t2))


def _ref_add(p, q):
    terms = dict(p[0])
    for k, c in q[0].items():
        terms[k] = terms.get(k, Fraction(0)) + c
    return _ref(terms, _ref_min(p[1], q[1]))


def _ref_mul(p, q):
    trunc = _ref_min(p[1], q[1])
    terms = {}
    for (a1, b1), c1 in p[0].items():
        for (a2, b2), c2 in q[0].items():
            key = (a1 + a2, b1 + b2)
            if trunc is None or key[0] + key[1] < trunc:
                terms[key] = terms.get(key, Fraction(0)) + c1 * c2
    return _ref(terms, trunc)


def _ref_subst_y(p, h):
    byb = {}
    for (a, b), c in p[0].items():
        byb.setdefault(b, {})[(a, 0)] = c
    acc = ({}, p[1], 1)
    for b in range(max(byb, default=-1), -1, -1):
        acc = _ref_mul(acc, h)
        if b in byb:
            acc = _ref_add(acc, _ref(byb[b], p[1]))
    return acc


def _ref_subst_shear(p, sign_y, g):
    if p[1] is None and g[1] is None:
        trunc = None
    else:
        g_ord = min((a for (a, _b) in g[0]), default=Fraction(1))
        trunc = _ref_min(None if p[1] is None else p[1] * min(Fraction(1), g_ord), g[1])
    shear = _ref({(Fraction(0), 1): Fraction(sign_y), **g[0]}, g[1])
    return _ref(_ref_subst_y(p, shear)[0], trunc)


def _same(got, want):
    # terms in the same insertion order, with the same bounds
    assert list(got.terms.items()) == list(want[0].items())
    assert got.truncation_order == want[1]
    assert got.ramification == want[2]


@st.composite
def truncated_polys(draw):
    return PuiseuxPoly(draw(polys(max_terms=6)).terms, draw(truncations))


@given(truncated_polys(), truncated_polys())
def test_add_and_mul_match_the_fraction_reference(p, q):
    _same(poly_add(p, q), _ref_add(_ref_of(p), _ref_of(q)))
    _same(poly_mul(p, q), _ref_mul(_ref_of(p), _ref_of(q)))
    _same(p - p, _ref_add(_ref_of(p), _ref_of(poly_scale(p, -1))))
    # (p + q)(p - q): the cross terms cancel, so zero sums must be dropped
    s, d = p + q, p - q
    _same(poly_mul(s, d), _ref_mul(_ref_of(s), _ref_of(d)))


@given(truncated_polys(), truncated_polys())
def test_subst_y_matches_the_fraction_reference(p, h):
    _same(subst_y(p, h), _ref_subst_y(_ref_of(p), _ref_of(h)))


@given(truncated_polys(), st.sampled_from((1, -1)), curves())
def test_subst_shear_matches_the_fraction_reference(p, sign_y, g):
    _same(subst_shear(p, sign_y, g), _ref_subst_shear(_ref_of(p), sign_y, _ref_of(g)))


def _ref_scale(p, c):
    return _ref({k: c * v for k, v in p[0].items()}, p[1])


def _ref_deriv_y(p, k):
    terms = {(a, b - k): c * math.prod(range(b - k + 1, b + 1))
             for (a, b), c in p[0].items() if b >= k}
    return _ref(terms, None if p[1] is None else p[1] - k)


def _ref_deriv_x(p, k):
    terms, trunc = p[0], p[1]
    for _ in range(k):
        if any(0 < a < 1 for a, _b in terms):
            raise ValueError("negative exponent")
        terms = {(a - 1, b): c * a for (a, b), c in terms.items() if a != 0}
        trunc = None if trunc is None else trunc - 1
    return _ref(terms, trunc)


def _ref_subst_scale(p, m):
    return _ref({(a + m * b, b): c for (a, b), c in p[0].items()}, p[1])


def _ref_divide_out_x(p, alpha):
    if any(a < alpha for a, _b in p[0]):
        raise ValueError("not divisible")
    return _ref({(a - alpha, b): c for (a, b), c in p[0].items()},
                None if p[1] is None else p[1] - alpha)


def _ref_reflect_axes(p, sx, sy, swap):
    terms = p[0]
    if swap:
        if p[2] != 1:
            raise ValueError("fractional swap")
        terms = {(Fraction(b), int(a)): c for (a, b), c in terms.items()}
    if sx == -1 and any(a.denominator != 1 for a, _b in terms):
        raise ValueError("fractional reflection")
    return _ref({(a, b): c * (sx ** int(a) if sx == -1 else 1) * sy ** b
                 for (a, b), c in terms.items()}, p[1])


def _ref_edge_polynomial(p, e, x_sign):
    on_edge = {(a, b): c for (a, b), c in p[0].items() if a + e.m * b == e.alpha}
    if x_sign == -1 and any(a.denominator != 1 for a, _b in on_edge):
        raise ValueError("fractional edge term")
    return _ref({(Fraction(0), b): c * (x_sign ** int(a) if x_sign == -1 else 1)
                 for (a, b), c in on_edge.items()}, None)


def _same_or_both_raise(op, ref, *args):
    try:
        want = ref(_ref_of(args[0]), *args[1:])
    except ValueError:
        with pytest.raises(ValueError):
            op(*args)
    else:
        _same(op(*args), want)


@given(truncated_polys(), rationals, st.integers(0, 3),
       st.fractions(Fraction(1, 3), 3, max_denominator=3), x_exps)
def test_lattice_ops_match_the_fraction_reference(p, c, k, m, alpha):
    _same(poly_scale(p, c), _ref_scale(_ref_of(p), c))
    _same(deriv_y(p, k), _ref_deriv_y(_ref_of(p), k))
    _same(subst_scale(p, m), _ref_subst_scale(_ref_of(p), m))
    _same_or_both_raise(deriv_x, _ref_deriv_x, p, k)
    _same_or_both_raise(divide_out_x, _ref_divide_out_x, p, alpha)
    for sx in (1, -1):
        for sy in (1, -1):
            for swap in (False, True):
                _same_or_both_raise(reflect_axes, _ref_reflect_axes, p, sx, sy, swap)
    if not p.is_zero():
        for e in newton_polygon_of(p).edges:
            for x_sign in (1, -1):
                _same_or_both_raise(edge_polynomial, _ref_edge_polynomial, p, e, x_sign)


# ---- built unchecked: the same polynomial that __init__ would build ----


def _as_init_builds(r):
    want = PuiseuxPoly(r.terms, r.truncation_order)
    assert r.terms == want.terms
    assert r.truncation_order == want.truncation_order
    assert r.ramification == want.ramification
    # the same canonical lattice, in the same order
    assert r._den == want._den and list(r._lat.items()) == list(want._lat.items())


@given(truncated_polys(), rationals, st.integers(0, 3), st.sampled_from((1, -1)), curves(),
       x_exps, y_exps)
def test_trusted_results_equal_their_init_rebuild(p, c, k, sign_y, g, a, b):
    made = [poly_scale(p, c), poly_scale(p, 0), deriv_y(p, k), subst_shear(p, sign_y, g),
            PuiseuxPoly.monomial(c, a, b), PuiseuxPoly.constant(c), PuiseuxPoly.zero(),
            poly_mul(p, g), poly_add(p, g), p - p, subst_y(p, g), subst_scale(p, a + 1),
            reflect_axes(p, 1, -1)]
    if not p.is_zero():
        made += [edge_polynomial(p, e, 1) for e in newton_polygon_of(p).edges]
    for r in made:
        _as_init_builds(r)
    zero = poly_scale(p, 0)
    assert zero.is_zero() and zero.ramification == 1
    assert zero.truncation_order == p.truncation_order


# ---- the canonical lattice ----


def test_equal_polynomials_built_by_different_routes_are_equal():
    x, y = PuiseuxPoly.monomial(1, 1, 0), PuiseuxPoly.monomial(1, 0, 1)
    root_x = PuiseuxPoly.monomial(1, Fraction(1, 2), 0)
    pairs = [(poly_mul(root_x, root_x), x),
             (poly_mul(poly_scale(x, Fraction(1, 2)), poly_scale(y, 2)), poly_mul(x, y)),
             (poly_add(phase((Fraction(1, 2), 1, 0)), phase((Fraction(1, 2), 1, 0))), x)]
    for got, want in pairs:
        assert got == want and hash(got) == hash(want)
        assert (got.ramification, got._den, got._lat) == (1, 1, want._lat)
    assert poly_mul(root_x, root_x).terms == {(Fraction(1), 0): Fraction(1)}


def test_terms_is_a_read_only_view():
    p = phase((Fraction(3, 2), Fraction(1, 2), 1))
    assert p.terms == {(Fraction(1, 2), 1): Fraction(3, 2)}
    assert p.terms is p.terms
    with pytest.raises(TypeError):
        p.terms[(Fraction(0), 0)] = Fraction(1)


def test_from_terms_rejects_a_fractional_y_exponent():
    # from_terms used to floor the exponent: (1, 0, 1.5) built y
    for b in (1.5, Fraction(3, 2)):
        with pytest.raises(ValueError, match="y-exponent must be an integer"):
            PuiseuxPoly.from_terms([(1, 0, b)])
        with pytest.raises(ValueError, match="y-exponent must be an integer"):
            PuiseuxPoly({(1, b): 1})
    assert PuiseuxPoly.from_terms([(1, 0, Fraction(2))]) == PuiseuxPoly.monomial(1, 0, 2)
