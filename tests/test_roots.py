"""Exact real-root isolation: Sturm counts, multiplicities, refinement."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from newton_sublevel import (
    count_roots_halfopen,
    isolate_real_roots,
    refine_root,
    squarefree_factor,
)
from newton_sublevel import roots as roots_module
from newton_sublevel.roots import (
    _DIVISOR_GUARD,
    IsolatedRoot,
    _depth,
    _divisors,
    _integer_form,
    _pgcd,
    _prim_rem,
    _primitive,
    _rational_roots,
    _roots_in_window,
    _snapped_cell,
    _yun,
    coeffs_of,
    derivative,
    poly_value,
    sturm_sequence,
)

from helpers import ref_roots_in_interval


def _poly_from_roots(roots_mults):
    # ascending coefficients of prod (t - r)^m
    cs = [Fraction(1)]
    for r, m in roots_mults:
        for _ in range(m):
            cs = [Fraction(0)] + cs
            for i in range(len(cs) - 1):
                cs[i] -= r * cs[i + 1]
    return cs


def test_known_roots_with_multiplicity():
    cs = _poly_from_roots([(Fraction(1), 2), (Fraction(-2), 1), (Fraction(1, 3), 1)])
    roots = isolate_real_roots(cs)
    got = sorted((r.exact_value, r.multiplicity) for r in roots)
    assert got == [(Fraction(-2), 1), (Fraction(1, 3), 1), (Fraction(1), 2)]


def test_positive_domain_filter():
    cs = _poly_from_roots([(Fraction(-1), 1), (Fraction(0), 1), (Fraction(2), 1)])
    roots = isolate_real_roots(cs, domain="positive")
    assert [r.exact_value for r in roots] == [Fraction(2)]


def test_irrational_roots_are_enclosed():
    # t^2 - 2: no exact value, enclosure brackets sqrt(2)
    roots = isolate_real_roots([Fraction(-2), Fraction(0), Fraction(1)])
    assert len(roots) == 2
    pos = roots[1]
    assert pos.exact_value is None
    assert float(pos.lo) < 2 ** 0.5 < float(pos.hi)
    tight = refine_root(pos, Fraction(1, 2 ** 50))
    assert tight.hi - tight.lo <= Fraction(1, 2 ** 50)
    assert abs(float(tight.midpoint()) - 2 ** 0.5) < 1e-12


def test_squarefree_factor_structure():
    cs = _poly_from_roots([(Fraction(1), 3), (Fraction(-1), 1)])
    parts = squarefree_factor(cs)
    mults = sorted(m for _, m in parts)
    assert mults == [1, 3]


def test_count_roots_halfopen():
    cs = _poly_from_roots([(Fraction(0), 1), (Fraction(1), 1), (Fraction(2), 1)])
    # (lo, hi] convention: 0 excluded at lo, 2 included at hi
    assert count_roots_halfopen(cs, Fraction(0), Fraction(2)) == 2
    assert count_roots_halfopen(cs, Fraction(-1), Fraction(2)) == 3
    assert count_roots_halfopen(cs, Fraction(1), Fraction(1)) == 0


def test_count_roots_halfopen_empty_interval():
    # (lo, hi] is empty when lo >= hi: no roots, never a negative count
    assert count_roots_halfopen([-1, 0, 1], 2, -2) == 0
    assert count_roots_halfopen([-1, 0, 1], -2, 2) == 2


small_ints = st.integers(min_value=-6, max_value=6)


# a float oracle: numpy moves a root of multiplicity m by about eps^(1/m), past
# the tolerances below on some inputs (the double root -1 of [-1, 1, 2, -3, -3]
# gets imaginary parts 1.1e-8), so the deep profile does not deepen this test;
# the exact differential tests below are the deep ones
@settings(max_examples=80)
@given(st.lists(small_ints, min_size=2, max_size=6))
def test_isolation_matches_numpy(coeffs):
    cs = [Fraction(c) for c in coeffs]
    if all(c == 0 for c in cs):
        return
    while cs and cs[-1] == 0:
        cs.pop()
    if len(cs) <= 1:
        return
    roots = isolate_real_roots(cs)
    np_roots = np.roots(list(reversed([float(c) for c in cs])))
    real = sorted(r.real for r in np_roots if abs(r.imag) < 1e-9)
    # distinct real roots: enclosures must be disjoint, ordered, and each
    # contain one cluster of the numpy roots
    n_distinct = len(roots)
    got = sorted(float(refine_root(r, Fraction(1, 2 ** 30)).midpoint()) for r in roots)
    clusters = []
    for v in real:
        if not clusters or abs(v - clusters[-1][-1]) > 1e-6:
            clusters.append([v])
        else:
            clusters[-1].append(v)
    assert len(clusters) == n_distinct
    for mid, cluster in zip(got, clusters):
        assert abs(mid - np.mean(cluster)) < 1e-5
    # multiplicities sum to the count of real numpy roots
    assert sum(r.multiplicity for r in roots) == len(real)


@given(st.lists(small_ints, min_size=3, max_size=6))
def test_enclosures_bracket_sign_change(coeffs):
    cs = [Fraction(c) for c in coeffs]
    while cs and cs[-1] == 0:
        cs.pop()
    if len(cs) <= 1:
        return
    for r in isolate_real_roots(cs):
        if r.exact_value is not None:
            assert r.lo < r.exact_value <= r.hi
        else:
            assert r.lo < r.hi


def test_zero_poly_rejected():
    with pytest.raises(ValueError):
        isolate_real_roots([Fraction(0)])
    assert isolate_real_roots([Fraction(5)]) == []


# ---------------------------------------------------------------------------
# differential tests: the integer kernel against a Fraction reference (the
# division, gcd, Yun, Sturm, evaluation, bisection and divisor search it
# replaced), which must agree on every interval, exactly


def _ref_trim(cs):
    cs = list(cs)
    while cs and cs[-1] == 0:
        cs.pop()
    return tuple(cs)


def _ref_monic(cs):
    return tuple(c / cs[-1] for c in cs)


def _ref_derivative(cs):
    return _ref_trim([i * c for i, c in enumerate(cs)][1:])


def _ref_divmod(num, den):
    num_l = list(num)
    q = [Fraction(0)] * max(0, len(num) - len(den) + 1)
    for i in range(len(num) - len(den), -1, -1):
        c = num_l[i + len(den) - 1] / den[-1]
        q[i] = c
        for j, d in enumerate(den):
            num_l[i + j] -= c * d
    return _ref_trim(q), _ref_trim(num_l[: len(den) - 1])


def _ref_gcd(a, b):
    while b:
        a, b = b, _ref_divmod(a, b)[1]
    return _ref_monic(a)


def _ref_yun(cs):
    """Monic squarefree factors with multiplicities, on Fractions."""
    cs = _ref_monic(_ref_trim(Fraction(c) for c in cs))
    d = _ref_derivative(cs)
    u = _ref_gcd(cs, d)
    v, w = _ref_divmod(cs, u)[0], _ref_divmod(d, u)[0]
    out = []
    i = 1
    while len(v) > 1:
        dv = _ref_derivative(v)
        z = _ref_trim([(w[j] if j < len(w) else 0) - (dv[j] if j < len(dv) else 0)
                       for j in range(max(len(w), len(dv)))])
        h = _ref_gcd(v, z)
        if len(h) > 1:
            out.append((h, i))
        v, w = _ref_divmod(v, h)[0], _ref_divmod(z, h)[0]
        i += 1
    return out


def _ref_sturm(cs):
    seq = [tuple(cs), _ref_derivative(cs)]
    while seq[-1]:
        rem = _ref_divmod(seq[-2], seq[-1])[1]
        if not rem:
            break
        seq.append(tuple(-c for c in rem))
    return [s for s in seq if s]


def _ref_integer_form(cs):
    den = 1
    for c in cs:
        den = den * c.denominator // math.gcd(den, c.denominator)
    return tuple(int(c * den) for c in cs)


def _ref_cauchy_bound(cs):
    return 1 + max(abs(c) / abs(cs[-1]) for c in cs[:-1])


def _ref_eval(cs, t):
    acc = Fraction(0)
    for c in reversed(cs):
        acc = acc * t + c
    return acc


def _ref_divisors(n):
    n = abs(n)
    return sorted(d for i in range(1, math.isqrt(n) + 1) if n % i == 0
                  for d in {i, n // i})


def _ref_rational_roots(cs):
    found = []
    work = tuple(cs)
    k = 0
    while work and work[0] == 0:
        work = work[1:]
        k += 1
    if k:
        found.append(Fraction(0))
    if len(work) <= 1:
        return found
    denlcm = 1
    for c in work:
        denlcm = denlcm * c.denominator // math.gcd(denlcm, c.denominator)
    ics = [int(c * denlcm) for c in work]
    g = 0
    for c in ics:
        g = math.gcd(g, c)
    ics = [c // g for c in ics]
    if abs(ics[0]) > _DIVISOR_GUARD or abs(ics[-1]) > _DIVISOR_GUARD:
        return found
    for p in _ref_divisors(ics[0]):
        for q in _ref_divisors(ics[-1]):
            for cand in (Fraction(p, q), Fraction(-p, q)):
                if cand not in found and _ref_eval(work, cand) == 0:
                    found.append(cand)
    return found


def _ref_safe_cut(cs, lo, hi, stepped):
    mid = (lo + hi) / 2
    step = (hi - lo) / 64
    while _ref_eval(cs, mid) == 0:
        stepped.append(mid)
        mid += step
        step /= 3
    return mid


def _ref_variations(seq, t):
    signs = [v > 0 for v in (_ref_eval(cs, t) for cs in seq) if v != 0]
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def _ref_isolate_squarefree(cs, lo, hi, seq, stepped):
    n = _ref_variations(seq, lo) - _ref_variations(seq, hi)
    if n == 0:
        return []
    if n == 1:
        return [(lo, hi)]
    cut = _ref_safe_cut(cs, lo, hi, stepped)
    return (_ref_isolate_squarefree(cs, lo, cut, seq, stepped)
            + _ref_isolate_squarefree(cs, cut, hi, seq, stepped))


def _ref_halve(root, stepped):
    lo, hi, mult, exact, factor = root
    if exact is not None:
        return (exact - (hi - lo) / 2, exact, mult, exact, factor)
    mid = _ref_safe_cut(factor, lo, hi, stepped)
    if _ref_eval(factor, lo) * _ref_eval(factor, mid) < 0:
        return (lo, mid, mult, exact, factor)
    return (mid, hi, mult, exact, factor)


def _ref_isolate(cs, stepped):
    """(lo, hi, multiplicity, exact value, factor) per root, sorted."""
    roots = []
    for f, mult in _ref_yun(cs):
        rationals = _ref_rational_roots(f)
        g = f
        for r in rationals:
            g, _ = _ref_divmod(g, (-r, Fraction(1)))
        roots += [(r - 1, r, mult, r, f) for r in rationals]
        if len(g) > 1:
            b = _ref_cauchy_bound(g)
            roots += [(lo, hi, mult, None, g) for lo, hi in
                      _ref_isolate_squarefree(g, -b, b, _ref_sturm(g), stepped)]
    changed = True
    while changed:
        changed = False
        roots.sort(key=lambda r: (r[0], r[1]))
        for i in range(len(roots) - 1):
            if roots[i][1] > roots[i + 1][0]:
                roots[i] = _ref_halve(roots[i], stepped)
                roots[i + 1] = _ref_halve(roots[i + 1], stepped)
                changed = True
        for i, r in enumerate(roots):
            if r[3] is None and r[0] < 0 < r[1] and _ref_eval(r[4], Fraction(0)) != 0:
                roots[i] = _ref_halve(r, stepped)
                changed = True
    return roots


def _ref_refine(root, width, stepped):
    while root[1] - root[0] > width:
        root = _ref_halve(root, stepped)
    return root


def _assert_kernel_matches_reference(cs, widths):
    stepped = []
    want = _ref_isolate(cs, stepped)
    got = isolate_real_roots(cs)
    assert [(r.lo, r.hi, r.multiplicity, r.exact_value, r.factor) for r in got] \
        == [w[:4] + (_ref_integer_form(w[4]),) for w in want]
    # the snapped cell of refine_root needs the factor's sign at lo; an
    # exact root may sit at lo = another root - 1, but refinement skips it
    assert all(_ref_eval(r.factor, r.lo) != 0 for r in got if r.exact_value is None)
    _assert_refinement_matches_reference(got, widths, stepped)
    return stepped


def _assert_refinement_matches_reference(roots, widths, stepped=None):
    """refine_root against repeated Fraction bisection (_ref_refine)."""
    stepped = [] if stepped is None else stepped
    for r in roots:
        ref = (r.lo, r.hi, r.multiplicity, r.exact_value, tuple(Fraction(c) for c in r.factor))
        # bisection to a smaller width passes through the larger widths' results
        for width in sorted(widths, reverse=True):
            tight = refine_root(r, width)
            ref = _ref_refine(ref, width, stepped)
            assert (tight.lo, tight.hi, tight.multiplicity, tight.exact_value, tight.factor) \
                == ref[:4] + (r.factor,)


def _expand(roots_mults, quadratics, scale):
    cs = [Fraction(scale)]
    for r, m in roots_mults:
        for _ in range(m):
            cs = [Fraction(0)] + cs
            for i in range(len(cs) - 1):
                cs[i] -= r * cs[i + 1]
    for b, c in quadratics:  # times t^2 + b t + c
        out = [Fraction(0)] * (len(cs) + 2)
        for i, a in enumerate(cs):
            out[i] += c * a
            out[i + 1] += b * a
            out[i + 2] += a
        cs = out
    return cs


_small_q = st.fractions(min_value=-4, max_value=4, max_denominator=6)
# a root or quadratic constant beyond the divisor guard sends rational roots
# through bisection instead of the divisor search
_big_q = st.integers(min_value=10 ** 12, max_value=10 ** 13).map(lambda n: Fraction(n, 7))


@st.composite
def _factored_polys(draw):
    roots = draw(st.lists(st.tuples(st.one_of(_small_q, _small_q, _big_q),
                                    st.integers(1, 3)), max_size=4))
    quads = draw(st.lists(st.tuples(st.integers(-4, 4),
                                    st.one_of(st.integers(-12, 12), _big_q)), max_size=2))
    scale = draw(st.sampled_from([1, -2, Fraction(3, 7), Fraction(-5, 10 ** 13)]))
    return _expand(roots, quads, scale)


_dense_polys = st.lists(st.fractions(min_value=-20, max_value=20, max_denominator=9),
                        min_size=2, max_size=7)
# 2^-200 and 3^-126 (about 2^-200) take the Newton seed past a float's 53 bits
_widths = st.lists(st.one_of(
    st.integers(1, 200).map(lambda k: Fraction(1, 2 ** k)),
    st.integers(1, 126).map(lambda k: Fraction(1, 3 ** k))), min_size=1, max_size=3)


@given(st.one_of(_factored_polys(), _dense_polys), _widths)
def test_kernel_matches_fraction_reference(cs, widths):
    while cs and cs[-1] == 0:
        cs = cs[:-1]
    if len(cs) <= 1:
        return
    _assert_kernel_matches_reference(cs, widths)


@given(st.one_of(_factored_polys(), _dense_polys))
# root 1 also passes the divisibility tests as the pair (3, 3): the search must
# report it once
@example(_expand([(Fraction(-4, 3), 1), (Fraction(1), 1)], [(1, 3)], 1))
def test_rational_roots_match_fraction_reference(cs):
    while cs and cs[-1] == 0:
        cs = cs[:-1]
    if not cs:
        return
    cs = tuple(cs)
    assert _rational_roots(cs) == _ref_rational_roots(cs)


@pytest.mark.parametrize("ns", [range(-2000, 2001)] + [
    (10 ** e - 1, 10 ** e, 10 ** e + 1) for e in range(2, 7)])
def test_divisors_match_trial_division(ns):
    for n in ns:
        got = _divisors(n)
        assert type(got) is tuple and list(got) == _ref_divisors(n)
        assert _divisors(n) is got      # the memo hands back the same tuple


@st.composite
def _scaled_polys(draw):
    """A polynomial with one coefficient moved by 10^-400, or scaled by 10^400
    and moved by 1: its integer form does not fit a float, so refinement
    bisects."""
    cs = list(draw(st.one_of(_factored_polys(), _dense_polys)))
    while cs and cs[-1] == 0:
        cs.pop()
    if len(cs) > 1:
        i = draw(st.integers(0, len(cs) - 1))
        if draw(st.booleans()):
            cs[i] += Fraction(1, 10 ** 400)
        else:
            cs = [c * 10 ** 400 for c in cs]
            cs[i] += 1
    return cs


# the Fraction reference runs on 1300-bit numbers, up to a second an example
@settings(max_examples=settings.default.max_examples // 8)
@given(_scaled_polys(), _widths)
def test_refinement_matches_reference_on_scaled_coefficients(cs, widths):
    if len(cs) <= 1:
        return
    _assert_refinement_matches_reference(isolate_real_roots(cs), widths)


def test_refinement_matches_reference_past_float_range():
    # roots near +-1.4e400 and +-1e-400: the interval ends, or the integer
    # form, do not fit a float
    for cs in ([-2, 0, Fraction(1, 10 ** 800)], [-1, 0, 10 ** 800],
               [Fraction(-1, 10 ** 400), 3, 0, 1]):
        roots = isolate_real_roots(cs)
        assert roots and all(_snapped_cell(r, 60) is None for r in roots)
        _assert_refinement_matches_reference(roots, [Fraction(1, 2 ** 60), Fraction(1, 3 ** 20)])


# the Fraction reference bisects from about 10^13 to as far as 2^-200
@settings(max_examples=settings.default.max_examples // 4)
@given(st.lists(_big_q, min_size=2, max_size=3, unique=True),
       st.lists(_small_q, max_size=2), _widths)
def test_refinement_matches_reference_on_big_rational_roots(big, small, widths):
    # two roots past the divisor guard put the constant past it too: the
    # roots are isolated by Sturm bisection and refined as inexact roots
    cs = _expand([(r, 1) for r in big] + [(r, 1) for r in set(small)], [], 1)
    roots = isolate_real_roots(cs)
    assert all(r.exact_value is None for b in big for r in roots if r.contains(b))
    _assert_refinement_matches_reference(roots, widths)


def test_refinement_matches_reference_when_lo_is_a_root_of_the_factor():
    # lo = 0 is a root of t(t^2 - 2) and of t(t - 1), which isolate_real_roots
    # never builds: the sign left of the root is minus the sign at hi, or hi
    # is the root (t(t - 1) on (0, 1]).  For t(t - 1) on (0, 2] the midpoint 1
    # is the root, and the stepped cut must keep it; on (0, 4] and (0, 3] the
    # first half is the lower one.  The reference: the cell holds the root
    below_sqrt2 = lambda t: t < 0 or t * t < 2  # noqa: E731
    below_one = lambda t: t < 1  # noqa: E731
    for factor, hi, below in (((0, -2, 0, 1), Fraction(2), below_sqrt2),
                              ((0, -1, 1), Fraction(2), below_one),
                              ((0, -1, 1), Fraction(1), below_one),
                              ((0, -2, 0, 1), Fraction(5, 3), below_sqrt2),
                              ((0, -2, 0, 1), Fraction(4), below_sqrt2),
                              ((0, -1, 1), Fraction(3), below_one)):
        root = IsolatedRoot(lo=Fraction(0), hi=hi, multiplicity=1, factor=factor)
        for width in (Fraction(1, 2 ** 60), Fraction(1, 3 ** 20), Fraction(1, 2 ** 200)):
            tight = refine_root(root, width)
            assert tight.width <= width
            assert below(tight.lo) and not below(tight.hi)


def test_snapped_cell_proves_simple_roots():
    # the Newton seed and its two sign tests settle a simple irrational root
    # without bisection, at widths below a float's resolution too
    for cs in ([-2, 0, 1], [-1, -1, 0, 1], [7, -3, -11, 0, 2]):
        for r in isolate_real_roots(cs):
            ref = (r.lo, r.hi, r.multiplicity, None, tuple(Fraction(c) for c in r.factor))
            for width in (Fraction(1, 2 ** 10), Fraction(1, 2 ** 60), Fraction(1, 2 ** 200)):
                cell = _snapped_cell(r, _depth(r.width, width))
                assert cell is not None
                assert (cell.lo, cell.hi) == _ref_refine(ref, width, [])[:2]


@pytest.mark.parametrize("span, width, k", [
    (Fraction(1), Fraction(1), 0), (Fraction(1), Fraction(1, 2), 1),
    (Fraction(3), Fraction(1), 2), (Fraction(4), Fraction(1), 2),
    (Fraction(5, 7), Fraction(1, 3 ** 5), 8), (Fraction(1, 3), Fraction(1, 2 ** 60), 59)])
def test_depth_is_the_least_sufficient_halving_count(span, width, k):
    assert _depth(span, width) == k
    assert span / 2 ** k <= width and (k == 0 or span / 2 ** (k - 1) > width)


def test_kernel_matches_reference_on_midpoint_root():
    # (t - 1)(t^2 - (2^44 - 1)): the constant exceeds the divisor guard, so the
    # rational root 1 is bisected from the Cauchy bound 2^44 and lands on a
    # midpoint, where both sides take the stepped cut
    cs = _expand([(Fraction(1), 1)], [(0, -(2 ** 44 - 1))], 1)
    stepped = _assert_kernel_matches_reference(cs, [Fraction(1, 2 ** 60), Fraction(1, 3 ** 20)])
    assert Fraction(1) in stepped
    assert all(r.exact_value is None for r in isolate_real_roots(cs))


_polys = st.one_of(_factored_polys(), _dense_polys).map(_ref_trim)


@given(_polys)
def test_squarefree_factor_matches_fraction_yun(cs):
    if len(cs) <= 1:
        return
    assert [(coeffs_of(f), k) for f, k in squarefree_factor(cs)] == _ref_yun(cs)


@given(_polys)
def test_sturm_sequence_is_positive_multiple_of_fraction_sturm(cs):
    if not cs:
        return
    got, want = sturm_sequence(cs), _ref_sturm(cs)
    assert len(got) == len(want)
    for s, w in zip(got, want):
        assert len(s) == len(w) and all(isinstance(c, int) for c in s)
        assert math.gcd(*s) == 1
        ratio = Fraction(s[-1]) / w[-1]
        assert ratio > 0 and all(c == ratio * d for c, d in zip(s, w))


def _ref_count(cs, lo, hi):
    """Distinct real roots of cs in (lo, hi], from _ref_isolate's intervals."""
    n = 0
    for root in ([] if lo >= hi else _ref_isolate(cs, [])):
        while True:
            rlo, rhi, _mult, exact, factor = root
            if exact is None:
                # the one root of factor in (rlo, rhi] is an end if factor vanishes there
                exact = next((t for t in (lo, hi) if rlo < t <= rhi
                              and _ref_eval(factor, t) == 0), None)
            if exact is not None:
                n += lo < exact <= hi
                break
            if hi <= rlo or rhi <= lo or (lo <= rlo and rhi <= hi):
                n += lo <= rlo and rhi <= hi
                break
            root = _ref_halve(root, [])
    return n


@st.composite
def _polys_with_ends(draw):
    """A polynomial and two ends, often at its rational roots."""
    cs = draw(_polys)
    roots = _ref_rational_roots(cs) if len(cs) > 1 else []
    ends = st.one_of(_small_q, st.sampled_from(roots)) if roots else _small_q
    return cs, draw(ends), draw(ends)


@given(_polys_with_ends())
@example(((Fraction(-1), Fraction(0), Fraction(1)), Fraction(2), Fraction(-2)))
# lo at the double root -1 of (t + 1)^2 (t - 1), which every entry of its
# remainder sequence vanishes at
@example((_ref_trim(_expand([(Fraction(-1), 2), (Fraction(1), 1)], [], 1)),
          Fraction(-1), Fraction(2)))
def test_count_roots_halfopen_matches_reference(case):
    # against the Fraction Sturm count and the roots of _ref_isolate; a root
    # at lo is not counted, one at hi is
    cs, lo, hi = case
    if not cs:
        return
    want = 0
    if lo < hi and len(cs) > 1:
        sf = _ref_divmod(cs, _ref_gcd(cs, _ref_derivative(cs)))[0] if len(cs) > 2 else cs
        seq = _ref_sturm(sf)
        want = _ref_variations(seq, lo) - _ref_variations(seq, hi)
    if len(cs) > 1:
        assert _ref_count(cs, lo, hi) == want
    assert count_roots_halfopen(cs, lo, hi) == want


# the one remainder loop against the two it replaced, verbatim


def _old_pgcd(a, b):
    while b:
        a, b = b, _prim_rem(a, b)
    a = _primitive(a)
    return a if a[-1] > 0 else tuple(-c for c in a)


def _old_sturm_sequence(cs):
    f = _integer_form(cs)
    seq = [f, _primitive(derivative(f))]
    while seq[-1]:
        rem = _prim_rem(seq[-2], seq[-1])
        if not rem:
            break
        seq.append(tuple(-c for c in rem))
    return [s for s in seq if s]


# positive and negative leads, linear factors, a root 0, repeated factors
_linear_polys = st.tuples(st.integers(-6, 6), st.integers(-6, 6).filter(bool)).map(
    lambda cs: tuple(Fraction(c) for c in cs))


@given(st.one_of(_polys, _linear_polys))
@example((Fraction(0), Fraction(-3)))
@example((Fraction(0), Fraction(0), Fraction(1)))
@example(_ref_trim(_expand([(Fraction(0), 1), (Fraction(2), 2)], [], -1)))
@example(_ref_trim(_expand([(Fraction(-1, 2), 3)], [(0, 1)], 1)))
def test_shared_sequence_matches_the_two_remainder_loops(cs):
    if len(cs) <= 1:
        return
    f = _integer_form(cs)
    d = derivative(f)
    u = _old_pgcd(f, d)
    assert _pgcd(f, d) == u
    assert sturm_sequence(cs) == _old_sturm_sequence(cs)
    factors, shared = _yun(f)
    if len(u) == 1:
        # squarefree: the one factor is f with a positive lead, and the PRS
        # that proved it squarefree is that factor's Sturm sequence
        assert factors == [(_old_pgcd(f, ()), 1)]
        assert shared == _old_sturm_sequence(factors[0][0])
    else:
        assert shared is None
        assert len(factors) > 1 or factors[0][1] > 1


@st.composite
def _vdc_polys(draw):
    """f -+ 10^-e for an integer f with f(0) = +-1 and a lead of +-1, as
    vdc_check meets them: 10^e f -+ 1 has hundreds of divisor pairs, and
    often no real root of one sign, or none at all."""
    degree = draw(st.integers(3, 6))
    a = ([draw(st.sampled_from((1, -1)))]
         + draw(st.lists(st.integers(-9, 9), min_size=degree - 1, max_size=degree - 1))
         + [draw(st.sampled_from((1, -1)))])
    a[draw(st.integers(1, degree - 1))] = draw(st.integers(-200, 200))
    cs = [Fraction(c) for c in a]
    e = draw(st.sampled_from(range(2, 7)))
    cs[0] -= draw(st.sampled_from((1, -1))) * Fraction(1, 10 ** e)
    return cs


# the Fraction divisor search of the reference tries up to 6000 candidates
@settings(max_examples=settings.default.max_examples // 4)
@given(_vdc_polys(), _widths)
def test_gated_divisor_search_matches_reference_on_vdc_shaped_polys(cs, widths):
    _assert_kernel_matches_reference(cs, widths)
    f = _integer_form(cs)
    want = _ref_rational_roots(cs)
    for signs in ((1, -1), (1,), (-1,), ()):
        assert _rational_roots(f, signs) == [r for r in want if r == 0
                                             or (1 if r > 0 else -1) in signs]


# ---------------------------------------------------------------------------
# the windowed entry of vdc_check against the whole-line path it replaced:
# isolate_real_roots, refine_root, then a filter on [lo, hi] (helpers.py)

# a window end at a root, or within 2^-59 inside or outside it: a position
# within width/2 of a root outside an end can lie inside
_offsets = st.one_of(
    st.just(Fraction(0)),
    st.tuples(st.sampled_from((1, -1)), st.integers(59, 62)).map(
        lambda sk: Fraction(sk[0], 2 ** sk[1])),
    st.integers(-2 ** 20, 2 ** 20).map(lambda n: Fraction(n, 2 ** 80)),
    _small_q)


@st.composite
def _polys_with_window(draw):
    """Rational roots in and out of the window, repeated factors, constants
    past the divisor guard, vdc-shaped f -+ 10^-e, and ends near the roots."""
    cs = _ref_trim(draw(st.one_of(_factored_polys(), _vdc_polys())))
    assume(len(cs) > 1)
    anchors = [refine_root(r, Fraction(1, 2 ** 90)).midpoint() for r in isolate_real_roots(cs)]
    ends = [_small_q, _big_q]
    if anchors:
        ends.append(st.tuples(st.sampled_from(anchors), _offsets).map(sum))
    lo, hi = sorted((draw(st.one_of(*ends)), draw(st.one_of(*ends))))
    return cs, lo, hi


_big = Fraction(10 ** 13 + 7, 3)  # the root of 3t - (10^13 + 7), past the guard


@given(_polys_with_window(), st.sampled_from((Fraction(1, 2 ** 60), Fraction(1, 2 ** 30))))
@example(((-_big, Fraction(1)), Fraction(0), _big - Fraction(1, 2 ** 62)), Fraction(1, 2 ** 60))
@example(((-_big, Fraction(1)), _big + Fraction(1, 2 ** 62), 2 * _big), Fraction(1, 2 ** 60))
@example((tuple(_expand([(Fraction(1, 2), 2)], [(0, -2)], 1)), Fraction(1, 2), Fraction(3, 2)),
         Fraction(1, 2 ** 60))
def test_windowed_roots_match_the_whole_line_path(case, width):
    cs, lo, hi = case
    assert _roots_in_window(_ref_integer_form(cs), lo, hi, width) \
        == ref_roots_in_interval(cs, lo, hi, width)


def test_windowed_roots_refine_only_the_roots_in_the_window(monkeypatch):
    # (t^2 - 2)(t^2 - 3)(t^2 - 5)(t^2 - 7): eight irrational roots, one in [1, 3/2]
    cs = _expand([], [(0, -2), (0, -3), (0, -5), (0, -7)], 1)
    calls = []
    monkeypatch.setattr(roots_module, "refine_root",
                        lambda r, w: calls.append(r) or refine_root(r, w))
    got = _roots_in_window(_ref_integer_form(cs), Fraction(1), Fraction(3, 2), Fraction(1, 2 ** 60))
    assert len(got) == len(calls) == 1
    assert abs(got[0] - Fraction(math.isqrt(2 * 10 ** 40), 10 ** 20)) < Fraction(1, 10 ** 18)


def test_a_rational_root_past_the_divisor_guard_is_isolated_not_exact():
    # the constant 10^13 + 7 of the integer form is past _DIVISOR_GUARD
    (r,) = isolate_real_roots([-_big, 1])
    assert r.exact_value is None
    assert (r.lo, r.hi) == (0, _big + 1)  # (0, B], B the Cauchy bound
    assert r.contains(_big)


_rationals = st.one_of(st.integers(-10 ** 6, 10 ** 6),
                       st.fractions(max_denominator=10 ** 6),
                       st.fractions(min_value=-3, max_value=3, max_denominator=50))


# poly_value evaluates on integers; the Fraction Horner loop it replaced
# (_ref_eval) must give the same value, and a Fraction, for ints too
@given(st.lists(_rationals, max_size=8).map(lambda cs: cs + [0] * (len(cs) % 3)),
       _rationals)
@example([], 3)
@example([0, 0], Fraction(-1, 2))
@example([1, 2, 3], -2)
def test_poly_value_matches_fraction_horner(cs, t):
    got, want = poly_value(cs, t), _ref_eval(cs, t)
    assert got == want
    assert type(got) is type(want) is Fraction


def test_poly_value_rejects_floats():
    with pytest.raises(TypeError):
        poly_value([1, 2], 0.5)
    with pytest.raises(TypeError):
        poly_value([1.0, 2], Fraction(1, 2))
