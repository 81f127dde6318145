"""Exact real-root isolation for univariate rational polynomials.

Pipeline: squarefree decomposition (Yun), rational-root extraction, then
Sturm-sequence bisection for whatever is left.  Every root comes back as a
half-open rational interval (lo, hi] containing exactly one distinct real
root of the input, together with its multiplicity and, when the divisor
search finds the root, its exact value.  The search runs only while the
constant and leading coefficients of the factor's integer form are at most
_DIVISOR_GUARD (10^12) in size; past it a rational root is isolated and
refined like an irrational one (exact_value None).

Everything after input runs on integers.  A polynomial is cleared of
denominators and content once (_integer_form, a positive scale, so signs
are kept).  Yun's gcds and the Sturm sequences come from one loop, the
primitive remainder sequence (_prs; Collins; Brown-Traub): each remainder
is taken of a positive multiple and divided by its positive content, so
every Sturm polynomial is a positive multiple of the classical one.  The
PRS of (f, prim f') is built once a polynomial: its last entry is Yun's
first gcd, and when that is a constant, f is squarefree and the same
entries, with Sturm's signs, are f's Sturm sequence.  Quotients by a
primitive divisor are integral (Gauss's lemma).  Signs and values at p/q
come from the homogeneous form sum c_i p^i q^(n-i) (_hom).  Bisection of
(-B, B], B the Cauchy bound, cuts at midpoints on integer numerators over
one common denominator.  One isolation core (_isolate) serves the whole line
(isolate_real_roots) and a window (_roots_in_window, for vdc_check): there
it stops at every cell that misses the window, so only the roots that can
land in it are isolated and refined, in the cells the whole line gives them.
Refinement to a width w returns what k bisection steps return, k the least
with (hi - lo)/2^k <= w: a float Newton seed, then integer Newton steps over
the common denominator D*2^k, snap to a cell of the 2^k-cell dyadic
partition, and integer signs at the cell's two ends prove it holds the root;
when they cannot (a root on a cut point, a zero at lo, numbers past a
float's range) the integer numerators are bisected.  The rational-root
search tries coprime divisor pairs p/q inside the Cauchy bound that pass the
f(1), f(-1) divisibility tests, and for a squarefree input only of the signs
where the Sturm count finds a real root.  poly_value is the exact evaluator
for callers that need a value rather than a sign: one integer pass and a
single Fraction.

Polynomials enter either as y-only PuiseuxPoly values (the edge polynomials
produced upstream) or as dense coefficient sequences [c0, c1, ...].
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import lru_cache
from itertools import zip_longest
from typing import List, Optional, Sequence, Tuple

from .exact_poly import PuiseuxPoly, _as_fraction

Coeffs = Tuple[Fraction, ...]
IntCoeffs = Tuple[int, ...]


# ---- dense coefficient helpers ----


def _trim(cs: Sequence[Fraction]) -> Coeffs:
    cs = list(cs)
    while cs and cs[-1] == 0:
        cs.pop()
    return tuple(cs)


def coeffs_of(q) -> Coeffs:
    """Dense [c0, c1, ...] from a y-only PuiseuxPoly or a sequence."""
    if isinstance(q, PuiseuxPoly):
        if any(A for A, _b in q._lat):
            raise ValueError("expected a polynomial in y alone")
        return _trim([Fraction(q._lat.get((0, b), 0), q._den) for b in range(q.y_degree() + 1)])
    return _trim([_as_fraction(c) for c in q])


def poly_from_coeffs(cs: Sequence[Fraction]) -> PuiseuxPoly:
    return PuiseuxPoly({(Fraction(0), i): c for i, c in enumerate(cs) if c != 0})


def poly_value(cs: Sequence[Fraction], t: Fraction) -> Fraction:
    """Exact value of sum cs[i] t^i as a Fraction; cs and t are ints or Fractions.

    One integer Horner pass over the homogeneous form (_hom) with the
    denominators cleared, then a single Fraction.
    """
    if not cs:
        return Fraction(0)
    try:
        den = math.lcm(*[c.denominator for c in cs])
        p, q = t.numerator, t.denominator
    except AttributeError:
        raise TypeError("poly_value takes int or Fraction coefficients and point") from None
    ics = [c.numerator * (den // c.denominator) for c in cs]
    return Fraction(_hom(ics, p, q), den * q ** (len(ics) - 1))


def derivative(cs: Sequence[Fraction]) -> Coeffs:
    """Dense coefficients of the derivative, trailing zeros trimmed."""
    return _trim([i * c for i, c in enumerate(cs)][1:])


def _integer_form(cs: Sequence[Fraction]) -> IntCoeffs:
    """The primitive integer positive multiple of cs: the same signs everywhere."""
    den = 1
    for c in cs:
        den = math.lcm(den, c.denominator)
    return _primitive([c.numerator * (den // c.denominator) for c in cs])


def _hom(ics: Sequence[int], p: int, q: int) -> int:
    """sum c_i p^i q^(n-i): q^n times the polynomial's value at p/q (Horner)."""
    acc = 0
    qk = 1
    for c in reversed(ics):
        acc = acc * p + c * qk
        qk *= q
    return acc


def _sign_at(ics: IntCoeffs, p: int, q: int) -> int:
    """Sign of the polynomial at p/q (q > 0)."""
    v = _hom(ics, p, q)
    return (v > 0) - (v < 0)


def _sign(ics: IntCoeffs, t: Fraction) -> int:
    return _sign_at(ics, t.numerator, t.denominator)


def _primitive(cs: Sequence[int]) -> IntCoeffs:
    """cs divided by its positive content (signs kept)."""
    g = math.gcd(*cs)
    return tuple(c // g for c in cs) if g > 1 else tuple(cs)


def _exquo(a: Sequence[int], b: IntCoeffs) -> IntCoeffs:
    """a / b for a primitive divisor b of a: integral by Gauss's lemma."""
    n, lc = len(b) - 1, b[-1]
    r = list(a)
    q = [0] * (len(a) - n)
    for i in range(len(q) - 1, -1, -1):
        c = q[i] = r[i + n] // lc
        if c:
            for j in range(n):
                r[i + j] -= c * b[j]
    return tuple(q)


def _prim_rem(a: Sequence[int], b: IntCoeffs) -> IntCoeffs:
    """Primitive part of a positive multiple of the remainder of a by b."""
    n, lc = len(b) - 1, abs(b[-1])
    if b[-1] < 0:
        b = tuple(-c for c in b)
    r = list(a)
    for i in range(len(r) - 1 - n, -1, -1):
        c = r.pop()
        if c:
            g = math.gcd(c, lc)
            m, c = lc // g, c // g
            if m != 1:
                r = [m * x for x in r]
            for j in range(n):
                r[i + j] -= c * b[j]
    return _primitive(_trim(r))


def _prs(a: IntCoeffs, b: IntCoeffs) -> List[IntCoeffs]:
    """Primitive remainder sequence a, b, _prim_rem(a, b), ... to its last nonzero entry."""
    seq = [a]
    while b:
        seq.append(b)
        b = _prim_rem(seq[-2], b)
    return seq


def _normal(a: IntCoeffs) -> IntCoeffs:
    """The primitive part of a with a positive leading coefficient."""
    a = _primitive(a)
    return a if a[-1] > 0 else tuple(-c for c in a)


def _pgcd(a: IntCoeffs, b: IntCoeffs) -> IntCoeffs:
    """Primitive gcd with a positive leading coefficient (primitive PRS)."""
    return _normal(_prs(a, b)[-1])


def _sturm_signs(prs: List[IntCoeffs]) -> List[IntCoeffs]:
    """The Sturm sequence of f from the PRS f, prim f', r_2, ...: s_i = r_i for
    i mod 4 in {0, 1}, else -r_i.

    _prim_rem is odd in its dividend and ignores the divisor's sign and
    positive scale, so -_prim_rem(s_(i-1), s_i) is +-r_(i+1) with this sign.
    """
    return [r if i & 2 == 0 else tuple(-c for c in r) for i, r in enumerate(prs)]


# ---- squarefree decomposition ----


def _yun(f: IntCoeffs) -> Tuple[List[Tuple[IntCoeffs, int]], Optional[List[IntCoeffs]]]:
    """Yun on a primitive integer f: primitive factors with positive leading terms.

    The first gcd is the last entry of the PRS of (f, prim f').  When it is a
    constant, f is squarefree, and that PRS also gives the Sturm sequence of
    the one factor, which is returned beside the factors (None otherwise).
    v and w are kept on one common scale (both are divided by the same
    factors), so z = w - v' is the scaled Fraction z.
    """
    d = derivative(f)
    prs = _prs(f, _primitive(d))
    if len(prs[-1]) == 1:
        seq = _sturm_signs(prs)
        if f[-1] < 0:
            seq = [tuple(-c for c in s) for s in seq]
        return [(seq[0], 1)], seq
    u = _normal(prs[-1])
    v, w = _exquo(f, u), _exquo(d, u)
    out: List[Tuple[IntCoeffs, int]] = []
    i = 1
    while len(v) > 1:
        z = _trim([a - b for a, b in zip_longest(w, derivative(v), fillvalue=0)])
        h = _pgcd(v, z)
        if len(h) > 1:
            out.append((h, i))
        v, w = _exquo(v, h), _exquo(z, h)
        i += 1
    return out, None


def squarefree_factor(q) -> List[Tuple[PuiseuxPoly, int]]:
    """Yun decomposition q = lc * prod f_k^k with monic squarefree pairwise-coprime f_k.

    Returned in increasing multiplicity order; the leading coefficient of q
    is dropped (roots are unaffected).
    """
    cs = coeffs_of(q)
    if not cs:
        raise ValueError("cannot decompose the zero polynomial")
    if len(cs) == 1:
        return []
    return [(poly_from_coeffs([Fraction(c, h[-1]) for c in h]), k)
            for h, k in _yun(_integer_form(cs))[0]]


# ---- Sturm machinery ----


def sturm_sequence(cs) -> List[IntCoeffs]:
    """Primitive integer Sturm sequence of cs.

    Each entry is a positive multiple of the classical Sturm polynomial
    (s_0 = cs, s_1 = cs', s_(i+1) = -rem(s_(i-1), s_i)), so sign variations
    are the same: it is the PRS of (f, prim f') with the signs of
    _sturm_signs, f the integer form of cs.
    """
    f = _integer_form(cs)
    return _sturm_signs(_prs(f, _primitive(derivative(f)))) if f else []


def _variations_at(seq: List[IntCoeffs], p: int, q: int) -> int:
    """Sign changes of the integer-form Sturm sequence seq at p/q (q > 0)."""
    signs = [v > 0 for v in (_hom(ics, p, q) for ics in seq) if v]
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def _variations(seq: List[IntCoeffs], t: Fraction) -> int:
    return _variations_at(seq, t.numerator, t.denominator)


def _count_roots(f: IntCoeffs, lo: Fraction, hi: Fraction) -> int:
    """count_roots_halfopen for an integer f of degree >= 1 and lo < hi."""
    prs = _prs(f, _primitive(derivative(f)))
    seq = (_sturm_signs(prs) if len(prs[-1]) == 1
           else sturm_sequence(_exquo(f, _normal(prs[-1]))))
    return _variations(seq, lo) - _variations(seq, hi)


def count_roots_halfopen(cs, lo, hi) -> int:
    """Distinct real roots of cs in (lo, hi] (multiplicity ignored); 0 if lo >= hi.

    One PRS of (f, prim f'): a squarefree f reads its Sturm sequence off it,
    any other f takes the Sturm sequence of f / gcd(f, f').
    """
    lo, hi = _as_fraction(lo), _as_fraction(hi)
    f = _integer_form(coeffs_of(cs))
    if lo >= hi or len(f) < 2:
        return 0
    return _count_roots(f, lo, hi)


def cauchy_bound(cs) -> Fraction:
    """B with every real root in (-B, B]."""
    if len(cs) <= 1:
        return Fraction(1)
    return 1 + Fraction(max(abs(c) for c in cs[:-1]), abs(cs[-1]))


# ---- rational root extraction ----


@lru_cache(maxsize=256)
def _divisors(n: int) -> Tuple[int, ...]:
    """The positive divisors of |n| in increasing order (none for 0), by
    trial division up to sqrt|n|; memoised, as a search meets the same
    coefficients again and again."""
    n = abs(n)
    small = [i for i in range(1, math.isqrt(n) + 1) if n % i == 0]
    return tuple(sorted(set(small + [n // i for i in small])))


_DIVISOR_GUARD = 10 ** 12


def _rational_roots(cs, signs: Tuple[int, ...] = (1, -1)) -> List[Fraction]:
    """Rational roots of a squarefree polynomial (without multiplicity).

    A root 0 is always found; the divisor search tries only nonzero roots
    of the given signs, and only the pairs p/q inside the Cauchy bound.
    """
    found: List[Fraction] = []
    work = cs
    # deflate powers of y first: 0 is the easy rational root
    k = 0
    while work and work[0] == 0:
        work = work[1:]
        k += 1
    if k:
        found.append(Fraction(0))
    if len(work) <= 1 or not signs:
        return found
    ics = _integer_form(work)
    if abs(ics[0]) > _DIVISOR_GUARD or abs(ics[-1]) > _DIVISOR_GUARD:
        return found  # too big to factor cheaply; bisection will cope
    # a root p/q in lowest terms splits off the integer factor (q t - p)
    # (Gauss), so q - p divides f(1) and q + p divides f(-1)
    f_one = sum(ics)
    f_minus_one = sum(ics[0::2]) - sum(ics[1::2])
    qs = _divisors(ics[-1])
    # every root has |p/q| < 1 + max|c_i|/|c_n| = top/lc, so q > p*lc/top
    lc = abs(ics[-1])
    top = lc + max(abs(c) for c in ics[:-1])
    for p in _divisors(ics[0]):
        start = bisect_right(qs, p * lc // top)
        if start == len(qs):
            break  # and for every larger p
        sps = [s * p for s in signs]
        for q in qs[start:]:
            for sp in sps:
                # the divisibility tests first, then lowest terms (a pair
                # with a common factor was tried reduced), then the value
                if ((f_one % (q - sp) if q != sp else f_one) == 0
                        and (f_minus_one % (q + sp) if q != -sp else f_minus_one) == 0
                        and math.gcd(p, q) == 1 and _sign_at(ics, sp, q) == 0):
                    found.append(Fraction(sp, q))
    return found


# ---- isolation ----


@dataclass(frozen=True)
class IsolatedRoot:
    """One distinct real root: lo < root <= hi, with multiplicity in the input."""

    lo: Fraction
    hi: Fraction
    multiplicity: int
    exact_value: Optional[Fraction] = None
    # squarefree factor the root belongs to, in integer form (for refinement)
    factor: IntCoeffs = ()

    @property
    def width(self) -> Fraction:
        return self.hi - self.lo

    def midpoint(self) -> Fraction:
        if self.exact_value is not None:
            return self.exact_value
        return (self.lo + self.hi) / 2

    def contains(self, t) -> bool:
        t = _as_fraction(t)
        return self.lo < t <= self.hi


def _safe_cut(ics: IntCoeffs, lo: Fraction, hi: Fraction) -> Fraction:
    """A point strictly inside (lo, hi) that is not a root of ics."""
    mid = (lo + hi) / 2
    step = (hi - lo) / 64
    while _sign(ics, mid) == 0:
        mid += step
        step /= 3
        if not lo < mid < hi:  # pragma: no cover - separation makes this unreachable
            raise AssertionError("could not find a root-free cut point")
    return mid


Window = Optional[Tuple[Fraction, Fraction]]


def _isolate_squarefree(ics: IntCoeffs, a: int, b: int, d: int, seq: List[IntCoeffs],
                        v_a: int, v_b: int,
                        window: Window) -> List[Tuple[Fraction, Fraction]]:
    """Disjoint (lo, hi] intervals isolating every root of squarefree ics in (a/d, b/d].

    v_a and v_b are the Sturm variations of seq at a/d and b/d (d > 0).  A
    cell is cut at its midpoint, on integer numerators over the common
    denominator 2d, or at _safe_cut's stepped point when the midpoint is a
    root.  With a window [L, H], only the roots in it are isolated: a cell
    that misses the window is dropped, and a one-root cell that straddles an
    end of it is kept when the signs of ics at the ends of its part inside
    the window show its root there.  Every cell kept is the whole-line cell.
    """
    n = v_a - v_b
    if n == 0:
        return []
    if window is not None:
        lo, hi = window
        if b * lo.denominator < lo.numerator * d or a * hi.denominator >= hi.numerator * d:
            return []
        left_out = a * lo.denominator < lo.numerator * d
        right_out = b * hi.denominator > hi.numerator * d
        if n == 1 and (left_out or right_out):
            # ics changes sign once across its root, and the cell's ends are not roots
            s_x = _sign(ics, lo) if left_out else _sign_at(ics, a, d)
            s_y = _sign(ics, hi) if right_out else _sign_at(ics, b, d)
            if s_x * s_y > 0:
                return []
    if n == 1:
        return [(Fraction(a, d), Fraction(b, d))]
    m = a + b
    if _hom(ics, m, 2 * d):
        a, b, d = 2 * a, 2 * b, 2 * d
    else:
        cut = _safe_cut(ics, Fraction(a, d), Fraction(b, d))
        e = math.lcm(d, cut.denominator)
        a, b, m, d = a * (e // d), b * (e // d), cut.numerator * (e // cut.denominator), e
    v_m = _variations_at(seq, m, d)
    return (_isolate_squarefree(ics, a, m, d, seq, v_a, v_m, window)
            + _isolate_squarefree(ics, m, b, d, seq, v_m, v_b, window))


def _isolate(f: IntCoeffs, window: Window) -> List[IsolatedRoot]:
    """Isolating intervals of the distinct real roots of primitive f (degree >= 1).

    Yun's factors, the rational roots of each found by the divisor search
    (all of them, exact, whatever the window), then Sturm bisection of the
    deflated factor on (-B, B], B its Cauchy bound, kept to the window's
    roots (_isolate_squarefree).  Not yet disjoint across factors.
    """
    roots: List[IsolatedRoot] = []
    factors, shared = _yun(f)
    for f, mult in factors:
        if shared is None:
            rationals = _rational_roots(f)
        else:
            # f is squarefree with Sturm sequence shared: search only the
            # signs that hold a real root (a root 0 is counted in (-b, 0])
            b = cauchy_bound(f)
            v_neg, v_zero, v_pos = (_variations(shared, t) for t in (-b, Fraction(0), b))
            signs = (((1,) if v_zero > v_pos else ())
                     + ((-1,) if v_neg - v_zero > (f[0] == 0) else ()))
            rationals = _rational_roots(f, signs)
        g = f
        for r in rationals:  # (q t - p) is primitive
            g = _exquo(g, (-r.numerator, r.denominator))
        for r in rationals:
            roots.append(IsolatedRoot(lo=r - 1, hi=r, multiplicity=mult,
                                      exact_value=r, factor=f))
        if len(g) > 1:
            if g is f and shared is not None:
                seq = shared
            else:
                b = cauchy_bound(g)
                seq = sturm_sequence(g)
                v_neg, v_pos = _variations(seq, -b), _variations(seq, b)
            cells = _isolate_squarefree(g, -b.numerator, b.numerator, b.denominator,
                                        seq, v_neg, v_pos, window)
            for ilo, ihi in cells:
                roots.append(IsolatedRoot(lo=ilo, hi=ihi, multiplicity=mult,
                                          exact_value=None, factor=g))
    return roots


def isolate_real_roots(q, domain: str = "all") -> List[IsolatedRoot]:
    """Distinct real roots of q with multiplicities, sorted by position.

    domain 'all' keeps every real root (including 0); 'positive' keeps roots > 0.
    """
    if domain not in ("all", "positive"):
        raise ValueError("domain must be 'all' or 'positive'")
    cs = coeffs_of(q)
    if not cs:
        raise ValueError("cannot isolate the roots of the zero polynomial")
    if len(cs) == 1:
        return []
    roots = _isolate(_integer_form(cs), None)

    # refine until intervals are pairwise disjoint and sign-decided at 0
    changed = True
    while changed:
        changed = False
        roots.sort(key=lambda r: (r.lo, r.hi))
        for i in range(len(roots) - 1):
            a, b = roots[i], roots[i + 1]
            if a.hi > b.lo:
                roots[i] = _halve(a)
                roots[i + 1] = _halve(b)
                changed = True
        for i, r in enumerate(roots):
            if r.exact_value is None and r.lo < 0 < r.hi and r.factor[0] != 0:
                roots[i] = _halve(r)
                changed = True

    if domain == "positive":
        roots = [r for r in roots if (r.exact_value is not None and r.exact_value > 0)
                 or (r.exact_value is None and r.lo >= 0)]
    return roots


def _roots_in_window(f: Sequence[int], lo: Fraction, hi: Fraction,
                     width: Fraction) -> List[Fraction]:
    """Sorted positions in [lo, hi] of the distinct real roots of the integer f.

    A rational root found by the divisor search is exact; any other root is
    the midpoint of its isolating interval refined to width, so within
    width/2 of it.  That is what isolate_real_roots, refine_root and a filter
    on [lo, hi] give, computed for the roots in [lo - width, hi + width]
    only.  A refined cell is the same dyadic cell whether or not the
    whole-line path halved it first to separate it from other roots; the
    two differ only for distinct roots of f closer than 2*width.
    """
    f = _primitive(_trim(f))
    if len(f) < 2:
        return []
    out = []
    for r in _isolate(f, (lo - width, hi + width)):
        pos = r.exact_value if r.exact_value is not None else refine_root(r, width).midpoint()
        if lo <= pos <= hi:
            out.append(pos)
    return sorted(out)


def _halve(r: IsolatedRoot) -> IsolatedRoot:
    """Shrink the isolating interval by one bisection step."""
    if r.exact_value is not None:
        return replace(r, lo=r.exact_value - r.width / 2, hi=r.exact_value)
    mid = _safe_cut(r.factor, r.lo, r.hi)
    # squarefree factor changes sign across its single root in the interval;
    # at a root lo the sign left of the root is minus the sign at hi (0 when
    # hi is the root, which keeps the upper half)
    s_lo = _sign(r.factor, r.lo) or -_sign(r.factor, r.hi)
    if s_lo * _sign(r.factor, mid) < 0:
        return replace(r, hi=mid)
    return replace(r, lo=mid)


def _depth(span: Fraction, width: Fraction) -> int:
    """Least k >= 0 with span / 2^k <= width (both positive)."""
    q = -(-(span.numerator * width.denominator) // (span.denominator * width.numerator))
    return (q - 1).bit_length()


# float Newton/bisection steps of the seed, and integer Newton steps after it
_FLOAT_STEPS, _INT_STEPS = 100, 8


def _float_root(ics: IntCoeffs, lo: Fraction, hi: Fraction, s_lo: int) -> Optional[float]:
    """A float near the root of ics in (lo, hi), whose sign at lo is s_lo.

    Safeguarded Newton (rtsafe): a step is taken only if it stays inside the
    bracket and at least halves the step before it, else the bracket is
    bisected.  None when a coefficient or an end does not fit a float.
    """
    try:
        fc = [float(c) for c in reversed(ics)]
        a, b = float(lo), float(hi)
    except OverflowError:
        return None
    x = 0.5 * (a + b)
    step = b - a
    for _ in range(_FLOAT_STEPS):
        f = df = 0.0
        for c in fc:
            df = df * x + f
            f = f * x + c
        if f == 0.0:
            break
        if (f > 0) == (s_lo > 0):
            a = x
        else:
            b = x
        dx = f / df if df else math.inf
        if abs(dx) <= 2.0 ** -40 * abs(x):
            x -= dx
            break
        if a < x - dx < b and abs(dx) <= 0.5 * abs(step):
            x, step = x - dx, dx
        else:
            step = 0.5 * (b - a)
            x = a + step
            if not a < x < b:
                break
    return x if math.isfinite(x) else None


def _snapped_cell(r: IsolatedRoot, k: int) -> Optional[IsolatedRoot]:
    """The cell of r's 2^k-cell dyadic partition that k bisection steps keep.

    The cells are (lo + i*w, lo + (i+1)*w] with w = (hi - lo)/2^k.  A float
    seed (_float_root) and integer Newton steps on the homogeneous form over
    den*2^k pick i; two sign tests prove it.  r.factor has one simple root in
    (lo, hi], so it has r's sign at lo left of the root and the opposite sign
    right of it: a cell whose ends have those signs holds the root strictly
    inside, no lattice point is a root, and bisection, which tests lattice
    points only, ends in that cell.  None when the proof does not go through
    (a zero at lo or at a tested lattice point, no float seed): the caller
    bisects then.
    """
    ics = r.factor
    den = math.lcm(r.lo.denominator, r.hi.denominator)
    a = r.lo.numerator * (den // r.lo.denominator)
    d = r.hi.numerator * (den // r.hi.denominator) - a
    s_lo = _sign_at(ics, a, den)
    if s_lo == 0:
        return None
    x = _float_root(ics, r.lo, r.hi, s_lo)
    if x is None:
        return None
    # lattice point j of the partition is (a_k + j*d) / q
    cells, q, a_k = 1 << k, den << k, a << k
    num, dnm = x.as_integer_ratio()
    t = num * q // dnm
    dics = tuple(i * c for i, c in enumerate(ics))[1:]
    for _ in range(_INT_STEPS):
        v, dv = _hom(ics, t, q), _hom(dics, t, q)
        if v == 0 or dv == 0:
            break
        step = v // dv
        t = min(max(t - step, a_k), a_k + cells * d)
        # Newton squares the error: after a step of s/q it is near (s/q)^2,
        # below a cell's d/q once s^2 <= d*q
        if step * step <= d * q:
            break
    i = min(max((t - a_k) // d, 0), cells - 1)
    for _ in range(3):
        s_left = s_lo if i == 0 else _sign_at(ics, a_k + i * d, q)
        s_right = _sign_at(ics, a_k + (i + 1) * d, q)
        if s_left == s_lo and s_right == -s_lo:
            return replace(r, lo=Fraction(a_k + i * d, q), hi=Fraction(a_k + (i + 1) * d, q))
        if s_left == -s_lo:
            i -= 1
        elif s_right == s_lo and i + 1 < cells:
            i += 1
        else:
            return None
    return None


def refine_root(r: IsolatedRoot, width) -> IsolatedRoot:
    """Shrink the isolating interval until hi - lo <= width (no-op if already).

    Returns what repeated _halve returns: after the least k halvings with
    (hi - lo)/2^k <= width, an exact root sits at hi of (r - w/2^k, r], and
    any other root in the cell of the 2^k-cell dyadic partition that holds
    it.  That cell comes from a Newton seed snapped to the partition and
    proved by integer sign tests at its ends (_snapped_cell).  When the proof
    does not go through, integer numerators over one common denominator
    den*2^k are bisected, and a midpoint which is a root of the factor is
    replaced by _halve's stepped cut.
    """
    width = _as_fraction(width)
    if width <= 0:
        raise ValueError("target width must be positive")
    if r.width <= width:
        return r
    k = _depth(r.width, width)
    if r.exact_value is not None:
        return replace(r, lo=r.exact_value - r.width / (1 << k), hi=r.exact_value)
    cell = _snapped_cell(r, k)
    if cell is not None:
        return cell
    ics = r.factor
    w_num, w_den = width.numerator, width.denominator
    while r.width > width:
        # bisect integer numerators a, b over one common denominator den
        den = math.lcm(r.lo.denominator, r.hi.denominator)
        a = r.lo.numerator * (den // r.lo.denominator)
        b = r.hi.numerator * (den // r.hi.denominator)
        s_lo = _sign_at(ics, a, den) or -_sign_at(ics, b, den)  # as in _halve
        while (b - a) * w_den > w_num * den:
            m = a + b
            s = _sign_at(ics, m, 2 * den)
            if s == 0:
                break
            a, b, den = 2 * a, 2 * b, 2 * den
            if s_lo * s < 0:
                b = m
            else:
                a, s_lo = m, s
        r = replace(r, lo=Fraction(a, den), hi=Fraction(b, den))
        if r.width > width:
            r = _halve(r)
    return r
