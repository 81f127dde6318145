"""Exact real-root isolation for univariate rational polynomials.

Pipeline: squarefree decomposition (Yun), rational-root extraction, then
Sturm-sequence bisection for whatever is left.  Every root comes back as a
half-open rational interval (lo, hi] containing exactly one distinct real
root of the input, together with its multiplicity and, when the root is
rational, its exact value.

Polynomial algebra (division, gcd, Sturm remainders) runs on Fractions, but
every sign test runs on integers: each squarefree factor and each Sturm
polynomial is scaled once by the lcm of its denominators (a positive scale,
so signs are kept) and evaluated at p/q in homogeneous form
sum c_i p^i q^(n-i).  Refinement bisects integer numerators over one common
denominator D*2^k and builds Fractions only at the end; the rational-root
search tries coprime divisor pairs p/q that pass the f(1), f(-1)
divisibility tests.  poly_value is the exact Fraction evaluator for callers
that need a value rather than a sign.

Polynomials enter either as y-only PuiseuxPoly values (the edge polynomials
produced upstream) or as dense coefficient sequences [c0, c1, ...].
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from fractions import Fraction
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
        if any(a != 0 for (a, _b) in q.terms):
            raise ValueError("expected a polynomial in y alone")
        deg = q.y_degree()
        out = [Fraction(0)] * (deg + 1)
        for (_a, b), c in q.terms.items():
            out[b] = c
        return _trim(out)
    return _trim([_as_fraction(c) for c in q])


def poly_from_coeffs(cs: Sequence[Fraction]) -> PuiseuxPoly:
    return PuiseuxPoly({(Fraction(0), i): c for i, c in enumerate(cs) if c != 0})


def poly_value(cs: Sequence[Fraction], t: Fraction) -> Fraction:
    """Exact value of sum cs[i] t^i (Horner)."""
    acc = Fraction(0)
    for c in reversed(cs):
        acc = acc * t + c
    return acc


def derivative(cs: Sequence[Fraction]) -> Coeffs:
    """Dense coefficients of the derivative, trailing zeros trimmed."""
    return _trim([i * c for i, c in enumerate(cs)][1:])


def _integer_form(cs: Sequence[Fraction]) -> IntCoeffs:
    """cs times the lcm of its denominators: integers with the same signs everywhere."""
    den = 1
    for c in cs:
        den = math.lcm(den, c.denominator)
    return tuple(c.numerator * (den // c.denominator) for c in cs)


def _sign_at(ics: IntCoeffs, p: int, q: int) -> int:
    """Sign of the polynomial at p/q (q > 0): sign of sum c_i p^i q^(n-i)."""
    acc = 0
    qk = 1
    for c in reversed(ics):
        acc = acc * p + c * qk
        qk *= q
    return (acc > 0) - (acc < 0)


def _sign(ics: IntCoeffs, t: Fraction) -> int:
    return _sign_at(ics, t.numerator, t.denominator)


def _monic(cs: Coeffs) -> Coeffs:
    if not cs:
        return cs
    lc = cs[-1]
    return tuple(c / lc for c in cs)


def _divmod(num: Coeffs, den: Coeffs) -> Tuple[Coeffs, Coeffs]:
    if not den:
        raise ZeroDivisionError("polynomial division by zero")
    num_l = list(num)
    q = [Fraction(0)] * max(0, len(num) - len(den) + 1)
    for i in range(len(num) - len(den), -1, -1):
        c = num_l[i + len(den) - 1] / den[-1]
        q[i] = c
        if c != 0:
            for j, d in enumerate(den):
                num_l[i + j] -= c * d
    return _trim(q), _trim(num_l[: len(den) - 1])


def _gcd(a: Coeffs, b: Coeffs) -> Coeffs:
    while b:
        a, b = b, _divmod(a, b)[1]
    return _monic(a)


def _sub(a: Coeffs, b: Coeffs) -> Coeffs:
    n = max(len(a), len(b))
    return _trim([(a[i] if i < len(a) else Fraction(0)) -
                  (b[i] if i < len(b) else Fraction(0)) for i in range(n)])


# ---- squarefree decomposition ----


def squarefree_factor(q) -> List[Tuple[PuiseuxPoly, int]]:
    """Yun decomposition q = lc * prod f_k^k with monic squarefree pairwise-coprime f_k.

    Returned in increasing multiplicity order; the leading coefficient of q
    is dropped (roots are unaffected).
    """
    cs = coeffs_of(q)
    if not cs:
        raise ValueError("cannot decompose the zero polynomial")
    cs = _monic(cs)
    if len(cs) == 1:
        return []
    d = derivative(cs)
    u = _gcd(cs, d)
    v, _ = _divmod(cs, u)
    w, _ = _divmod(d, u)
    out: List[Tuple[PuiseuxPoly, int]] = []
    i = 1
    while len(v) > 1:
        z = _sub(w, derivative(v))
        h = _gcd(v, z)
        if len(h) > 1:
            out.append((poly_from_coeffs(h), i))
        v, _ = _divmod(v, h)
        w, _ = _divmod(z, h)
        i += 1
    return out


# ---- Sturm machinery ----


def sturm_sequence(cs: Coeffs) -> List[Coeffs]:
    seq = [cs, derivative(cs)]
    while seq[-1]:
        rem = _divmod(seq[-2], seq[-1])[1]
        if not rem:
            break
        seq.append(tuple(-c for c in rem))
    return [s for s in seq if s]


def _variations(seq: List[IntCoeffs], t: Fraction) -> int:
    """Sign changes of the integer-form Sturm sequence seq at t."""
    p, q = t.numerator, t.denominator
    signs = [s for s in (_sign_at(ics, p, q) for ics in seq) if s]
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def count_roots_halfopen(cs, lo, hi) -> int:
    """Distinct real roots of cs in (lo, hi] (multiplicity ignored)."""
    cs = coeffs_of(cs)
    sf, _ = _divmod(cs, _gcd(cs, derivative(cs))) if len(cs) > 2 else (cs, ())
    seq = [_integer_form(s) for s in sturm_sequence(_monic(sf))]
    return _variations(seq, _as_fraction(lo)) - _variations(seq, _as_fraction(hi))


def cauchy_bound(cs: Coeffs) -> Fraction:
    """B with every real root in (-B, B]."""
    if len(cs) <= 1:
        return Fraction(1)
    lc = abs(cs[-1])
    return 1 + max(abs(c) / lc for c in cs[:-1])


# ---- rational root extraction ----


def _divisors(n: int) -> List[int]:
    n = abs(n)
    out = []
    i = 1
    while i * i <= n:
        if n % i == 0:
            out.append(i)
            if i != n // i:
                out.append(n // i)
        i += 1
    return sorted(out)


def _divides(d: int, n: int) -> bool:
    return n == 0 if d == 0 else n % d == 0


_DIVISOR_GUARD = 10 ** 12


def _rational_roots(cs: Coeffs) -> List[Fraction]:
    """Rational roots of a squarefree polynomial (without multiplicity)."""
    found: List[Fraction] = []
    work = cs
    # deflate powers of y first: 0 is the easy rational root
    k = 0
    while work and work[0] == 0:
        work = work[1:]
        k += 1
    if k:
        found.append(Fraction(0))
    if len(work) <= 1:
        return found
    ics = _integer_form(work)
    g = 0
    for c in ics:
        g = math.gcd(g, c)
    ics = tuple(c // g for c in ics)
    if abs(ics[0]) > _DIVISOR_GUARD or abs(ics[-1]) > _DIVISOR_GUARD:
        return found  # too big to factor cheaply; bisection will cope
    # a root p/q in lowest terms splits off the integer factor (q t - p)
    # (Gauss), so q - p divides f(1) and q + p divides f(-1)
    f_one = sum(ics)
    f_minus_one = sum(ics[0::2]) - sum(ics[1::2])
    for p in _divisors(ics[0]):
        for q in _divisors(ics[-1]):
            if math.gcd(p, q) != 1:
                continue  # the same value in lowest terms was tried earlier
            for sp in (p, -p):
                if (_divides(q - sp, f_one) and _divides(q + sp, f_minus_one)
                        and _sign_at(ics, sp, q) == 0):
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

    def approx(self) -> float:
        return float(self.midpoint())

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


def _isolate_squarefree(ics: IntCoeffs, lo: Fraction, hi: Fraction,
                        seq: List[IntCoeffs], v_lo: int,
                        v_hi: int) -> List[Tuple[Fraction, Fraction]]:
    """Disjoint (lo, hi] intervals isolating every root of squarefree ics in (lo, hi].

    v_lo and v_hi are the Sturm variations of seq at lo and hi.
    """
    n = v_lo - v_hi
    if n == 0:
        return []
    if n == 1:
        return [(lo, hi)]
    cut = _safe_cut(ics, lo, hi)
    v_cut = _variations(seq, cut)
    return (_isolate_squarefree(ics, lo, cut, seq, v_lo, v_cut)
            + _isolate_squarefree(ics, cut, hi, seq, v_cut, v_hi))


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

    roots: List[IsolatedRoot] = []
    for f_poly, mult in squarefree_factor(cs):
        f = coeffs_of(f_poly)
        rationals = _rational_roots(f)
        g = f
        for r in rationals:
            g, rem = _divmod(g, (-r, Fraction(1)))
            assert not rem
        f_int = _integer_form(f)
        for r in rationals:
            roots.append(IsolatedRoot(lo=r - 1, hi=r, multiplicity=mult,
                                      exact_value=r, factor=f_int))
        if len(g) > 1:
            b = cauchy_bound(g)
            g_int = _integer_form(g)
            seq = [_integer_form(s) for s in sturm_sequence(g)]
            for ilo, ihi in _isolate_squarefree(g_int, -b, b, seq, _variations(seq, -b),
                                                _variations(seq, b)):
                roots.append(IsolatedRoot(lo=ilo, hi=ihi, multiplicity=mult,
                                          exact_value=None, factor=g_int))

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


def _halve(r: IsolatedRoot) -> IsolatedRoot:
    """Shrink the isolating interval by one bisection step."""
    if r.exact_value is not None:
        return replace(r, lo=r.exact_value - r.width / 2, hi=r.exact_value)
    mid = _safe_cut(r.factor, r.lo, r.hi)
    # squarefree factor changes sign across its single root in the interval
    if _sign(r.factor, r.lo) * _sign(r.factor, mid) < 0:
        return replace(r, hi=mid)
    return replace(r, lo=mid)


def refine_root(r: IsolatedRoot, width) -> IsolatedRoot:
    """Shrink the isolating interval until hi - lo <= width (no-op if already).

    Takes the same cuts as repeated _halve: midpoints, except that a midpoint
    which is a root of the factor is replaced by _halve's stepped cut.
    """
    width = _as_fraction(width)
    if width <= 0:
        raise ValueError("target width must be positive")
    if r.exact_value is not None:
        while r.width > width:
            r = _halve(r)
        return r
    ics = r.factor
    w_num, w_den = width.numerator, width.denominator
    while r.width > width:
        # bisect integer numerators a, b over one common denominator den
        den = math.lcm(r.lo.denominator, r.hi.denominator)
        a = r.lo.numerator * (den // r.lo.denominator)
        b = r.hi.numerator * (den // r.hi.denominator)
        s_lo = _sign_at(ics, a, den)
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
