"""Exact arithmetic for bivariate phases with fractional x-exponents.

A phase is a finite sum  sum_{(a,b)} c_ab * x^a * y^b  where the
coefficients c_ab are rationals, the y-exponents b are nonnegative integers
and the x-exponents a are nonnegative rationals with a common denominator
(the ramification index).  Only x is allowed to ramify: every coordinate
change used downstream (shears along branch curves, monomial scalings,
reflections) keeps y-exponents integral, and fractional y-powers would not
survive the sector reflections y -> -y.

It is stored as one integer lattice (n, den, {(A, b): C}), A = a·n and
C = c·den, in a canonical form (see PuiseuxPoly): equality and hashing read
it, and every algebraic operation here computes on it.

All operations are pure: they return new polynomials and never mutate.
An optional truncation order M means "terms with a + b >= M were discarded";
operations propagate the tightest sound bound for it.
"""

from __future__ import annotations

import math
from fractions import Fraction
from types import MappingProxyType
from typing import Dict, Iterable, Mapping, Optional, Tuple

Rational = Fraction

ExpPair = Tuple[Fraction, int]


def _as_fraction(v) -> Fraction:
    if isinstance(v, Fraction):
        return v
    if isinstance(v, int):
        return Fraction(v)
    if isinstance(v, str):
        return Fraction(v)
    raise TypeError(f"expected a rational, got {type(v).__name__}: {v!r}")


class PuiseuxPoly:
    """Finite sum of terms c * x^a * y^b, stored as (n, den, {(A, b): C}).

    A = a·n and C = c·den are integers, no C is zero, n (the ramification) is
    the least positive integer with every a·n integral and den the least with
    every c·den integral, so gcd(den, every C) = 1 and x^(1/2) * x^(1/2)
    stores the same triple as x.  terms, the read-only Fraction view
    {(a, b): c} in the lattice's order, is built on first read and kept, as
    is the Newton polygon (newton.newton_polygon_of) in _polygon.
    """

    __slots__ = ("ramification", "truncation_order", "_den", "_lat", "_terms", "_polygon")

    def __init__(self, terms: Dict[ExpPair, Fraction] | Iterable,
                 truncation_order: Optional[Fraction] = None):
        if not isinstance(terms, dict):
            terms = dict(terms)
        clean: Dict[ExpPair, Fraction] = {}
        for (a, b), c in terms.items():
            a = _as_fraction(a)
            c = _as_fraction(c)
            if not isinstance(b, int):
                if isinstance(b, Fraction) and b.denominator == 1:
                    b = int(b)
                else:
                    raise ValueError(f"y-exponent must be an integer, got {b!r}")
            if a < 0:
                raise ValueError(f"x-exponent must be nonnegative, got {a}")
            if b < 0:
                raise ValueError(f"y-exponent must be nonnegative, got {b}")
            if c != 0:
                clean[(a, b)] = clean.get((a, b), Fraction(0)) + c
        clean = {k: v for k, v in clean.items() if v != 0}
        if truncation_order is not None:
            truncation_order = _as_fraction(truncation_order)
            clean = {k: v for k, v in clean.items() if k[0] + k[1] < truncation_order}
        n = math.lcm(*[a.denominator for a, _b in clean])
        den = math.lcm(*[c.denominator for c in clean.values()])
        self.ramification, self.truncation_order, self._den = n, truncation_order, den
        self._lat = {(a.numerator * (n // a.denominator), b): c.numerator * (den // c.denominator)
                     for (a, b), c in clean.items()}
        self._terms, self._polygon = MappingProxyType(clean), None

    @classmethod
    def _reduced(cls, n: int, den: int, lat: Dict[Tuple[int, int], int],
                 truncation_order: Optional[Fraction]) -> "PuiseuxPoly":
        """Wrap an operation's lattice, reducing n and den to canonical form.  The caller
        guarantees A, b >= 0, nonzero C, den > 0 and every a + b below truncation_order."""
        g = math.gcd(n, *[A for A, _b in lat])
        if g > 1:
            n //= g
            lat = {(A // g, b): C for (A, b), C in lat.items()}
        g = math.gcd(den, *lat.values())
        if g > 1:
            den //= g
            lat = {k: C // g for k, C in lat.items()}
        self = object.__new__(cls)
        self.ramification, self.truncation_order = n, truncation_order
        self._den, self._lat, self._terms, self._polygon = den, lat, None, None
        return self

    @property
    def terms(self) -> Mapping[ExpPair, Fraction]:
        if self._terms is None:
            n, den = self.ramification, self._den
            exps = {A: Fraction(A, n) for A, _b in self._lat}     # one per distinct exponent
            self._terms = MappingProxyType({(exps[A], b): Fraction(C, den)
                                            for (A, b), C in self._lat.items()})
        return self._terms

    # ---- constructors ----

    @classmethod
    def zero(cls) -> "PuiseuxPoly":
        return cls._reduced(1, 1, {}, None)

    @classmethod
    def constant(cls, c) -> "PuiseuxPoly":
        return cls.monomial(c, 0, 0)

    @classmethod
    def monomial(cls, c, a, b: int) -> "PuiseuxPoly":
        c, a = _as_fraction(c), _as_fraction(a)
        if not isinstance(b, int) or a < 0 or b < 0:
            return cls({(a, b): c})        # __init__ converts or rejects the exponents
        return cls._reduced(a.denominator, c.denominator,
                            {(a.numerator, b): c.numerator} if c else {}, None)

    @classmethod
    def from_terms(cls, pairs: Iterable[Tuple] , truncation_order=None) -> "PuiseuxPoly":
        """Build from an iterable of (coeff, a, b) triples."""
        d: Dict[ExpPair, Fraction] = {}
        for c, a, b in pairs:
            key = (_as_fraction(a), b)
            d[key] = d.get(key, Fraction(0)) + _as_fraction(c)
        return cls(d, truncation_order)

    # ---- queries ----

    def is_zero(self) -> bool:
        return not self._lat

    def support(self):
        """Exponent pairs in canonical order."""
        return sorted(self.terms.keys())

    def coeff(self, a, b: int) -> Fraction:
        A, off_lattice = divmod(_as_fraction(a) * self.ramification, 1)
        return Fraction(0 if off_lattice else self._lat.get((A, b), 0), self._den)

    def items(self):
        """(exponent pair, coefficient) in canonical order."""
        return iter(sorted(self.terms.items()))

    def y_degree(self) -> int:
        return max((b for (_A, b) in self._lat), default=0)

    # ---- operator sugar (thin wrappers over the module-level ops) ----

    def __add__(self, other):
        return poly_add(self, _coerce(other))

    def __radd__(self, other):
        return poly_add(_coerce(other), self)

    def __sub__(self, other):
        return poly_add(self, poly_scale(_coerce(other), -1))

    def __rsub__(self, other):
        return poly_add(_coerce(other), poly_scale(self, -1))

    def __neg__(self):
        return poly_scale(self, -1)

    def __mul__(self, other):
        return poly_mul(self, _coerce(other))

    def __rmul__(self, other):
        return poly_mul(_coerce(other), self)

    def __pow__(self, n: int):
        if not isinstance(n, int) or n < 0:
            raise ValueError("only nonnegative integer powers of a polynomial")
        out = PuiseuxPoly.constant(1)
        for _ in range(n):
            out = poly_mul(out, self)
        return out

    def __eq__(self, other):
        if not isinstance(other, PuiseuxPoly):
            return NotImplemented
        return (self.ramification == other.ramification and self._den == other._den
                and self._lat == other._lat)

    def __hash__(self):
        return hash((self.ramification, self._den, frozenset(self._lat.items())))

    def __repr__(self):
        return f"PuiseuxPoly({format_poly(self)!r})"


def _coerce(v) -> PuiseuxPoly:
    if isinstance(v, PuiseuxPoly):
        return v
    return PuiseuxPoly.constant(v)


def _min_trunc(*orders: Optional[Fraction]) -> Optional[Fraction]:
    return min((t for t in orders if t is not None), default=None)


# ---- arithmetic ----
# Every operation computes on the lattices of its inputs: keys (A, b), A = a·n,
# and integer coefficients over one common denominator.


def _limit(trunc: Optional[Fraction], n: int):
    """ceil(trunc·n), the least A + n·b that the truncation order trunc cuts on
    the lattice of ramification n (inf if trunc is None)."""
    return math.inf if trunc is None else -(-trunc.numerator * n // trunc.denominator)


def _aligned(p: PuiseuxPoly, q: PuiseuxPoly):
    """(M, n, lim, lp, lq): the min truncation order M, the lcm n of the
    ramifications, lim = _limit(M, n), and p's and q's lattices rekeyed to n."""
    trunc = _min_trunc(p.truncation_order, q.truncation_order)
    n = math.lcm(p.ramification, q.ramification)
    lp, lq = (r._lat if r.ramification == n
              else {(A * (n // r.ramification), b): C for (A, b), C in r._lat.items()}
              for r in (p, q))
    return trunc, n, _limit(trunc, n), lp, lq


def _with_order(p: PuiseuxPoly, order: Optional[Fraction], sort: bool = False) -> PuiseuxPoly:
    """p's terms below order, declared truncated at order (None: untruncated),
    in p's term order, or sorted by exponent."""
    n, lim = p.ramification, _limit(order, p.ramification)
    items = sorted(p._lat.items()) if sort else p._lat.items()
    return PuiseuxPoly._reduced(n, p._den, {k: C for k, C in items if k[0] + n * k[1] < lim},
                                order)


def _lattice_add(acc: dict, items, scale: int, n: int, lim) -> dict:
    """acc + scale·items below lim; new keys appended, zero sums dropped."""
    for (a, b), c in items:
        if a + n * b < lim:
            acc[(a, b)] = acc[(a, b)] + c * scale if (a, b) in acc else c * scale
    return {k: c for k, c in acc.items() if c}


def _lattice_mul(p: dict, q: dict, n: int, lim) -> dict:
    """p·q below lim; keys in first-occurrence order (p outer), zero sums dropped."""
    acc: dict = {}
    qs = [(a, b, a + n * b, c) for (a, b), c in q.items()]
    for (a1, b1), c1 in p.items():
        for a2, b2, s2, c2 in qs:
            if a1 + n * b1 + s2 < lim:
                key = (a1 + a2, b1 + b2)
                acc[key] = acc[key] + c1 * c2 if key in acc else c1 * c2
    return {k: c for k, c in acc.items() if c}


def poly_add(p: PuiseuxPoly, q: PuiseuxPoly) -> PuiseuxPoly:
    """Sum with exact cancellation; truncation order is the min of the inputs."""
    trunc, n, lim, lp, lq = _aligned(p, q)
    den = math.lcm(p._den, q._den)
    acc = _lattice_add({}, lp.items(), den // p._den, n, lim)
    acc = _lattice_add(acc, lq.items(), den // q._den, n, lim)
    return PuiseuxPoly._reduced(n, den, acc, trunc)


def poly_scale(p: PuiseuxPoly, c) -> PuiseuxPoly:
    c = _as_fraction(c)
    if not c:
        return PuiseuxPoly._reduced(1, 1, {}, p.truncation_order)
    return PuiseuxPoly._reduced(p.ramification, p._den * c.denominator,
                                {k: C * c.numerator for k, C in p._lat.items()}, p.truncation_order)


def poly_mul(p: PuiseuxPoly, q: PuiseuxPoly) -> PuiseuxPoly:
    """Product, discarding terms at or beyond the min input truncation order."""
    trunc, n, lim, lp, lq = _aligned(p, q)
    return PuiseuxPoly._reduced(n, p._den * q._den, _lattice_mul(lp, lq, n, lim), trunc)


def deriv_y(p: PuiseuxPoly, k: int = 1) -> PuiseuxPoly:
    """k-th partial derivative in y (exact; kills terms with b < k)."""
    if k < 0:
        raise ValueError("derivative order must be nonnegative")
    lat = {(A, b - k): C * math.perm(b, k) for (A, b), C in p._lat.items() if b >= k}
    trunc = None if p.truncation_order is None else p.truncation_order - k
    return PuiseuxPoly._reduced(p.ramification, p._den, lat, trunc)


def deriv_x(p: PuiseuxPoly, k: int = 1) -> PuiseuxPoly:
    """k-th partial derivative in x.

    Requires every x-exponent to stay nonnegative along the way (a term x^a
    with fractional 0 < a < k would leave the ring), so this is meant for
    polynomials whose small-exponent structure survives k differentiations;
    terms that reach exponent 0 are killed at the next step like constants.
    """
    n, den, lat = p.ramification, p._den, p._lat
    for _ in range(k):
        low = next((A for A, _b in lat if 0 < A < n), None)
        if low is not None:
            raise ValueError(f"x-derivative would create exponent {Fraction(low - n, n)} < 0")
        # x^0 terms die, and c·a = (C/den)·(A/n)
        lat, den = {(A - n, b): C * A for (A, b), C in lat.items() if A}, den * n
    trunc = None if p.truncation_order is None else p.truncation_order - k
    return PuiseuxPoly._reduced(n, den, lat, trunc)


def subst_y(p: PuiseuxPoly, h: PuiseuxPoly) -> PuiseuxPoly:
    """p(x, h(x, y)) by Horner's rule over the y-coefficients of p: each step
    is poly_mul by h, then poly_add of the next y-coefficient, kept over the
    common denominator den_p·den_h^k after k products."""
    if p.is_zero():
        return PuiseuxPoly._reduced(1, 1, {}, p.truncation_order)
    trunc, n, lim, lp, lh = _aligned(p, h)
    acc, scale = {}, 1
    for b in range(p.y_degree(), -1, -1):
        scale *= h._den
        coeff_b = [((a, 0), c) for (a, bb), c in lp.items() if bb == b]
        acc = _lattice_add(_lattice_mul(acc, lh, n, lim), coeff_b, scale, n, lim)
    return PuiseuxPoly._reduced(n, p._den * scale, acc, trunc)


def subst_shear(p: PuiseuxPoly, sign_y: int, g: PuiseuxPoly) -> PuiseuxPoly:
    """Substitute y -> sign_y * y + g(x); g must be a curve (no y terms).

    The discarded-tail order of the result: if p was truncated at M and g has
    leading exponent m, terms hidden beyond M map to total order at least
    M * min(1, m), which is the truncation order recorded on the result.
    subst_y truncates no lower than that (at the min of M and g's order), and
    no exponent is negative, so every term below it is exact.
    """
    if sign_y not in (1, -1):
        raise ValueError("sign_y must be +1 or -1")
    if any(b != 0 for (_A, b) in g._lat):
        raise ValueError("not a curve substitution: g contains y")
    if any(A <= 0 for (A, _b) in g._lat):
        raise ValueError("not a curve substitution: g has a term with x-exponent <= 0")

    g_ord = Fraction(min((A for (A, _b) in g._lat), default=g.ramification), g.ramification)
    # a hidden term x^a y^b with a + b >= M lands at order >= a + b*min(1, ord g),
    # and a hidden tail of g enters linearly through each y-power
    trunc = _min_trunc(None if p.truncation_order is None
                       else p.truncation_order * min(Fraction(1), g_ord), g.truncation_order)

    out = subst_y(p, poly_add(PuiseuxPoly.monomial(sign_y, 0, 1), g))
    return out if trunc == out.truncation_order else _with_order(out, trunc)


def subst_scale(p: PuiseuxPoly, m) -> PuiseuxPoly:
    """Substitute y -> x^m * y, i.e. move exponents (a, b) -> (a + m*b, b)."""
    m = _as_fraction(m)
    if m <= 0:
        raise ValueError("scaling exponent m must be positive")
    n = math.lcm(p.ramification, m.denominator)
    f, mn = n // p.ramification, m.numerator * (n // m.denominator)
    lim = _limit(p.truncation_order, n)
    lat = {(A * f + mn * b, b): C for (A, b), C in p._lat.items() if A * f + (mn + n) * b < lim}
    return PuiseuxPoly._reduced(n, p._den, lat, p.truncation_order)


def divide_out_x(p: PuiseuxPoly, alpha) -> PuiseuxPoly:
    """Exact division by x^alpha; error if any term has a < alpha."""
    alpha = _as_fraction(alpha)
    n = math.lcm(p.ramification, alpha.denominator)
    f, s = n // p.ramification, alpha.numerator * (n // alpha.denominator)
    lat = {}
    for (A, b), C in p._lat.items():
        if A * f < s:
            raise ValueError(f"term x^{Fraction(A, p.ramification)} y^{b} "
                             f"is not divisible by x^{alpha}")
        lat[(A * f - s, b)] = C
    trunc = None if p.truncation_order is None else p.truncation_order - alpha
    return PuiseuxPoly._reduced(n, p._den, lat, trunc)


def reflect_axes(p: PuiseuxPoly, sx: int, sy: int, swap: bool = False) -> PuiseuxPoly:
    """Substitute (x, y) -> (sx*x, sy*y), optionally swapping the axes first.

    sx = -1 needs integer x-exponents ((-x)^a is undefined otherwise), and a
    swap needs ramification 1 since y-exponents must stay integral.
    """
    if sx not in (1, -1) or sy not in (1, -1):
        raise ValueError("axis signs must be +1 or -1")
    n, lat = p.ramification, p._lat
    if swap:
        if n != 1:
            raise ValueError("axis swap refused: fractional x-exponents present")
        lat = {(b, A): C for (A, b), C in lat.items()}
    elif sx == -1 and n != 1:
        a = next(Fraction(A, n) for A, _b in lat if A % n)
        raise ValueError(f"x -> -x undefined on fractional exponent {a}")
    return PuiseuxPoly._reduced(n, p._den, {(A, b): C * sx ** A * sy ** b
                                            for (A, b), C in lat.items()}, p.truncation_order)


def eval_real(p: PuiseuxPoly, x: float, y: float) -> float:
    """Evaluate at a real point with compensated summation in canonical order.

    x must be nonnegative when fractional exponents are present.
    """
    if x < 0 and p.ramification != 1:
        raise ValueError("x < 0 with fractional ramification")
    # C / den and A / n round as float(c) and float(a) do; A / n is integral if x < 0
    n, den = p.ramification, p._den
    return math.fsum(C / den * float(x) ** (A / n) * float(y) ** b
                     for (A, b), C in sorted(p._lat.items()))


def eval_rational(p: PuiseuxPoly, x: Fraction, y: Fraction) -> Fraction:
    """Exact evaluation at a rational point (x >= 0; x = 0 keeps only a = 0 terms)."""
    x = _as_fraction(x)
    y = _as_fraction(y)
    if x < 0:
        raise ValueError("exact evaluation requires x >= 0")
    if x == 0:
        total = sum(C * y ** b for (A, b), C in p._lat.items() if A == 0)
    elif p.ramification != 1:
        raise ValueError("exact evaluation with fractional exponents needs x to be an exact power; use eval_real")
    else:
        total = sum(C * x ** A * y ** b for (A, b), C in p._lat.items())
    return Fraction(total) / p._den


def format_poly(p: PuiseuxPoly) -> str:
    """Human-readable canonical form, e.g. 'x^2*y - 3/2*x^(1/2)'."""
    if p.is_zero():
        return "0"
    chunks = []
    for (a, b), c in p.items():
        factors = []
        if a != 0:
            factors.append("x" if a == 1 else (f"x^{a}" if a.denominator == 1 else f"x^({a})"))
        if b != 0:
            factors.append("y" if b == 1 else f"y^{b}")
        if not factors:
            factors.append(str(c))
        elif abs(c) != 1:
            factors.insert(0, str(c) if c.denominator == 1 else f"({c})")
        body = "*".join(factors)
        if c < 0 and (factors[0].lstrip("-")[:1] not in "0123456789(" or abs(c) == 1):
            if abs(c) == 1 and (a != 0 or b != 0):
                body = "-" + body
        chunks.append(body)
    out = " + ".join(chunks)
    return out.replace("+ -", "- ")
