"""Exact arithmetic for bivariate phases with fractional x-exponents.

A phase is stored as a finite sum  sum_{(a,b)} c_ab * x^a * y^b  where the
coefficients c_ab are rationals, the y-exponents b are nonnegative integers
and the x-exponents a are nonnegative rationals with a common denominator
(the ramification index).  Only x is allowed to ramify: every coordinate
change used downstream (shears along branch curves, monomial scalings,
reflections) keeps y-exponents integral, and fractional y-powers would not
survive the sector reflections y -> -y.

All operations are pure: they return new polynomials and never mutate.
An optional truncation order M means "terms with a + b >= M were discarded";
operations propagate the tightest sound bound for it.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Dict, Iterable, Optional, Tuple

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
    """Finite sum of terms c * x^a * y^b in canonical (a, b) order.

    terms map (a, b) -> coefficient with no zero coefficients stored.
    ramification is the least positive integer N with N*a integral for
    every stored a; it is recomputed on construction, so products like
    x^(1/2) * x^(1/2) collapse back to ramification 1.
    """

    __slots__ = ("terms", "ramification", "truncation_order")

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
        self.terms = clean
        self.truncation_order = truncation_order
        self.ramification = math.lcm(*[a.denominator for a, _b in clean])

    @classmethod
    def _trusted(cls, terms, truncation_order, ramification: int) -> "PuiseuxPoly":
        """Wrap terms unchecked.  The caller guarantees what __init__ would
        establish: keys (a, b) with a nonnegative Fraction a and int b >= 0,
        nonzero Fraction coefficients, every a + b below truncation_order (a
        Fraction, or None), and ramification the least N with every N·a integral."""
        self = object.__new__(cls)
        self.terms, self.truncation_order, self.ramification = terms, truncation_order, ramification
        return self

    # ---- constructors ----

    @classmethod
    def zero(cls) -> "PuiseuxPoly":
        return cls._trusted({}, None, 1)

    @classmethod
    def constant(cls, c) -> "PuiseuxPoly":
        return cls.monomial(c, 0, 0)

    @classmethod
    def monomial(cls, c, a, b: int) -> "PuiseuxPoly":
        c, a = _as_fraction(c), _as_fraction(a)
        if not isinstance(b, int) or a < 0 or b < 0:
            return cls({(a, b): c})        # __init__ converts or rejects the exponents
        return cls._trusted({(a, b): c} if c else {}, None, a.denominator if c else 1)

    @classmethod
    def from_terms(cls, pairs: Iterable[Tuple] , truncation_order=None) -> "PuiseuxPoly":
        """Build from an iterable of (coeff, a, b) triples."""
        d: Dict[ExpPair, Fraction] = {}
        for c, a, b in pairs:
            key = (_as_fraction(a), int(b))
            d[key] = d.get(key, Fraction(0)) + _as_fraction(c)
        return cls(d, truncation_order)

    # ---- queries ----

    def is_zero(self) -> bool:
        return not self.terms

    def support(self):
        """Exponent pairs in canonical order."""
        return sorted(self.terms.keys())

    def coeff(self, a, b: int) -> Fraction:
        return self.terms.get((_as_fraction(a), b), Fraction(0))

    def items(self):
        """(exponent pair, coefficient) in canonical order."""
        for key in sorted(self.terms.keys()):
            yield key, self.terms[key]

    def y_degree(self) -> int:
        return max((b for (_a, b) in self.terms), default=0)

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
        return self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __repr__(self):
        return f"PuiseuxPoly({format_poly(self)!r})"


def _coerce(v) -> PuiseuxPoly:
    if isinstance(v, PuiseuxPoly):
        return v
    return PuiseuxPoly.constant(v)


def _min_trunc(*orders: Optional[Fraction]) -> Optional[Fraction]:
    return min((t for t in orders if t is not None), default=None)


# ---- arithmetic ----
# poly_add, poly_mul and subst_y key each term c·x^a·y^b by the integers
# (a·n, b), with c an integer over one common denominator.


def _lattices(p: PuiseuxPoly, q: PuiseuxPoly):
    """(M, n, lim, p's _lattice, q's _lattice): the min truncation order M,
    the lcm n of the ramifications, and lim = ceil(M·n), the least a·n + b·n
    that M cuts (inf if M is None)."""
    trunc = _min_trunc(p.truncation_order, q.truncation_order)
    n = math.lcm(p.ramification, q.ramification)
    lim = math.inf if trunc is None else -(-trunc.numerator * n // trunc.denominator)
    return trunc, n, lim, _lattice(p, n), _lattice(q, n)


def _lattice(p: PuiseuxPoly, n: int):
    """({(a·n, b): c·den} in p's term order, den = lcm of the denominators)."""
    den = math.lcm(*[c.denominator for c in p.terms.values()])
    return {(a.numerator * (n // a.denominator), b): c.numerator * (den // c.denominator)
            for (a, b), c in p.terms.items()}, den


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


def _from_lattice(acc: dict, n: int, den: int, trunc: Optional[Fraction]) -> PuiseuxPoly:
    exps = {a: Fraction(a, n) for a in {a for a, _b in acc}}   # one per distinct exponent
    return PuiseuxPoly._trusted({(exps[a], b): Fraction(c, den) for (a, b), c in acc.items()},
                                trunc, n // math.gcd(n, *exps))


def poly_add(p: PuiseuxPoly, q: PuiseuxPoly) -> PuiseuxPoly:
    """Sum with exact cancellation; truncation order is the min of the inputs."""
    trunc, n, lim, (lp, dp), (lq, dq) = _lattices(p, q)
    den = math.lcm(dp, dq)
    acc = _lattice_add({}, lp.items(), den // dp, n, lim)
    acc = _lattice_add(acc, lq.items(), den // dq, n, lim)
    return _from_lattice(acc, n, den, trunc)


def poly_scale(p: PuiseuxPoly, c) -> PuiseuxPoly:
    c = _as_fraction(c)
    if not c:
        return PuiseuxPoly._trusted({}, p.truncation_order, 1)
    return PuiseuxPoly._trusted({k: c * v for k, v in p.terms.items()}, p.truncation_order,
                                p.ramification)


def poly_mul(p: PuiseuxPoly, q: PuiseuxPoly) -> PuiseuxPoly:
    """Product, discarding terms at or beyond the min input truncation order."""
    trunc, n, lim, (lp, dp), (lq, dq) = _lattices(p, q)
    return _from_lattice(_lattice_mul(lp, lq, n, lim), n, dp * dq, trunc)


def deriv_y(p: PuiseuxPoly, k: int = 1) -> PuiseuxPoly:
    """k-th partial derivative in y (exact; kills terms with b < k)."""
    if k < 0:
        raise ValueError("derivative order must be nonnegative")
    terms: Dict[ExpPair, Fraction] = {}
    for (a, b), c in p.terms.items():
        if b < k:
            continue
        fall = 1
        for i in range(k):
            fall *= b - i
        terms[(a, b - k)] = c * fall
    trunc = None if p.truncation_order is None else p.truncation_order - k
    return PuiseuxPoly._trusted(terms, trunc, math.lcm(*[a.denominator for a, _b in terms]))


def deriv_x(p: PuiseuxPoly, k: int = 1) -> PuiseuxPoly:
    """k-th partial derivative in x.

    Requires every x-exponent to stay nonnegative along the way (a term x^a
    with fractional 0 < a < k would leave the ring), so this is meant for
    polynomials whose small-exponent structure survives k differentiations;
    terms that reach exponent 0 are killed at the next step like constants.
    """
    out = p
    for _ in range(k):
        terms: Dict[ExpPair, Fraction] = {}
        for (a, b), c in out.terms.items():
            if a == 0:
                continue
            na = a - 1
            if na < 0:
                raise ValueError(f"x-derivative would create exponent {na} < 0")
            terms[(na, b)] = c * a
        trunc = None if out.truncation_order is None else out.truncation_order - 1
        out = PuiseuxPoly(terms, trunc)
    return out


def subst_y(p: PuiseuxPoly, h: PuiseuxPoly) -> PuiseuxPoly:
    """p(x, h(x, y)) by Horner's rule over the y-coefficients of p: each step
    is poly_mul by h, then poly_add of the next y-coefficient, kept over the
    common denominator den_p·den_h^k after k products."""
    if not p.terms:
        return PuiseuxPoly({}, p.truncation_order)
    trunc, n, lim, (lp, dp), (lh, dh) = _lattices(p, h)
    acc, scale = {}, 1
    for b in range(max(b for _a, b in lp), -1, -1):
        scale *= dh
        coeff_b = [((a, 0), c) for (a, bb), c in lp.items() if bb == b]
        acc = _lattice_add(_lattice_mul(acc, lh, n, lim), coeff_b, scale, n, lim)
    return _from_lattice(acc, n, dp * scale, trunc)


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
    if any(b != 0 for (_a, b) in g.terms):
        raise ValueError("not a curve substitution: g contains y")
    if any(a <= 0 for (a, _b) in g.terms):
        raise ValueError("not a curve substitution: g has a term with x-exponent <= 0")

    g_ord = min((a for (a, _b) in g.terms), default=Fraction(1))
    # a hidden term x^a y^b with a + b >= M lands at order >= a + b*min(1, ord g),
    # and a hidden tail of g enters linearly through each y-power
    trunc = _min_trunc(None if p.truncation_order is None
                       else p.truncation_order * min(Fraction(1), g_ord), g.truncation_order)

    shear = PuiseuxPoly({(Fraction(0), 1): sign_y, **g.terms}, g.truncation_order)
    out = subst_y(p, shear)
    if trunc == out.truncation_order:
        return out
    terms = {k: c for k, c in out.terms.items() if k[0] + k[1] < trunc}
    return PuiseuxPoly._trusted(terms, trunc, math.lcm(*[a.denominator for a, _b in terms]))


def subst_scale(p: PuiseuxPoly, m) -> PuiseuxPoly:
    """Substitute y -> x^m * y, i.e. move exponents (a, b) -> (a + m*b, b)."""
    m = _as_fraction(m)
    if m <= 0:
        raise ValueError("scaling exponent m must be positive")
    terms = {(a + m * b, b): c for (a, b), c in p.terms.items()}
    return PuiseuxPoly(terms, p.truncation_order)


def divide_out_x(p: PuiseuxPoly, alpha) -> PuiseuxPoly:
    """Exact division by x^alpha; error if any term has a < alpha."""
    alpha = _as_fraction(alpha)
    terms = {}
    for (a, b), c in p.terms.items():
        if a < alpha:
            raise ValueError(f"term x^{a} y^{b} is not divisible by x^{alpha}")
        terms[(a - alpha, b)] = c
    trunc = None if p.truncation_order is None else p.truncation_order - alpha
    return PuiseuxPoly(terms, trunc)


def reflect_axes(p: PuiseuxPoly, sx: int, sy: int, swap: bool = False) -> PuiseuxPoly:
    """Substitute (x, y) -> (sx*x, sy*y), optionally swapping the axes first.

    sx = -1 needs integer x-exponents ((-x)^a is undefined otherwise), and a
    swap needs ramification 1 since y-exponents must stay integral.
    """
    if sx not in (1, -1) or sy not in (1, -1):
        raise ValueError("axis signs must be +1 or -1")
    terms: Dict[ExpPair, Fraction] = {}
    src = p.terms
    if swap:
        if p.ramification != 1:
            raise ValueError("axis swap refused: fractional x-exponents present")
        src = {(Fraction(b), int(a)): c for (a, b), c in p.terms.items()}
    for (a, b), c in src.items():
        if sx == -1 and a.denominator != 1:
            raise ValueError(f"x -> -x undefined on fractional exponent {a}")
        sign = Fraction(1)
        if sx == -1 and int(a) % 2 == 1:
            sign = -sign
        if sy == -1 and b % 2 == 1:
            sign = -sign
        terms[(a, b)] = sign * c
    return PuiseuxPoly(terms, p.truncation_order)


def eval_real(p: PuiseuxPoly, x: float, y: float) -> float:
    """Evaluate at a real point with compensated summation in canonical order.

    x must be nonnegative when fractional exponents are present.
    """
    if x < 0 and p.ramification != 1:
        raise ValueError("x < 0 with fractional ramification")
    parts = []
    for (a, b), c in p.items():
        if x < 0:
            xa = float(x) ** int(a)
        else:
            xa = float(x) ** float(a)
        parts.append(float(c) * xa * float(y) ** b)
    return math.fsum(parts)


def eval_rational(p: PuiseuxPoly, x: Fraction, y: Fraction) -> Fraction:
    """Exact evaluation at a rational point (x >= 0; x = 0 keeps only a = 0 terms)."""
    x = _as_fraction(x)
    y = _as_fraction(y)
    if x < 0:
        raise ValueError("exact evaluation requires x >= 0")
    total = Fraction(0)
    for (a, b), c in p.terms.items():
        if x == 0:
            if a == 0:
                total += c * y ** b
            continue
        if a.denominator != 1:
            raise ValueError("exact evaluation with fractional exponents needs x to be an exact power; use eval_real")
        total += c * x ** int(a) * y ** b
    return total


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
