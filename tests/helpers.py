"""Shared test utilities: terse phase constructors, catalog data, the
Fraction reference of the Newton polygon's hull, the Fraction reference of
the chart proof's arithmetic, the linear search of the vertex cut, the
boolean-mask reference of the Monte Carlo block kernel, the Fraction
references of the exceptional-strength discriminant and the generic polygon,
the AST reference of the phase parser, and the whole-line root filter and
the Fraction vdc_check that the windowed, integer van der Corput path
replaced."""

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate
from typing import List, Tuple, Union

import numpy as np

from newton_sublevel import CompactEdge, PuiseuxPoly, parse_expression
from newton_sublevel.cli import ParseError, _Token, _tokenize
from newton_sublevel.exact_poly import poly_add, poly_mul, poly_scale
from newton_sublevel.measure_lab import Disk, SectorProduct, _curve_terms, vdc_sublevel_bound
from newton_sublevel.newton import NewtonPolygon, newton_polygon_of
from newton_sublevel.resolve import PROOF_SLACK, Chart, _headroom
from newton_sublevel.roots import (coeffs_of, count_roots_halfopen, derivative,
                                   isolate_real_roots, poly_value, refine_root)


def phase(*terms):
    """phase((c, a, b), ...) -> PuiseuxPoly sum of c * x^a * y^b."""
    return PuiseuxPoly.from_terms(terms)


def _fraction_hull(p: PuiseuxPoly) -> NewtonPolygon:
    """The reference of newton_polygon_of: the staircase sweep and convex chain
    over the Fraction points (a, b) of p.terms."""
    pts = sorted((a, Fraction(b)) for (a, b) in p.terms)
    frontier = []
    for a, b in pts:
        if not frontier or frontier[-1][1] > b:
            frontier.append((a, b))
    chain = []
    for q in frontier:
        while len(chain) >= 2:
            (a1, b1), (a2, b2) = chain[-2], chain[-1]
            if (a2 - a1) * (q[1] - b1) - (b2 - b1) * (q[0] - a1) > 0:
                break
            chain.pop()
        chain.append(q)
    edges = []
    for (a1, b1), (a2, b2) in zip(chain, chain[1:]):
        m = (a2 - a1) / (b1 - b2)
        edges.append(CompactEdge(lo=(a1, b1), hi=(a2, b2), m=m, alpha=a1 + m * b1))
    return NewtonPolygon(vertices=tuple(chain), edges=tuple(edges))


# The one catalog: (name, CLI expression, growth index (j, p), morse_hyperbolic).
# The first six are the phase catalog; the last two are the extra resolution
# stress phases.
PHASES = [
    ("x^2+y^2", "x^2 + y^2", Fraction(1), 0, False),
    ("x*y", "x*y", Fraction(1), 1, True),
    ("x^2-y^2", "x^2 - y^2", Fraction(1), 1, True),
    ("(y-x^2)^2", "(y - x^2)^2", Fraction(1, 2), 0, False),
    ("x^2y^2+x^5", "x^2*y^2 + x^5", Fraction(1, 2), 1, False),
    ("y^2-x^3", "y^2 - x^3", Fraction(5, 6), 0, False),
    ("(y-x^2-x^3)^2-x^9", "(y - x^2 - x^3)^2 - x^9", Fraction(11, 18), 0, False),
    ("y^2-2x^2y+x^4-x^7", "y^2 - 2*x^2*y + x^4 - x^7", Fraction(9, 14), 0, False),
]

# (name, phase, j, p, morse_hyperbolic)
CATALOG = [(name, parse_expression(expr).poly, j, p, mh)
           for name, expr, j, p, mh in PHASES[:6]]
# (name, phase)
RESOLVE_EXTRAS = [(name, parse_expression(expr).poly) for name, expr, *_ in PHASES[6:]]


# ---------------------------------------------------------------------------
# The chart proof's arithmetic in exact Fraction: the reference that the
# integer proof of resolve.py must match, with the same ok(X) at every trial
# radius, the same wall bounds and the same Bernstein lower bound.


@lru_cache(maxsize=1024)
def _pow_up(X: Fraction, e: Fraction) -> Fraction:
    """A rational >= X^e (X, e >= 0): X^e itself for an integer e, else the integer
    d-th root of X^n (e = n/d) by Newton's iteration, rounded up at 2^-64 relative."""
    n, d = e.numerator, e.denominator
    v = X ** n
    if d == 1 or v == 0:
        return v
    big = v.numerator * v.denominator ** (d - 1) << 64 * d
    r = 1 << -(-big.bit_length() // d)
    while (q := ((d - 1) * r + big // r ** (d - 1)) // d) < r:
        r = q
    return Fraction(r + (r ** d < big), v.denominator << 64)


def _wall(w: PuiseuxPoly, X: Fraction) -> Tuple[Fraction, Fraction, Fraction]:
    """(d0 - r, d0 + r, s), between which w(x)/x^s lies on (0, X], for the wall
    w = d0·x^s + sum d_j·x^s_j and r = sum |d_j|·X^(s_j - s); the zero wall gives zeros."""
    terms = sorted((a, d) for (a, _b), d in w.items()) or [(Fraction(0), Fraction(0))]
    (s, d0), rest = terms[0], terms[1:]
    r = sum(abs(d) * _pow_up(X, a - s) for a, d in rest)
    return d0 - r, d0 + r, s


def _halves(b: List[Fraction]) -> Tuple[List[Fraction], List[Fraction]]:
    """Bernstein coefficients of the two halves of the interval (de Casteljau)."""
    left, right = [], []
    while b:
        left.append(b[0])
        right.append(b[-1])
        b = [(u + v) / 2 for u, v in zip(b, b[1:])]
    return left, right[::-1]


def _lower_bound(cs: List[Fraction], top: Fraction, delta: Fraction) -> Fraction:
    """A lower bound on the minimum of sum cs[i]·u^i over [0, top], within delta/16
    of it: on each piece the polynomial lies above its least Bernstein coefficient
    and its end coefficients are values, so a piece whose bound is further than
    that below the least value found is halved, down to width top·2^-64."""
    n = len(cs) - 1
    a = [c * top ** i / math.comb(n, i) for i, c in enumerate(cs)]
    pieces = [[sum(math.comb(k, i) * a[i] for i in range(k + 1)) for k in range(n + 1)]]
    for _ in range(64):
        cut = min(min(b[0], b[-1]) for b in pieces)
        cut -= delta / 16 * abs(cut)
        if min(min(b) for b in pieces) >= cut:
            break
        pieces = [h for b in pieces for h in (_halves(b) if min(b) < cut else (b,))]
    return min(min(b) for b in pieces)


def _split(phase: PuiseuxPoly, b0: Fraction, alpha: Fraction, s: Fraction):
    """phase/(b0·x^alpha) in u = y/x^s as E(u) + sum x^w·u^j·c: the dense
    coefficients of its weight-0 part E, and sum |c| per (w, j) of the rest."""
    e, rest = [Fraction(0)] * (phase.y_degree() + 1), {}
    for (a, j), cf in phase.items():
        w = a + s * j - alpha
        if w:
            rest[w, j] = rest.get((w, j), 0) + abs(cf / b0)
        else:
            e[j] += cf / b0
    return e, rest


def _obligation(c: Chart, phase: PuiseuxPoly):
    """ok(X): whether on 0 < x <= X the walls of c are apart and phase is comparable
    to c's model, exactly, with slack delta·PROOF_SLACK; ok(0) is the limit x -> 0.

    Mode C: sum over the other terms of |c/b|·_headroom·sup x^(a-alpha)·y^(b-beta)
    <= slack bounds the ratio, its sign and every gated derivative at once; the
    sup is on the upper wall for b >= beta, on the lower wall for b < beta.
    Mode B: on u = y/x^s in [0, top] (the upper wall), with E and the rest from
    _split and A(u) = sum |c|·X^w·u^j over the rest, E - A >= band_lo·(1 - slack)
    and E + A <= band_hi·(1 + slack), pointwise in u."""
    b0, alpha, beta = c.monomial
    slack = c.delta * PROOF_SLACK
    s = _wall(c.upper, Fraction(0))[2]
    if c.mode == "B":
        e, rest = _split(phase, b0, alpha, s)
        gates = (c.band[0] * (1 - slack), -c.band[1] * (1 + slack))

        def ok(X):
            low, top, _ = _wall(c.upper, X)
            a = [sum(k * _pow_up(X, w) for (w, i), k in rest.items() if i == j)
                 for j in range(len(e))]
            return low > 0 and all(_lower_bound([sg * u - v for u, v in zip(e, a)], top,
                                                c.delta) >= gate
                                   for sg, gate in zip((1, -1), gates))
        return ok if all(w > 0 for w, _ in rest) else lambda X: False

    sl, gap = _wall(c.lower, Fraction(0))[2], c.upper - c.lower
    terms = sorted(((abs(cf / b0) * _headroom(a, b, (alpha, beta)), b - beta,
                     a - alpha + (s if b >= beta else sl) * (b - beta), b >= beta)
                    for (a, b), cf in phase.items() if (a, b) != (alpha, beta)),
                   key=lambda t: t[2])   # lowest x exponent, largest share, first

    def ok(X):
        wall = {True: _wall(c.upper, X)[1], False: _wall(c.lower, X)[0]}
        return (_wall(gap, X)[0] > 0 and all(wall[up] > 0 for *_, up in terms)
                and all(t <= slack for t in accumulate(k * wall[up] ** d * _pow_up(X, e)
                                                       for k, d, e, up in terms)))
    return ok if all(e >= 0 for _, _, e, _ in terms) else lambda X: False


# ---------------------------------------------------------------------------
# The vertex cut as a linear dyadic search, capped at 512 steps: the reference
# that resolve.py's one _radius search must match wherever it returns.


def _vertex_cut(q: PuiseuxPoly, edge: CompactEdge, delta: Fraction, start: Fraction,
                upper: bool) -> Fraction:
    """The first c in start·step^k (step 2 at the upper vertex, 1/2 at the
    lower) with the other edge terms summing under (delta/4F)·|s_v| at
    y = c·x^m, where s_v is the vertex term and F its order headroom; q is
    the edge polynomial, the edge's terms at x = 1."""
    av, bv = edge.upper_vertex if upper else edge.lower_vertex
    bv = int(bv)
    others = [(b, abs(cf)) for (_a, b), cf in q.terms.items() if b != bv]
    headroom = max((_headroom(edge.alpha - edge.m * b, b, (av, bv)) for b, _ in others),
                   default=1)
    target = delta * abs(q.coeff(0, bv)) / (4 * headroom)
    # on integers: c = cn/cd and |cf| = k/f, both sides times f·cd^up·cn^down
    f = math.lcm(*[cf.denominator for _, cf in others])
    ks = [(cf.numerator * (f // cf.denominator), b - bv) for b, cf in others]
    up = max([0, *(j for _, j in ks)])
    down = max([0, *(-j for _, j in ks)])
    cn, cd = start.numerator, start.denominator
    for _ in range(512):
        total = sum(k * cn ** (j + down) * cd ** (up - j) for k, j in ks)
        if total * target.denominator <= target.numerator * f * cd ** up * cn ** down:
            return Fraction(cn, cd)
        if upper:
            cn <<= 1
        else:
            cd <<= 1
    raise RuntimeError(f"{'upper' if upper else 'lower'} cut did not stabilize "
                       "(degenerate edge data)")


# ---------------------------------------------------------------------------
# The Monte Carlo block kernel as it was before it selected inside points by
# index: the reference that measure_lab's kernel must match, with the same
# (k_in, counts) for every block.  The region test and the curve and phase
# evaluation are its own copies, so GRID-shaped calls can be compared too.


def _eval_curve(terms, X):
    out = np.zeros_like(X)
    for c, a in terms:
        out += c * X ** a
    return out


def _member_mask(region, X, Y):
    if isinstance(region, Disk):
        return X * X + Y * Y < region.radius ** 2
    if isinstance(region, SectorProduct):
        return (X > 0.0) & (X < region.x_side) & (Y > 0.0) & (Y < region.y_side)
    lo_t, up_t = _curve_terms(region.lower), _curve_terms(region.upper)
    ok = (X > 0.0) & (X < region.x_max)
    # points off 0 < x < x_max see the walls at x = 1: a fractional or negative
    # power of x <= 0 is nan or inf
    Xs = np.where(ok, X, 1.0)
    return ok & (Y > _eval_curve(lo_t, Xs)) & (Y < _eval_curve(up_t, Xs))


def _eval_phase(terms, X, Y):
    """S at the points of X and Y broadcast together.  Given an (n, 1) column
    and a (1, m) row, the powers are taken per axis and only the products
    fill the (n, m) grid; each element sees the same operations either way."""
    out = np.zeros(np.broadcast_shapes(X.shape, Y.shape))
    for c, a, b in terms:
        out += c * X ** a * Y ** b
    return out


def _mc_block(args):
    terms, region, box, eps, seed, block, count = args
    rng = np.random.Generator(np.random.PCG64(seed).jumped(block + 1))
    x0, x1, y0, y1 = box
    X = x0 + (x1 - x0) * rng.random(count)
    Y = y0 + (y1 - y0) * rng.random(count)
    inside = _member_mask(region, X, Y)
    k_in = int(np.count_nonzero(inside))
    if k_in == 0:
        return 0, [0] * len(eps)
    A = np.abs(_eval_phase(terms, X[inside], Y[inside]))
    return k_in, [int(np.count_nonzero(A < e)) for e in eps]


# ---------------------------------------------------------------------------
# The exceptional-strength discriminant as Fraction determinants at 2n integer
# points, interpolated, and the generic polygon as that of S + tau*f for the
# first tau = k/7919 that cancels no coefficient: the references that
# stability.py's Bareiss determinant over Z[t] and its union-support polygon
# must match.


def _det_fraction(rows: List[List[Fraction]]) -> Fraction:
    n = len(rows)
    m = [row[:] for row in rows]
    det = Fraction(1)
    for col in range(n):
        piv = next((r for r in range(col, n) if m[r][col] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != col:
            m[col], m[piv] = m[piv], m[col]
            det = -det
        det *= m[col][col]
        inv = 1 / m[col][col]
        for r in range(col + 1, n):
            if m[r][col] != 0:
                factor = m[r][col] * inv
                m[r] = [m[r][c] - factor * m[col][c] for c in range(n)]
    return det


def _sylvester_det_at(coeffs: List[Tuple[Fraction, Fraction]], t: Fraction) -> Fraction:
    """det Syl(q, q') for q(y) = sum (A_k + B_k t) y^k at a concrete t."""
    q = [A + B * t for A, B in coeffs]
    n = len(q) - 1
    dq = [q[i] * i for i in range(1, len(q))]
    size = 2 * n - 1
    rows = []
    qd = list(reversed(q))           # degree-descending
    dqd = list(reversed(dq))
    for i in range(n - 1):
        rows.append([Fraction(0)] * i + qd + [Fraction(0)] * (size - i - len(qd)))
    for i in range(n):
        rows.append([Fraction(0)] * i + dqd + [Fraction(0)] * (size - i - len(dqd)))
    return _det_fraction(rows)


def _mul_linear(poly: List[Fraction], root: Fraction) -> List[Fraction]:
    """poly(t) * (t - root), ascending coefficients."""
    out = [Fraction(0)] * (len(poly) + 1)
    for i, c in enumerate(poly):
        out[i + 1] += c
        out[i] -= root * c
    return out


def _poly_through(pts: List[Tuple[Fraction, Fraction]]) -> List[Fraction]:
    """Exact interpolating polynomial, ascending coefficients, trailing-trimmed
    (Newton divided differences)."""
    n = len(pts)
    xs = [p[0] for p in pts]
    table = [[p[1] for p in pts]]
    for lvl in range(1, n):
        prev = table[-1]
        table.append([(prev[i + 1] - prev[i]) / (xs[i + lvl] - xs[i])
                      for i in range(n - lvl)])
    coeffs = [Fraction(0)] * n
    basis = [Fraction(1)]
    for lvl in range(n):
        c = table[lvl][0]
        for k, bc in enumerate(basis):
            coeffs[k] += c * bc
        basis = _mul_linear(basis, xs[lvl])
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return coeffs


def _interpolated_disc(coeffs: List[Tuple[Fraction, Fraction]]) -> List[Fraction]:
    """det Syl(q, q') in t through its values at the 2n integers -n..n-1
    (its degree is at most 2n - 1); [] when it vanishes identically."""
    n = len(coeffs) - 1
    return _poly_through([(Fraction(t), _sylvester_det_at(coeffs, Fraction(t)))
                          for t in range(-n, n)])


def _generic_polygon(S: PuiseuxPoly, f: PuiseuxPoly) -> NewtonPolygon:
    """Polygon of S + tau*f for the first tau = k/7919 avoiding every coefficient
    cancellation."""
    support = set(S.terms) | set(f.terms)
    k = 1
    while True:
        tau = Fraction(k, 7919)
        if all(S.coeff(a, int(b)) + tau * f.coeff(a, int(b)) != 0
               for (a, b) in support):
            return newton_polygon_of(poly_add(S, poly_scale(f, tau)))
        k += 1


# ---------------------------------------------------------------------------
# The phase parser as it was before it read in one pass: an AST of five node
# classes, expanded by _expand and printed by print_expression.  It is the
# reference that cli's fused parser must match, on cli's tokenizer, with the
# same lattice in the same order, the same errors and the same canonical text.


@dataclass(frozen=True)
class Lit:
    value: Fraction


@dataclass(frozen=True)
class Var:
    name: str  # "x" | "y"


@dataclass(frozen=True)
class Pow:
    base: "Node"
    exp: Fraction


@dataclass(frozen=True)
class Prod:
    factors: Tuple["Node", ...]


@dataclass(frozen=True)
class Sum:
    signs: Tuple[int, ...]
    terms: Tuple["Node", ...]


Node = Union[Lit, Var, Pow, Prod, Sum]


class _Parser:
    def __init__(self, toks: List[_Token]):
        self.toks = toks
        self.i = 0

    def peek(self) -> _Token:
        return self.toks[self.i]

    def advance(self) -> _Token:
        t = self.toks[self.i]
        self.i += 1
        return t

    def expect_op(self, ch: str) -> _Token:
        t = self.peek()
        if t.kind == "OP" and t.text == ch:
            return self.advance()
        raise ParseError(f"expected {ch!r}, found {t.text or 'end of input'!r}",
                         t.line, t.col)

    # expr := ('+'|'-')? term (('+'|'-') term)*
    def expr(self) -> Node:
        signs: List[int] = []
        terms: List[Node] = []
        t = self.peek()
        if t.kind == "OP" and t.text in "+-":
            self.advance()
            signs.append(1 if t.text == "+" else -1)
        else:
            signs.append(1)
        terms.append(self.term())
        while True:
            t = self.peek()
            if t.kind == "OP" and t.text in "+-":
                self.advance()
                signs.append(1 if t.text == "+" else -1)
                terms.append(self.term())
            else:
                break
        if len(terms) == 1 and signs[0] == 1:
            return terms[0]
        return Sum(tuple(signs), tuple(terms))

    # term := factor ('*'? factor)*  -- adjacency multiplies
    def term(self) -> Node:
        factors = [self.factor()]
        while True:
            t = self.peek()
            if t.kind == "OP" and t.text == "*":
                self.advance()
                factors.append(self.factor())
            elif t.kind in ("NAME", "INT") or (t.kind == "OP" and t.text == "("):
                factors.append(self.factor())
            else:
                break
        if len(factors) == 1:
            return factors[0]
        return Prod(tuple(factors))

    # factor := base ('^' exponent)?  -- the exponent must suit the base
    def factor(self) -> Node:
        b = self.base()
        t = self.peek()
        if not (t.kind == "OP" and t.text == "^"):
            return b
        self.advance()
        e = self.exponent()
        neg, frac = e < 0, e.denominator != 1
        if b == Var("x"):
            bad = neg and "negative x-power"
        elif b == Var("y"):
            bad = (neg or frac) and "negative or fractional y-power"
        elif isinstance(b, Lit):
            bad = (frac and "fractional power of a rational literal"
                   or neg and b.value == 0 and "zero raised to a negative power")
        else:
            bad = (neg or frac) and "compound bases take nonnegative integer powers only"
        if bad:
            raise ParseError(bad, t.line, t.col)
        return Pow(b, e)

    def base(self) -> Node:
        t = self.peek()
        if t.kind == "NAME":
            self.advance()
            return Var(t.text)
        if t.kind == "INT":
            return Lit(self.rational())
        if t.kind == "OP" and t.text == "(":
            self.advance()
            inner = self.expr()
            self.expect_op(")")
            return inner
        raise ParseError(
            f"expected 'x', 'y', a rational, or '(', found {t.text or 'end of input'!r}",
            t.line, t.col)

    def rational(self, slash: bool = True) -> Fraction:
        """INT ('/' INT)?, or INT alone when slash is False."""
        t = self.peek()
        if t.kind != "INT":
            raise ParseError(f"expected an integer, found {t.text or 'end of input'!r}",
                             t.line, t.col)
        self.advance()
        num = int(t.text)
        nxt = self.peek()
        if slash and nxt.kind == "OP" and nxt.text == "/":
            self.advance()
            d = self.peek()
            if d.kind != "INT":
                raise ParseError(
                    f"expected a denominator, found {d.text or 'end of input'!r}",
                    d.line, d.col)
            self.advance()
            if int(d.text) == 0:
                raise ParseError("zero denominator", d.line, d.col)
            return Fraction(num, int(d.text))
        return Fraction(num)

    # exponent := '-'? INT | '(' '-'? rational ')'  -- a '/' after a bare
    # exponent is not part of it, so x^3/2 is an error, never x^(3/2)
    def exponent(self) -> Fraction:
        t = self.peek()
        parens = t.kind == "OP" and t.text == "("
        if parens:
            self.advance()
            t = self.peek()
        sign = 1
        if t.kind == "OP" and t.text == "-":
            self.advance()
            sign = -1
        q = sign * self.rational(slash=parens)
        if parens:
            self.expect_op(")")
        return q


def _needs_parens_in_prod(n: Node) -> bool:
    return isinstance(n, Sum)


def _needs_parens_in_pow(n: Node) -> bool:
    return isinstance(n, (Sum, Prod)) or (isinstance(n, Lit) and n.value.denominator != 1)


def print_expression(node: Node) -> str:
    """Canonical text form; reparsing it reproduces the same AST."""
    if isinstance(node, Lit):
        return str(node.value)
    if isinstance(node, Var):
        return node.name
    if isinstance(node, Pow):
        b = print_expression(node.base)
        if _needs_parens_in_pow(node.base):
            b = f"({b})"
        e = node.exp
        etxt = str(e) if e.denominator == 1 and e >= 0 else f"({e})"
        return f"{b}^{etxt}"
    if isinstance(node, Prod):
        parts = []
        for f in node.factors:
            s = print_expression(f)
            parts.append(f"({s})" if _needs_parens_in_prod(f) else s)
        return "*".join(parts)
    if isinstance(node, Sum):
        parts = []
        for k, (sg, t) in enumerate(zip(node.signs, node.terms)):
            s = print_expression(t)
            if isinstance(t, Sum):
                s = f"({s})"
            if k == 0:
                parts.append(s if sg == 1 else f"-{s}")
            else:
                parts.append(f" + {s}" if sg == 1 else f" - {s}")
        return "".join(parts)
    raise TypeError(f"not an expression node: {node!r}")


def _expand(node: Node) -> PuiseuxPoly:
    if isinstance(node, Lit):
        return PuiseuxPoly.constant(node.value)
    if isinstance(node, Var):
        if node.name == "x":
            return PuiseuxPoly.monomial(1, Fraction(1), 0)
        return PuiseuxPoly.monomial(1, Fraction(0), 1)
    if isinstance(node, Pow):
        # _Parser.factor has checked the exponent against the base
        e = node.exp
        if node.base == Var("x"):
            return PuiseuxPoly.monomial(1, e, 0)
        if node.base == Var("y"):
            return PuiseuxPoly.monomial(1, Fraction(0), int(e))
        if isinstance(node.base, Lit):
            return PuiseuxPoly.constant(node.base.value ** int(e))
        return _expand(node.base) ** int(e)
    if isinstance(node, Prod):
        out = PuiseuxPoly.constant(1)
        for f in node.factors:
            out = poly_mul(out, _expand(f))
        return out
    if isinstance(node, Sum):
        out = PuiseuxPoly.zero()
        for sg, t in zip(node.signs, node.terms):
            out = poly_add(out, poly_scale(_expand(t), sg))
        return out
    raise TypeError(f"not an expression node: {node!r}")


def ref_parse(text: str) -> Tuple[Node, PuiseuxPoly]:
    """The AST of text and its expansion, or the ParseError of the reference."""
    toks = _tokenize(text)
    if toks[0].kind == "END":
        raise ParseError("empty expression", toks[0].line, toks[0].col)
    p = _Parser(toks)
    ast = p.expr()
    t = p.peek()
    if t.kind != "END":
        raise ParseError(f"trailing input starting at {t.text!r}", t.line, t.col)
    return ast, _expand(ast)


# ---------------------------------------------------------------------------
# the van der Corput path on Fractions, isolating every real root: the
# reference of roots._roots_in_window and of the integer vdc_check


def ref_roots_in_interval(cs, lo: Fraction, hi: Fraction, width: Fraction) -> List[Fraction]:
    """Refined positions of the real roots of cs inside [lo, hi]."""
    cs = tuple(cs)
    if len(cs) <= 1:
        return []
    out = []
    for r in isolate_real_roots(cs, domain="all"):
        if r.hi < lo or r.lo >= hi:
            continue  # the refined midpoint would lie outside [lo, hi] too
        if r.exact_value is None:
            r = refine_root(r, width)
        pos = r.midpoint()
        if lo <= pos <= hi:
            out.append(pos)
    return out


def _ref_sublevel_length(cs, lo: Fraction, hi: Fraction, eps_q: Fraction) -> Fraction:
    cuts = {lo, hi}
    for sign in (eps_q, -eps_q):
        shifted = (cs[0] + sign,) + cs[1:] if cs else (sign,)
        cuts.update(ref_roots_in_interval(shifted, lo, hi, Fraction(1, 2 ** 60)))
    pts = sorted(cuts)
    measured = Fraction(0)
    for t0, t1 in zip(pts, pts[1:]):
        if abs(poly_value(cs, (t0 + t1) / 2)) < eps_q:
            measured += t1 - t0
    return measured


def ref_vdc_check(f, interval, k: int, c, epsilon):
    """vdc_check on Fraction polynomials, for integer k and finite values."""
    cs = tuple(coeffs_of(f))
    lo, hi = Fraction(interval[0]), Fraction(interval[1])
    if not lo < hi:
        raise ValueError("empty interval")
    k = int(k)
    c_q, eps_q = Fraction(c), Fraction(epsilon)
    if k <= 0 or c_q <= 0 or eps_q <= 0:
        raise ValueError("k, c, epsilon must be positive")

    dk = cs
    for _ in range(k):
        dk = derivative(dk)
    gate = c_q * math.factorial(k)
    mid = (lo + hi) / 2
    hyp_ok = bool(dk) and abs(poly_value(dk, mid)) >= gate
    if hyp_ok:
        for sign in (Fraction(1), Fraction(-1)):
            shifted = (dk[0] + sign * gate,) + tuple(dk[1:])
            if all(cc == 0 for cc in shifted):
                continue
            if poly_value(shifted, lo) == 0 or poly_value(shifted, hi) == 0:
                hyp_ok = False
                break
            if len(shifted) > 1 and count_roots_halfopen(shifted, lo, hi) > 0:
                hyp_ok = False
                break
    if not hyp_ok:
        raise ValueError(
            f"derivative hypothesis violated: |f^({k})| >= c*{k}! fails on the interval")

    measured = _ref_sublevel_length(cs, lo, hi, eps_q)
    bound = vdc_sublevel_bound(k, c_q, eps_q, hi - lo)
    measured_f = float(measured)
    return {"measured": measured_f, "bound": bound, "ok": measured_f <= bound}
