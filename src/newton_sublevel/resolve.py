"""Resolution of a phase into monomial-comparable curved-triangle charts.

The engine tiles the sector {0 < x < r, 0 < y < c·x^eta} with charts
(x, y) -> (sign_x·x, sign_y·y - g(x)) on whose curved-triangle domains the
phase is comparable to a single monomial b·x^alpha·y^beta ("corner" charts,
mode C, with derivative bounds) or to b·x^alpha within a ratio band ("band"
charts, mode B, no y factor), each on a radius proved in exact arithmetic.

The recursion works level by level down the Newton polygon.  At each level
(a compact edge of reciprocal slope m) the positive real roots r of the
edge polynomial S_e(1, y) mark branches y ~ r x^m along which the phase
degenerates; a strip around each branch curve is shifted by the curve and
resolved recursively, with the root order strictly decreasing.  Between
strips the edge polynomial is bounded away from zero, giving band charts;
above and below the strip stack, a vertex monomial dominates, giving corner
charts.  Strip boundaries are taken parallel to the branch curve so each
recursive sector again has a monomial roof.

Only x is ever ramified: branch curves may carry fractional powers of x,
but y stays polynomial, and the chart maps all have Jacobian ±1.

The engine is exact.  numpy serves only the float oracle verify_chart, and is
imported inside the functions that use it, so resolving never loads it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import lru_cache
from itertools import repeat
from typing import Dict, List, Optional, Tuple

from .adapt import _require_critical
from .exact_poly import (
    PuiseuxPoly,
    Rational,
    _min_trunc,
    _with_order,
    deriv_y,
    divide_out_x,
    eval_rational,
    eval_real,
    poly_mul,
    poly_scale,
    subst_scale,
    subst_shear,
    subst_y,
)
from .newton import CompactEdge, edge_polynomial, newton_polygon_of
from .roots import IsolatedRoot, isolate_real_roots

# ---------------------------------------------------------------------------
# parameters and result types

MAX_DEPTH = 16            # recursion levels; each strictly lowers the root order
TRUNCATION_ORDER = 40     # total order to which branch curves are lifted
PROOF_SLACK = 1 - Fraction(1, 2**20)  # a proof uses delta·PROOF_SLACK, room for float checks

_IRRATIONAL_ROOT = "irrational edge root: outside the model (needs an algebraic shear)"


@dataclass(frozen=True)
class ResolveParams:
    """The settings of a resolution; construction rejects any value outside
    the model with a ValueError naming the field.  Each chart's radius is
    proved (see resolve), not sampled."""

    eta: Optional[Fraction] = None      # sector roof exponent > 0; default min(1/2, m_min/2)
    xi: Fraction = Fraction(1, 8)       # strip half-width cap > 0
    delta: Fraction = Fraction(1, 4)    # comparability slack in (0, 1)
    x_max: Fraction = Fraction(1, 4)    # initial chart radius cap > 0

    def __post_init__(self):
        if self.eta is not None and not self.eta > 0:
            raise ValueError(f"sector roof exponent eta must be positive, got {self.eta}")
        if not self.xi > 0:
            raise ValueError(f"strip half-width xi must be positive, got {self.xi}")
        # comparability 1 - delta <= |S / model| <= 1 + delta needs delta < 1
        if not 0 < self.delta < 1:
            raise ValueError(f"delta must lie in (0, 1), got {self.delta}")
        if not self.x_max > 0:
            raise ValueError(f"chart radius x_max must be positive, got {self.x_max}")


@dataclass(frozen=True)
class Chart:
    """One curved-triangle piece: lower(x) < y < upper(x), 0 < x < x_max.

    Domain coordinates relate to the resolved phase's frame by
    (x, y) |-> (sign_x·x, sign_y·(y + g(x))); equivalently the chart map
    phi(X, Y) = (sign_x·X, sign_y·Y - g(X)) sends frame points into the
    chart, with Jacobian determinant ±1.
    """

    sign_x: int
    sign_y: int
    g: PuiseuxPoly
    lower: PuiseuxPoly
    upper: PuiseuxPoly
    monomial: Tuple[Fraction, Fraction, int]  # (b, alpha, beta)
    mode: str                                  # "B" | "C"
    x_max: Fraction
    delta: Fraction
    phase: PuiseuxPoly
    band: Optional[Tuple[Fraction, Fraction]] = None  # mode B: ratio range around b

    @property
    def label(self) -> str:
        """"corner" for mode C, "band" for mode B."""
        return "corner" if self.mode == "C" else "band"


@dataclass(frozen=True)
class TraceNode:
    """One branch step of the recursion: the root it chased and the shear used."""

    m: Fraction
    root: Fraction
    order: int
    curve: PuiseuxPoly
    xi: Fraction
    children: Tuple["TraceNode", ...] = ()


@dataclass(frozen=True)
class SectorDescriptor:
    """The resolved sector {0 < x, 0 < y < roof_coeff·x^eta}, in the
    first quadrant of the input's own axes."""

    eta: Fraction
    roof_coeff: Fraction = Fraction(1)


@dataclass(frozen=True)
class Decomposition:
    """Charts of a sector; branch curves are lifted to TRUNCATION_ORDER."""

    sector: SectorDescriptor
    charts: Tuple[Chart, ...]
    recursion_trace: Tuple[TraceNode, ...]

    @property
    def radius(self) -> Fraction:
        return min((c.x_max for c in self.charts), default=Fraction(0))


# ---------------------------------------------------------------------------
# small exact helpers


def _falling(a: Rational, k: int) -> Fraction:
    """a·(a-1)···(a-k+1), exactly, from the integers of a = n/d."""
    n, d = a.numerator, a.denominator
    num = 1
    for i in range(k):
        num *= n - i * d
    return Fraction(num, d ** k)


def _iroot(v: int, d: int) -> int:
    """floor(v^(1/d)) for v > 0, by Newton's iteration from above."""
    if d == 2:
        return math.isqrt(v)
    r = 1 << -(-v.bit_length() // d)
    while (q := ((d - 1) * r + v // r ** (d - 1)) // d) < r:
        r = q
    return r


class _Exps:
    """The exponents e >= 0 to which one proof raises its trial radius X, each
    registered once as a reduced (n, d), e = n/d, and known by its index."""

    def __init__(self):
        self.index: Dict[Tuple[int, int], int] = {}

    def add(self, n: int, d: int) -> int:
        g = math.gcd(n, d)
        return self.index.setdefault((n // g, d // g), len(self.index))

    def at(self, X: Fraction) -> "_PowersUp":
        return _PowersUp(X, list(self.index))


class _PowersUp(dict):
    """The powers of a trial radius X = P/Q, index -> v, over one denominator
    D = Q^N·2^64, N the largest n of an exponent e = n/d: v/D is X^e itself for
    an integer e, and else the d-th root of X^n rounded up to a multiple of
    1/(Q^n·2^64).  Each is computed on its first use."""

    def __init__(self, X: Fraction, exps: List[Tuple[int, int]]):
        super().__init__()
        self.P, self.Q, self.exps = X.numerator, X.denominator, exps
        self.top = max((n for n, _ in exps), default=0)
        self.D = self.Q ** self.top << 64

    def __missing__(self, i: int) -> int:
        (n, d), P, Q = self.exps[i], self.P, self.Q
        if d == 1:
            v = P ** n * Q ** (self.top - n) << 64
        elif P == 0:
            v = 0
        else:
            big = P ** n * Q ** (n * (d - 1)) << 64 * d
            r = _iroot(big, d)
            v = (r + (r ** d < big)) * Q ** (self.top - n)
        self[i] = v
        return v


class _Wall:
    """A wall w = d0·x^s + sum d_j·x^s_j, s its least exponent, on integers over
    one denominator den: at a trial radius X, w(x)/x^s lies on (0, X] between
    lo/(den·D) and hi/(den·D), (lo, hi) = d0·D ∓ sum |d_j|·X^(s_j - s)·D.  The
    zero wall has s = 0 and gives zeros."""

    def __init__(self, w: PuiseuxPoly, exps: _Exps):
        n = w.ramification
        (a0, self.d0), *rest = sorted((A, C) for (A, _b), C in w._lat.items()) or [(0, 0)]
        self.s, self.den = Fraction(a0, n), w._den
        self.rest = [(abs(C), exps.add(A - a0, n)) for A, C in rest]

    def bounds(self, pw: _PowersUp) -> Tuple[int, int]:
        r = sum(k * pw[i] for k, i in self.rest)
        return self.d0 * pw.D - r, self.d0 * pw.D + r


def _wall_positive(w: PuiseuxPoly):
    """ok(X): whether the wall w is proved positive on (0, X]."""
    exps = _Exps()
    wall = _Wall(w, exps)
    return lambda X: wall.bounds(exps.at(X))[0] > 0


# ---------------------------------------------------------------------------
# cut sizing: vertex domination with derivative-order headroom


@lru_cache(maxsize=4096)
def _headroom(a: Rational, b: int, vertex) -> Fraction:
    """The largest |fall(a, k)·fall(b, l)| over the derivative orders that
    verify_chart gates at the model x^av·y^bv (k <= ceil(av), l <= bv): how far
    d_x^k d_y^l inflates the term x^a·y^b against the model's own derivative."""
    av, bv = vertex
    return (max(abs(_falling(a, k)) for k in range(math.ceil(av) + 1))
            * max(abs(_falling(b, l)) for l in range(int(bv) + 1)))


def _vertex_cut(q: PuiseuxPoly, edge: CompactEdge, delta: Fraction, start: Fraction,
                upper: bool) -> Fraction:
    """The first c in start·step^k (step 2 at the upper vertex, 1/2 at the
    lower) with the other edge terms summing under (delta/4F)·|s_v| at
    y = c·x^m, where s_v is the vertex term and F its order headroom; q is
    the edge polynomial, the edge's terms at x = 1.  In v = c at the lower
    vertex and v = 1/c at the upper one, every other term is |cf|·v^|b - bv|,
    so the sum rises with v and _radius finds the least k."""
    av, bv = edge.upper_vertex if upper else edge.lower_vertex
    bv = int(bv)
    # on q's lattice: v = vn/vd and |cf| = k/den, both sides times den·vd^top
    ks = [(abs(C), abs(b - bv)) for (_A, b), C in q._lat.items() if b != bv]
    headroom = max((_headroom(edge.alpha - edge.m * b, b, (av, bv))
                    for (_A, b) in q._lat if b != bv), default=1)
    target = delta * abs(q._lat[(0, bv)]) / (4 * headroom)      # times den
    top = max([0, *(j for _, j in ks)])
    tn, td = target.numerator, target.denominator

    def fits(v: Fraction) -> bool:
        vn, vd = v.numerator, v.denominator
        return sum(k * vn ** j * vd ** (top - j) for k, j in ks) * td <= tn * vd ** top

    v = _radius(fits, 1 / start if upper else start, "vertex cut fails at 0")
    return 1 / v if upper else v


# ---------------------------------------------------------------------------
# exact range of a polynomial on an interval [0, top] (Garloff 1986)


def _halves(b: List[int]) -> Tuple[List[int], List[int]]:
    """Bernstein coefficients of the two halves of the interval (de Casteljau),
    times 2^n for the degree n, so that no step divides."""
    n, left, right = len(b) - 1, [], []
    for k in range(n, -1, -1):
        left.append(b[0] << k)
        right.append(b[-1] << k)
        b = [u + v for u, v in zip(b, b[1:])]
    return left, right[::-1]


def _lower_bound(cs: List[int], tn: int, td: int, delta: Fraction) -> Tuple[int, int]:
    """(num, den) with num/den a lower bound on the minimum of sum cs[i]·u^i over
    [0, tn/td], within delta/16 of it: on each piece the polynomial lies above
    its least Bernstein coefficient and its end coefficients are values, so a
    piece whose bound is further than that below the least value found is
    halved, down to width top·2^-64.  A piece at depth k is integers over
    den0·2^(k·n), den0 = td^n·lcm_i C(n, i)."""
    n = len(cs) - 1
    lcm = math.lcm(*[math.comb(n, i) for i in range(n + 1)])
    a = [c * tn ** i * td ** (n - i) * (lcm // math.comb(n, i)) for i, c in enumerate(cs)]
    pieces = [([sum(math.comb(k, i) * a[i] for i in range(k + 1)) for k in range(n + 1)], 0)]
    sixteen, dn = 16 * delta.denominator, delta.numerator
    for _ in range(64):
        deep = max(sh for _, sh in pieces)
        ends = min(min(b[0], b[-1]) << deep - sh for b, sh in pieces)
        cut = sixteen * ends - dn * abs(ends)        # (ends - delta/16·|ends|)·sixteen
        low = [sixteen * (min(b) << deep - sh) < cut for b, sh in pieces]
        if not any(low):
            break
        pieces = [h for (b, sh), lo in zip(pieces, low)
                  for h in ([(half, sh + n) for half in _halves(b)] if lo else [(b, sh)])]
    deep = max(sh for _, sh in pieces)
    return min(min(b) << deep - sh for b, sh in pieces), td ** n * lcm << deep


# ---------------------------------------------------------------------------
# branch curves (Newton–Puiseux lifting by Newton's iteration)


def branch_curve(p: PuiseuxPoly, edge: CompactEdge, root: IsolatedRoot) -> PuiseuxPoly:
    """Curve y = x^m·t(x) following the branch rooted at a rational edge root.

    t(0) = r and h(x, t(x)) = 0 for h = d_y^(o-1) s, s(x, y) = x^(-alpha)·p(x, x^m y),
    o the root's multiplicity; the pivot h_y(0, r) != 0 makes t unique.  Newton's
    iteration t <- t - h(x,t)/h_y(x,t) (Kung–Traub 1978) doubles the x-order to which
    t is exact per pass, up to total order TRUNCATION_ORDER (lower if s is truncated
    lower).  An irrational root raises ValueError: it needs an algebraic shear.
    """
    m, alpha = edge.m, edge.alpha
    o = root.multiplicity
    s = divide_out_x(subst_scale(p, m), alpha)
    cap = _min_trunc(Fraction(TRUNCATION_ORDER), s.truncation_order)
    h = deriv_y(s, o - 1)
    r = root.exact_value
    if r is None:
        raise ValueError(_IRRATIONAL_ROOT)
    # t has valuation 0, so every cut is by x-order and goes on t; h and h_y are
    # used whole (a total-order cut would drop x^a·y^b with a < end <= a + b)
    end = _min_trunc(cap, h.truncation_order)
    h = _with_order(h, None)
    hy = deriv_y(h, 1)
    a_coef = eval_rational(hy, Fraction(0), r)
    if a_coef == 0:
        raise RuntimeError("branch lifting pivot vanished (contradicts root multiplicity)")
    t = PuiseuxPoly.constant(r)
    u = PuiseuxPoly.constant(1 / a_coef)   # 1/h_y(x, t), exact below x^k
    k = Fraction(1, h.ramification)         # t is exact below x^k
    while not (e := subst_y(h, _with_order(t, end))).is_zero():
        k = min(2 * k, end)
        t = _with_order(t, k) - poly_mul(_with_order(e, k), u)
        if k == end:
            break
        u = _with_order(poly_mul(u, 2 - poly_mul(subst_y(hy, t), u)), None)
    if len(t._lat) > 500:
        raise RuntimeError("branch lifting did not terminate within 500 corrections")
    t = _with_order(t, cap, sort=True)
    return poly_mul(PuiseuxPoly.monomial(1, m, 0), t)


# ---------------------------------------------------------------------------
# the recursion


def _corner(p: PuiseuxPoly, vertex, lower: PuiseuxPoly, upper: PuiseuxPoly,
            params: ResolveParams) -> Chart:
    """Corner chart lower < y < upper, where the vertex monomial dominates."""
    av, bv = vertex
    return Chart(sign_x=1, sign_y=1, g=PuiseuxPoly.zero(), lower=lower, upper=upper,
                 monomial=(p.coeff(av, bv), av, int(bv)), mode="C",
                 x_max=params.x_max, delta=params.delta, phase=p)


def _band(p: PuiseuxPoly, q: PuiseuxPoly, edge: CompactEdge, floor: PuiseuxPoly,
          ceiling: PuiseuxPoly, c_lo: Fraction, c_hi: Fraction,
          params: ResolveParams) -> Chart:
    """Band chart floor < y < ceiling, sheared by the floor, where the edge
    polynomial q stays away from zero on the coefficients [c_lo, c_hi] at
    the edge's scale x^m; its model is q's midpoint value times x^alpha, and
    its band the range of q/mid there, read off the phase as E of _split."""
    mid = eval_rational(q, Fraction(0), (c_lo + c_hi) / 2)
    phase = subst_shear(p, 1, floor)
    e, _, den, _ = _split(phase, mid, edge.alpha, edge.m)
    width = c_hi - c_lo
    (n_lo, d_lo), (n_hi, d_hi) = (_lower_bound([sg * v for v in e], width.numerator,
                                               width.denominator, params.delta)
                                  for sg in (1, -1))
    band = (Fraction(n_lo, d_lo * den), -Fraction(n_hi, d_hi * den))
    if not band[0] > 0:
        raise RuntimeError(f"edge band [{c_lo}, {c_hi}] is not bounded away from zero")
    return Chart(sign_x=1, sign_y=1, g=floor, lower=PuiseuxPoly.zero(),
                 upper=ceiling - floor, monomial=(mid, edge.alpha, 0), mode="B",
                 x_max=params.x_max, delta=params.delta, phase=phase, band=band)


def _compose_half(charts: List[Chart], s: int, g_v: PuiseuxPoly,
                  cap: Fraction) -> List[Chart]:
    """Lift charts from a strip-half frame (y_parent = s·(y_child + s·g_v))
    into the parent frame, within the strip's radius cap."""
    g_prime = poly_scale(g_v, s)
    return [replace(c, sign_y=s * c.sign_y, g=c.g + poly_scale(g_prime, c.sign_y),
                    x_max=min(c.x_max, cap))
            for c in charts]


def _positive_roots(q: PuiseuxPoly) -> List[IsolatedRoot]:
    """The positive roots of an edge polynomial, largest first; all rational."""
    if len(q._lat) <= 1:
        return []
    roots = isolate_real_roots(q, domain="positive")
    if any(r.exact_value is None for r in roots):
        raise ValueError(_IRRATIONAL_ROOT)
    return sorted(roots, key=lambda r: r.exact_value, reverse=True)


def _resolve_sector(p: PuiseuxPoly, roof_coeff: Fraction, roof_exp: Fraction,
                    depth: int, params: ResolveParams) -> Tuple[List[Chart], List[TraceNode]]:
    """Tile {0 < y < roof_coeff·x^roof_exp} for the phase p (its own frame).

    Invariant: the strip at the edge root r has half-width xi at most 1/4 of
    r, of the gap to each neighbouring root and of the gap from the largest
    root to the level's top, so every margin is positive.  At slope m the
    shifted phase p(x, ±y + g_r) has the edge polynomial q(r ± Y), since every
    other term has higher weight; its positive roots |r_j - r| (at least r for
    r_j <= 0) are all >= 4·xi, so none lies on the strip wall.  The band above
    each strip has height >= gap/2 > 0, and the strip walls differ by 2·xi·x^m.
    """
    if depth > MAX_DEPTH:
        raise RuntimeError("resolution recursion exceeded max_depth "
                           "(order decrease violated)")
    poly = newton_polygon_of(p)
    edges = [e for e in poly.edges if e.m >= roof_exp]
    roof = PuiseuxPoly.monomial(roof_coeff, roof_exp, 0)
    if not edges:
        # single dominating vertex over the whole sector
        vertex = min(poly.vertices, key=lambda v: (v[0] + roof_exp * v[1], v[1]))
        return [_corner(p, vertex, PuiseuxPoly.zero(), roof, params)], []

    charts: List[Chart] = []
    traces: List[TraceNode] = []
    prev_curve = roof              # current upper boundary
    prev_limit = roof_coeff        # its coefficient at this level's scale
    for edge in edges:
        m = edge.m
        q = edge_polynomial(p, edge, 1)
        roots = _positive_roots(q)
        if m == roof_exp:
            roots = [r for r in roots if r.exact_value < roof_coeff]
            if eval_rational(q, Fraction(0), roof_coeff) == 0:
                raise ValueError("sector roof grazes a root curve; choose a different eta")
            top_coeff = roof_coeff
        else:
            rmax = roots[0].exact_value if roots else Fraction(0)
            hi = _vertex_cut(q, edge, params.delta, 2 * rmax + 2, upper=True)
            # corner chart between the previous level's floor and this cut
            hic = PuiseuxPoly.monomial(hi, m, 0)
            charts.append(_corner(p, edge.upper_vertex, hic, prev_curve, params))
            prev_curve, prev_limit, top_coeff = hic, hi, hi

        vals = [r.exact_value for r in roots]
        for k, root in enumerate(roots):
            r = vals[k]
            margins = [params.xi, r / 4, (top_coeff - vals[0]) / 4]
            if k > 0:
                margins.append((vals[k - 1] - r) / 4)
            if k + 1 < len(vals):
                margins.append((r - vals[k + 1]) / 4)
            xi = min(margins)
            g_v = branch_curve(p, edge, root)

            # band chart between the current upper boundary and this strip
            strip_top = g_v + PuiseuxPoly.monomial(xi, m, 0)
            charts.append(_band(p, q, edge, strip_top, prev_curve, r + xi, prev_limit, params))

            # the strip itself: resolve both halves against the branch curve
            strip_bot = g_v - PuiseuxPoly.monomial(xi, m, 0)
            up, up_tr = _resolve_sector(subst_shear(p, 1, g_v), xi, m, depth + 1, params)
            dn, dn_tr = _resolve_sector(subst_shear(p, -1, g_v), xi, m, depth + 1, params)
            cap = _radius(_wall_positive(strip_bot), params.x_max, "strip meets 0")
            charts += _compose_half(up, 1, g_v, cap) + _compose_half(dn, -1, g_v, cap)
            traces.append(TraceNode(m=m, root=r, order=root.multiplicity,
                                    curve=g_v, xi=xi, children=tuple(up_tr + dn_tr)))
            prev_curve, prev_limit = strip_bot, r - xi

        # floor cut and the band reaching down to it
        c_bot = _vertex_cut(q, edge, params.delta, prev_limit, upper=False)
        if c_bot < prev_limit:
            floor_curve = PuiseuxPoly.monomial(c_bot, m, 0)
            charts.append(_band(p, q, edge, floor_curve, prev_curve, c_bot,
                                prev_limit, params))
            prev_curve, prev_limit = floor_curve, c_bot

    # the bottom corner: the last level's lower vertex dominates down to y = 0
    charts.append(_corner(p, edges[-1].lower_vertex, PuiseuxPoly.zero(), prev_curve, params))
    return charts, traces


def resolve(p: PuiseuxPoly, params: Optional[ResolveParams] = None) -> Decomposition:
    """Decompose the sector {0 < x, 0 < y < x^eta} for p into charts.

    The input must already be reflected into the first quadrant (use
    reflect_axes for the other sectors).  Branches are followed by rational
    shears y -> y + c·x^m only.  Each chart's radius is proved, in exact
    arithmetic, on the chart's own phase c.phase (_prove); nothing is sampled.
    Input outside the model raises ValueError: a zero phase, one without a
    critical point at the origin, or an irrational edge root (ResolveParams
    raises it for a setting outside the model).  A step of the construction
    that fails, or a chart that is comparable at no radius, raises RuntimeError.
    """
    if params is None:
        params = ResolveParams()
    if p.is_zero():
        raise ValueError("cannot resolve the zero phase")
    _require_critical(p)
    poly = newton_polygon_of(p)
    eta = params.eta
    if eta is None:
        slopes = [e.m for e in poly.edges]
        eta = min(Fraction(1, 2), min(slopes) / 2) if slopes else Fraction(1, 2)
    eta = Fraction(eta)

    charts, traces = _resolve_sector(p, Fraction(1), eta, 0, params)

    bs = [b for (_, b) in p.support()]
    span = max(1, max(bs) - min(bs))
    cap = 8 * (2 * span) ** (span + 1)
    if len(charts) > cap:
        raise RuntimeError(f"chart count {len(charts)} exceeds the structural cap {cap}")

    return Decomposition(
        sector=SectorDescriptor(eta=eta),
        charts=tuple(_prove(c, c.phase) for c in charts),
        recursion_trace=tuple(traces),
    )


# ---------------------------------------------------------------------------
# proved chart radii


def _radius(ok, cap: Fraction, never: str) -> Fraction:
    """cap·2^-k for the least k >= 0 with ok(cap·2^-k), for an ok monotone in the
    radius, by doubling and then bisection; if ok(0) fails, RuntimeError(never)."""
    lo, hi = -1, 0                  # ok fails at cap·2^-lo (if lo >= 0), holds at cap·2^-hi
    while not ok(cap / 2 ** hi):
        if hi == 0 and not ok(Fraction(0)):
            raise RuntimeError(never)
        lo, hi = hi, 2 * hi + 1
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (lo, mid) if ok(cap / 2 ** mid) else (mid, hi)
    return cap / 2 ** hi


def _split(phase: PuiseuxPoly, b0: Fraction, alpha: Fraction, s: Fraction):
    """phase/(b0·x^alpha) in u = y/x^s as E(u) + sum x^w·u^j·c, on integers:
    (e, rest, den, g) with e/den the dense coefficients of its weight-0 part E,
    and rest [(j, |c|·den, w·g)] for the other terms, read off phase's lattice."""
    g = math.lcm(phase.ramification, s.denominator, alpha.denominator)
    f = g // phase.ramification
    sg, ag = s.numerator * (g // s.denominator), alpha.numerator * (g // alpha.denominator)
    sign = 1 if b0 > 0 else -1
    e, rest = [0] * (phase.y_degree() + 1), []
    for (A, j), C in phase._lat.items():
        w = A * f + sg * j - ag
        k = C * b0.denominator
        if w:
            rest.append((j, abs(k), w))
        else:
            e[j] += sign * k
    return e, rest, phase._den * abs(b0.numerator), g


def _obligation(c: Chart, phase: PuiseuxPoly):
    """ok(X): whether on 0 < x <= X the walls of c are apart and phase is comparable
    to c's model, exactly, with slack delta·PROOF_SLACK; ok(0) is the limit x -> 0.

    Mode C: sum over the other terms of |c/b|·_headroom·sup x^(a-alpha)·y^(b-beta)
    <= slack bounds the ratio, its sign and every gated derivative at once; the
    sup is on the upper wall for b >= beta, on the lower wall for b < beta.
    Mode B: on u = y/x^s in [0, top] (the upper wall), with E and the rest from
    _split and A(u) = sum |c|·X^w·u^j over the rest, E - A >= band_lo·(1 - slack)
    and E + A <= band_hi·(1 + slack), pointwise in u.

    Each trial X runs on integers: the powers of X over one denominator D
    (_Exps.at), and every sum and comparison cross-multiplied over it."""
    b0, alpha, beta = c.monomial
    slack = c.delta * PROOF_SLACK
    exps = _Exps()
    upper = _Wall(c.upper, exps)
    if c.mode == "B":
        e, rest, den, g = _split(phase, b0, alpha, upper.s)
        if any(w < 0 for _, _, w in rest):
            return lambda X: False
        by_j = [[(k, exps.add(w, g)) for j, k, w in rest if j == i] for i in range(len(e))]
        gates = [(v.numerator, v.denominator)
                 for v in (c.band[0] * (1 - slack), -c.band[1] * (1 + slack))]

        def ok(X):
            pw = exps.at(X)
            low, top = upper.bounds(pw)
            if not low > 0:
                return False
            a = [sum(k * pw[i] for k, i in terms) for terms in by_j]
            D = pw.D
            tn, td = top, upper.den * D
            g = math.gcd(tn, td)
            for sg, (gn, gd) in zip((1, -1), gates):
                num, lb_den = _lower_bound([sg * u * D - v for u, v in zip(e, a)],
                                           tn // g, td // g, c.delta)
                if num * gd < gn * lb_den * den * D:
                    return False
            return True
        return ok

    lower, gap = _Wall(c.lower, exps), _Wall(c.upper - c.lower, exps)
    n = phase.ramification
    g = math.lcm(n, alpha.denominator, upper.s.denominator, lower.s.denominator)
    ag = alpha.numerator * (g // alpha.denominator)
    su = upper.s.numerator * (g // upper.s.denominator)
    sl = lower.s.numerator * (g // lower.s.denominator)
    raw = []                        # (|c/b|·_headroom as k/h, d = b - beta, x exponent·g)
    for (A, b), C in phase._lat.items():
        x_exp = A * (g // n) - ag
        if x_exp == 0 and b == beta:
            continue
        x_exp += (su if b >= beta else sl) * (b - beta)
        if x_exp < 0:
            return lambda X: False
        h = _headroom(Fraction(A, n), b, (alpha, beta))
        raw.append((abs(C) * h.numerator, h.denominator, b - beta, x_exp))
    # the term k·w^d·X^e over kd·D·ud^dmax·vn^m, w the upper wall's bound un/ud for
    # d >= 0 and the lower wall's vn/vd for d < 0; slack = sn/sd
    hd = math.lcm(*[h for _, h, _, _ in raw])
    kd = phase._den * abs(b0.numerator) * hd
    sn, sd = slack.numerator, slack.denominator
    terms = [(k * b0.denominator * (hd // h) * sd, d, exps.add(x_exp, g))
             for k, h, d, x_exp in sorted(raw, key=lambda t: t[3])]  # lowest x exponent first
    ds = {d for _, d, _ in terms}
    dmax, m = max([0, *ds]), max([0, *(-d for d in ds)])
    need_up = any(d >= 0 for d in ds)

    def ok(X):
        pw = exps.at(X)
        if not gap.bounds(pw)[0] > 0:
            return False
        D = pw.D
        un, ud = upper.bounds(pw)[1], upper.den * D
        vn, vd = lower.bounds(pw)[0], lower.den * D
        if (need_up and not un > 0) or (m and not vn > 0):
            return False
        scale = {d: (un ** d * ud ** (dmax - d) * vn ** m if d >= 0
                     else vd ** -d * vn ** (m + d) * ud ** dmax) for d in ds}
        limit = sn * kd * D * ud ** dmax * vn ** m
        total = 0
        for k, d, i in terms:
            total += k * scale[d] * pw[i]
            if total > limit:
                return False
        return True
    return ok


def _prove(c: Chart, phase: PuiseuxPoly) -> Chart:
    """c at the radius c.x_max·2^-k for the least k >= 0 at which its walls are
    proved apart and phase is proved comparable to its model (_obligation)."""
    never = f"chart is not comparable at any radius (mode {c.mode}, monomial {c.monomial})"
    return replace(c, x_max=_radius(_obligation(c, phase), c.x_max, never))


# ---------------------------------------------------------------------------
# chart maps and verification


def chart_apply(c: Chart, x: float, y: float) -> Tuple[float, float]:
    """Frame point -> chart point: (sign_x·x, sign_y·y - g(x)); needs x >= 0."""
    if x < 0:
        raise ValueError("chart_apply expects x >= 0 (reflect first)")
    return (c.sign_x * x, c.sign_y * y - eval_real(c.g, x, 0.0))


def chart_unapply(c: Chart, u: float, v: float) -> Tuple[float, float]:
    """Chart point -> frame point (exact inverse of chart_apply)."""
    x = c.sign_x * u
    return (x, c.sign_y * (v + eval_real(c.g, x, 0.0)))


@dataclass(frozen=True)
class VerifyReport:
    passed: bool
    max_ratio_violation: float
    derivative_check: Optional[Dict[str, object]]
    sign_ok: bool
    x_max: float


def _float_terms(p: PuiseuxPoly):
    return [(float(cf), float(a), b) for (a, b), cf in p.items()]


def _deriv_terms(p: PuiseuxPoly, k: int, l: int):
    """Termwise d_x^k d_y^l; x exponents may go negative (evaluated at x > 0)."""
    out = []
    for (a, b), cf in p.items():
        if b < l:
            continue
        c = cf * _falling(a, k) * _falling(b, l)
        if c != 0:
            out.append((float(c), float(a - k), b - l))
    return out


@lru_cache(maxsize=8)
def _unit_points(samples: int, seed: int) -> Tuple[np.ndarray, np.ndarray]:
    """Sample positions (t, w) of verify_chart, read-only: the point is
    x = x_max·t, y = lower + (upper - lower)·w.  The seeded quasi-random
    points come first, then the probe grid (t outer, w inner)."""
    import numpy as np
    phi1 = 0.6180339887498949
    phi2 = 0.7548776662466927
    s1 = math.modf(seed * 0.8191725133961645 + 0.1375)[0]
    s2 = math.modf(seed * 0.2887043245670215 + 0.6913)[0]
    ts, ws = [], []
    for i in range(samples):
        u = (s1 + i * phi1) % 1.0
        v = (s2 + i * phi2) % 1.0
        if i % 4 == 3:
            ts.append(math.pow(4.0, -(1.0 + 3.0 * u)))
        else:
            ts.append(min(max(u, 1e-4), 1.0 - 1e-9))
        if i % 5 == 4:
            ws.append(0.001 if i % 2 else 0.999)
        else:
            ws.append(min(max(v, 1e-4), 1.0 - 1e-4))
    # deterministic probes independent of the seed: remainder terms peak at
    # large x, so certification must always see the far boundary
    t_levels = [0.125, 0.25, 0.375, 0.5, 0.625, 0.75, 0.875]
    t_levels += [1.0 - 2.0 ** -k for k in range(3, 8)]
    t_levels.append(1.0 - 1e-9)
    w_levels = (0.001, 0.05, 0.2, 0.4, 0.5, 0.6, 0.8, 0.95, 0.999)
    ts.extend(t for t in t_levels for _ in w_levels)
    ws.extend(w_levels * len(t_levels))
    t, w = np.array(ts), np.array(ws)
    t.flags.writeable = w.flags.writeable = False
    return t, w


class _Powers:
    """v**e over the sample points, one array per distinct exponent, each
    element computed by the scalar function pw (math.pow for x, builtin pow
    with an int exponent for y), which also raises that function's errors."""

    def __init__(self, vals: np.ndarray, pw):
        self.n = len(vals)
        self._vals = vals.tolist()
        self._pw = pw
        self._tables: Dict[object, np.ndarray] = {}

    def __getitem__(self, e) -> np.ndarray:
        import numpy as np
        t = self._tables.get(e)
        if t is None:
            t = np.fromiter(map(self._pw, self._vals, repeat(e)), float, self.n)
            self._tables[e] = t
        return t


def _sum_terms(terms, X: _Powers, Y: _Powers) -> np.ndarray:
    """sum cf·x^a·y^b per point, with the scalar loop's operations in order."""
    import numpy as np
    tot = np.zeros(X.n)
    for cf, a, b in terms:
        v = cf * X[a]
        if b:
            v *= Y[b]
        tot += v
    return tot


def _divide(num: np.ndarray, den: np.ndarray) -> np.ndarray:
    """num / den, raising like float division if some divisor is zero."""
    if (den == 0.0).any():
        raise ZeroDivisionError("float division by zero")
    return num / den


def _fold_max(v: np.ndarray) -> float:
    """max(0.0, v[0], v[1], ...) as Python folds it: a NaN never wins."""
    import numpy as np
    m = np.max(v, initial=0.0, where=~np.isnan(v))
    return float(m) if m > 0.0 else 0.0


def verify_chart(p: PuiseuxPoly, c: Chart, samples: int = 1000,
                 seed: int = 0) -> VerifyReport:
    """Sample the chart domain and check comparability to the monomial model:
    the tests' float oracle for the charts that resolve proved; neither
    resolve nor the CLI calls it.

    The check, like the proof, reads the chart's own phase c.phase, as the
    recursion built it, and never reads p.  c.phase is truncated at total
    order TRUNCATION_ORDER, so it is not p∘phi: on a chart next to a branch,
    the truncated branch curve leaves a residual of order TRUNCATION_ORDER + 1
    in p∘phi that c.phase drops, and where the model is far smaller than that
    residual p∘phi is not comparable to it although the check passes.

    It works in floats, so it cannot check charts with large exponents: a
    wall's x^475 on a chart of x^50*y^2 + x^1000 underflows to 0.0 and raises
    the empty-domain ValueError, and a cut of about 10^158 on a chart of
    x^100*y^2 + x^1500 raises OverflowError.  Such charts are checked at
    exact rational points instead.

    Mode C gates both the ratio |S∘phi / (b x^a y^b) - 1| <= delta and the
    derivative bounds |d_x^k d_y^l S∘phi - b·fall(a,k)·fall(b,l)·x^(a-k)y^(b-l)|
    <= delta·|b|·x^(a-k)·y^(b-l) for k <= ceil(alpha), l <= beta.  The
    published form of that inequality swaps k and l on the bound's exponents;
    it is not checked, because it fails scale-invariantly on valid charts.
    Mode B gates the ratio band and sign constancy.

    Each check runs on arrays over all sample points at once, with the
    per-point operations of a scalar loop, so every report is bit-identical
    to one: powers come from libm (math.pow, and float ** int for y), one
    array per distinct exponent, and the rest is + - × ÷, abs and comparisons,
    which IEEE rounds exactly.  numpy.power is not used because its SIMD loop
    differs from libm pow in the last bit on a few per cent of elements.
    Errors keep their types and messages: the empty-domain ValueError names
    the first offending x in point order, a zero model or derivative scale
    raises ZeroDivisionError, and an overflowing power raises libm's
    OverflowError.
    """
    import numpy as np
    b_coef, alpha, beta = c.monomial
    bf, af = float(b_coef), float(alpha)
    if bf == 0.0:
        raise ValueError("chart monomial has zero coefficient")
    x_hi = float(c.x_max)
    lo_t = _float_terms(c.lower)
    up_t = _float_terms(c.upper)
    ph_t = _float_terms(c.phase)
    delta = float(c.delta)
    t, w = _unit_points(samples, seed)

    with np.errstate(all="ignore"):
        x = x_hi * t
        X = _Powers(x, math.pow)
        Y0 = _Powers(np.zeros_like(x), pow)     # the curves are taken at y = 0
        lo = _sum_terms(lo_t, X, Y0)
        up = _sum_terms(up_t, X, Y0)
        empty = ~(up > lo)
        if empty.any():
            bad = float(x[np.argmax(empty)])
            raise ValueError(f"empty chart domain at x = {bad:.3g}: shrink x_max")
        Y = _Powers(lo + (up - lo) * w, pow)
        deriv_report: Optional[Dict[str, object]] = None

        if c.mode == "C":
            bi = int(beta)
            model = bf * X[af] * Y[bi]
            val = _sum_terms(ph_t, X, Y)
            # signs, not their product, which underflows to 0.0 on a tiny radius
            sign_ok = not (np.sign(val) * np.sign(model) <= 0.0).any()
            worst_ratio = _fold_max(abs(_divide(val, model) - 1.0))
            worst_d = 0.0
            orders = []
            for k in range(math.ceil(alpha) + 1):
                for l in range(bi + 1):
                    if k == 0 and l == 0:
                        continue
                    orders.append((k, l))
                    dval = _sum_terms(_deriv_terms(c.phase, k, l), X, Y)
                    mcf = bf * float(_falling(alpha, k)) * float(_falling(bi, l))
                    lhs = abs(dval - mcf * X[af - k] * Y[bi - l])
                    nat = abs(bf) * X[af - k] * Y[bi - l]
                    worst_d = max(worst_d, _fold_max(_divide(lhs, nat)))
            deriv_report = {"max_violation": worst_d, "orders": orders}
            passed = sign_ok and worst_ratio <= delta and worst_d <= delta
        elif c.mode == "B":
            if c.band is None:
                raise ValueError("band chart missing its ratio band")
            blo, bhi = float(c.band[0]), float(c.band[1])
            lo_gate, hi_gate = blo * (1.0 - delta), bhi * (1.0 + delta)
            val = _sum_terms(ph_t, X, Y)
            ratio = _divide(val, bf * X[af])
            sign_ok = not (ratio <= 0.0).any()
            if blo == 0.0 or bhi == 0.0:
                raise ZeroDivisionError("float division by zero")
            worst_ratio = max(_fold_max((lo_gate - ratio) / blo),
                              _fold_max((ratio - hi_gate) / bhi))
            passed = sign_ok and worst_ratio == 0.0
        else:
            raise ValueError(f"unknown chart mode {c.mode!r}")

    return VerifyReport(passed=passed, max_ratio_violation=worst_ratio,
                        derivative_check=deriv_report, sign_ok=sign_ok, x_max=x_hi)


# ---------------------------------------------------------------------------
# serialization


def _frac_str(q) -> str:
    q = Fraction(q)
    return f"{q.numerator}/{q.denominator}"


def _curve_json(p: PuiseuxPoly):
    return [[_frac_str(cf), _frac_str(a), b] for (a, b), cf in p.items()]


def _trace_json(node: TraceNode) -> dict:
    return {
        "m": _frac_str(node.m),
        "root": _frac_str(node.root),
        "order": node.order,
        "curve": _curve_json(node.curve),
        "xi": _frac_str(node.xi),
        "children": [_trace_json(ch) for ch in node.children],
    }


def decomposition_to_json(dec: Decomposition) -> dict:
    """Schema decomposition/1.  Its sector signs and swap flag are fixed:
    resolve covers the first quadrant of the input's own axes."""
    return {
        "schema": "newton-sublevel/decomposition/1",
        "sector": {
            "eta": _frac_str(dec.sector.eta),
            "roof_coeff": _frac_str(dec.sector.roof_coeff),
            "sign_x": 1,
            "sign_y": 1,
            "swapped": False,
        },
        "truncation_order": _frac_str(TRUNCATION_ORDER),
        "radius": _frac_str(dec.radius),
        "charts": [
            {
                "sign_x": c.sign_x,
                "sign_y": c.sign_y,
                "mode": c.mode,
                "label": c.label,
                "g": _curve_json(c.g),
                "lower": _curve_json(c.lower),
                "upper": _curve_json(c.upper),
                "monomial": {
                    "coeff": _frac_str(c.monomial[0]),
                    "alpha": _frac_str(c.monomial[1]),
                    "beta": int(c.monomial[2]),
                },
                "x_max": _frac_str(c.x_max),
                "delta": _frac_str(c.delta),
                "band": ([_frac_str(c.band[0]), _frac_str(c.band[1])]
                         if c.band is not None else None),
            }
            for c in dec.charts
        ],
        "recursion_trace": [_trace_json(t) for t in dec.recursion_trace],
    }
