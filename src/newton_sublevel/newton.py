"""Newton polygon of a bivariate phase and the bisectrix classification.

The polygon is the convex hull of the union of upper-right quadrants rooted
at the support points of the phase.  Its lower-left boundary consists of a
vertical ray, a chain of compact edges with strictly increasing reciprocal
slope m (each edge lies on a line a + m*b = alpha with m > 0), and a
horizontal ray.  A polygon with a single vertex has no compact edges and
both rays meet at that vertex.

The distance d is the smallest t with (t, t) in the polygon; the point
(d, d) is where the diagonal a = b (the bisectrix) first touches the
boundary, and which boundary feature it touches drives the growth
multiplicity downstream.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional, Tuple

from .exact_poly import PuiseuxPoly, Rational, _as_fraction

Point = Tuple[Fraction, Fraction]


@dataclass(frozen=True)
class CompactEdge:
    """Edge from lo to hi on the line a + m*b = alpha, vertex order (increasing a)."""

    lo: Point
    hi: Point
    m: Fraction
    alpha: Fraction

    @property
    def upper_vertex(self) -> Point:
        # endpoint with the larger b (smaller a)
        return self.lo

    @property
    def lower_vertex(self) -> Point:
        return self.hi


@dataclass(frozen=True)
class NewtonPolygon:
    """Vertices sorted by increasing a; edges in the same order (m increasing)."""

    vertices: Tuple[Point, ...]
    edges: Tuple[CompactEdge, ...]

    @property
    def a_min(self) -> Fraction:
        return self.vertices[0][0]

    @property
    def b_min(self) -> Fraction:
        return self.vertices[-1][1]

    def contains(self, a, b) -> bool:
        a = _as_fraction(a)
        b = _as_fraction(b)
        if a < self.a_min or b < self.b_min:
            return False
        return all(a + e.m * b >= e.alpha for e in self.edges)


@dataclass(frozen=True)
class BisectrixClass:
    """Where the diagonal a = b meets the polygon boundary."""

    tag: str  # EdgeInterior | Vertex | HorizontalRayInterior | VerticalRayInterior
    touch_point: Point
    edge: Optional[CompactEdge] = None  # set for EdgeInterior


def newton_polygon_of(p: PuiseuxPoly) -> NewtonPolygon:
    """Polygon of a nonzero phase, built on first call and kept on p."""
    if p._polygon is None:
        if p.is_zero():
            raise ValueError("the zero phase has no Newton polygon")
        p._polygon = _hull(p)
    return p._polygon


def _hull(p: PuiseuxPoly) -> NewtonPolygon:
    """A staircase sweep plus a convex chain over p's lattice points (A, b),
    A = a·n: scaling a by n > 0 keeps every comparison and turn the same."""
    # staircase sweep: in (A, b) order a kept point dominates everything after
    # it with b at least as large, so the survivors have strictly decreasing b
    frontier: List[Tuple[int, int]] = []
    for A, b in sorted(p._lat):
        if frontier and frontier[-1][1] <= b:
            continue
        frontier.append((A, b))

    # lower-left convex chain over the frontier; the hull region sits above-right,
    # so the boundary must turn left at every vertex (collinear points dropped)
    chain: List[Tuple[int, int]] = []
    for A, b in frontier:
        while len(chain) >= 2:
            (A1, b1), (A2, b2) = chain[-2], chain[-1]
            if (A2 - A1) * (b - b1) - (b2 - b1) * (A - A1) <= 0:
                chain.pop()
            else:
                break
        chain.append((A, b))

    vertices = tuple((Fraction(A, p.ramification), Fraction(b)) for A, b in chain)
    edges = []
    for (a1, b1), (a2, b2) in zip(vertices, vertices[1:]):
        m = (a2 - a1) / (b1 - b2)  # b strictly decreases along the chain
        edges.append(CompactEdge(lo=(a1, b1), hi=(a2, b2), m=m, alpha=a1 + m * b1))
    return NewtonPolygon(vertices=vertices, edges=tuple(edges))


def newton_distance(np_: NewtonPolygon) -> Fraction:
    """Smallest t with (t, t) in the polygon."""
    d = max(np_.a_min, np_.b_min)
    for e in np_.edges:
        d = max(d, e.alpha / (1 + e.m))
    return d


def bisectrix_classify(np_: NewtonPolygon) -> BisectrixClass:
    """Classify the first touch of the diagonal with the polygon boundary."""
    d = newton_distance(np_)
    touch = (d, d)
    if touch in np_.vertices:
        return BisectrixClass(tag="Vertex", touch_point=touch)
    for e in np_.edges:
        if d + e.m * d == e.alpha and e.lo[0] < d < e.hi[0]:
            return BisectrixClass(tag="EdgeInterior", touch_point=touch, edge=e)
    if d == np_.b_min:
        return BisectrixClass(tag="HorizontalRayInterior", touch_point=touch)
    if d == np_.a_min:
        return BisectrixClass(tag="VerticalRayInterior", touch_point=touch)
    raise AssertionError("bisectrix touch point not on the boundary")  # pragma: no cover


def edge_polynomial(p: PuiseuxPoly, e: CompactEdge, x_sign: int = 1) -> PuiseuxPoly:
    """One-variable polynomial sum of the terms of p on the edge line, x = x_sign.

    Returns sum over a + m*b = alpha of c_ab * x_sign^a * y^b as a PuiseuxPoly
    in y only.  x_sign = -1 requires the edge terms to have integer a.
    """
    if x_sign not in (1, -1):
        raise ValueError("x_sign must be +1 or -1")
    n = p.ramification
    on_line = [(e.alpha - e.m * b) * n for b in range(p.y_degree() + 1)]   # A at each b
    lat = {}
    for (A, b), C in p._lat.items():
        if A != on_line[b]:
            continue
        if x_sign == -1:
            if A % n:
                raise ValueError(f"edge term x^{Fraction(A, n)} has fractional exponent; "
                                 "x = -1 undefined")
            if A // n % 2 == 1:
                C = -C
        lat[(0, b)] = C
    return PuiseuxPoly._reduced(1, p._den, lat, None)


def polygon_subset(np1: NewtonPolygon, np2: NewtonPolygon) -> bool:
    """True when the first polygon is contained in the second."""
    return all(np2.contains(a, b) for a, b in np1.vertices)
