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
    """Polygon of a nonzero phase via a staircase sweep plus a convex chain."""
    if p.is_zero():
        raise ValueError("the zero phase has no Newton polygon")
    pts = [(a, Fraction(b)) for (a, b) in p.terms.keys()]

    # staircase sweep: in (a, b) order a kept point dominates everything after
    # it with b at least as large, so the survivors have strictly decreasing b
    pts.sort()
    frontier: List[Point] = []
    for a, b in pts:
        if frontier and frontier[-1][1] <= b:
            continue
        frontier.append((a, b))

    # lower-left convex chain over the frontier; the hull region sits above-right,
    # so the boundary must turn left at every vertex (collinear points dropped)
    chain: List[Point] = []
    for q in frontier:
        while len(chain) >= 2:
            (a1, b1), (a2, b2) = chain[-2], chain[-1]
            cross = (a2 - a1) * (q[1] - b1) - (b2 - b1) * (q[0] - a1)
            if cross <= 0:
                chain.pop()
            else:
                break
        chain.append(q)

    edges = []
    for (a1, b1), (a2, b2) in zip(chain, chain[1:]):
        m = (a2 - a1) / (b1 - b2)  # b strictly decreases along the chain
        alpha = a1 + m * b1
        edges.append(CompactEdge(lo=(a1, b1), hi=(a2, b2), m=m, alpha=alpha))
    return NewtonPolygon(vertices=tuple(chain), edges=tuple(edges))


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
    terms = {}
    for (a, b), c in p.terms.items():
        if a + e.m * b != e.alpha:
            continue
        if x_sign == -1:
            if a.denominator != 1:
                raise ValueError(f"edge term x^{a} has fractional exponent; x = -1 undefined")
            if int(a) % 2 == 1:
                c = -c
        terms[(Fraction(0), b)] = c
    return PuiseuxPoly._trusted(terms, None, 1)


def polygon_subset(np1: NewtonPolygon, np2: NewtonPolygon) -> bool:
    """True when the first polygon is contained in the second."""
    return all(np2.contains(a, b) for a, b in np1.vertices)
