"""Superadapted coordinates and the growth index of a phase.

A phase in superadapted coordinates has the property that for the compact
edge (if any) whose relative interior meets the bisectrix a = b, the edge
polynomials at x = +1 and x = -1 have no real nonzero root of order >= d,
where d is the Newton distance.  In such coordinates the sublevel growth
exponent is j = 1/d and the logarithmic multiplicity p is 1 exactly when
the bisectrix meets the polygon at a vertex.

Reduction to superadapted coordinates repeatedly shears along the offending
root's branch y = r*x^m.  Each shear either raises d or lowers the worst
offending root order, so the loop terminates for polynomial input.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional, Tuple

from .exact_poly import PuiseuxPoly, poly_add, subst_shear
from .newton import (
    BisectrixClass,
    CompactEdge,
    bisectrix_classify,
    edge_polynomial,
    newton_distance,
    newton_polygon_of,
)
from .roots import IsolatedRoot, isolate_real_roots

_MAX_SHEARS = 64          # shears before the reduction is declared stalled


@dataclass(frozen=True)
class GrowthIndex:
    """Sublevel growth law: measure ~ C * eps^j * |log eps|^p near the origin."""

    j: Fraction
    p: int
    morse_hyperbolic: bool = False  # saddle with d = 1: oscillatory decay drops the log

    def key(self) -> Tuple[Fraction, int]:
        """The order of indices: a smaller key (-j, p) is faster decay."""
        return (-self.j, self.p)


@dataclass(frozen=True)
class Witness:
    """An edge root violating the superadapted condition."""

    edge: CompactEdge
    x_sign: int
    root: IsolatedRoot


class SuperadaptedCheck:
    """Truthy result of is_superadapted with the offending root when false."""

    def __init__(self, ok: bool, distance: Fraction, witness: Optional[Witness] = None,
                 bisectrix: Optional[BisectrixClass] = None):
        self.ok = ok
        self.distance = distance
        self.witness = witness
        self.bisectrix = bisectrix

    def __bool__(self) -> bool:
        return self.ok

    def __repr__(self):
        return f"SuperadaptedCheck(ok={self.ok}, d={self.distance}, witness={self.witness})"


def is_superadapted(p: PuiseuxPoly) -> SuperadaptedCheck:
    """Check the root-order condition on the bisectrix edge (roots at 0 ignored)."""
    np_ = newton_polygon_of(p)
    d = newton_distance(np_)
    cls = bisectrix_classify(np_)
    if cls.tag == "EdgeInterior":
        for x_sign in (1, -1):
            q = edge_polynomial(p, cls.edge, x_sign)
            if len(q._lat) <= 1:
                continue  # a single monomial has only the root at 0
            for r in isolate_real_roots(q, domain="all"):
                if r.exact_value == 0:
                    continue
                if r.multiplicity >= d:
                    return SuperadaptedCheck(False, d, Witness(cls.edge, x_sign, r), cls)
    return SuperadaptedCheck(True, d, bisectrix=cls)


@dataclass(frozen=True)
class ShearStep:
    """One reduction step: the branch root it kills and the curve applied via y -> y + curve."""

    m: Fraction
    root: Fraction
    x_sign: int
    curve: PuiseuxPoly


@dataclass(frozen=True)
class AdaptReport:
    original: PuiseuxPoly
    final: PuiseuxPoly
    shears_applied: Tuple[ShearStep, ...]
    index: GrowthIndex

    @property
    def iterations(self) -> int:
        return len(self.shears_applied)


def _require_critical(p: PuiseuxPoly) -> None:
    """Reject a phase whose value or gradient at the origin is nonzero."""
    n = p.ramification
    order = min((A + n * b for (A, b) in p._lat), default=None)     # (a + b)·n
    if order is not None and order <= n:
        raise ValueError("the phase must have a critical point at the origin (no constant "
                         f"or linear term); its lowest order is {Fraction(order, n)}")


def _index_from_check(chk: SuperadaptedCheck) -> GrowthIndex:
    at_vertex = chk.bisectrix.tag == "Vertex"
    return GrowthIndex(j=Fraction(1) / chk.distance, p=1 if at_vertex else 0,
                       morse_hyperbolic=bool(at_vertex and chk.distance == 1))


def to_superadapted(p: PuiseuxPoly) -> AdaptReport:
    """Shear until superadapted; error when the reduction leaves this model.

    Raises ValueError up front when a term has order <= 1 (the origin is not
    a critical point), when the offending edge has nonintegral reciprocal
    slope (the branch is y ~ r*x^m with fractional m, so no polynomial shear
    in these variables reaches adapted coordinates) or when the root is
    irrational (an algebraic shear would be required).
    """
    _require_critical(p)
    original = p
    steps: List[ShearStep] = []
    for _ in range(_MAX_SHEARS):
        chk = is_superadapted(p)
        if chk.ok:
            return AdaptReport(original=original, final=p,
                               shears_applied=tuple(steps), index=_index_from_check(chk))
        w = chk.witness
        m = w.edge.m
        if m.denominator != 1:
            raise ValueError(
                f"adapted coordinates need the branch y ~ r*x^{m}: "
                "nonintegral slope requires an axis swap or leaves the polynomial model")
        if w.root.exact_value is None:
            raise ValueError("algebraic shear required: offending edge root is irrational")
        r = w.root.exact_value
        # killing the x = -1 root r needs coefficient r*(-1)^m on the x > 0 side
        c = r if (w.x_sign == 1 or int(m) % 2 == 0) else -r
        curve = PuiseuxPoly.monomial(c, m, 0)
        p = subst_shear(p, 1, curve)
        steps.append(ShearStep(m=m, root=r, x_sign=w.x_sign, curve=curve))
    raise RuntimeError("failed to reach superadapted coordinates "
                       f"in {_MAX_SHEARS} shears; reduction is not making progress")


def growth_index(p: PuiseuxPoly) -> GrowthIndex:
    """Growth index (j, p) of a superadapted phase with a critical point at the origin."""
    _require_critical(p)
    chk = is_superadapted(p)
    if not chk.ok:
        raise ValueError("phase is not superadapted; reduce with to_superadapted first")
    return _index_from_check(chk)


def is_morse(p: PuiseuxPoly) -> bool:
    """Nondegenerate critical point at the origin (vanishing to order exactly 2)."""
    if any(a + b < 2 for (a, b) in p.terms):
        return False
    s20 = p.coeff(2, 0)
    s11 = p.coeff(1, 1)
    s02 = p.coeff(0, 2)
    return 4 * s20 * s02 - s11 * s11 != 0
