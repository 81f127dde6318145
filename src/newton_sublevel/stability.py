"""Perturbation harness: exceptional-strength detection and index sweeps.

For a phase S and perturbation f the growth index of S + t*f can only change
at finitely many strengths t: where a Newton-polygon vertex coefficient
cancels, or where an edge polynomial of S + t*f acquires a real nonzero root
of high multiplicity.  This module computes those candidate strengths exactly
(vertex ratios; on each edge of the polygon of the union support of S and f,
a Sylvester discriminant in t by Bareiss elimination over Z[t]) and sweeps
t-grids comparing indices lexicographically.  A two-phase mixture
S1 + rho*S2 is the same sweep with f = S2, plus the S2-alone endpoint
rho = inf.

Rows whose superadapted reduction needs an irrational shear are marked
undecided rather than silently dropped or guessed.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import zip_longest
from typing import Dict, List, Optional, Sequence, Tuple, Union

from .adapt import GrowthIndex, to_superadapted
from .exact_poly import PuiseuxPoly, _aligned, poly_add, poly_scale
from .newton import (NewtonPolygon, edge_polynomial, newton_distance, newton_polygon_of,
                     polygon_subset)
from .roots import IntCoeffs, IsolatedRoot, _exquo, _trim, isolate_real_roots

ExceptionalT = Union[Fraction, IsolatedRoot]


@dataclass(frozen=True)
class SweepRow:
    """One grid point of a sweep; t is None for the S2-alone endpoint of a mixture."""

    t: Optional[Fraction]
    index: Optional[GrowthIndex]
    superadapt_ok: bool
    polygon_contains_NS: bool
    flags: frozenset
    note: str = ""

    @property
    def osc_p(self) -> Optional[int]:
        """Log multiplicity on the oscillatory side (hyperbolic Morse drops it)."""
        if self.index is None:
            return None
        return 0 if self.index.morse_hyperbolic else self.index.p


@dataclass(frozen=True)
class ExceptionalSet:
    vertex_ts: Tuple[Fraction, ...]
    edge_ts: Tuple[ExceptionalT, ...]

    def matches(self, t: Fraction) -> Dict[str, bool]:
        vertex = t in self.vertex_ts
        edge = any(e == t if isinstance(e, Fraction) else e.contains(t)
                   for e in self.edge_ts)
        return {"vertex_cancel": vertex, "edge_degenerate": edge}


# ---------------------------------------------------------------------------
# exceptional candidates


def _cancel_ts(S: PuiseuxPoly, f: PuiseuxPoly, vertices) -> List[Fraction]:
    """-s_v/f_v at each vertex v (in order) where f has a term: the t at which
    S + t*f loses that vertex's coefficient."""
    return [-S.coeff(a, int(b)) / fv for (a, b) in vertices
            if (fv := f.coeff(a, int(b))) != 0]


def _generic_polygon(S: PuiseuxPoly, f: PuiseuxPoly) -> NewtonPolygon:
    """Polygon of S + tau*f for every tau that cancels no coefficient: that of
    the union of the supports, cut at the sum's truncation order."""
    trunc, n, lim, ls, lf = _aligned(S, f)
    return newton_polygon_of(PuiseuxPoly._reduced(
        n, 1, {k: 1 for k in (*ls, *lf) if k[0] + n * k[1] < lim}, trunc))


def _edge_line_coeffs(S, f, edge, x_sign: int):
    """[(A_k, B_k)] for R(t, y) = sum (A_k + B_k t) y^k on the edge line, from
    the edge polynomials of S and f at x = x_sign with y^kmin divided out;
    None when x = -1 meets a fractional x-exponent there."""
    try:
        qs, qf = edge_polynomial(S, edge, x_sign), edge_polynomial(f, edge, x_sign)
    except ValueError:
        return None
    ks = sorted({b for (_A, b) in qs._lat} | {b for (_A, b) in qf._lat})
    return [(qs.coeff(0, k), qf.coeff(0, k)) for k in range(ks[0], ks[-1] + 1)]


def _pmul(a: IntCoeffs, b: IntCoeffs) -> IntCoeffs:
    out = [0] * (len(a) + len(b) - 1) if a and b else []
    for i, c in enumerate(a):
        if c:
            for j, d in enumerate(b):
                out[i + j] += c * d
    return tuple(out)


def _sylvester_disc(coeffs: List[Tuple[Fraction, Fraction]]) -> IntCoeffs:
    """det Syl(q, dq/dy) for q(y) = sum (A_k + B_k t) y^k, in t (ascending, trimmed).

    The (A_k, B_k) are cleared over their common denominator L, so the matrix
    has entries in Z[t] and its determinant is L^(2n-1) times the rational one.
    Bareiss elimination divides each step exactly by the previous pivot.
    """
    den = math.lcm(*[c.denominator for ab in coeffs for c in ab])
    q = [_trim([c.numerator * (den // c.denominator) for c in ab]) for ab in coeffs]
    n = len(q) - 1
    qd = q[::-1]                  # degree-descending
    dqd = [tuple(k * c for c in q[k]) for k in range(n, 0, -1)]
    size = 2 * n - 1
    m = ([[()] * i + qd + [()] * (size - i - n - 1) for i in range(n - 1)]
         + [[()] * i + dqd + [()] * (size - i - n) for i in range(n)])
    sign, prev = 1, (1,)
    for k in range(size - 1):
        piv = next((r for r in range(k, size) if m[r][k]), None)
        if piv is None:
            return ()
        if piv != k:
            m[k], m[piv] = m[piv], m[k]
            sign = -sign
        for r in range(k + 1, size):
            for c in range(k + 1, size):
                ad, bc = _pmul(m[k][k], m[r][c]), _pmul(m[r][k], m[k][c])
                m[r][c] = _exquo(_trim([u - v for u, v in zip_longest(ad, bc, fillvalue=0)]),
                                 prev)
        prev = m[k][k]
    return tuple(sign * c for c in m[-1][-1])


def _edge_degenerate_ts(S, f, k0: int) -> List[ExceptionalT]:
    out: List[ExceptionalT] = []
    seen_rational = set()
    generic = _generic_polygon(S, f)
    for edge in generic.edges:
        for x_sign in (1, -1):
            coeffs = _edge_line_coeffs(S, f, edge, x_sign)
            if coeffs is None or len(coeffs) < 3:
                continue
            disc = _sylvester_disc(coeffs)
            if len(disc) <= 1:
                continue          # structurally degenerate for every t; no finite set
            for r in isolate_real_roots(disc, domain="all"):
                if r.exact_value is not None:
                    t0 = r.exact_value
                    if t0 in seen_rational:
                        continue
                    if _edge_multiplicity_at(coeffs, t0) >= k0:
                        seen_rational.add(t0)
                        out.append(t0)
                else:
                    out.append(r)   # irrational candidate, kept as an interval
    # cancellations at the combined polygon's vertices change the edge
    # combinatorics even when the vertex is not a vertex of N(S)
    for t0 in _cancel_ts(S, f, generic.vertices):
        if t0 not in seen_rational:
            seen_rational.add(t0)
            out.append(t0)
    rationals = sorted(t for t in out if isinstance(t, Fraction))
    others = [t for t in out if not isinstance(t, Fraction)]
    return rationals + sorted(others, key=lambda r: float(r.midpoint()))


def _edge_multiplicity_at(coeffs, t0: Fraction) -> int:
    """Largest multiplicity of a real nonzero root of R(t0, y)."""
    q = [A + B * t0 for A, B in coeffs]
    while q and q[0] == 0:
        q.pop(0)                  # roots at y = 0 never block adaptedness
    if len(q) <= 1:
        return 0
    return max((r.multiplicity for r in isolate_real_roots(q)), default=0)


def exceptional_candidates(S: PuiseuxPoly, f: PuiseuxPoly) -> ExceptionalSet:
    """Strengths t where S + t*f may lose index stability.

    vertex_ts: exact cancellation ratios -s_v/f_v at the vertices of N(S).
    edge_ts: t where some edge polynomial of S + t*f (both x-signs) acquires
    a real nonzero root of multiplicity >= max(2, ceil(d(S))), found as real
    roots of the Sylvester discriminant in t, one Bareiss determinant over
    Z[t] per edge of the union-support polygon; rational roots are
    verified by exact multiplicity, irrational ones are kept as isolating
    intervals.  The set is a conservative superset: sweep rows landing on a
    candidate are flagged, never judged.
    """
    if S.is_zero():
        raise ValueError("the base phase must be nonzero")
    base = newton_polygon_of(S)
    k0 = max(2, math.ceil(newton_distance(base)))
    vertex_ts = sorted(set(_cancel_ts(S, f, base.vertices)))
    return ExceptionalSet(tuple(vertex_ts), tuple(_edge_degenerate_ts(S, f, k0)))


# ---------------------------------------------------------------------------
# sweeps


def _sweep(S: PuiseuxPoly, f: PuiseuxPoly, grid: Sequence[Optional[Fraction]],
           bound: Tuple[Fraction, int], f_index: Optional[GrowthIndex] = None,
           ) -> Tuple[List[SweepRow], List[str], ExceptionalSet]:
    """Rows of S + t*f over the grid, the violations of bound, and the candidates.

    t = None is the f-alone endpoint, whose index f_index the caller has
    already reduced.  A row is a violation when it is unflagged, has an index
    worse than bound, and is neither t = 0 (S itself) nor the endpoint.
    """
    base_np = newton_polygon_of(S)
    exc = exceptional_candidates(S, f)
    rows: List[SweepRow] = []
    for t in grid:
        if t is None:
            rows.append(SweepRow(None, f_index, True,
                                 polygon_subset(base_np, newton_polygon_of(f)), frozenset()))
            continue
        P = poly_add(S, poly_scale(f, t))
        flags = {k for k, v in exc.matches(t).items() if v}
        if P.is_zero():
            flags.add("vertex_cancel")
            rows.append(SweepRow(t, None, False, False, frozenset(flags),
                                 "phase vanishes identically"))
            continue
        contains = polygon_subset(base_np, newton_polygon_of(P))
        try:
            idx, ok, note = to_superadapted(P).index, True, ""
        except ValueError as e:
            idx, ok, note = None, False, str(e)
            flags.add("undecided")
        rows.append(SweepRow(t, idx, ok, contains, frozenset(flags), note))
    violations = [str(r.t) for r in rows
                  if not r.flags and r.index is not None and r.t not in (0, None)
                  and r.index.key() > bound]
    return rows, violations, exc


def _candidates_json(exc: ExceptionalSet) -> Dict[str, List[str]]:
    return {"vertex_ts": [str(t) for t in exc.vertex_ts],
            "edge_ts": [str(t) if isinstance(t, Fraction)
                        else f"({t.lo}, {t.hi}]" for t in exc.edge_ts]}


def stability_sweep(S: PuiseuxPoly, f: PuiseuxPoly, t_grid: Sequence,
                    ) -> Tuple[List[SweepRow], Dict[str, object]]:
    """Index sweep of S + t*f over the grid, with the lexicographic verdict.

    Every row carries its flags (vertex_cancel / edge_degenerate / undecided);
    the verdict's inequality lex(-j_t, p_t) <= lex(-j, p) quantifies only over
    unflagged rows.
    """
    idx0 = to_superadapted(S).index
    rows, violations, exc = _sweep(S, f, [Fraction(t) for t in t_grid], idx0.key())
    max_coeff = max((abs(c) for c in f.terms.values()), default=Fraction(0))
    max_deg = max((a + b for (a, b) in f.terms), default=Fraction(0))
    verdict = {
        "ok": not violations,
        "baseline": {"j": str(idx0.j), "p": idx0.p},
        "violations": violations,
        **_candidates_json(exc),
        # smallness diagnostic: how far f sits from the perturbative regime
        "perturbation_degree": str(max_deg),
        "perturbation_coeff_sup": float(max_coeff),
    }
    return rows, verdict


def mixture_sweep(S1: PuiseuxPoly, S2: PuiseuxPoly, ratio_grid: Sequence,
                  ) -> Tuple[List[SweepRow], Dict[str, object]]:
    """Sweep S1 + rho*S2 over a ratio grid (None or inf = S2 alone).

    This is the sweep of S1 + t*S2 plus the S2 endpoint (row t = None).  Off
    the candidate set the mixture index must be lexicographically at least as
    good as both endpoint indices.  Hyperbolic Morse rows report oscillatory
    log multiplicity osc_p = 0 (both Morse types share oscillatory indices
    even though the hyperbolic sublevel growth carries a log).
    """
    idx1, idx2 = to_superadapted(S1).index, to_superadapted(S2).index
    grid = [None if raw is None or raw == "inf"
            or (isinstance(raw, float) and math.isinf(raw)) else Fraction(raw)
            for raw in ratio_grid]
    rows, violations, exc = _sweep(S1, S2, grid, min(idx1.key(), idx2.key()), idx2)
    verdict = {
        "ok": not violations,
        "endpoints": {"S1": {"j": str(idx1.j), "p": idx1.p},
                      "S2": {"j": str(idx2.j), "p": idx2.p}},
        "violations": violations,
        **_candidates_json(exc),
    }
    return rows, verdict


# ---------------------------------------------------------------------------
# emitters


def sweep_csv(rows: Sequence[SweepRow], mixture: bool = False) -> str:
    """CSV table of sweep rows; a mixture names t "ratio" and adds osc_p."""
    buf = io.StringIO()
    w = csv.writer(buf)
    if mixture:
        w.writerow(["ratio", "j", "p", "osc_p", "superadapt_ok", "flags", "note"])
    else:
        w.writerow(["t", "j", "p", "superadapt_ok", "polygon_contains_NS", "flags",
                    "note"])
    for r in rows:
        j = "" if r.index is None else str(r.index.j)
        p = "" if r.index is None else r.index.p
        if mixture:
            head = ["inf" if r.t is None else str(r.t), j, p,
                    "" if r.osc_p is None else r.osc_p, int(r.superadapt_ok)]
        else:
            head = [str(r.t), j, p, int(r.superadapt_ok), int(r.polygon_contains_NS)]
        w.writerow(head + ["|".join(sorted(r.flags)), r.note])
    return buf.getvalue()
