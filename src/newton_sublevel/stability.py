"""Perturbation harness: exceptional-strength detection and index sweeps.

For a phase S and perturbation f the growth index of S + t*f can only change
at finitely many strengths t: where a Newton-polygon vertex coefficient
cancels, or where an edge polynomial of S + t*f acquires a real nonzero root
of high multiplicity.  This module computes those candidate strengths exactly
(vertex ratios; discriminants in t via interpolated Sylvester determinants)
and sweeps t-grids comparing indices lexicographically.  A two-phase mixture
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
from typing import Dict, List, Optional, Sequence, Tuple, Union

from .adapt import GrowthIndex, to_superadapted
from .exact_poly import PuiseuxPoly, poly_add, poly_scale
from .newton import (NewtonPolygon, edge_polynomial, newton_distance, newton_polygon_of,
                     polygon_subset)
from .roots import IsolatedRoot, isolate_real_roots

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
    """Polygon of S + tau*f for tau avoiding every coefficient cancellation."""
    support = set(S.terms) | set(f.terms)
    k = 1
    while True:
        tau = Fraction(k, 7919)
        if all(S.coeff(a, int(b)) + tau * f.coeff(a, int(b)) != 0
               for (a, b) in support):
            return newton_polygon_of(poly_add(S, poly_scale(f, tau)))
        k += 1


def _edge_line_coeffs(S, f, edge, x_sign: int):
    """[(A_k, B_k)] for R(t, y) = sum (A_k + B_k t) y^k on the edge line, from
    the edge polynomials of S and f at x = x_sign with y^kmin divided out;
    (None, 0) when x = -1 meets a fractional x-exponent there."""
    try:
        qs, qf = edge_polynomial(S, edge, x_sign), edge_polynomial(f, edge, x_sign)
    except ValueError:
        return None, 0
    ks = sorted({b for (_a, b) in qs.terms} | {b for (_a, b) in qf.terms})
    coeffs = [(qs.coeff(0, k), qf.coeff(0, k)) for k in range(ks[0], ks[-1] + 1)]
    return coeffs, len(coeffs) - 1


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


def _edge_degenerate_ts(S, f, k0: int) -> List[ExceptionalT]:
    out: List[ExceptionalT] = []
    seen_rational = set()
    generic = _generic_polygon(S, f)
    for edge in generic.edges:
        for x_sign in (1, -1):
            coeffs, n = _edge_line_coeffs(S, f, edge, x_sign)
            if coeffs is None or n < 2:
                continue
            npts = 2 * n          # det degree <= 2n - 1
            pts = [(Fraction(i - n), _sylvester_det_at(coeffs, Fraction(i - n)))
                   for i in range(npts)]
            disc = _poly_through(pts)
            if len(disc) <= 1 or all(c == 0 for c in disc):
                continue          # structurally degenerate for every t; no finite set
            for r in isolate_real_roots(tuple(disc), domain="all"):
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


def _poly_through(pts: List[Tuple[Fraction, Fraction]]) -> List[Fraction]:
    """Exact interpolating polynomial, ascending coefficients, trailing-trimmed."""
    n = len(pts)
    # Newton divided differences
    xs = [p[0] for p in pts]
    dd = [p[1] for p in pts]
    table = [dd[:]]
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
    while len(coeffs) > 1 and coeffs[-1] == 0:
        coeffs.pop()
    return coeffs


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
    roots of the interpolated Sylvester discriminant in t; rational roots are
    verified by exact multiplicity, irrational ones are kept as isolating
    intervals.  The set is a conservative superset: sweep rows landing on a
    candidate are flagged, never judged.
    """
    if S.is_zero():
        raise ValueError("the base phase must be nonzero")
    d = newton_distance(newton_polygon_of(S))
    k0 = max(2, math.ceil(d))
    vertex_ts = sorted(set(_cancel_ts(S, f, newton_polygon_of(S).vertices)))
    return ExceptionalSet(tuple(vertex_ts), tuple(_edge_degenerate_ts(S, f, k0)))


# ---------------------------------------------------------------------------
# sweeps


def _index_of(p: PuiseuxPoly):
    rep = to_superadapted(p)
    return rep.index


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
            idx, ok, note = _index_of(P), True, ""
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
    idx0 = _index_of(S)
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
    idx1, idx2 = _index_of(S1), _index_of(S2)
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
