"""Independent checks of the outputs of one round.

Every check works from a computation made apart from the program (sympy
expansion, this file's own Newton-polygon code, exact rational evaluation,
numpy root finding, scipy quadrature, closed forms) or from a property the
method must have.  ``check_outputs`` returns a list of problems; an empty
list means every output passed.  README.md justifies each tolerance.
"""

from __future__ import annotations

import json
import math
import random
import warnings
from decimal import Decimal, localcontext
from fractions import Fraction
from itertools import combinations, groupby

import numpy as np
import sympy as sp
from scipy.integrate import quad
from scipy.special import j0

# tolerances (README.md, "Checks and their tolerances")
MC_Z = 6.0              # MC estimate within 6 stderr of the reference
GRID_Z = 3.0            # GRID estimate within 3 of its error estimate
FIT_J_SLACK = 0.1       # fitted exponent within 0.1 + log_shift of the exact j
OSC_RTOL = 2e-3         # quadrature against closed forms, twice its stop rule
MORSE_TOL = 0.05        # lambda*|J| within 5% of pi for lambda >= 200
VDC_RTOL = 1e-6         # exact sublevel length against numpy.roots
TRI_Z = 6.0             # curved-triangle MC against the closed form
CHART_POINTS = 12       # fresh exact points per chart
SECTOR_POINTS = 120     # seeded sector points per resolution
DECIMAL_DIGITS = 160    # working precision of the chart checks


# ---------------------------------------------------------------------------
# exact polynomials: {(a: Fraction, b: int): Fraction}


def parse_poly(text: str) -> dict:
    """Expand an expression (CLI or report syntax) with sympy into exact terms."""
    x, y = sp.Symbol("x", positive=True), sp.Symbol("y")
    expr = sp.expand(sp.sympify(text.replace("^", "**"), locals={"x": x, "y": y},
                                rational=True))
    return _terms_of(expr, x, y)


def _terms_of(expr, x, y) -> dict:
    out = {}
    for term in sp.Add.make_args(expr):
        if term == 0:
            continue
        cx, a = term.as_coeff_exponent(x)
        c, b = cx.as_coeff_exponent(y)
        if c.free_symbols or not c.is_Rational:
            raise ValueError(f"not a rational monomial: {term}")
        key = (Fraction(int(sp.numer(a)), int(sp.denom(a))), int(b))
        out[key] = out.get(key, Fraction(0)) + Fraction(int(c.p), int(c.q))
    return {k: v for k, v in out.items() if v != 0}


def _sympy_of(terms: dict):
    x, y = sp.Symbol("x", positive=True), sp.Symbol("y")
    return sp.Add(*[sp.Rational(c.numerator, c.denominator)
                    * x ** sp.Rational(a.numerator, a.denominator) * y ** b
                    for (a, b), c in terms.items()]), x, y


# ---------------------------------------------------------------------------
# Newton polygon, computed as the dual problem over supporting lines
# w*a + (1-w)*b = const, w in [0, 1]


def _breakpoints(pts) -> list:
    ws = {Fraction(0), Fraction(1)}
    for (a1, b1), (a2, b2) in combinations(pts, 2):
        den = (a1 - b1) - (a2 - b2)
        if den != 0:
            w = Fraction(b2 - b1) / den
            if 0 <= w <= 1:
                ws.add(w)
    return sorted(ws)


def _support(pts, w):
    return min(w * a + (1 - w) * b for a, b in pts)


def newton_data(terms: dict):
    """(vertices sorted by a, distance d, (d, d) is a vertex, maximizing w's)."""
    pts = [(Fraction(a), Fraction(b)) for (a, b) in terms]
    ws = _breakpoints(pts)
    verts = set()
    for w0, w1 in zip(ws, ws[1:]):
        w = (w0 + w1) / 2
        m = _support(pts, w)
        verts.update(p for p in pts if w * p[0] + (1 - w) * p[1] == m)
    vals = [(_support(pts, w), w) for w in ws]
    d = max(v for v, _ in vals)
    at_max = [w for v, w in vals if v == d]
    vertex_touch = (d, d) in set(pts) and len(at_max) >= 2
    return sorted(verts), d, vertex_touch, at_max


def index_of_final(terms: dict):
    """(j, p, d) read off the polygon of a superadapted phase."""
    _v, d, vertex, _w = newton_data(terms)
    return Fraction(1) / d, (1 if vertex else 0), d


def superadapted_problem(terms: dict):
    """None when no bisectrix-edge root of multiplicity >= d exists, else a message."""
    _v, d, vertex, at_max = newton_data(terms)
    if vertex or len(at_max) != 1 or not 0 < at_max[0] < 1:
        return None
    w = at_max[0]
    edge = [(a, b) for (a, b) in terms if w * a + (1 - w) * b == d]
    if len(edge) < 2:
        return None
    y = sp.Symbol("y")
    for x_sign in (1, -1):
        if x_sign == -1 and any(a.denominator != 1 for a, _ in edge):
            continue
        q = sp.Add(*[sp.Rational(terms[(a, b)].numerator, terms[(a, b)].denominator)
                     * x_sign ** int(a) * y ** b
                     for a, b in edge])
        _lc, factors = sp.Poly(q, y).sqf_list()
        for f, mult in factors:
            if mult < d:
                continue
            roots = [r for r in sp.Poly(f, y).real_roots() if r != 0]
            if roots:
                return f"edge root {roots[0]} (x = {x_sign}) has multiplicity {mult} >= d = {d}"
    return None


# ---------------------------------------------------------------------------
# symbolic workload


def _lex_key(j: Fraction, p: int):
    return (-j, p)


def check_adapt(op, problems):
    res = json.loads(op["output"]["adapt.json"])["results"]
    label = op["label"]
    start = parse_poly(op["meta"]["expr"])
    if parse_poly(res["original"]) != start:
        problems.append(f"{label} adapt: original differs from the input expression")
    cur, x, y = _sympy_of(start)
    d_prev = newton_data(start)[1]
    for s in res["shears"]:
        curve, _, _ = _sympy_of(parse_poly(s["curve"]))
        cur = sp.expand(cur.subs(y, y + curve))
        d_now = newton_data(_terms_of(cur, x, y))[1]
        if d_now < d_prev:
            problems.append(f"{label} adapt: Newton distance fell {d_prev} -> {d_now}")
        d_prev = d_now
    final = parse_poly(res["final"])
    if _terms_of(cur, x, y) != final:
        problems.append(f"{label} adapt: re-expanded shear chain differs from final")
    if res["iterations"] != len(res["shears"]):
        problems.append(f"{label} adapt: iterations != number of shears")
    j, p, d = index_of_final(final)
    if (Fraction(res["index"]["j"]), res["index"]["p"]) != (j, p):
        problems.append(f"{label} adapt: index ({res['index']['j']}, {res['index']['p']}) "
                        f"but the final polygon gives ({j}, {p})")
    if res["index"]["morse_hyperbolic"] != (p == 1 and d == 1):
        problems.append(f"{label} adapt: morse_hyperbolic flag inconsistent")
    bad = superadapted_problem(final)
    if bad:
        problems.append(f"{label} adapt: final is not superadapted: {bad}")
    expected = op["meta"].get("expected")
    if expected and (j, p) != (Fraction(expected[0]), expected[1]):
        problems.append(f"{label} adapt: index ({j}, {p}) != hand-derived {expected}")
    return j, p


def check_analyze(op, adapt_index, problems):
    res = json.loads(op["output"]["analyze.json"])["results"]
    label = op["label"]
    terms = parse_poly(op["meta"]["expr"])
    verts, d, _vt, _w = newton_data(terms)
    got = [(Fraction(a), Fraction(b)) for a, b in res["polygon"]["vertices"]]
    if got != verts:
        problems.append(f"{label} analyze: polygon vertices {got} != {verts}")
    if Fraction(res["newton_distance"]) != d:
        problems.append(f"{label} analyze: distance {res['newton_distance']} != {d}")
    idx = (Fraction(res["index"]["j"]), res["index"]["p"])
    if adapt_index is not None and idx != adapt_index:
        problems.append(f"{label} analyze: index {idx} != adapt's {adapt_index}")
    expected = op["meta"].get("expected")
    if expected and idx != (Fraction(expected[0]), expected[1]):
        problems.append(f"{label} analyze: index {idx} != hand-derived {expected}")


def _bisectrix_tag(verts, d) -> str:
    """Where the diagonal first meets the lower-left boundary through verts."""
    if (d, d) in verts:
        return "Vertex"
    for (a1, b1), (a2, b2) in zip(verts, verts[1:]):
        if a1 < d < a2 and (a2 - a1) * (d - b1) == (b2 - b1) * (d - a1):
            return "EdgeInterior"
    if d == verts[-1][1]:
        return "HorizontalRayInterior"
    return "VerticalRayInterior"


def check_newton(op, problems):
    rec = op["output"]
    label = op["label"]
    verts, d, _vt, _w = newton_data(parse_poly(op["meta"]["expr"]))
    got = [(Fraction(a), Fraction(b)) for a, b in rec["vertices"]]
    if got != verts:
        problems.append(f"{label} newton: vertices {got} != {verts}")
    if Fraction(rec["distance"]) != d:
        problems.append(f"{label} newton: distance {rec['distance']} != {d}")
    if rec["tag"] != _bisectrix_tag(verts, d):
        problems.append(f"{label} newton: class {rec['tag']} != {_bisectrix_tag(verts, d)}")


def check_edge_roots(op, problems):
    """Edges are this file's hull edges; roots and multiplicities are sympy's."""
    label = op["label"]
    terms = parse_poly(op["meta"]["expr"])
    verts = newton_data(terms)[0]
    edges = op["output"]["edges"]
    got = [(e["lo"], e["hi"], e["x_sign"]) for e in edges]
    want = [([str(a1), str(b1)], [str(a2), str(b2)], s)
            for (a1, b1), (a2, b2) in zip(verts, verts[1:]) for s in (1, -1)]
    if got != want:
        problems.append(f"{label} edge_roots: edges {got} != {want}")
        return
    y = sp.Symbol("y")
    for e in edges:
        (a1, b1), (a2, b2) = ([Fraction(v) for v in p] for p in (e["lo"], e["hi"]))
        q = sp.Add(*[sp.Rational(c.numerator, c.denominator) * e["x_sign"] ** int(a) * y ** b
                     for (a, b), c in terms.items()
                     if (a2 - a1) * (b - b1) == (b2 - b1) * (a - a1)])
        real = [(r, len(list(g))) for r, g in groupby(sp.Poly(q, y).real_roots())]
        where = f"{label} edge_roots: edge {e['lo']}-{e['hi']} x = {e['x_sign']}"
        if len(real) != len(e["roots"]):
            problems.append(f"{where}: {len(e['roots'])} roots, sympy finds {len(real)}")
            continue
        for (r, mult), (lo, hi, m, exact) in zip(real, e["roots"]):
            lo_s, hi_s = (sp.Rational(Fraction(v).numerator, Fraction(v).denominator)
                          for v in (lo, hi))
            if not (lo_s < r <= hi_s) or m != mult or (exact is not None
                                                      and sp.Rational(exact) != r):
                problems.append(f"{where}: root {r} (multiplicity {mult}) vs "
                                f"({lo}, {hi}] x{m} exact {exact}")


def _dec(q: Fraction) -> Decimal:
    return Decimal(q.numerator) / Decimal(q.denominator)


class _Point:
    """x = w^ram for a binary w, so every x^a with a*ram integral is w^(a*ram)."""

    def __init__(self, w: float, ram: int):
        self.w = Decimal(w)
        self.ram = ram
        self._pow: dict = {}
        self.x = self.pow(Fraction(1))

    def pow(self, a: Fraction) -> Decimal:
        v = self._pow.get(a)
        if v is None:
            e = a * self.ram
            if e.denominator != 1:
                raise ValueError("exponent finer than the ramification")
            v = self._pow[a] = self.w ** int(e)
        return v

    def curve(self, terms) -> Decimal:
        return sum((c * self.pow(a) for a, c in terms), Decimal(0))

    def phase(self, terms, y: Decimal) -> Decimal:
        return sum((c * self.pow(a) * y ** b for a, b, c in terms), Decimal(0))


def check_resolve(op, problems, summary):
    """Partition of the sector and chart comparability, on fresh points.

    Points and curves are evaluated in 160-digit decimal arithmetic: nested
    strip boundaries differ by relative amounts far below double precision.
    """
    with localcontext() as ctx:
        ctx.prec = DECIMAL_DIGITS
        _check_resolve(op, problems, summary)


def _check_resolve(op, problems, summary):
    label = op["label"]
    dec = json.loads(op["output"]["resolution.json"])
    ver = json.loads(op["output"]["verify.json"])["results"]
    if not ver["all_passed"] or ver["charts"] != len(dec["charts"]):
        problems.append(f"{label} resolve: verify.json does not confirm every chart")
    if Fraction(ver["radius"]) != Fraction(dec["radius"]):
        problems.append(f"{label} resolve: radius differs between the two reports")
    phase = [(a, b, _dec(c)) for (a, b), c in parse_poly(op["meta"]["expr"]).items()]
    eta = Fraction(dec["sector"]["eta"])
    roof = _dec(Fraction(dec["sector"]["roof_coeff"]))
    ram = eta.denominator
    charts = []
    for c in dec["charts"]:
        ch = {"sx": c["sign_x"], "sy": c["sign_y"], "mode": c["mode"],
              "b": _dec(Fraction(c["monomial"]["coeff"])),
              "alpha": Fraction(c["monomial"]["alpha"]), "beta": int(c["monomial"]["beta"]),
              "x_max": Fraction(c["x_max"]), "delta": _dec(Fraction(c["delta"])),
              "band": None if c["band"] is None else [_dec(Fraction(v)) for v in c["band"]]}
        for part, key in (("g", "g"), ("lo", "lower"), ("up", "upper")):
            ch[part] = [(Fraction(a), _dec(Fraction(cf))) for cf, a, _b in c[key]]
            for a, _cf in ch[part]:
                ram = math.lcm(ram, a.denominator)
        ram = math.lcm(ram, ch["alpha"].denominator)
        ch["x_max_d"] = _dec(ch["x_max"])
        charts.append(ch)
    if not charts:
        problems.append(f"{label} resolve: no charts")
        return
    radius = min(ch["x_max"] for ch in charts)
    summary.setdefault("chart_radii", {})[label] = {
        "charts": len(charts), "radius_log2": -math.log2(radius)}
    rng = random.Random(f"{label}-{op['meta'].get('seed', 0)}")

    def draw(hi: Fraction) -> _Point:
        hi_w = float(hi) ** (1.0 / ram)
        while True:
            u = rng.random()
            t = u if rng.random() < 0.5 else 10.0 ** (-3.0 * u)
            pt = _Point(hi_w * min(max(t, 1e-6), 1.0 - 1e-9), ram)
            if 0 < pt.x < _dec(hi):
                return pt

    def members(pt: _Point, y: Decimal) -> int:
        n = 0
        for ch in charts:
            if not 0 < ch["sx"] * pt.x < ch["x_max_d"]:
                continue
            yc = ch["sy"] * y - pt.curve(ch["g"])
            if pt.curve(ch["lo"]) < yc < pt.curve(ch["up"]):
                n += 1
        return n

    # (1) seeded sector points fall in exactly one chart
    bad = 0
    for _ in range(SECTOR_POINTS):
        pt = draw(radius)
        v = rng.random()
        t = v if rng.random() < 0.5 else 10.0 ** (-6.0 * v)
        if members(pt, roof * pt.pow(eta) * Decimal(t)) != 1:
            bad += 1
    if bad:
        problems.append(f"{label} resolve: {bad}/{SECTOR_POINTS} sector points not in "
                        "exactly one chart")

    # (2) fresh points of each chart: in no other chart, and comparable to the model
    for k, ch in enumerate(charts):
        for _ in range(CHART_POINTS):
            pt = draw(radius if rng.random() < 0.5 else ch["x_max"])
            lo, up = pt.curve(ch["lo"]), pt.curve(ch["up"])
            yc = lo + (up - lo) * Decimal(rng.randint(1, 255)) / 256
            y = ch["sy"] * (yc + pt.curve(ch["g"]))
            if pt.x < _dec(radius) and members(pt, y) != 1:
                problems.append(f"{label} resolve: a point of chart {k} lies in another chart")
                break
            ratio = pt.phase(phase, y) / (ch["b"] * pt.pow(ch["alpha"]))
            if ch["mode"] == "C":
                dev = abs(ratio / yc ** ch["beta"] - 1)
                if dev > ch["delta"]:
                    problems.append(f"{label} resolve: corner chart {k} ratio off by "
                                    f"{float(dev):.3g} > delta at x = {float(pt.x):.3g}")
                    break
            else:
                lo_b, hi_b = ch["band"]
                if not lo_b * (1 - ch["delta"]) <= ratio <= hi_b * (1 + ch["delta"]):
                    problems.append(f"{label} resolve: band chart {k} ratio {float(ratio):.4g}"
                                    f" outside [{float(lo_b):.4g}, {float(hi_b):.4g}]")
                    break


def check_sweep(op, base_index, problems):
    label = op["label"]
    res = json.loads(op["output"]["sweep.json"])["results"]
    verdict = res["verdict"]
    if not verdict["ok"] or verdict["violations"]:
        problems.append(f"{label} sweep: verdict reports violations")
    rows = res["rows"]
    if op["meta"]["mixture"]:
        ends = verdict["endpoints"]
        k1 = _lex_key(Fraction(ends["S1"]["j"]), ends["S1"]["p"])
        k2 = _lex_key(Fraction(ends["S2"]["j"]), ends["S2"]["p"])
        if base_index is not None and k1 != _lex_key(*base_index):
            problems.append(f"{label} sweep: S1 endpoint index differs from adapt")
        for r in rows:
            if r["flags"] or r["j"] is None or r["ratio"] == "inf":
                continue
            key = _lex_key(Fraction(r["j"]), r["p"])
            if r["ratio"] == "0" and key != k1:
                problems.append(f"{label} sweep: ratio 0 row differs from S1")
            elif r["ratio"] != "0" and key > min(k1, k2):
                problems.append(f"{label} sweep: unflagged ratio {r['ratio']} breaks the bound")
    else:
        base = _lex_key(Fraction(verdict["baseline"]["j"]), verdict["baseline"]["p"])
        if base_index is not None and base != _lex_key(*base_index):
            problems.append(f"{label} sweep: baseline differs from adapt's index")
        for r in rows:
            if r["flags"]:
                continue
            if r["j"] is None or _lex_key(Fraction(r["j"]), r["p"]) > base:
                problems.append(f"{label} sweep: unflagged t = {r['t']} breaks the lex bound")
    # acceptance criterion 6, known answers
    if label == "x^2+y^2":
        crit = {r["t"]: r for r in rows}["1"]
        if (crit["j"], crit["p"]) != ("1/2", 0) or "vertex_cancel" not in crit["flags"]:
            problems.append("x^2+y^2 sweep: Morse degradation at t = 1 not reproduced")
    if label == "x^2y^2+x^5":
        if any((r["j"], r["p"]) != ("1/2", 1) for r in rows):
            problems.append("x^2y^2+x^5 sweep: a row left (1/2, 1)")


def check_direct_sweep(op, problems):
    rec = op["output"]
    j, p = op["meta"]["expected_rows"]
    if not rec["verdict"]["ok"] or any((r["j"], r["p"]) != (j, p) for r in rec["rows"]):
        problems.append(f"{op['label']}: rows are not all ({j}, {p})")


def check_exceptional(op, problems):
    if op["output"]["vertex_ts"] != op["meta"]["expected_vertex_ts"]:
        problems.append(f"{op['label']}: vertex_ts {op['output']['vertex_ts']} != "
                        f"{op['meta']['expected_vertex_ts']}")


# ---------------------------------------------------------------------------
# vdc_audit


def check_vdc_report(op, problems):
    res = json.loads(op["output"]["vdc.json"])["results"]
    label = op["label"]
    if [r["k"] for r in res["per_k"]] != [1, 2, 3]:
        problems.append(f"{label}: per_k rows are not k = 1, 2, 3")
    for r in res["per_k"]:
        if r["count"] != op["meta"]["per_k"]:
            problems.append(f"{label}: k = {r['k']} ran {r['count']} instances")
        # van der Corput: measured <= bound on every certified instance
        if r["violations"] or not 0.0 <= r["max_measured_over_bound"] <= 1.0:
            problems.append(f"{label}: k = {r['k']} measured/bound "
                            f"{r['max_measured_over_bound']} exceeds 1")
    if res["violations"] != 0:
        problems.append(f"{label}: {res['violations']} violations reported")


def sublevel_length_float(coeffs, eps: float, lo: float, hi: float) -> float:
    """|{t in [lo, hi]: |f(t)| < eps}| from numpy.roots of f -+ eps."""
    desc = np.array(coeffs[::-1], dtype=float)
    cuts = [lo, hi]
    for s in (eps, -eps):
        shifted = desc.copy()
        shifted[-1] -= s
        for r in np.roots(shifted):
            if abs(r.imag) <= 1e-9 and lo < r.real < hi:
                cuts.append(float(r.real))
    cuts.sort()
    total = 0.0
    for t0, t1 in zip(cuts, cuts[1:]):
        if abs(np.polyval(desc, 0.5 * (t0 + t1))) < eps:
            total += t1 - t0
    return total


def check_vdc_call(op, problems):
    meta, rec = op["meta"], op["output"]
    label = op["label"]
    k, c, eps = meta["k"], Fraction(meta["c"]), Fraction(meta["eps"])
    lo, hi = (Fraction(v) for v in meta["interval"])
    bound = min(float(hi - lo), 4.0 * float(c) ** (-1.0 / k) * float(eps) ** (1.0 / k))
    if not math.isclose(rec["bound"], bound, rel_tol=1e-12):
        problems.append(f"{label}: bound {rec['bound']} != {bound}")
    if not rec["measured"] <= rec["bound"] or not rec["ok"]:
        problems.append(f"{label}: measured {rec['measured']} > bound {rec['bound']}")
    ref = sublevel_length_float(meta["coeffs"], float(eps), float(lo), float(hi))
    if abs(rec["measured"] - ref) > VDC_RTOL * ref + 1e-12:
        problems.append(f"{label}: measured {rec['measured']} but numpy.roots gives {ref}")


# ---------------------------------------------------------------------------
# sampling


def _quadratic_slices(expr: str):
    """S(x, y) = A(x) y^2 + B(x) y + C(x) as three float callables."""
    terms = parse_poly(expr)
    by_b = {0: [], 1: [], 2: []}
    for (a, b), c in terms.items():
        if b > 2:
            raise ValueError("slice reference needs y-degree <= 2")
        by_b[b].append((float(c), int(a)))
    return [lambda x, ts=by_b[b]: sum(c * x ** a for c, a in ts) for b in (2, 1, 0)]


def _slice_length(coef, eps: float, h: float) -> float:
    A, B, C = coef
    cuts = [-h, h]
    for s in (eps, -eps):
        c0 = C - s
        if A != 0.0:
            disc = B * B - 4.0 * A * c0
            if disc >= 0.0:
                q = -0.5 * (B + math.copysign(math.sqrt(disc), B))
                roots = [q / A] + ([c0 / q] if q != 0.0 else [])
            else:
                roots = []
        elif B != 0.0:
            roots = [-c0 / B]
        else:
            roots = []
        cuts.extend(r for r in roots if -h < r < h)
    cuts.sort()
    total = 0.0
    for t0, t1 in zip(cuts, cuts[1:]):
        m = 0.5 * (t0 + t1)
        if abs((A * m + B) * m + C) < eps:
            total += t1 - t0
    return total


def disk_measure_reference(expr: str, eps: float) -> float:
    """|{|S| < eps} ∩ unit disk|: slice-wise roots in y, scipy quad in x."""
    if expr == "x^2 + y^2":
        return math.pi * min(eps, 1.0)
    A, B, C = _quadratic_slices(expr)

    def length(x):
        return _slice_length((A(x), B(x), C(x)), eps, math.sqrt(max(0.0, 1.0 - x * x)))
    with warnings.catch_warnings():
        # quad may report round-off near 1e-9; the reference needs ~1e-5
        warnings.simplefilter("ignore")
        val, _err = quad(length, -1.0, 1.0, points=[0.0], limit=400,
                         epsabs=1e-13, epsrel=1e-9)
    return val


def osc_reference(expr: str, lam: float):
    """Closed form / 1-D Bessel integral of the oscillatory integral, or None."""
    if expr == "x^2 + y^2":
        # pi * int_0^1 e^{i lam s} (1 - s)^3 ds
        re, _ = quad(lambda s: (1 - s) ** 3, 0.0, 1.0, weight="cos", wvar=lam)
        im, _ = quad(lambda s: (1 - s) ** 3, 0.0, 1.0, weight="sin", wvar=lam)
        return math.pi * complex(re, im)
    if expr in ("x^2 - y^2", "x*y"):
        # pi * int_0^1 (1 - s)^3 J0(lam s) ds; x*y is x^2 - y^2 at lam / 2
        mu = lam if expr == "x^2 - y^2" else lam / 2.0
        val, _ = quad(lambda s: (1 - s) ** 3 * j0(mu * s), 0.0, 1.0, limit=2000,
                      epsabs=1e-13, epsrel=1e-10)
        return complex(math.pi * val, 0.0)
    return None


def log_shift(lo: float, hi: float) -> float:
    """Largest change of a fitted exponent from adding or dropping |ln t|^1.

    Over [lo, hi] the regressor ln|ln t| has mean slope
    (ln|ln lo| - ln|ln hi|) / (ln hi - ln lo) against ln t, so a fit that
    picks the wrong p moves j by about that much.
    """
    return abs(math.log(abs(math.log(lo))) - math.log(abs(math.log(hi)))) / math.log(hi / lo)


def check_measure(op, problems, summary):
    label = op["label"]
    res = json.loads(op["output"]["measure.json"])["results"]
    method = op["meta"]["method"]
    if res["method"] != method:
        problems.append(f"{label}: method {res['method']} != {method}")
    for s in res["samples"]:
        ref = disk_measure_reference(op["meta"]["expr"], s["epsilon"])
        z = MC_Z if method == "MC" else GRID_Z
        if abs(s["estimate"] - ref) > z * s["stderr"] + 1e-12:
            problems.append(f"{label}: eps {s['epsilon']:.3g} estimate {s['estimate']:.6g} "
                            f"vs reference {ref:.6g} (stderr {s['stderr']:.3g})")
    fit = res["fit"]
    if not op["meta"]["fit"]:
        return
    j = float(Fraction(op["meta"]["expected"][0]))
    if "j_hat" not in fit:
        problems.append(f"{label}: no fit ({fit.get('error')})")
        return
    dev = fit["j_hat"] - j
    summary.setdefault("fit_deviation", {})[label] = dev
    eps = [s["epsilon"] for s in res["samples"]]
    if abs(dev) > FIT_J_SLACK + log_shift(min(eps), max(eps)):
        problems.append(f"{label}: fitted j {fit['j_hat']:.4f} vs exact {j:.4f}")


def check_oscillate(op, problems, summary):
    label = op["label"]
    res = json.loads(op["output"]["oscillate.json"])["results"]
    expr = op["meta"]["expr"]
    for pair in res["pairs"]:
        lam, val = pair["lambda"], complex(pair["re"], pair["im"])
        if abs(val) > math.pi / 4 + 1e-9:   # |J| <= integral of the cutoff
            problems.append(f"{label}: |J({lam:.4g})| = {abs(val):.4g} exceeds pi/4")
        ref = osc_reference(expr, lam)
        if ref is not None and abs(val - ref) > OSC_RTOL * abs(ref) + 1e-9:
            problems.append(f"{label}: J({lam:.4g}) = {val:.6g} vs reference {ref:.6g}")
        if op["meta"].get("morse_limit") and lam >= 200.0:
            if abs(lam * abs(val) - math.pi) > MORSE_TOL * math.pi:
                problems.append(f"{label}: lambda*|J| = {lam * abs(val):.4f} not near pi")
    fit = res["fit"]
    if "j_hat" not in fit:
        if not op["meta"].get("morse_limit"):
            problems.append(f"{label}: no fit ({fit.get('error')})")
        return
    j = float(Fraction(op["meta"]["expected"][0]))
    dev = fit["j_hat"] - j
    summary.setdefault("fit_deviation", {})[label] = dev
    lams = [pair["lambda"] for pair in res["pairs"]]
    if abs(dev) > FIT_J_SLACK + log_shift(min(lams), max(lams)):
        problems.append(f"{label}: fitted decay exponent {fit['j_hat']:.4f} vs exact {j:.4f}")


def triangle_measure(c, a, b, m, N, x0, eps) -> float:
    """|{0 < x < x0, 0 < y < N x^m : c x^a y^b < eps}| in closed form (b >= 1)."""
    k = (eps / c) ** (1.0 / b)            # y < k * x^(-a/b)
    s = a / b
    xs = (k / N) ** (1.0 / (m + s))       # where N x^m meets k x^(-s)
    if xs >= x0:
        return N * x0 ** (m + 1) / (m + 1)
    head = N * xs ** (m + 1) / (m + 1)
    if s == 1.0:
        return head + k * math.log(x0 / xs)
    return head + k * (x0 ** (1 - s) - xs ** (1 - s)) / (1 - s)


def check_triangle(op, problems):
    meta, rec = op["meta"], op["output"]
    m = float(Fraction(meta["m"]))
    ref = triangle_measure(meta["c"], meta["a"], meta["b"], m, meta["N"], meta["x0"],
                           meta["eps"])
    # the binomial sd of a hit-or-miss estimate from n points on the bounding
    # box [0, x0] x [0, N x0^m], n/(m + 1) of which fall in the triangle, when
    # ref is the truth.  The program's own stderr comes from its hit count and
    # is 0 when every point hits a set that fills all but 1e-5 of the triangle.
    area = meta["N"] * meta["x0"] ** (m + 1) / (m + 1)
    share = min(ref / area, 1.0)
    sd = area * math.sqrt(share * (1 - share) * (m + 1) / rec["n"])
    if abs(rec["estimate"] - ref) > TRI_Z * sd + 1e-12:
        problems.append(f"{op['label']}: estimate {rec['estimate']:.6g} vs closed form "
                        f"{ref:.6g} (binomial sd {sd:.3g})")


# ---------------------------------------------------------------------------


def check_outputs(outputs, summary=None) -> list:
    """Problems found in one round's outputs (see module docstring)."""
    problems: list = []
    summary = {} if summary is None else summary
    adapt_index = {}
    for op in outputs:
        if op["output"] is None:
            problems.append(f"{op['label']} {op['kind']}: no output")
            continue
        try:
            kind = op["kind"]
            if kind == "adapt":
                adapt_index[op["label"]] = check_adapt(op, problems)
            elif kind == "analyze":
                pass  # checked after adapt, whose index it must repeat
            elif kind == "resolve":
                check_resolve(op, problems, summary)
            elif kind == "sweep":
                pass
            elif kind == "newton":
                check_newton(op, problems)
            elif kind == "edge_roots":
                check_edge_roots(op, problems)
            elif kind == "stability_sweep":
                check_direct_sweep(op, problems)
            elif kind == "exceptional":
                check_exceptional(op, problems)
            elif kind == "check-vdc":
                check_vdc_report(op, problems)
            elif kind == "vdc_check":
                check_vdc_call(op, problems)
            elif kind == "measure":
                check_measure(op, problems, summary)
            elif kind == "oscillate":
                check_oscillate(op, problems, summary)
            elif kind == "triangle":
                check_triangle(op, problems)
            else:
                problems.append(f"{op['label']}: no check for kind {kind!r}")
        except Exception as exc:  # a malformed output is a failed check
            problems.append(f"{op['label']} {op['kind']}: check raised {exc!r}")
    for op in outputs:
        if op["output"] is None:
            continue
        try:
            if op["kind"] == "analyze":
                check_analyze(op, adapt_index.get(op["label"]), problems)
            elif op["kind"] == "sweep":
                check_sweep(op, adapt_index.get(op["label"]), problems)
        except Exception as exc:
            problems.append(f"{op['label']} {op['kind']}: check raised {exc!r}")
    return problems
