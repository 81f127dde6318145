"""Seeded inputs of the three workloads, as fixed lists of operations.

An operation is one CLI report (``argv`` for ``newton_sublevel.cli.run``) or
one direct public call (``call(package)`` returning a value that ``record``
turns into plain JSON).  ``meta`` carries what the independent checks need.
Nothing here depends on how long a run lasts: every round repeats the list.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, List, Optional

# (name, CLI expression, exact j, exact p); j and p are derived by hand in
# README.md ("Hand-derived indices")
CATALOG = [
    ("x^2+y^2", "x^2 + y^2", "1", 0),
    ("x*y", "x*y", "1", 1),
    ("x^2-y^2", "x^2 - y^2", "1", 1),
    ("(y-x^2)^2", "(y - x^2)^2", "1/2", 0),
    ("x^2y^2+x^5", "x^2*y^2 + x^5", "1/2", 1),
    ("y^2-x^3", "y^2 - x^3", "5/6", 0),
]
EXTRAS = [
    ("(y-x^2-x^3)^2-x^9", "(y - x^2 - x^3)^2 - x^9", "11/18", 0),
    ("y^2-2x^2y+x^4-x^7", "y^2 - 2*x^2*y + x^4 - x^7", "9/14", 0),
]

# sweep of each fixed phase: (second phase, t grid, mixture?).  The first and
# the fifth are the sweeps of acceptance criterion 6 (i) and (ii).
FIXED_SWEEPS = {
    "x^2+y^2": ("x^2 - y^2", "-1/2,1/2,1", False),
    "x*y": ("x^2 + y^2", "0,1,inf", True),
    "x^2-y^2": ("x^2 + y^2", "0,1/2,1,2,inf", True),
    "(y-x^2)^2": ("y^3", "-1,-1/2,1/2,1", False),
    "x^2y^2+x^5": ("y^7", "-2,-1,-1/2,1/2,1,2", False),
    "y^2-x^3": ("x^7", "-1,1/2,1,2", False),
    "(y-x^2-x^3)^2-x^9": ("x^10", "-1,-1/2,1/2,1", False),
    "y^2-2x^2y+x^4-x^7": ("x^8", "-1,-1/2,1/2,1", False),
}

# Two-branch family (y - c1*x^m1)^k1 * (y - c2*x^m2)^k2 + T*x^N.  Each slot
# fixes (m1, m2, k1, k2, sign c1, sign c2); the seed draws |c1|, |c2| from
# {1, 2, 3} and |T| from {1, 2}.  See README.md for the rule that keeps every
# member inside the exact model.
FAMILY_SLOTS = [
    (1, 1, 1, 1, 1, -1),
    (1, 1, 1, 1, -1, -1),
    (1, 1, 1, 2, -1, 1),
    (1, 1, 2, 1, 1, -1),
    (1, 1, 2, 2, 1, -1),
    (1, 1, 2, 2, -1, 1),
    (1, 3, 2, 1, 1, -1),
    (1, 2, 1, 1, -1, -1),
    (1, 2, 1, 2, -1, 1),
    (1, 2, 1, 2, -1, -1),
    (1, 2, 2, 1, 1, -1),
    (1, 1, 2, 1, -1, -1),
    (1, 1, 1, 2, -1, -1),
    (1, 1, 2, 2, -1, -1),
    (2, 2, 1, 1, -1, -1),
    (2, 2, 2, 1, 1, -1),
    (1, 3, 1, 2, -1, 1),
]


@dataclass
class Op:
    kind: str
    label: str
    argv: Optional[List[str]] = None
    call: Optional[Callable] = None
    record: Optional[Callable] = None
    meta: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# symbolic


def _branch_lead(facs, i) -> Fraction:
    """Leading coefficient A of the cofactor of branch i along y = c_i*x^m_i."""
    c, m, _k = facs[i]
    a = Fraction(1)
    for j, (cj, mj, kj) in enumerate(facs):
        if j == i:
            continue
        if mj < m:
            a *= Fraction(-cj) ** kj
        elif mj > m:
            a *= Fraction(c) ** kj
        else:
            a *= Fraction(c - cj) ** kj
    return a


def family_phase(rng: random.Random, slot) -> str:
    m1, m2, _k1, _k2, s1, s2 = slot
    while True:
        c1, c2 = s1 * rng.choice((1, 2, 3)), s2 * rng.choice((1, 2, 3))
        if (m1, c1) != (m2, c2):
            break
    return family_expr(slot, c1, c2, rng.choice((1, 2)), rng.choice((1, -1)))


def family_expr(slot, c1: int, c2: int, tail: int, sign: int) -> str:
    """The family member; sign is overridden on a positive double branch."""
    m1, m2, k1, k2, _s1, _s2 = slot
    facs = [(c1, m1, k1), (c2, m2, k2)]
    for i, (c, _m, k) in enumerate(facs):
        if k == 2 and c > 0:
            # A*y^2 + T has no real root when T has the sign of A
            sign = 1 if _branch_lead(facs, i) > 0 else -1
    n = k1 * m1 + k2 * m2 + 1
    parts = []
    for c, m, k in facs:
        xm = "x" if m == 1 else f"x^{m}"
        body = f"(y {'-' if c > 0 else '+'} {abs(c)}*{xm})"
        parts.append(body if k == 1 else f"{body}^{k}")
    return "*".join(parts) + f" {'+' if sign > 0 else '-'} {tail}*x^{n}"


def _sweep_record(result):
    rows, verdict = result
    return {"verdict": verdict,
            "rows": [{"t": str(r.t), "j": None if r.index is None else str(r.index.j),
                      "p": None if r.index is None else r.index.p,
                      "flags": sorted(r.flags)} for r in rows]}


def _newton(package, poly):
    polygon = package.newton_polygon_of(poly)
    return polygon, package.newton_distance(polygon), package.bisectrix_classify(polygon)


def _newton_record(result):
    polygon, d, cls = result
    return {"vertices": [[str(a), str(b)] for a, b in polygon.vertices],
            "distance": str(d), "tag": cls.tag}


def _edge_roots(package, poly):
    """Real roots of every compact-edge polynomial of poly, at x = 1 and x = -1."""
    out = []
    for e in package.newton_polygon_of(poly).edges:
        for x_sign in (1, -1):
            q = package.edge_polynomial(poly, e, x_sign)
            out.append((e, x_sign, package.isolate_real_roots(q)))
    return out


def _edge_roots_record(result):
    return {"edges": [{"lo": [str(v) for v in e.lo], "hi": [str(v) for v in e.hi],
                       "x_sign": x_sign,
                       "roots": [[str(r.lo), str(r.hi), r.multiplicity,
                                  None if r.exact_value is None else str(r.exact_value)]
                                 for r in roots]}
                      for e, x_sign, roots in result]}


def symbolic(seed: int, package) -> List[Op]:
    rng = random.Random(f"symbolic-{seed}")
    phases = []  # (label, expr, expected (j, p) or None, sweep spec)
    for name, expr, j, p in CATALOG + EXTRAS:
        phases.append((name, expr, (j, p), FIXED_SWEEPS[name]))
    for i, slot in enumerate(FAMILY_SLOTS):
        expr = family_phase(rng, slot)
        n_tail = int(expr.rsplit("x^", 1)[1])
        sweep = (("x^2 + y^2", "0,1/2,1,2,inf", True) if i % 2
                 else (f"x^{n_tail + 1}", "-1,-1/2,1/2,1", False))
        phases.append((f"family{i:02d}", expr, None, sweep))

    ops: List[Op] = []
    for label, expr, expected, (other, grid, mixture) in phases:
        meta = {"expr": expr, "expected": expected}
        poly = package.cli.parse_expression(expr).poly
        ops.append(Op("analyze", label, ["analyze", expr], meta=meta))
        ops.append(Op("adapt", label, ["adapt", expr], meta=meta))
        # direct calls into the newton layer, and (family) the roots of its
        # sparse edge polynomials, whose rational roots are the branches' c
        ops.append(Op("newton", label, meta=meta, record=_newton_record,
                      call=lambda ns, poly=poly: _newton(ns, poly)))
        if expected is None:
            ops.append(Op("edge_roots", label, meta=meta, record=_edge_roots_record,
                          call=lambda ns, poly=poly: _edge_roots(ns, poly)))
        # the CLI's own verification seed stays at its default: with other
        # seeds the second pass rejects charts that the first certified
        # (CHANGES.md, FOUND); the checks draw their fresh points from `seed`
        ops.append(Op("resolve", label, ["resolve", expr], meta=dict(meta, seed=seed)))
        argv = ["sweep", expr, other, f"--t-grid={grid}"] + (["--mixture"] if mixture else [])
        ops.append(Op("sweep", label, argv,
                      meta=dict(meta, other=other, grid=grid, mixture=mixture)))

    # criterion 6 (iii) and the exact self-cancellation set, as direct calls
    y2 = package.PuiseuxPoly.monomial(1, 0, 2)
    x7 = package.PuiseuxPoly.monomial(1, 7, 0)
    grid3 = [Fraction(-1), Fraction(1, 2), Fraction(1), Fraction(2)]
    ops.append(Op("stability_sweep", "y^2+t*x^7",
                  call=lambda ns: ns.stability_sweep(y2, x7, grid3),
                  record=_sweep_record,
                  meta={"expr": "y^2", "other": "x^7", "expected_rows": ["9/14", 0]}))
    s2 = package.cli.parse_expression("x^2*y^2 + x^5").poly
    neg = package.poly_scale(s2, -1)
    ops.append(Op("exceptional", "(S,-S)",
                  call=lambda ns: ns.exceptional_candidates(s2, neg),
                  record=lambda exc: {"vertex_ts": [str(t) for t in exc.vertex_ts],
                                      "edge_ts": [str(t) for t in exc.edge_ts]},
                  meta={"expected_vertex_ts": ["1"]}))
    return ops


# ---------------------------------------------------------------------------
# vdc_audit


def vdc_instance(rng: random.Random, k: int, degree: int, e: int, sign: int):
    """Integer f of the given degree with |f^(k)| >= c*k! on [0, 1], c exact.

    The k-th coefficient dominates: on [0, 1],
    |f^(k)(t)| >= |a_k|*k! - sum_{i>k} |a_i|*i!/(i-k)!, and a_k is drawn
    large enough for that floor to be positive.  f(0) = sign and the leading
    coefficient is +-1, so the rational-root search of f -+ 10^-e tries the
    same divisor pairs whatever the seed; only the middle coefficients and
    a_k are random.
    """
    a = [sign] + [rng.randint(-9, 9) for _ in range(degree - 1)] + [rng.choice((1, -1))]
    slack = sum(abs(a[i]) * math.factorial(i) // math.factorial(i - k)
                for i in range(k + 1, degree + 1))
    lead = -(-slack // math.factorial(k)) + rng.randint(5, 40)
    a[k] = lead if rng.random() < 0.5 else -lead
    floor = abs(a[k]) * math.factorial(k) - slack
    # keep c strictly below the floor: the program rejects a bound that is
    # attained at an endpoint as uncertifiable
    c = Fraction(floor, math.factorial(k)) * Fraction(1023, 1024)
    return a, c, Fraction(1, 10 ** e)


def vdc_audit(seed: int, package) -> List[Op]:
    rng = random.Random(f"vdc_audit-{seed}")
    ops: List[Op] = []
    # check-vdc draws its own random instances, whose cost varies tenfold;
    # a fixed set of CLI seeds keeps the round's cost the same for every seed.
    # 20 reports (72-330 ms) among 164 operations put op_p90_s inside their
    # block of fixed costs instead of on the gap above the slowest vdc_check
    for cli_seed in range(20):
        ops.append(Op("check-vdc", f"check-vdc-{cli_seed}",
                      ["check-vdc", "--samples", "1", "--seed", str(cli_seed)],
                      meta={"per_k": 1}))
    # 144 instances stratified over k, epsilon, degree and f(0) (period 36);
    # an instance's cost varies threefold with its random coefficients, so
    # many of them keep the round's latency distribution the same across seeds
    for i in range(144):
        k, e = 1 + i % 3, 2 + (i // 3) % 3
        degree = k + 2 + (i // 9) % 2
        a, c, eps = vdc_instance(rng, k, degree, e, 1 if (i // 18) % 2 == 0 else -1)
        coeffs = [Fraction(v) for v in a]
        interval = (Fraction(0), Fraction(1))
        ops.append(Op("vdc_check", f"vdc-{i:03d}",
                      call=lambda ns, coeffs=coeffs, k=k, c=c, eps=eps:
                      ns.vdc_check(coeffs, interval, k, c, eps),
                      record=lambda r: {"measured": r["measured"], "bound": r["bound"],
                                        "ok": r["ok"]},
                      meta={"coeffs": a, "k": k, "c": str(c), "eps": str(eps),
                            "interval": ["0", "1"]}))
    return ops


# ---------------------------------------------------------------------------
# sampling


def _eps_spec(rng: random.Random, hi: float, decades: float) -> str:
    top = hi * 10 ** -rng.uniform(0.0, 0.2)
    return f"{top * 10 ** -decades:.6g}..{top:.6g}:4"


def _sample_record(s):
    return {"epsilon": s.epsilon, "estimate": s.estimate, "stderr": s.stderr,
            "n": s.n_samples, "method": s.method}


def sampling(seed: int, package) -> List[Op]:
    rng = random.Random(f"sampling-{seed}")
    ops: List[Op] = []
    for name, expr, j, p in CATALOG:
        meta = {"expr": expr, "expected": (j, p)}
        # two budgets over two decades (too narrow for a fit), one fitted
        # report over three decades whose smallest epsilon still expects
        # about 30 hits on the sparsest phase, x^2 + y^2
        for budget, hi, decades in ((50_000, 0.3, 2.0), (100_000, 0.3, 2.0),
                                    (200_000, 0.2, 3.05)):
            ops.append(Op("measure", f"{name}-mc{budget}",
                          ["measure", expr, "--eps", _eps_spec(rng, hi, decades),
                           "--samples", str(budget), "--seed", str(rng.randrange(10**6))],
                          meta=dict(meta, method="MC", fit=decades >= 3)))
        for depth in (8, 9):
            ops.append(Op("measure", f"{name}-grid{depth}",
                          ["measure", expr, "--eps", "1e-3..1.2:4",
                           "--samples", str(4 ** depth), "--mode", "exact"],
                          meta=dict(meta, method="GRID", fit=True)))
        for lams in ("10..200:4", "20..400:4"):
            ops.append(Op("oscillate", f"{name}-osc{lams}",
                          ["oscillate", expr, "--lambda", lams], meta=meta))
    ops.append(Op("oscillate", "x^2+y^2-morse", ["oscillate", "x^2 + y^2",
                                                 "--lambda", "200..800:3"],
                  meta={"expr": "x^2 + y^2", "expected": ("1", 0), "morse_limit": True}))

    # monomial phases c*x^a*y^b on curved triangles {0 < x < x0, 0 < y < N*x^m}:
    # 60 calls at 100 000 points, then 40 light calls at 20 000 points and
    # larger epsilon, which put op_p50_s inside the block of the 60 instead of
    # on the gap above them
    for prefix, count, budget, decades in (("tri", 60, 100_000, (2.0, 4.0)),
                                           ("tric", 40, 20_000, (1.5, 2.5))):
        for i in range(count):
            a, b = rng.randint(0, 3), rng.randint(1, 3)
            c = rng.choice((1, 2, 3))
            m = Fraction(rng.choice((1, 2, 3)), rng.choice((1, 2)))
            n_coef = rng.choice((1, 2))
            x0 = rng.choice((0.5, 0.75, 1.0))
            eps = 10 ** -rng.uniform(*decades)
            phase = package.PuiseuxPoly.monomial(c, a, b)
            region = package.curved_triangle(m, n_coef, x0)
            mc_seed = rng.randrange(10**6)
            ops.append(Op("triangle", f"{prefix}-{i:02d}",
                          call=lambda ns, phase=phase, region=region, eps=eps, mc_seed=mc_seed,
                          budget=budget:
                          ns.sublevel_measure(phase, region, eps, budget=budget, seed=mc_seed),
                          record=_sample_record,
                          meta={"c": c, "a": a, "b": b, "m": str(m), "N": n_coef,
                                "x0": x0, "eps": eps}))
    return ops


WORKLOADS = {"symbolic": symbolic, "vdc_audit": vdc_audit, "sampling": sampling}
