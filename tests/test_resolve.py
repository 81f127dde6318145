"""Resolution into monomial-comparable charts: tiling, proved radii, maps."""

import dataclasses
import importlib
import json
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from newton_sublevel import (
    PuiseuxPoly,
    branch_curve,
    chart_apply,
    chart_unapply,
    decomposition_to_json,
    deriv_y,
    divide_out_x,
    edge_polynomial,
    eval_rational,
    eval_real,
    isolate_real_roots,
    newton_polygon_of,
    parse_expression,
    poly_add,
    poly_mul,
    resolve,
    ResolveParams,
    subst_scale,
    subst_shear,
    subst_y,
    verify_chart,
)
import helpers
from helpers import phase, CATALOG, RESOLVE_EXTRAS

ALL_PHASES = [(n, p) for n, p, *_ in CATALOG] + RESOLVE_EXTRAS
RESOLVE = importlib.import_module("newton_sublevel.resolve")
NEWTON = importlib.import_module("newton_sublevel.newton")
# the slowest resolve known: one branch curve of 73 terms below order 40
SLOW_PHASE = "3*x^6*y^3 - 3/2*x^5*y^4 - 3*x^5 + 3*x^4*y^2"


def _locate(dec, x, y):
    # the indices of the charts whose domain holds the frame point (x, y)
    found = []
    for i, c in enumerate(dec.charts):
        u = c.sign_x * x
        if 0.0 < u < float(c.x_max):
            yc = c.sign_y * y - eval_real(c.g, u, 0.0)
            if eval_real(c.lower, u, 0.0) < yc < eval_real(c.upper, u, 0.0):
                found.append(i)
    return found


def _sector_samples(dec, n, seed):
    # uniform points of the decomposed sector {0 < x < r, 0 < y < x^eta}
    rng = np.random.default_rng(seed)
    r = float(dec.radius)
    eta = float(dec.sector.eta)
    x = rng.uniform(0.0, r, size=n)
    y = rng.uniform(0.0, 1.0, size=n) * x ** eta
    return x, y


@pytest.mark.parametrize("name,p", ALL_PHASES, ids=[n for n, _ in ALL_PHASES])
def test_charts_tile_the_sector(name, p):
    dec = resolve(p)
    x, y = _sector_samples(dec, 4000, seed=7)
    hits = [len(_locate(dec, float(xi), float(yi))) for xi, yi in zip(x, y)]
    assert all(h == 1 for h in hits), f"{name}: {hits.count(0)} uncovered, " \
                                      f"{sum(h > 1 for h in hits)} double-covered"


@pytest.mark.parametrize("name,p", ALL_PHASES, ids=[n for n, _ in ALL_PHASES])
def test_chart_maps_roundtrip(name, p):
    dec = resolve(p)
    x, y = _sector_samples(dec, 200, seed=11)
    for xi, yi in zip(x, y):
        for ci in _locate(dec, float(xi), float(yi)):
            c = dec.charts[ci]
            u, v = chart_apply(c, float(xi), float(yi))
            xb, yb = chart_unapply(c, u, v)
            assert abs(xb - xi) < 1e-12 and abs(yb - yi) < 1e-12


@pytest.mark.parametrize("name,p", ALL_PHASES, ids=[n for n, _ in ALL_PHASES])
def test_verify_chart_passes_at_certified_radius(name, p):
    dec = resolve(p)
    for c in dec.charts:
        rep = verify_chart(p, c, samples=400, seed=3)
        assert rep.passed, (name, c.label, rep)
        assert rep.sign_ok


def test_verify_chart_fails_on_inflated_radius():
    # the -x^7 term overturns the x^4 monomial near x = 0.9: an oversized
    # chart must be reported (failed report or domain error, either way caught)
    name, p = RESOLVE_EXTRAS[1]
    dec = resolve(p)
    caught = False
    for c in dec.charts:
        big = dataclasses.replace(c, x_max=Fraction(9, 10))
        try:
            rep = verify_chart(p, big, samples=400, seed=3)
        except ValueError:
            caught = True
            continue
        if not rep.passed:
            caught = True
    assert caught, "no chart detected the inflated radius"


@pytest.mark.parametrize("name,p", ALL_PHASES, ids=[n for n, _ in ALL_PHASES])
def test_trace_orders_strictly_decrease(name, p):
    dec = resolve(p)

    def walk(node, parent_order):
        assert node.order < parent_order, (name, node.order, parent_order)
        for ch in node.children:
            walk(ch, node.order)

    top = p.y_degree() + 1  # any root order is at most the y-degree
    for node in dec.recursion_trace:
        walk(node, top)


def test_recursion_depth_examples():
    # (y-x^2)^2 chases one branch; the -x^7 perturbation forces a second level
    dec1 = resolve(CATALOG[3][1])
    assert len(dec1.recursion_trace) == 1 and not dec1.recursion_trace[0].children
    assert dec1.recursion_trace[0].curve.terms == {(Fraction(2), 0): Fraction(1)}
    dec2 = resolve(RESOLVE_EXTRAS[1][1])
    assert dec2.recursion_trace and dec2.recursion_trace[0].children


@pytest.mark.parametrize("name,p", ALL_PHASES[:4], ids=[n for n, _ in ALL_PHASES[:4]])
def test_jacobian_is_unimodular(name, p):
    dec = resolve(p)
    h = 1e-6
    rng = np.random.default_rng(23)
    for c in dec.charts:
        r = float(c.x_max)
        for _ in range(50):
            x = rng.uniform(h * 4, r * (1 - 1e-9))
            lo = eval_real(c.lower, x, 0.0)
            hi = eval_real(c.upper, x, 0.0)
            w = rng.uniform(0.0, 1.0)
            y = lo + w * (hi - lo)
            xb, yb = chart_unapply(c, x, y)
            # finite-difference Jacobian of chart_unapply
            x1, y1 = chart_unapply(c, x + h, y)
            x2, y2 = chart_unapply(c, x, y + h)
            det = ((x1 - xb) * (y2 - yb) - (x2 - xb) * (y1 - yb)) / h ** 2
            assert abs(abs(det) - 1.0) < 1e-4, (name, c.label, det)


def test_branch_curve_parabola():
    p = CATALOG[3][1]  # (y - x^2)^2
    (e,) = newton_polygon_of(p).edges
    (root,) = isolate_real_roots(edge_polynomial(p, e))
    assert root.exact_value == 1 and root.multiplicity == 2
    curve = branch_curve(p, e, root)
    assert dict(curve.items()) == {(Fraction(2), 0): Fraction(1)}


def test_branch_curve_cusp_is_fractional():
    p = CATALOG[5][1]  # y^2 - x^3
    (e,) = newton_polygon_of(p).edges
    roots = isolate_real_roots(edge_polynomial(p, e))
    pos = [r for r in roots if r.exact_value == 1]
    curve = branch_curve(p, e, pos[0])
    assert dict(curve.items()) == {(Fraction(3, 2), 0): Fraction(1)}


def test_branch_curve_two_term_expansion():
    # (y - x^2 - x^3)^2: branch y = x^2 + x^3 recovered to two orders
    p = phase((1, 0, 2), (-2, 2, 1), (-2, 3, 1), (1, 4, 0), (2, 5, 0), (1, 6, 0))
    (e,) = newton_polygon_of(p).edges
    (root,) = isolate_real_roots(edge_polynomial(p, e))
    curve = branch_curve(p, e, root)
    assert dict(curve.items()) == {(Fraction(2), 0): Fraction(1),
                                   (Fraction(3), 0): Fraction(1)}


def test_decomposition_json_schema_and_determinism():
    _, p = RESOLVE_EXTRAS[1]
    obj = decomposition_to_json(resolve(p))
    assert obj["schema"] == "newton-sublevel/decomposition/1"
    assert set(obj) >= {"charts", "radius", "recursion_trace", "sector"}
    for ch in obj["charts"]:
        assert ch["mode"] in ("B", "C")
        assert ch["label"] in ("corner", "band")
        # rationals as strings
        assert isinstance(ch["x_max"], str) and "/" in ch["x_max"]
    s1 = json.dumps(obj, sort_keys=True)
    s2 = json.dumps(decomposition_to_json(resolve(p)), sort_keys=True)
    assert s1 == s2


def test_zero_phase_rejected():
    with pytest.raises(ValueError):
        resolve(PuiseuxPoly.zero())


@pytest.mark.parametrize("field,value", [
    ("delta", Fraction(2)), ("delta", Fraction(1)), ("delta", Fraction(0)),
    ("delta", Fraction(-1, 4)), ("delta", float("nan")),
    ("x_max", Fraction(0)), ("x_max", Fraction(-1, 4)),
    ("xi", Fraction(0)), ("xi", Fraction(-1, 8)), ("eta", Fraction(0)), ("eta", Fraction(-1)),
])
def test_params_outside_the_model_rejected(field, value):
    # comparability within 1 +- delta needs 0 < delta < 1, a chart a radius > 0,
    # a strip a half-width > 0, and the sector roof x^eta an exponent > 0
    with pytest.raises(ValueError, match=field):
        resolve(CATALOG[0][1], ResolveParams(**{field: value}))


def test_chart_count_structural_cap():
    for name, p in ALL_PHASES:
        dec = resolve(p)
        bs = [b for (_, b) in p.support()]
        span = max(1, max(bs) - min(bs))
        assert len(dec.charts) <= 8 * (2 * span) ** (span + 1), name


def test_irrational_edge_root_outside_the_model():
    # edge polynomial y^2 - 2: the branch y ~ sqrt(2)·x needs an algebraic shear
    with pytest.raises(ValueError, match="irrational edge root: outside the model"):
        resolve(phase((1, 0, 2), (-2, 2, 0), (1, 3, 0)))


# ---- branch lifting: Newton's iteration against one correction per pass ----


def _branch_curve_by_corrections(p, edge, root):
    """Reference lifting with a frozen derivative: each pass evaluates
    h(x, t) in full by Horner's rule and adds the one term that cancels its
    lowest-order residual."""
    cap = Fraction(RESOLVE.TRUNCATION_ORDER)
    s = divide_out_x(subst_scale(p, edge.m), edge.alpha)
    if s.truncation_order is not None and s.truncation_order < cap:
        cap = s.truncation_order
    h = deriv_y(s, root.multiplicity - 1)
    r = root.exact_value
    a_coef = eval_rational(deriv_y(h, 1), Fraction(0), r)
    t = PuiseuxPoly({(Fraction(0), 0): r}, cap)
    for _ in range(500):
        e = subst_y(h, t)
        if e.is_zero():
            break
        (a_star, _), c_star = min(e.terms.items())
        if a_star >= cap:
            break
        t = poly_add(t, PuiseuxPoly.monomial(-c_star / a_coef, a_star, 0))
    else:
        raise RuntimeError("branch lifting did not terminate within 500 corrections")
    return poly_mul(PuiseuxPoly.monomial(1, edge.m, 0), t)


def _lifts(p, depth=2):
    """(p, edge, root) for each rational positive edge root of p, then again
    in p sheared both ways along each curve found, as resolve's strips are
    (the sheared phases carry truncation orders)."""
    out = []
    if p.is_zero():
        return out
    for e in newton_polygon_of(p).edges:
        for root in isolate_real_roots(edge_polynomial(p, e, 1), domain="positive"):
            if root.exact_value is None:
                continue
            out.append((p, e, root))
            if depth:
                g = branch_curve(p, e, root)
                for sign_y in (1, -1):
                    out += _lifts(subst_shear(p, sign_y, g), depth - 1)
    return out


def _assert_same_curves(p, depth=2):
    lifts = _lifts(p, depth)
    for q, e, root in lifts:
        got = branch_curve(q, e, root)
        want = _branch_curve_by_corrections(q, e, root)
        assert list(got.terms.items()) == list(want.terms.items())
        assert got.truncation_order == want.truncation_order
        assert got.ramification == want.ramification


# h(x, y) has x^35·y^6: a total-order cut at 40 would drop its x^35 in h(x, t)
# | a triple root whose child strip has a double root on an edge of slope 1/2,
# where h's truncation order, not 40, bounds the exact terms of t
LIFT_CASES = ALL_PHASES + [(name, parse_expression(expr).poly) for name, expr in (
    ("slow", SLOW_PHASE), ("x-order-cut", "y - x + x^30*y^6"),
    ("truncated-double", "(y - x^(1/4))*(y - x^(1/4) - x^(1/2) - x^(1/2)*y)^2"))]


@pytest.mark.parametrize("name,p", LIFT_CASES, ids=[n for n, _ in LIFT_CASES])
def test_newton_lifting_matches_one_correction_per_pass(name, p):
    # the catalog, the extras, the slow phase and the two truncation traps,
    # term for term and in order
    _assert_same_curves(p)


@st.composite
def two_branch_phases(draw):
    """(y - c1·x^m1)^k1·(y - c2·x^m2)^k2 + tail·x^n, n = k1·m1 + k2·m2 + 1."""
    m1, m2 = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    k1, k2 = draw(st.integers(1, 2)), draw(st.integers(1, 2))
    c1, c2 = (draw(st.sampled_from((-3, -2, -1, 1, 2, 3))) for _ in range(2))
    assume((m1, c1) != (m2, c2))
    tail = draw(st.sampled_from((-2, -1, 1, 2)))
    return parse_expression(f"(y - ({c1})*x^{m1})^{k1}*(y - ({c2})*x^{m2})^{k2} "
                            f"+ ({tail})*x^{k1 * m1 + k2 * m2 + 1}").poly


@given(two_branch_phases())
def test_newton_lifting_matches_on_the_two_branch_family(p):
    _assert_same_curves(p, depth=1)


def test_slow_phase_lifting_takes_log_many_horner_passes(monkeypatch):
    p = parse_expression(SLOW_PHASE).poly
    (q, e, root), = _lifts(p, depth=0)
    calls = []

    def counted(*args):
        calls.append(args)
        return subst_y(*args)

    monkeypatch.setattr(RESOLVE, "subst_y", counted)
    curve = branch_curve(q, e, root)
    # one correction per pass would take 74 passes; Newton's iteration doubles
    # the exact x-order per pass, one Horner pass for h and one for h_y
    assert len(curve.terms) == 73
    assert len(calls) <= 2 * math.ceil(math.log2(RESOLVE.TRUNCATION_ORDER * curve.ramification))


# ---------------------------------------------------------------------------
# strip half-widths: safe by their margins, with no probe of the child phases


@st.composite
def stacked_root_phases(draw):
    """prod (y - c_i·x^m) + tail·x^(k·m + 1) over 2 to 4 distinct positive c_i."""
    cs = draw(st.lists(st.fractions(min_value=Fraction(1, 4), max_value=4, max_denominator=4),
                       min_size=2, max_size=4, unique=True))
    m = draw(st.integers(1, 2))
    tail = draw(st.sampled_from((-2, -1, 1, 2)))
    expr = "*".join(f"(y - {c}*x^{m})" for c in cs) + f" + ({tail})*x^{len(cs) * m + 1}"
    return parse_expression(expr).poly, sorted(cs)


@given(stacked_root_phases())
def test_strip_half_width_is_never_a_child_edge_root(case):
    # the recursion alone: the proof of chart radii does not touch the strips
    p, cs = case
    _, traces = RESOLVE._resolve_sector(p, Fraction(1), Fraction(1, 2), 0, ResolveParams())
    roots = [node.root for node in traces]
    assert sorted(roots) == cs
    for node in traces:
        # the reference is the probe the recursion once ran before each strip:
        # the positive roots of the slope-m edge polynomials of both halves
        for sign in (1, -1):
            child = subst_shear(p, sign, node.curve)
            for e in newton_polygon_of(child).edges:
                if e.m == node.m:
                    found = [r.exact_value for r in isolate_real_roots(
                        edge_polynomial(child, e, 1), domain="positive")]
                    assert node.xi not in found
                    assert all(r >= 4 * node.xi for r in found if r is not None)
        assert node.xi <= node.root / 4
        assert all(node.xi <= abs(node.root - r) / 4 for r in roots if r != node.root)


def test_resolve_builds_one_polygon_plus_two_per_strip(monkeypatch):
    calls, hull = [], NEWTON._hull

    def counted(p):
        calls.append(p)
        return hull(p)

    monkeypatch.setattr(NEWTON, "_hull", counted)
    dec = resolve(parse_expression("(y - x)^2*(y - 2*x) + x^4").poly)

    def nodes(trace):
        return sum(1 + nodes(node.children) for node in trace)

    n = nodes(dec.recursion_trace)
    assert n > len(dec.recursion_trace)      # the double root's strip recurses
    # one polygon for the input, which picks the default roof exponent and
    # tiles the whole sector, and one for each half of each strip
    assert len(calls) == 1 + 2 * n


@given(stacked_root_phases(), st.integers(0, 2**16))
def test_stacked_root_charts_pass_the_audit(case, seed):
    # a proved radius holds at any seed of the float audit
    p, _ = case
    for i, c in enumerate(resolve(p).charts):
        assert verify_chart(p, c, samples=400, seed=seed).passed, (i, c.mode, c.monomial)


# ---------------------------------------------------------------------------
# proved radii: an exact oracle, and no sampling inside resolve()

# the five multi-root phases of the resolution golden
MULTI_ROOT = [(expr, parse_expression(expr).poly) for expr in (
    "(y - x)*(y - 2*x)*(y - 3*x) + x^4", "(y - x^2)*(y - 2*x^2) + x^5",
    "(y - x)*(y - 5/4*x)*(y + x) + x^5", "(y - x)^2*(y - 2*x) + x^4",
    "(y - x)*(y - 2*x)^2 + x^5")]
# large exponents, on whose charts the float oracle underflows or overflows (see
# verify_chart); x^100*y^2 + x^1500 takes about 14 s, so only the deep profile
# runs it
LARGE_EXPONENTS = [(expr, parse_expression(expr).poly) for expr in (
    ["x^50*y^2 + x^1000"]
    + (["x^100*y^2 + x^1500"] if settings.default.max_examples >= 1000 else []))]
# x*y, x^2*y^2 + x^5 and y^2 - x^3 have a fractional exponent in every chart
ORACLE_PHASES = [(n, p) for n, p in ALL_PHASES + MULTI_ROOT + LARGE_EXPONENTS
                 if n not in ("x*y", "x^2y^2+x^5", "y^2-x^3")]


def _integral(c):
    return all(a.denominator == 1
               for q in (c.g, c.phase, c.lower, c.upper) for a, _ in q.terms)


def _exact(poly, x, y=Fraction(0), k=0, l=0):
    # d_x^k d_y^l of an integer-exponent polynomial at a rational point
    return sum(cf * RESOLVE._falling(a, k) * RESOLVE._falling(b, l) * x ** int(a - k)
               * y ** (b - l) for (a, b), cf in poly.items() if b >= l)


def _violations(c, x, y):
    """The gates that the chart's phase breaks at the chart point (x, y), exactly."""
    b0, alpha, beta = c.monomial
    if c.mode == "B":
        ratio = _exact(c.phase, x, y) / (b0 * x ** int(alpha))
        ok = c.band[0] * (1 - c.delta) <= ratio <= c.band[1] * (1 + c.delta)
        return [] if ok else [("band", ratio)]
    out = []
    for k in range(math.ceil(alpha) + 1):
        for l in range(beta + 1):
            model = x ** int(alpha - k) * y ** (beta - l)
            fall = RESOLVE._falling(alpha, k) * RESOLVE._falling(beta, l)
            dev = abs(_exact(c.phase, x, y, k, l) - b0 * fall * model) / (abs(b0) * model)
            if dev > c.delta:
                out.append(((k, l), dev))
    return out


@pytest.mark.parametrize("name,p", ORACLE_PHASES, ids=[n for n, _ in ORACLE_PHASES])
def test_proved_charts_hold_at_exact_points(name, p):
    # the ratio (k = l = 0) and the derivative forms of a corner chart, and
    # the band gate of a band chart, in Fraction at its far edge and walls
    checked = 0
    for i, c in enumerate(resolve(p).charts):
        if not _integral(c):
            continue
        checked += 1
        for x in (c.x_max * (1 - Fraction(1, 2**10)), c.x_max / 16):
            lo, up = _exact(c.lower, x), _exact(c.upper, x)
            for w in (Fraction(1, 10**6), Fraction(1, 2), 1 - Fraction(1, 10**6)):
                assert not _violations(c, x, lo + (up - lo) * w), (name, i, x, w)
    assert checked


def test_false_band_chart_is_closed():
    # a band chart of this criterion-4 phase with model (255025/256)·x^4 over
    # the floor y = (9/8)·x^2 and x_max = 1/4, as sampling certified it, holds
    # this point, where S/model = 7.65e-6 lies below (1 - delta)·band_lo; a
    # proved chart that holds it keeps its gate
    _, p = RESOLVE_EXTRAS[1]
    x, y = Fraction(1, 5), Fraction(9, 200) + Fraction(1, 10**12)
    for c in filter(_integral, resolve(p).charts):
        v = c.sign_y * y - _exact(c.g, x)
        if 0 < x < c.x_max and _exact(c.lower, x) < v < _exact(c.upper, x):
            assert not _violations(c, x, v), c.monomial


def test_resolve_makes_no_verify_call(monkeypatch):
    def broken(*args, **kwargs):
        raise AssertionError("resolve() sampled a chart")

    p = RESOLVE_EXTRAS[1][1]
    want = decomposition_to_json(resolve(p))
    monkeypatch.setattr(RESOLVE, "verify_chart", broken)
    assert decomposition_to_json(resolve(p)) == want


def test_verify_chart_sign_test_survives_underflow():
    # the corner 27·x^6·y^5 is proved at x_max = 2^-48, where phase·model
    # underflows to 0.0; comparing signs instead of their product keeps it
    p = parse_expression("3*x^2*y^3*(y + 9/4*x^3)^2*(y + 3*x^2)^2").poly
    charts = resolve(p).charts
    assert charts[2].x_max == Fraction(1, 2**48)
    for i, c in enumerate(charts):
        rep = verify_chart(p, c, samples=1000, seed=0)
        assert rep.passed and rep.sign_ok, (i, rep)


def test_chart_comparable_at_no_radius_is_refused():
    # x^2 over the corner 0 < y < x: the term y^2/x^2 reaches 1 > delta on the
    # upper wall at every radius, so the search for one must not start
    c = RESOLVE._corner(parse_expression("x^2 + y^2").poly, (Fraction(2), 0),
                        PuiseuxPoly.zero(), PuiseuxPoly.monomial(1, 1, 0), ResolveParams())
    with pytest.raises(RuntimeError, match=r"not comparable at any radius \(mode C"):
        RESOLVE._prove(c, c.phase)


# ---------------------------------------------------------------------------
# the integer proof against its Fraction reference (helpers.py): the same
# rationals, so the same ok(X) at every trial radius and the same bounds

# the default radius, and three whose denominators are not powers of two
RADII = {"1/4": Fraction(1, 4), "1/3": Fraction(1, 3),
         "1e200": Fraction(10**200), "1e-400": Fraction(1, 10**400)}


def _assert_same_proof(p, x_max):
    for i, c in enumerate(resolve(p, ResolveParams(x_max=x_max)).charts):
        new, ref = RESOLVE._obligation(c, c.phase), helpers._obligation(c, c.phase)
        exps = RESOLVE._Exps()
        walls = [(w, RESOLVE._Wall(w, exps)) for w in (c.upper, c.lower)]
        for X in [Fraction(0)] + [x_max / 2**k for k in range(41)]:
            assert new(X) == ref(X), (i, c.mode, c.monomial, X)
            pw = exps.at(X)
            for w, wall in walls:
                lo, hi = wall.bounds(pw)
                assert (Fraction(lo, wall.den * pw.D), Fraction(hi, wall.den * pw.D),
                        wall.s) == helpers._wall(w, X), (i, X)


# the Fraction reference takes about a minute per multi-root phase at 10^200,
# so the two extreme radii run on the catalog and the extras
CASES = ([(f"{n}@{r}", p, RADII[r]) for n, p in ALL_PHASES for r in RADII]
         + [(f"{n}@{r}", p, RADII[r]) for n, p in MULTI_ROOT for r in ("1/4", "1/3")])


@pytest.mark.parametrize("name,p,x_max", CASES, ids=[n for n, _, _ in CASES])
def test_integer_proof_matches_the_fraction_reference(name, p, x_max):
    _assert_same_proof(p, x_max)


# about 2 s an example, nearly all of it in the reference: an eighth of the
# profile's examples (10 by default, 125 in the deep profile)
@settings(max_examples=settings.default.max_examples // 8)
@given(stacked_root_phases(), st.sampled_from([RADII["1/4"], RADII["1/3"]]))
def test_integer_proof_matches_on_stacked_roots(case, x_max):
    _assert_same_proof(case[0], x_max)


# ---------------------------------------------------------------------------
# vertex cuts: one _radius search against the linear search it replaced
# (helpers.py), at every cut the recursion asks for and at the edge's other
# vertex from the same start

CUT_DELTAS = (Fraction(1, 8), Fraction(1, 4), Fraction(1, 2))


def _cut_fits(q, edge, delta, c, upper):
    # the cut's predicate in Fraction: the other edge terms at y = c·x^m sum
    # under delta/(4·headroom) of the vertex term
    av, bv = edge.upper_vertex if upper else edge.lower_vertex
    others = [(b, abs(cf)) for (_a, b), cf in q.terms.items() if b != bv]
    headroom = max((RESOLVE._headroom(edge.alpha - edge.m * b, b, (av, int(bv)))
                    for b, _ in others), default=1)
    return (sum(cf * c ** (b - bv) for b, cf in others)
            <= delta * abs(q.coeff(0, bv)) / (4 * headroom))


def _assert_same_cuts(p, delta):
    calls, cut = [], RESOLVE._vertex_cut

    def recorded(q, edge, delta, start, upper):
        calls.append((q, edge, delta, start))
        return cut(q, edge, delta, start, upper)

    poly = newton_polygon_of(p)
    eta = min([Fraction(1, 2), *(e.m / 2 for e in poly.edges)])
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(RESOLVE, "_vertex_cut", recorded)
        try:
            RESOLVE._resolve_sector(p, Fraction(1), eta, 0, ResolveParams(delta=delta))
        except ValueError as e:         # a deeper root is irrational: the cuts before it
            assert "irrational" in str(e)
    assert calls
    for q, edge, delta, start in calls:
        for upper in (True, False):
            c = cut(q, edge, delta, start, upper)
            try:
                assert c == helpers._vertex_cut(q, edge, delta, start, upper)
            except RuntimeError:            # past the old search's 512 steps
                pass
            step = c / start if upper else start / c
            assert step.numerator & (step.numerator - 1) == 0 and step.denominator == 1
            assert _cut_fits(q, edge, delta, c, upper)
            if c != start:
                assert not _cut_fits(q, edge, delta, c / 2 if upper else 2 * c, upper)


# x*y has no compact edge, so no cut; the last two need an upper cut past the
# linear search's 512 steps
PAST_THE_CAP = [(expr, parse_expression(expr).poly)
                for expr in ("x^100*y^2 + x^1500", "x^200*y^2 + x^3000")]
CUT_CASES = [(f"{n}@{d}", p, d) for n, p in ALL_PHASES + MULTI_ROOT + PAST_THE_CAP
             for d in CUT_DELTAS if n != "x*y"]


@pytest.mark.parametrize("name,p,delta", CUT_CASES, ids=[n for n, _, _ in CUT_CASES])
def test_vertex_cut_matches_the_linear_search(name, p, delta):
    _assert_same_cuts(p, delta)


# about 0.1 s an example: a quarter of the profile's examples (20 by default,
# 250 in the deep profile)
@settings(max_examples=settings.default.max_examples // 4)
@given(st.one_of(two_branch_phases(), stacked_root_phases().map(lambda case: case[0])),
       st.sampled_from(CUT_DELTAS))
def test_vertex_cut_matches_the_linear_search_on_the_families(p, delta):
    _assert_same_cuts(p, delta)


@st.composite
def bernstein_cases(draw):
    """(cs, top, delta): a polynomial on [0, top] times up to two squares
    (u - r)^2 with r inside, plus a shift, so that the least value is often
    interior and near zero, where the enclosure halves its pieces."""
    top = draw(st.fractions(min_value=0, max_value=64, max_denominator=10**6)
               .filter(bool)) / 2 ** draw(st.integers(0, 70))
    cs = draw(st.lists(st.fractions(min_value=-8, max_value=8, max_denominator=12),
                       min_size=1, max_size=4))
    for _ in range(draw(st.integers(0, 2))):
        r = top * draw(st.fractions(min_value=0, max_value=1, max_denominator=64))
        square = [r * r, -2 * r, Fraction(1)]
        cs = [sum(cs[i] * square[k - i] for i in range(len(cs)) if 0 <= k - i <= 2)
              for k in range(len(cs) + 2)]
    cs[0] += draw(st.fractions(min_value=-1, max_value=1, max_denominator=12)) * top ** 2
    delta = draw(st.fractions(min_value=Fraction(1, 64), max_value=Fraction(63, 64),
                              max_denominator=64))
    return cs, top, delta


@given(bernstein_cases())
def test_integer_lower_bound_matches_the_fraction_reference(case):
    cs, top, delta = case
    den = math.lcm(*[c.denominator for c in cs])
    num, lb_den = RESOLVE._lower_bound([c.numerator * (den // c.denominator) for c in cs],
                                       top.numerator, top.denominator, delta)
    assert Fraction(num, lb_den * den) == helpers._lower_bound(cs, top, delta)
