"""Perturbation sweeps: exceptional parameters, index jumps, mixtures."""

import csv
import importlib
import io
import json
import math
from fractions import Fraction

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from newton_sublevel import (
    PuiseuxPoly,
    exceptional_candidates,
    growth_index,
    mixture_sweep,
    stability_sweep,
    sweep_csv,
    to_superadapted,
)
from newton_sublevel import stability
from helpers import _generic_polygon, _interpolated_disc, phase


F = Fraction


# ---------------------------------------------------------------------------
# exceptional candidate sets


def test_candidates_vertex_cancellation():
    S = phase((1, 2, 2), (1, 5, 0))
    f = phase((-1, 2, 2))
    exc = exceptional_candidates(S, f)
    assert exc.vertex_ts == (F(1),)
    assert exc.edge_ts == (F(1),)


def test_candidates_self_cancellation():
    S = phase((1, 2, 0), (1, 0, 2))
    exc = exceptional_candidates(S, phase((-1, 2, 0), (-1, 0, 2)))
    assert exc.vertex_ts == (F(1),)


def test_candidates_vertex_only():
    # x^2 + y^2 with f = y^2: only t = -1 kills the (0,2) vertex
    exc = exceptional_candidates(phase((1, 2, 0), (1, 0, 2)), phase((1, 0, 2)))
    assert exc.vertex_ts == (F(-1),)


def test_candidates_no_interaction():
    # f sits strictly inside the polygon of S: no vertex can cancel
    exc = exceptional_candidates(phase((1, 2, 0), (1, 0, 2)), phase((1, 3, 3)))
    assert exc.vertex_ts == ()


def test_candidates_vertex_coefficient_vanishes_exactly():
    S = phase((1, 2, 2), (3, 5, 0))
    f = phase((2, 2, 2), (1, 6, 1))
    exc = exceptional_candidates(S, f)
    assert exc.vertex_ts == (F(-1, 2),)
    for t in exc.vertex_ts:
        perturbed = phase((1 + 2 * t, 2, 2), (3, 5, 0), (t, 6, 1))
        vertex_coeffs = [perturbed.coeff(F(2), 2), perturbed.coeff(F(5), 0)]
        assert F(0) in vertex_coeffs


# ---------------------------------------------------------------------------
# the discriminant and the generic polygon against their Fraction references


_RAT = st.fractions(min_value=-4, max_value=4, max_denominator=6)
_ENTRY = st.one_of(st.just(F(0)), _RAT)


def _times(p, q):
    out = [F(0)] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return out


@st.composite
def edge_line_coeffs(draw):
    """[(A_k, B_k)], k = 0..n, n in 2..7: free entries (zeros included), or a
    leading coefficient that vanishes at some t or for every t, or
    q = (a + b t)·s(y)^2·r(y), whose discriminant vanishes identically."""
    n = draw(st.integers(2, 7))
    kind = draw(st.sampled_from(["free", "lead", "square"]))
    if kind == "square":
        d = draw(st.integers(1, n // 2))
        s = draw(st.lists(_ENTRY, min_size=d, max_size=d)) + [draw(_RAT.filter(bool))]
        r = draw(st.lists(_ENTRY, min_size=n - 2 * d + 1, max_size=n - 2 * d + 1))
        a, b = draw(_ENTRY), draw(_ENTRY)
        return [(a * c, b * c) for c in _times(_times(s, s), r)]
    coeffs = draw(st.lists(st.tuples(_ENTRY, _ENTRY), min_size=n + 1, max_size=n + 1))
    if kind == "lead":
        root, b = draw(_RAT), draw(_ENTRY)
        coeffs[-1] = (-root * b, b)
    return coeffs


@given(edge_line_coeffs())
@example([(F(1), F(1)), (F(-2), F(-2)), (F(1), F(1))])     # (1 + t)(y - 1)^2
@example([(F(1), F(0)), (F(0), F(1)), (F(0), F(0))])       # leading coefficient 0
@example([(F(1, 2), F(0)), (F(0), F(1, 3)), (F(-1), F(0))])
def test_bareiss_disc_is_the_interpolated_determinant(coeffs):
    # L^(2n-1) times the Fraction determinant, L the common denominator: the
    # same polynomial up to a positive factor, so the same roots and signs
    n = len(coeffs) - 1
    den = math.lcm(*[c.denominator for ab in coeffs for c in ab])
    assert list(stability._sylvester_disc(coeffs)) == [den ** (2 * n - 1) * c
                                                       for c in _interpolated_disc(coeffs)]


_TERM = st.tuples(st.fractions(min_value=0, max_value=6, max_denominator=3),
                  st.integers(0, 5), _RAT.filter(bool))
_TRUNC = st.one_of(st.none(), st.integers(2, 9))


@st.composite
def perturbed_pairs(draw):
    """(S, f) with fractional x-exponents and optional truncation orders; f
    shares some of S's support, with coefficients that may cancel S's."""
    S = PuiseuxPoly({(a, b): c for a, b, c in draw(st.lists(_TERM, min_size=1, max_size=5))},
                    draw(_TRUNC))
    f_terms = {(a, b): c for a, b, c in draw(st.lists(_TERM, max_size=4))}
    if S.terms:
        for key in draw(st.lists(st.sampled_from(sorted(S.terms)), max_size=3)):
            f_terms[key] = S.terms[key] * draw(st.sampled_from([-1, 2, F(-1, 2)]))
    return S, PuiseuxPoly(f_terms, draw(_TRUNC))


def _polygon_or_error(build, S, f):
    try:
        return build(S, f)
    except ValueError as e:     # everything truncated away
        return str(e)


@given(perturbed_pairs())
def test_union_support_polygon_is_the_generic_polygon(pair):
    assert (_polygon_or_error(stability._generic_polygon, *pair)
            == _polygon_or_error(_generic_polygon, *pair))


# ---------------------------------------------------------------------------
# parameter sweeps


def test_sweep_vertex_cancellation_example():
    S = phase((1, 2, 2), (1, 5, 0))
    f = phase((-1, 2, 2))
    rows, verdict = stability_sweep(S, f, [F(-1, 2), F(1, 2), F(1)])
    assert verdict["ok"]
    by_t = {row.t: row for row in rows}
    for t in (F(-1, 2), F(1, 2)):
        row = by_t[t]
        assert (row.index.j, row.index.p) == (F(1, 2), 1)
        assert not row.flags
        assert row.polygon_contains_NS
    crit = by_t[F(1)]
    # the x^2 y^2 vertex cancels, leaving x^5
    assert (crit.index.j, crit.index.p) == (F(1, 5), 0)
    assert "vertex_cancel" in crit.flags
    assert not crit.polygon_contains_NS


def test_one_sweep_hulls_S_once(monkeypatch):
    # the reduction of S, the base polygon of the rows and the candidates all
    # read the polygon kept on S
    newton = importlib.import_module("newton_sublevel.newton")
    S = phase((1, 0, 2), (-2, 2, 1), (1, 4, 0), (1, 5, 0))       # (y - x^2)^2 + x^5
    hulled, hull = [], newton._hull
    monkeypatch.setattr(newton, "_hull", lambda p: hulled.append(p) or hull(p))
    stability_sweep(S, phase((1, 3, 1)), [F(-1), F(1, 2), F(2)])
    assert sum(p is S for p in hulled) == 1


def test_sweep_flat_family():
    # x^2 y^2 + x^5 with f = y^7: polygon unchanged for every sampled t
    S = phase((1, 2, 2), (1, 5, 0))
    f = phase((1, 0, 7))
    rows, verdict = stability_sweep(S, f, [F(-2), F(-1), F(-1, 2), F(1, 2), F(1), F(2)])
    assert verdict["ok"]
    assert all((r.index.j, r.index.p) == (F(1, 2), 1) for r in rows)
    assert all(not r.flags for r in rows)
    assert all(r.polygon_contains_NS for r in rows)


def test_sweep_monomial_plus_any_coefficient():
    # y^2 + t x^7 has newton distance 14/9 for every nonzero t
    S = phase((1, 0, 2))
    f = phase((1, 7, 0))
    rows, verdict = stability_sweep(S, f, [F(-1), F(1, 3), F(2)])
    assert verdict["ok"]
    assert all((r.index.j, r.index.p) == (F(9, 14), 0) for r in rows)


def test_sweep_morse_morse_degradation():
    # x^2 + y^2 perturbed by x^2 - y^2: at t = 1 the sum is 2x^2, a genuinely
    # worse index, but t = 1 is a flagged vertex cancellation so the verdict
    # still passes
    S = phase((1, 2, 0), (1, 0, 2))
    f = phase((1, 2, 0), (-1, 0, 2))
    rows, verdict = stability_sweep(S, f, [F(-1, 2), F(1, 2), F(1)])
    assert verdict["ok"]
    by_t = {row.t: row for row in rows}
    crit = by_t[F(1)]
    assert (crit.index.j, crit.index.p) == (F(1, 2), 0)
    assert "vertex_cancel" in crit.flags
    assert not crit.polygon_contains_NS
    for t in (F(-1, 2), F(1, 2)):
        assert (by_t[t].index.j, by_t[t].index.p) == (F(1), 0)
        assert not by_t[t].flags


def test_sweep_verdict_shape_serializable():
    S = phase((1, 2, 2), (1, 5, 0))
    rows, verdict = stability_sweep(S, phase((-1, 2, 2)), [F(1, 2), F(1)])
    blob = json.loads(json.dumps(verdict))
    assert blob["ok"] is True
    assert blob["baseline"]["j"] == "1/2" and blob["baseline"]["p"] == 1
    assert "1" in blob["vertex_ts"]
    assert isinstance(blob["perturbation_coeff_sup"], float)


def test_sweep_lex_bound_on_unflagged_rows():
    # non-exceptional rows may only improve on the baseline, lexicographically
    cases = [
        (phase((1, 2, 2), (1, 5, 0)), phase((-1, 2, 2))),
        (phase((1, 2, 0), (1, 0, 2)), phase((1, 0, 2))),
        (phase((1, 0, 2), (-1, 3, 0)), phase((1, 4, 0))),
    ]
    for S, f in cases:
        rows, verdict = stability_sweep(S, f, [F(-1), F(-1, 2), F(1, 2), F(1)])
        assert verdict["ok"], (S, f, verdict)
        base = (F(verdict["baseline"]["j"]), verdict["baseline"]["p"])
        for row in rows:
            if row.flags:
                continue
            assert (row.index.j, -row.index.p) >= (base[0], -base[1]), row


def test_sweep_total_cancellation_row():
    S = phase((1, 2, 0), (1, 0, 2))
    rows, verdict = stability_sweep(S, phase((-1, 2, 0), (-1, 0, 2)), [F(1)])
    assert rows[0].index is None
    assert "vertex_cancel" in rows[0].flags
    assert verdict["ok"]
    assert verdict["vertex_ts"] == ["1"]


def test_sweep_polygon_containment_off_candidates():
    # exact polygon containment N(S) within N(S + t f) away from vertex_ts
    S = phase((1, 2, 2), (1, 5, 0))
    f = phase((-1, 2, 2), (1, 0, 3))
    rows, _ = stability_sweep(S, f, [F(-1), F(1, 3), F(1), F(3)])
    for row in rows:
        if "vertex_cancel" not in row.flags:
            assert row.polygon_contains_NS, row


# ---------------------------------------------------------------------------
# mixtures


def test_mixture_endpoints_and_interior():
    S1 = phase((1, 2, 2), (1, 5, 0))
    S2 = phase((1, 5, 0), (1, 0, 4))
    rows, verdict = mixture_sweep(S1, S2, [F(0), F(1), None])
    assert verdict["ok"]
    assert [r.t for r in rows] == [F(0), F(1), None]
    idx1 = growth_index(to_superadapted(S1).final)
    assert (rows[0].index.j, rows[0].index.p) == (idx1.j, idx1.p) == (F(1, 2), 1)
    assert (rows[1].index.j, rows[1].index.p) == (F(1, 2), 1)
    # pure S2: distance 20/9 from the (5,0)-(0,4) edge
    assert (rows[2].index.j, rows[2].index.p) == (F(9, 20), 0)


def test_mixture_morse_oscillation_drop():
    # hyperbolic + elliptic Morse: the oscillatory log multiplicity stays 0 at
    # the elliptic endpoint while the hyperbolic rows keep sublevel p = 1
    S1 = phase((1, 1, 1))
    S2 = phase((1, 2, 0), (1, 0, 2))
    rows, verdict = mixture_sweep(S1, S2, [F(0), F(1), None])
    assert verdict["ok"]
    inf_row = rows[-1]
    assert inf_row.t is None
    assert inf_row.index.j == F(1) and inf_row.index.p == 0
    assert inf_row.osc_p == 0
    assert rows[0].index.p == 1 and rows[0].osc_p == 0  # hyperbolic Morse
    # at ratio 1 the form x^2 + xy + y^2 is definite: Morse with p = 0
    assert rows[1].index.j == F(1) and rows[1].index.p == 0


def test_mixture_precondition():
    with pytest.raises(ValueError):
        mixture_sweep(phase((1, 1, 0)), phase((1, 0, 2)), [F(0)])
    with pytest.raises(ValueError):
        mixture_sweep(phase((1, 0, 2)), phase((1, 0, 1)), [F(0)])


def test_mixture_accepts_inf_spellings():
    S1 = phase((1, 2, 0), (1, 0, 2))
    rows, _ = mixture_sweep(S1, phase((1, 0, 2)), [None, float("inf"), "inf"])
    assert all(r.t is None for r in rows)


# ---------------------------------------------------------------------------
# CSV emitters


def test_sweep_csv_roundtrip():
    S = phase((1, 2, 2), (1, 5, 0))
    rows, _ = stability_sweep(S, phase((-1, 2, 2)), [F(1, 2), F(1)])
    text = sweep_csv(rows)
    parsed = list(csv.reader(io.StringIO(text)))
    assert parsed[0] == ["t", "j", "p", "superadapt_ok", "polygon_contains_NS",
                         "flags", "note"]
    assert parsed[1][0] == "1/2" and parsed[1][1] == "1/2" and parsed[1][2] == "1"
    assert parsed[2][0] == "1"
    assert "vertex_cancel" in parsed[2][5]
    # deterministic
    assert text == sweep_csv(rows)


def test_mixture_csv_roundtrip():
    rows, _ = mixture_sweep(phase((1, 2, 2), (1, 5, 0)), phase((1, 5, 0), (1, 0, 4)),
                            [F(0), None])
    text = sweep_csv(rows, mixture=True)
    parsed = list(csv.reader(io.StringIO(text)))
    assert parsed[0][0] == "ratio" and parsed[0][3] == "osc_p"
    assert parsed[1][0] == "0" and parsed[2][0] == "inf"
    assert parsed[2][1] == "9/20"
