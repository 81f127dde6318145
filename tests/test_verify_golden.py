"""Golden values of chart verification (verify_chart), recorded from the scalar
per-point loop that the array evaluation replaced.  Every report field must match
bit for bit, and so must the type and message of every exception; a copy of the
scalar loop is kept below as the differential reference."""

import hashlib
import math
from dataclasses import replace
from fractions import Fraction
from functools import lru_cache
from typing import Dict, Optional

import pytest
from hypothesis import given
from hypothesis import strategies as st

from newton_sublevel import PuiseuxPoly, VerifyReport, parse_expression, resolve, verify_chart
from helpers import PHASES

# two members of the benchmark's two-branch family, (m1, m2, k1, k2) = (1, 1, 1, 2)
# and (1, 3, 2, 1)
FAMILY = ["(y + 1*x)*(y - 2*x)^2 + 1*x^4", "(y - 2*x)^2*(y + 1*x^3) + 1*x^6"]
EXPRS = [expr for _, expr, *_ in PHASES] + FAMILY
SETTINGS = [(400, 1729), (1000, 0), (400, 3)]
SCALES = (1, 2, 4)   # certified radius, x2 and x4: the larger ones fail or raise


@lru_cache(maxsize=None)
def _resolved(expr):
    p = parse_expression(expr).poly
    return p, resolve(p).charts


def _outcome(fn, mode, samples, seed) -> str:
    """One line per call: the chart mode and the call's samples and seed, then
    every report field as float.hex, or the exception."""
    try:
        rep = fn()
    except (ValueError, ZeroDivisionError, OverflowError) as exc:
        return f"{type(exc).__name__}: {exc}"
    d = rep.derivative_check
    deriv = "-" if d is None else f"{float.hex(d['max_violation'])} {d['orders']}"
    return (f"{mode} passed={rep.passed} sign_ok={rep.sign_ok} "
            f"ratio={float.hex(rep.max_ratio_violation)} deriv={deriv} "
            f"n={samples} seed={seed} x_max={float.hex(rep.x_max)}")


def _lines(expr, samples, seed):
    p, charts = _resolved(expr)
    return [_outcome(lambda c=replace(c, x_max=c.x_max * s): verify_chart(p, c, samples, seed),
                     c.mode, samples, seed)
            for c in charts for s in SCALES]


# every line of one small phase, charts x SCALES in order, per setting
X2Y2_LINES = {
    (400, 1729): [
        "C passed=True sign_ok=True ratio=0x1.fefa3f99f36a0p-5 deriv=0x0.0p+0 [(0, 1), (0, 2)] n=400 seed=1729 x_max=0x1.ffffe00000000p-7",
        "C passed=True sign_ok=True ratio=0x1.ff937bd08f560p-5 deriv=0x0.0p+0 [(0, 1), (0, 2)] n=400 seed=1729 x_max=0x1.ffffe00000000p-6",
        "C passed=True sign_ok=True ratio=0x1.fffffff7cca60p-5 deriv=0x0.0p+0 [(0, 1), (0, 2)] n=400 seed=1729 x_max=0x1.ffffe00000000p-5",
        "B passed=True sign_ok=True ratio=0x0.0p+0 deriv=- n=400 seed=1729 x_max=0x1.0000000000000p-2",
        "B passed=True sign_ok=True ratio=0x0.0p+0 deriv=- n=400 seed=1729 x_max=0x1.0000000000000p-1",
        "B passed=True sign_ok=True ratio=0x0.0p+0 deriv=- n=400 seed=1729 x_max=0x1.0000000000000p+0",
        "C passed=True sign_ok=True ratio=0x1.fef9fcb0c0280p-5 deriv=0x0.0p+0 [(1, 0), (2, 0)] n=400 seed=1729 x_max=0x1.0000000000000p-2",
        "C passed=True sign_ok=True ratio=0x1.fef9fcb0c0280p-5 deriv=0x0.0p+0 [(1, 0), (2, 0)] n=400 seed=1729 x_max=0x1.0000000000000p-1",
        "C passed=True sign_ok=True ratio=0x1.fef9fcb0c0280p-5 deriv=0x0.0p+0 [(1, 0), (2, 0)] n=400 seed=1729 x_max=0x1.0000000000000p+0",
    ],
    (1000, 0): [
        "C passed=True sign_ok=True ratio=0x1.fefa3f99f36a0p-5 deriv=0x0.0p+0 [(0, 1), (0, 2)] n=1000 seed=0 x_max=0x1.ffffe00000000p-7",
        "C passed=True sign_ok=True ratio=0x1.ff937bd08f560p-5 deriv=0x0.0p+0 [(0, 1), (0, 2)] n=1000 seed=0 x_max=0x1.ffffe00000000p-6",
        "C passed=True sign_ok=True ratio=0x1.fffffff7cca60p-5 deriv=0x0.0p+0 [(0, 1), (0, 2)] n=1000 seed=0 x_max=0x1.ffffe00000000p-5",
        "B passed=True sign_ok=True ratio=0x0.0p+0 deriv=- n=1000 seed=0 x_max=0x1.0000000000000p-2",
        "B passed=True sign_ok=True ratio=0x0.0p+0 deriv=- n=1000 seed=0 x_max=0x1.0000000000000p-1",
        "B passed=True sign_ok=True ratio=0x0.0p+0 deriv=- n=1000 seed=0 x_max=0x1.0000000000000p+0",
        "C passed=True sign_ok=True ratio=0x1.ff964ee9c24a0p-5 deriv=0x0.0p+0 [(1, 0), (2, 0)] n=1000 seed=0 x_max=0x1.0000000000000p-2",
        "C passed=True sign_ok=True ratio=0x1.ff964ee9c24a0p-5 deriv=0x0.0p+0 [(1, 0), (2, 0)] n=1000 seed=0 x_max=0x1.0000000000000p-1",
        "C passed=True sign_ok=True ratio=0x1.ff964ee9c24a0p-5 deriv=0x0.0p+0 [(1, 0), (2, 0)] n=1000 seed=0 x_max=0x1.0000000000000p+0",
    ],
    (400, 3): [
        "C passed=True sign_ok=True ratio=0x1.fefa3f99f36a0p-5 deriv=0x0.0p+0 [(0, 1), (0, 2)] n=400 seed=3 x_max=0x1.ffffe00000000p-7",
        "C passed=True sign_ok=True ratio=0x1.ff937bd08f560p-5 deriv=0x0.0p+0 [(0, 1), (0, 2)] n=400 seed=3 x_max=0x1.ffffe00000000p-6",
        "C passed=True sign_ok=True ratio=0x1.fffffff7cca60p-5 deriv=0x0.0p+0 [(0, 1), (0, 2)] n=400 seed=3 x_max=0x1.ffffe00000000p-5",
        "B passed=True sign_ok=True ratio=0x0.0p+0 deriv=- n=400 seed=3 x_max=0x1.0000000000000p-2",
        "B passed=True sign_ok=True ratio=0x0.0p+0 deriv=- n=400 seed=3 x_max=0x1.0000000000000p-1",
        "B passed=True sign_ok=True ratio=0x0.0p+0 deriv=- n=400 seed=3 x_max=0x1.0000000000000p+0",
        "C passed=True sign_ok=True ratio=0x1.fef9fcb0c0280p-5 deriv=0x0.0p+0 [(1, 0), (2, 0)] n=400 seed=3 x_max=0x1.0000000000000p-2",
        "C passed=True sign_ok=True ratio=0x1.fef9fcb0c0280p-5 deriv=0x0.0p+0 [(1, 0), (2, 0)] n=400 seed=3 x_max=0x1.0000000000000p-1",
        "C passed=True sign_ok=True ratio=0x1.fef9fcb0c0280p-5 deriv=0x0.0p+0 [(1, 0), (2, 0)] n=400 seed=3 x_max=0x1.0000000000000p+0",
    ],
}

# sha256 of "\n".join(_lines(expr, samples, seed)), per phase and setting
LINES_SHA256: Dict[str, Dict[tuple, str]] = {
    "x^2 + y^2": {
        (400, 1729): "eb39b3c18cebe62ae99b5a72bba5930a343f3953b54057e9c27ce7a14fa25e86",
        (1000, 0): "edc7b25b7546ef1a85e2533ab9ac2a9fb9b8f728055b7223884f22921af0fd7a",
        (400, 3): "125fcf087bbc4ddcd6e48082a9846830b002bd584b7c9803551eab589ce0e386",
    },
    "x*y": {
        (400, 1729): "ed2b80eb20c41bc72f57e3ce5aa877943b11b80ccc924e369819bc233232ac45",
        (1000, 0): "404b9309e30ee93b1ad83b5581b0c8813d11c194787e7208ae4b2b54f41cd3f6",
        (400, 3): "7fb984348e106a0a6f5920c9ab3c781a37910adf7a7c6db89c934ce6cf6be5ae",
    },
    "x^2 - y^2": {
        (400, 1729): "62760f3eb720e7641142b953605409be61bff7415ec29e4ebf2581d54031fe80",
        (1000, 0): "a79005f7eb41a2fd75db4bbba5fee33041afdd023e1fe5d157c7290c34ac6cf0",
        (400, 3): "9a72c9f4e7424bc49d307739e1eb53cc689ad77d7271e2b516f84d2b8c9a5de6",
    },
    "(y - x^2)^2": {
        (400, 1729): "39622fc7d37602de6c3e8e05eb5b46061ee1c7c8f204ff6e5a8a4cfa927d9dda",
        (1000, 0): "4739692f039474f64652c57b724165f863ff7949ee40c2f0e64cff4384e2170b",
        (400, 3): "a28d3f18da6473fefa8b6638ced4c33d01d1b1ee635f5195e3f0ece08107f2ab",
    },
    "x^2*y^2 + x^5": {
        (400, 1729): "8984cb96f837a40808846914d2ec60d2f179fb69150cf9c338b4ec4e57fab4c8",
        (1000, 0): "aead45e16c201dc4546dc45bacc9533d39da4b2b0e1fafeec83241eea5d3b4b9",
        (400, 3): "cb8f39265ea066906e59cdcf4efd6ef22e47c1ea8bf2f2e4c61901cbaabd1188",
    },
    "y^2 - x^3": {
        (400, 1729): "b893c7a3d5d531d21aa36fb17ea40bf1c5db7d7782dde6af2d802625e3b325ba",
        (1000, 0): "d187e295482d1da243542814034390ea3a8d1647378ff2861b5abf1f8bf2e8bc",
        (400, 3): "025e1154fa8d140914323f28c7a37f6ddfdc8c2712e219c1a9a50d5d9fb1ec01",
    },
    "(y - x^2 - x^3)^2 - x^9": {
        (400, 1729): "be090a9d0524d2378ad484bbcee06151289eeb2f932bf951cb5ce025b74484a1",
        (1000, 0): "fddfb1050123128a9edd74ff7d3615b642957acfb6211484ff44c358b27d6044",
        (400, 3): "1e02a2063e51438ac7940faae7d07caf68b4ffc728162060c7a9f0ae5157aff4",
    },
    "y^2 - 2*x^2*y + x^4 - x^7": {
        (400, 1729): "6d6d37e74447fdd498bb69e9ba314096cdef33cd5b5cad74811a5250c29260fe",
        (1000, 0): "b8f9cd85174f035a850483526d8879e801083e0ade8254e6eef926638d1ad226",
        (400, 3): "92ce190c2ede7d1b4fe9d4df45598268375b650ee975fcbd17fb8c6f65bb41c8",
    },
    "(y + 1*x)*(y - 2*x)^2 + 1*x^4": {
        (400, 1729): "bf3ac9243cffcf870eb3f3f0eed9d63e2a548092c1329a6b78115e912d7e9891",
        (1000, 0): "104e79397b6536ed110fa02f222394ee22fd867b378d2dc69fe05648d731f19b",
        (400, 3): "a173b4ee793bb0b926a3a3e709ecdeaf9779a4af62f93afbca1afe79de458baa",
    },
    "(y - 2*x)^2*(y + 1*x^3) + 1*x^6": {
        (400, 1729): "c43576c750c4e298986d9b7bfe60abd2429976d96e9036636139dd2a9cb6cb31",
        (1000, 0): "ec39a208b841d0eb6046496e6dcac4c05fdf6c296b04da52711b85d7346acecb",
        (400, 3): "1b818c2499d7a528f063f2d97f46d6ed61e8e2634c835787fad56d1a555987a4",
    },
}


def test_verify_lines_golden_small_phase():
    for setting, lines in X2Y2_LINES.items():
        assert _lines("x^2 + y^2", *setting) == lines


@pytest.mark.parametrize("expr", EXPRS)
@pytest.mark.parametrize("setting", SETTINGS, ids=lambda s: f"{s[0]}-{s[1]}")
def test_verify_lines_golden(expr, setting):
    lines = _lines(expr, *setting)
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == LINES_SHA256[expr][setting], "\n".join(lines)


def _corner(expr="x^2 + y^2"):
    return next(c for c in _resolved(expr)[1] if c.mode == "C")


ERROR_CASES = {
    # the lower curve 4x crosses the roof x^(1/2) at x = 1/16: the message names
    # the first sample point, in point order, beyond the crossing
    "empty-domain": lambda c: replace(c, lower=PuiseuxPoly.monomial(4, 1, 0),
                                      upper=PuiseuxPoly.monomial(1, Fraction(1, 2), 0),
                                      x_max=Fraction(1, 4)),
    "zero-coefficient": lambda c: replace(c, monomial=(Fraction(0),) + c.monomial[1:]),
    "missing-band": lambda c: replace(c, mode="B", band=None),
    "unknown-mode": lambda c: replace(c, mode="Z"),
    # x^400 underflows to 0.0 at the sample points: a zero model
    "zero-model": lambda c: replace(c, monomial=(Fraction(1), Fraction(400), 0)),
    # x^2 overflows at x ~ 1e200: math.pow raises
    "overflow": lambda c: replace(c, lower=PuiseuxPoly.zero(),
                                  upper=PuiseuxPoly.monomial(1, Fraction(1, 2), 0),
                                  x_max=Fraction(10) ** 200),
}
ERROR_MESSAGES = {
    "empty-domain": [
        "ValueError: empty chart domain at x = 0.122: shrink x_max",
        "ValueError: empty chart domain at x = 0.189: shrink x_max",
        "ValueError: empty chart domain at x = 0.149: shrink x_max",
    ],
    "missing-band": ["ValueError: band chart missing its ratio band"] * 3,
    "overflow": ["OverflowError: math range error"] * 3,
    "unknown-mode": ["ValueError: unknown chart mode 'Z'"] * 3,
    "zero-coefficient": ["ValueError: chart monomial has zero coefficient"] * 3,
    "zero-model": ["ZeroDivisionError: float division by zero"] * 3,
}


@pytest.mark.parametrize("case", sorted(ERROR_CASES))
def test_verify_errors_golden(case):
    p, _ = _resolved("x^2 + y^2")
    bad = ERROR_CASES[case](_corner())
    got = [_outcome(lambda s=s: verify_chart(p, bad, *s), bad.mode, *s) for s in SETTINGS]
    assert got == ERROR_MESSAGES[case]


# ---------------------------------------------------------------------------
# differential: today's scalar loop, kept verbatim as the reference


def _ref_falling(a, k):
    out = Fraction(1)
    for i in range(k):
        out *= a - i
    return out


def _ref_float_terms(p):
    return [(float(cf), float(a), b) for (a, b), cf in p.items()]


def _ref_eval_terms(terms, x, y):
    tot = 0.0
    for cf, a, b in terms:
        v = cf * math.pow(x, a)
        if b:
            v *= y**b
        tot += v
    return tot


def _ref_deriv_terms(p, k, l):
    out = []
    for (a, b), cf in p.items():
        if b < l:
            continue
        c = cf * _ref_falling(a, k) * _ref_falling(Fraction(b), l)
        if c != 0:
            out.append((float(c), float(a - k), b - l))
    return out


def reference_verify_chart(p, c, samples=1000, seed=0):
    b_coef, alpha, beta = c.monomial
    bf, af = float(b_coef), float(alpha)
    if bf == 0.0:
        raise ValueError("chart monomial has zero coefficient")
    x_hi = float(c.x_max)
    lo_t = _ref_float_terms(c.lower)
    up_t = _ref_float_terms(c.upper)
    ph_t = _ref_float_terms(c.phase)
    delta = float(c.delta)

    phi1 = 0.6180339887498949
    phi2 = 0.7548776662466927
    s1 = math.modf(seed * 0.8191725133961645 + 0.1375)[0]
    s2 = math.modf(seed * 0.2887043245670215 + 0.6913)[0]

    xs = []
    for i in range(samples):
        u = (s1 + i * phi1) % 1.0
        v = (s2 + i * phi2) % 1.0
        if i % 4 == 3:
            x = x_hi * math.pow(4.0, -(1.0 + 3.0 * u))
        else:
            x = x_hi * min(max(u, 1e-4), 1.0 - 1e-9)
        if i % 5 == 4:
            w = 0.001 if i % 2 else 0.999
        else:
            w = min(max(v, 1e-4), 1.0 - 1e-4)
        xs.append((x, w))
    x_levels = [x_hi * q for q in (0.125, 0.25, 0.375, 0.5, 0.625, 0.75, 0.875)]
    x_levels += [x_hi * (1.0 - 2.0 ** -k) for k in range(3, 8)]
    x_levels.append(x_hi * (1.0 - 1e-9))
    w_levels = (0.001, 0.05, 0.2, 0.4, 0.5, 0.6, 0.8, 0.95, 0.999)
    xs.extend((x, w) for x in x_levels for w in w_levels)

    pts = []
    for x, w in xs:
        lo = _ref_eval_terms(lo_t, x, 0.0)
        up = _ref_eval_terms(up_t, x, 0.0)
        if not up > lo:
            raise ValueError(f"empty chart domain at x = {x:.3g}: shrink x_max")
        pts.append((x, lo + (up - lo) * w))

    sign_ok = True
    worst_ratio = 0.0
    deriv_report: Optional[Dict[str, object]] = None

    if c.mode == "C":
        bi = int(beta)
        for x, y in pts:
            model = bf * math.pow(x, af) * y**bi
            val = _ref_eval_terms(ph_t, x, y)
            if val * model <= 0.0:
                sign_ok = False
            worst_ratio = max(worst_ratio, abs(val / model - 1.0))
        worst_d = 0.0
        orders = []
        for k in range(math.ceil(alpha) + 1):
            for l in range(bi + 1):
                if k == 0 and l == 0:
                    continue
                orders.append((k, l))
                dt = _ref_deriv_terms(c.phase, k, l)
                mcf = bf * float(_ref_falling(alpha, k)) * float(_ref_falling(Fraction(bi), l))
                for x, y in pts:
                    lhs = abs(_ref_eval_terms(dt, x, y)
                              - mcf * math.pow(x, af - k) * y ** (bi - l))
                    nat = abs(bf) * math.pow(x, af - k) * y ** (bi - l)
                    worst_d = max(worst_d, lhs / nat)
        deriv_report = {"max_violation": worst_d, "orders": orders}
        passed = sign_ok and worst_ratio <= delta and worst_d <= delta
    elif c.mode == "B":
        if c.band is None:
            raise ValueError("band chart missing its ratio band")
        blo, bhi = float(c.band[0]), float(c.band[1])
        lo_gate, hi_gate = blo * (1.0 - delta), bhi * (1.0 + delta)
        for x, y in pts:
            ratio = _ref_eval_terms(ph_t, x, y) / (bf * math.pow(x, af))
            if ratio <= 0.0:
                sign_ok = False
            breach = max(0.0, (lo_gate - ratio) / blo, (ratio - hi_gate) / bhi)
            worst_ratio = max(worst_ratio, breach)
        passed = sign_ok and worst_ratio == 0.0
    else:
        raise ValueError(f"unknown chart mode {c.mode!r}")

    return VerifyReport(passed=passed, max_ratio_violation=worst_ratio,
                        derivative_check=deriv_report, sign_ok=sign_ok, x_max=x_hi)


def _repr_or_error(fn) -> str:
    try:
        return repr(fn())
    except (ValueError, ZeroDivisionError, OverflowError) as exc:
        return f"{type(exc).__name__}: {exc}"


@given(expr=st.sampled_from(EXPRS), chart=st.integers(0, 63), k=st.integers(0, 20),
       seed=st.integers(0, 10 ** 6), samples=st.integers(0, 1200))
def test_verify_matches_scalar_reference(expr, chart, k, seed, samples):
    p, charts = _resolved(expr)
    c = charts[chart % len(charts)]
    c = replace(c, x_max=c.x_max / 2 ** k)
    assert _repr_or_error(lambda: verify_chart(p, c, samples, seed)) \
        == _repr_or_error(lambda: reference_verify_chart(p, c, samples, seed))


@pytest.mark.parametrize("case", sorted(ERROR_CASES))
def test_verify_errors_match_scalar_reference(case):
    p, _ = _resolved("x^2 + y^2")
    bad = ERROR_CASES[case](_corner())
    for s in SETTINGS:
        assert _outcome(lambda: verify_chart(p, bad, *s), bad.mode, *s) \
            == _outcome(lambda: reference_verify_chart(p, bad, *s), bad.mode, *s)
