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


def _outcome(fn) -> str:
    """One line per call: every report field as float.hex, or the exception."""
    try:
        rep = fn()
    except (ValueError, ZeroDivisionError, OverflowError) as exc:
        return f"{type(exc).__name__}: {exc}"
    d = rep.derivative_check
    deriv = ("-" if d is None else
             f"{float.hex(d['max_violation'])} {float.hex(d['printed_form_violation'])} "
             f"{d['orders']}")
    return (f"{rep.mode} passed={rep.passed} sign_ok={rep.sign_ok} "
            f"ratio={float.hex(rep.max_ratio_violation)} deriv={deriv} "
            f"n={rep.samples} seed={rep.seed} x_max={float.hex(rep.x_max)}")


def _lines(expr, samples, seed):
    p, charts = _resolved(expr)
    return [_outcome(lambda c=replace(c, x_max=c.x_max * s): verify_chart(p, c, samples, seed))
            for c in charts for s in SCALES]


# every line of one small phase, charts x SCALES in order, per setting
X2Y2_LINES = {
    (400, 1729): [
        "C passed=True sign_ok=True ratio=0x1.fefa3f99f36a0p-5 deriv=0x0.0p+0 0x0.0p+0 [(0, 1), (0, 2)] n=400 seed=1729 x_max=0x1.ffffe00000000p-7",
        "C passed=True sign_ok=True ratio=0x1.ff937bd08f560p-5 deriv=0x0.0p+0 0x0.0p+0 [(0, 1), (0, 2)] n=400 seed=1729 x_max=0x1.ffffe00000000p-6",
        "C passed=True sign_ok=True ratio=0x1.fffffff7cca60p-5 deriv=0x0.0p+0 0x0.0p+0 [(0, 1), (0, 2)] n=400 seed=1729 x_max=0x1.ffffe00000000p-5",
        "B passed=True sign_ok=True ratio=0x0.0p+0 deriv=- n=400 seed=1729 x_max=0x1.0000000000000p-2",
        "B passed=True sign_ok=True ratio=0x0.0p+0 deriv=- n=400 seed=1729 x_max=0x1.0000000000000p-1",
        "B passed=True sign_ok=True ratio=0x0.0p+0 deriv=- n=400 seed=1729 x_max=0x1.0000000000000p+0",
        "C passed=True sign_ok=True ratio=0x1.fef9fcb0c0280p-5 deriv=0x0.0p+0 0x0.0p+0 [(1, 0), (2, 0)] n=400 seed=1729 x_max=0x1.0000000000000p-2",
        "C passed=True sign_ok=True ratio=0x1.fef9fcb0c0280p-5 deriv=0x0.0p+0 0x0.0p+0 [(1, 0), (2, 0)] n=400 seed=1729 x_max=0x1.0000000000000p-1",
        "C passed=True sign_ok=True ratio=0x1.fef9fcb0c0280p-5 deriv=0x0.0p+0 0x0.0p+0 [(1, 0), (2, 0)] n=400 seed=1729 x_max=0x1.0000000000000p+0",
    ],
    (1000, 0): [
        "C passed=True sign_ok=True ratio=0x1.fefa3f99f36a0p-5 deriv=0x0.0p+0 0x0.0p+0 [(0, 1), (0, 2)] n=1000 seed=0 x_max=0x1.ffffe00000000p-7",
        "C passed=True sign_ok=True ratio=0x1.ff937bd08f560p-5 deriv=0x0.0p+0 0x0.0p+0 [(0, 1), (0, 2)] n=1000 seed=0 x_max=0x1.ffffe00000000p-6",
        "C passed=True sign_ok=True ratio=0x1.fffffff7cca60p-5 deriv=0x0.0p+0 0x0.0p+0 [(0, 1), (0, 2)] n=1000 seed=0 x_max=0x1.ffffe00000000p-5",
        "B passed=True sign_ok=True ratio=0x0.0p+0 deriv=- n=1000 seed=0 x_max=0x1.0000000000000p-2",
        "B passed=True sign_ok=True ratio=0x0.0p+0 deriv=- n=1000 seed=0 x_max=0x1.0000000000000p-1",
        "B passed=True sign_ok=True ratio=0x0.0p+0 deriv=- n=1000 seed=0 x_max=0x1.0000000000000p+0",
        "C passed=True sign_ok=True ratio=0x1.ff964ee9c24a0p-5 deriv=0x0.0p+0 0x0.0p+0 [(1, 0), (2, 0)] n=1000 seed=0 x_max=0x1.0000000000000p-2",
        "C passed=True sign_ok=True ratio=0x1.ff964ee9c24a0p-5 deriv=0x0.0p+0 0x0.0p+0 [(1, 0), (2, 0)] n=1000 seed=0 x_max=0x1.0000000000000p-1",
        "C passed=True sign_ok=True ratio=0x1.ff964ee9c24a0p-5 deriv=0x0.0p+0 0x0.0p+0 [(1, 0), (2, 0)] n=1000 seed=0 x_max=0x1.0000000000000p+0",
    ],
    (400, 3): [
        "C passed=True sign_ok=True ratio=0x1.fefa3f99f36a0p-5 deriv=0x0.0p+0 0x0.0p+0 [(0, 1), (0, 2)] n=400 seed=3 x_max=0x1.ffffe00000000p-7",
        "C passed=True sign_ok=True ratio=0x1.ff937bd08f560p-5 deriv=0x0.0p+0 0x0.0p+0 [(0, 1), (0, 2)] n=400 seed=3 x_max=0x1.ffffe00000000p-6",
        "C passed=True sign_ok=True ratio=0x1.fffffff7cca60p-5 deriv=0x0.0p+0 0x0.0p+0 [(0, 1), (0, 2)] n=400 seed=3 x_max=0x1.ffffe00000000p-5",
        "B passed=True sign_ok=True ratio=0x0.0p+0 deriv=- n=400 seed=3 x_max=0x1.0000000000000p-2",
        "B passed=True sign_ok=True ratio=0x0.0p+0 deriv=- n=400 seed=3 x_max=0x1.0000000000000p-1",
        "B passed=True sign_ok=True ratio=0x0.0p+0 deriv=- n=400 seed=3 x_max=0x1.0000000000000p+0",
        "C passed=True sign_ok=True ratio=0x1.fef9fcb0c0280p-5 deriv=0x0.0p+0 0x0.0p+0 [(1, 0), (2, 0)] n=400 seed=3 x_max=0x1.0000000000000p-2",
        "C passed=True sign_ok=True ratio=0x1.fef9fcb0c0280p-5 deriv=0x0.0p+0 0x0.0p+0 [(1, 0), (2, 0)] n=400 seed=3 x_max=0x1.0000000000000p-1",
        "C passed=True sign_ok=True ratio=0x1.fef9fcb0c0280p-5 deriv=0x0.0p+0 0x0.0p+0 [(1, 0), (2, 0)] n=400 seed=3 x_max=0x1.0000000000000p+0",
    ],
}

# sha256 of "\n".join(_lines(expr, samples, seed)), per phase and setting
LINES_SHA256: Dict[str, Dict[tuple, str]] = {
    "x^2 + y^2": {
        (400, 1729): "c7d052e62fc6c2e03c005c2e8880c003e2ae69f265347f143523b8cfd70684c3",
        (1000, 0): "c2bef771be49f8f7ed693ba7723bccc62649c9a78567f0c0811701057b2c8626",
        (400, 3): "45f2bdae90171350e421b2e36f086a3ccabbafca70d64d784b7a341f1a9557e5",
    },
    "x*y": {
        (400, 1729): "98936108e56fa82165095e567225531574813faaaadcced0ecc0c42a95a9fa27",
        (1000, 0): "34f7049ce9a3c61fa129627900bec2506c8d0e04f3cabfda1bd67a0b617aa3a7",
        (400, 3): "8c416e27af568ad0d1395be3a443b1ac02acbf047c4d282a9dc86b5f72b8833f",
    },
    "x^2 - y^2": {
        (400, 1729): "fbf890e932e6ce4dc1271f0174cf0e1ae5bf88cf9db8d2cab923dbe58cead9a9",
        (1000, 0): "843ad6f3088d1e48a1dc3977e159775cdffc33058bd4d935e99e29aa6b16d5a1",
        (400, 3): "fe676fe68ba30e54548522d3fa8e5664c8682c726a32d21f38a71ab6c9202058",
    },
    "(y - x^2)^2": {
        (400, 1729): "b612f826acc44a14bc034a2f8570d8efa26dc9a45d1818803195f6e7ebd4f084",
        (1000, 0): "857c805ffbf57df88c965e5d4ea081c32c5a6baba0fc46d0201b8e927b37f501",
        (400, 3): "12788ecd5d23a69569b859209d0020af4ac4797a25778c4b2b4a3a7bbeee65a6",
    },
    "x^2*y^2 + x^5": {
        (400, 1729): "473e7196945928a09887a416b7328d0bb76d1d8eaeda75ba2fdf4861eeb47257",
        (1000, 0): "d52235140fce51bb6e475bfbe215d296fb759b040170c42a88613d45f1b67c53",
        (400, 3): "a61a98c714e6bb35090b7e98bca3e979edcb7656e029c84fe32df4cd9a6412b4",
    },
    "y^2 - x^3": {
        (400, 1729): "8229f4e44e48ef9be1368024eb94d649edf036f79ba8b5db9ac060a5eec9aeef",
        (1000, 0): "a9150b0b2b63eed476ba942e82326b2da0e4c1ba5a71fa164df1aa7c642582df",
        (400, 3): "e473ae5cc1f82c900d74249e4babedcecbe7a1c08055794feb0eac19f8562bb3",
    },
    "(y - x^2 - x^3)^2 - x^9": {
        (400, 1729): "6cfce496c2301115bfaddfa76acb46732c86ffc78d1088494e4147f7750cd4b3",
        (1000, 0): "464e619ebdc06c59cab0763ec21c6d8fe1f089f4cc35b4059ac050bc27074044",
        (400, 3): "dd40cb212177dffb0dea365b245bad6627000774bc38aaf92eba4b7f0e73478a",
    },
    "y^2 - 2*x^2*y + x^4 - x^7": {
        (400, 1729): "9724bf7302fa2bf4e654d64902df8d01978061ba60496c2506a11eedc3eaed1c",
        (1000, 0): "bc5517033f1580a3b439a29659a12b1d74dc8bc0c336e7f73e23b5e07f97cbd6",
        (400, 3): "33efe0904dd3cd2a33474ae5f0b8d68a54ebaa44b7a9e88c30eb230ed28adc52",
    },
    "(y + 1*x)*(y - 2*x)^2 + 1*x^4": {
        (400, 1729): "f261bf26d9639aa7f2f5dc59c0ab601df51c727887fe16771ac4ec7c41dc54d8",
        (1000, 0): "383c18a08362e62903e24a804f68ee79543baac6f8e616323e8cb3feaa6460c3",
        (400, 3): "7fca607293893902674db00a74df31cffe13f40894780fa0d511e854452e7e84",
    },
    "(y - 2*x)^2*(y + 1*x^3) + 1*x^6": {
        (400, 1729): "09e9024b0af67714ceb8ce997bebe687f309aed37b63e947356a4826273b0e1c",
        (1000, 0): "33b7c234eff952cf86e3eb8963127917af3065bf57e5c31eaa9bb812a22740d3",
        (400, 3): "d78b5407c9621f52c2300dece38d50121c290373c91f5e56074a9132272a983e",
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
    got = [_outcome(lambda s=s: verify_chart(p, bad, *s)) for s in SETTINGS]
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
        worst_printed = 0.0
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
                    pr = abs(bf) * math.pow(x, af - l) * y ** (bi - k)
                    worst_d = max(worst_d, lhs / nat)
                    worst_printed = max(worst_printed, lhs / pr if pr > 0 else 0.0)
        deriv_report = {"max_violation": worst_d,
                        "printed_form_violation": worst_printed,
                        "orders": orders}
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

    return VerifyReport(passed=passed, mode=c.mode,
                        max_ratio_violation=worst_ratio,
                        derivative_check=deriv_report, sign_ok=sign_ok,
                        samples=samples, seed=seed, x_max=x_hi)


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
        assert _outcome(lambda: verify_chart(p, bad, *s)) \
            == _outcome(lambda: reference_verify_chart(p, bad, *s))
