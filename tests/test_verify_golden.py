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

import numpy as np
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
SCALES = (1, 2, 4)   # proved radius, x2 and x4: the larger ones fail or raise


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
        "C passed=True sign_ok=True ratio=0x1.ff937bdc217a0p-5 deriv=0x0.0p+0 [(0, 1), (0, 2)] n=400 seed=1729 x_max=0x1.0000000000000p-5",
        "C passed=True sign_ok=True ratio=0x1.fffffffffdcc0p-5 deriv=0x0.0p+0 [(0, 1), (0, 2)] n=400 seed=1729 x_max=0x1.0000000000000p-4",
        "ValueError: empty chart domain at x = 0.0904: shrink x_max",
        "B passed=True sign_ok=True ratio=0x0.0p+0 deriv=- n=400 seed=1729 x_max=0x1.0000000000000p-2",
        "B passed=True sign_ok=True ratio=0x0.0p+0 deriv=- n=400 seed=1729 x_max=0x1.0000000000000p-1",
        "B passed=True sign_ok=True ratio=0x0.0p+0 deriv=- n=400 seed=1729 x_max=0x1.0000000000000p+0",
        "C passed=True sign_ok=True ratio=0x1.fef9fcb0c0280p-5 deriv=0x0.0p+0 [(1, 0), (2, 0)] n=400 seed=1729 x_max=0x1.0000000000000p-2",
        "C passed=True sign_ok=True ratio=0x1.fef9fcb0c0280p-5 deriv=0x0.0p+0 [(1, 0), (2, 0)] n=400 seed=1729 x_max=0x1.0000000000000p-1",
        "C passed=True sign_ok=True ratio=0x1.fef9fcb0c0280p-5 deriv=0x0.0p+0 [(1, 0), (2, 0)] n=400 seed=1729 x_max=0x1.0000000000000p+0",
    ],
    (1000, 0): [
        "C passed=True sign_ok=True ratio=0x1.ff937bdc217a0p-5 deriv=0x0.0p+0 [(0, 1), (0, 2)] n=1000 seed=0 x_max=0x1.0000000000000p-5",
        "C passed=True sign_ok=True ratio=0x1.fffffffffdcc0p-5 deriv=0x0.0p+0 [(0, 1), (0, 2)] n=1000 seed=0 x_max=0x1.0000000000000p-4",
        "ValueError: empty chart domain at x = 0.0944: shrink x_max",
        "B passed=True sign_ok=True ratio=0x0.0p+0 deriv=- n=1000 seed=0 x_max=0x1.0000000000000p-2",
        "B passed=True sign_ok=True ratio=0x0.0p+0 deriv=- n=1000 seed=0 x_max=0x1.0000000000000p-1",
        "B passed=True sign_ok=True ratio=0x0.0p+0 deriv=- n=1000 seed=0 x_max=0x1.0000000000000p+0",
        "C passed=True sign_ok=True ratio=0x1.ff964ee9c24a0p-5 deriv=0x0.0p+0 [(1, 0), (2, 0)] n=1000 seed=0 x_max=0x1.0000000000000p-2",
        "C passed=True sign_ok=True ratio=0x1.ff964ee9c24a0p-5 deriv=0x0.0p+0 [(1, 0), (2, 0)] n=1000 seed=0 x_max=0x1.0000000000000p-1",
        "C passed=True sign_ok=True ratio=0x1.ff964ee9c24a0p-5 deriv=0x0.0p+0 [(1, 0), (2, 0)] n=1000 seed=0 x_max=0x1.0000000000000p+0",
    ],
    (400, 3): [
        "C passed=True sign_ok=True ratio=0x1.ff937bdc217a0p-5 deriv=0x0.0p+0 [(0, 1), (0, 2)] n=400 seed=3 x_max=0x1.0000000000000p-5",
        "C passed=True sign_ok=True ratio=0x1.fffffffffdcc0p-5 deriv=0x0.0p+0 [(0, 1), (0, 2)] n=400 seed=3 x_max=0x1.0000000000000p-4",
        "ValueError: empty chart domain at x = 0.0744: shrink x_max",
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
        (400, 1729): "913084125eb613ee76a8ca98f40e8287e07d9aef1cca6e959d925c75523a7af8",
        (1000, 0): "cee8c5f67cb119915c75d759f5a9f952d528ba851205662f670676bfad77a49d",
        (400, 3): "c8de69830093ae4ff1b9bfdc8761194b51dac9e0911e04f5be5b56c73f922c7e",
    },
    "x*y": {
        (400, 1729): "ed2b80eb20c41bc72f57e3ce5aa877943b11b80ccc924e369819bc233232ac45",
        (1000, 0): "404b9309e30ee93b1ad83b5581b0c8813d11c194787e7208ae4b2b54f41cd3f6",
        (400, 3): "7fb984348e106a0a6f5920c9ab3c781a37910adf7a7c6db89c934ce6cf6be5ae",
    },
    "x^2 - y^2": {
        (400, 1729): "8167284f04742d322f130330adb3c6eebaad47b8afe74d0c5e843521517d7716",
        (1000, 0): "497d5cf0db42143fb2cc42ac99dc540d96991d8ea4f740a3f4d69bae103e4af6",
        (400, 3): "7f4f4c6efeeaecec863bd2dc4f8dd4fc182dd5d47b05700c5fa0693d0e6c4f1a",
    },
    "(y - x^2)^2": {
        (400, 1729): "0c3d394abd7beaf8479b2e9eca88fa6e6d08ec037bfd8c3079fc0fafb8b1ef4a",
        (1000, 0): "4835c279ce6e675f4e17e2b2e36f72d93457b47c5cc00aa5cc8a3f2798e3478a",
        (400, 3): "760f8cdb3174968e8eec290d8c109d71b01e1c696e0a1d75097eb51bf6828d89",
    },
    "x^2*y^2 + x^5": {
        (400, 1729): "59a670dd880c3d863664ca7731491159374679f2e7bf70f933f8631edc232797",
        (1000, 0): "5a6bb3b6939ea83de3dd79b8d1d00f714d49994255c430a4b27bb459f031773c",
        (400, 3): "70ba4150b123fd0e259939f205ad9384e35c27b9ab868bcee9389526e90d757b",
    },
    "y^2 - x^3": {
        (400, 1729): "c216ae7f0f8dbce71555e9bb6a8587ec79150d5ce7df08e16d3d2e9f44a59e6b",
        (1000, 0): "e3cd1c40e26e2e5dca4d57f07757f5224a7989eb7e5b451f84bc1f911ca28307",
        (400, 3): "8dd663e6c3951ecfad8cd68a6765e4b2a5d7cb2972b74873c7da8dabd458b83a",
    },
    "(y - x^2 - x^3)^2 - x^9": {
        (400, 1729): "dee43563424970817c919a339ad2464601a4b2dd072cbb779e9d8f7f52ef385e",
        (1000, 0): "0f3fb93c3826be71867caf82eacd11f28f7c825d982ea9f9cdd9ca5bae2e969d",
        (400, 3): "0179936c31b131b0daebbbf4cafe10deb8e408401da320d954f201995b3ca575",
    },
    "y^2 - 2*x^2*y + x^4 - x^7": {
        (400, 1729): "8ea4d1d7ea47d5f6525fdfca16b150fad8374b32a41bd57e6e296a6d6b6ba031",
        (1000, 0): "067a4891d04fe4f9e1469576a76509bb40f7b76bb2c2762c798728c60929039a",
        (400, 3): "c6a62c2d2f2776a9fd08cc73b92f417b0c3e3eb5d24984444ae417ceb8435e9a",
    },
    "(y + 1*x)*(y - 2*x)^2 + 1*x^4": {
        (400, 1729): "65de146a74f3d9759b19bdfc1fdabc9d5007777556bfc083c35ff9a02a1d06c6",
        (1000, 0): "e97d36923714ea319271639f6f47e2d1c199214265e871574e496b1ae8088bde",
        (400, 3): "4bdfe08a237de4c46fcfbe93cb3d235af06bfa176af15b5fb187ca0fb58694cd",
    },
    "(y - 2*x)^2*(y + 1*x^3) + 1*x^6": {
        (400, 1729): "299d1d710cead9d1d9c0d0a879b0a4f1da9ea021bcd5d3cf3d8f8dfb1bfd8af7",
        (1000, 0): "f1b4747400926131768562ec6990772a92979df228bedc2acf050f2606e58ecd",
        (400, 3): "c5d0c51c80f759c4bf35529a810f10f6a3276d19f3fee9b480d670ef6d0c1afa",
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
            if np.sign(val) * np.sign(model) <= 0.0:
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
