"""Golden values of the numeric layer (MC and GRID sublevel measures, the curved-
triangle MC call, the oscillatory level ladder), recorded from the per-value
estimators that the epsilon-grid and lambda-grid engines replaced; every float
must match bit for bit, and a grid call must equal the per-value calls."""

from fractions import Fraction

import numpy as np
import pytest

from newton_sublevel import (Cutoff, Disk, SectorProduct, curved_triangle, decay_pairs,
                             oscillatory_integral, parse_expression, sublevel_measure)
from helpers import phase

EPS = [1e-1, 1e-2, 1e-3, 1e-4]
BUDGET = 3 * (1 << 16) + 123      # three full MC blocks and a partial last one
MC_SEED = 7

# (float.hex(estimate), float.hex(stderr), n_samples) per epsilon of EPS; the
# MC values are the same at threads=1 and threads=4
MC_HEX = {
    "x^2*y^2 + x^5": [
        ("0x1.193ee1186f702p+1", "0x1.e068dd0d5569dp-9", 196731),
        ("0x1.056ef09ad181ap+0", "0x1.eac31217e6aaap-9", 196731),
        ("0x1.a977662c39fb3p-2", "0x1.62f14dfe4ced6p-9", 196731),
        ("0x1.44892ab877b7fp-3", "0x1.ca9a651310b16p-10", 196731),
    ],
    "y^2 - x^3": [
        ("0x1.6d7b9e8c403e6p-1", "0x1.b70abed394ebap-9", 196731),
        ("0x1.04585989e4d1ep-3", "0x1.9ce7a63ce6ea2p-10", 196731),
        ("0x1.48e8dbf177431p-6", "0x1.4df21c82524a1p-11", 196731),
        ("0x1.6fe61db30ccaap-9", "0x1.f4dbb5802da34p-13", 196731),
    ],
}
GRID_HEX = {
    ("x^2*y^2 + x^5", 6): [
        ("0x1.188a399f48f1fp+1", "0x1.4fdfeb5ea8327p-4", 3228),
        ("0x1.009f2de38d4c5p+0", "0x1.c64c84da60e5bp-5", 3228),
        ("0x1.9a98496c1546dp-2", "0x1.1f52e816784a2p-5", 3228),
        ("0x1.36ef98888769dp-3", "0x1.cb0a3833c8340p-6", 3228),
    ],
    ("x^2*y^2 + x^5", 7): [
        ("0x1.182a072fc1bc3p+1", "0x1.4fa65081d32dap-5", 12892),
        ("0x1.032414c8b3feep+0", "0x1.c885f6254e1f1p-6", 12892),
        ("0x1.a4b6d18100b99p-2", "0x1.22d7c8a9807fep-6", 12892),
        ("0x1.4862f7f31e05cp-3", "0x1.6b63c466e83ddp-7", 12892),
    ],
    # at depth 6 no cell centre has |S| < 1e-4: an empty count
    ("y^2 - x^3", 6): [
        ("0x1.67c4d07d2686cp-1", "0x1.7c5b734d07987p-5", 3228),
        ("0x1.e655ee93e77e3p-4", "0x1.38b42414525e6p-6", 3228),
        ("0x1.1f048ccccbc43p-6", "0x1.e073842b67e90p-8", 3228),
        ("0x0.0p+0", "0x1.fe40fa4fa323ep-11", 3228),
    ],
    ("y^2 - x^3", 7): [
        ("0x1.6853b1ea15454p-1", "0x1.7ca6f3200f460p-6", 12892),
        ("0x1.f31159b2d7417p-4", "0x1.3cc53d7296a1fp-7", 12892),
        ("0x1.47637223664bbp-6", "0x1.009084baf58c8p-8", 12892),
        ("0x1.ff0b9f6f73f95p-9", "0x1.ff0b9f6f73f95p-9", 12892),
    ],
}
# eps-grid MC calls (threads 1 and 4) and GRID calls at depth 6 on the other
# region types and term shapes: the sqrt (m = 1/2) and pow (m = 3/2) walls of
# a curved triangle, a y-only term, unit and non-unit coefficients, a constant
# term, a multi-term phase and a fractional x-exponent on an x > 0 region;
# recorded from the block kernel that selected inside points by boolean mask
REGION_CASES = {
    "y^2 - x^3 on tri(1/2, 2, 3/4)": (
        lambda: (_poly("y^2 - x^3"), curved_triangle(Fraction(1, 2), 2, 0.75)),
        [("0x1.d1b6e6743e95dp-3", "0x1.16a507741994fp-10", 196731),
         ("0x1.6bbd802fb5175p-5", "0x1.17518a57ccecdp-11", 196731),
         ("0x1.fe735d1aeffdfp-8", "0x1.de4242d9cfa48p-13", 196731),
         ("0x1.531f776ee813ep-10", "0x1.874af720a6515p-14", 196731)],
        [("0x1.cba111ff8a53ap-3", "0x1.7bc3bf3c230b9p-6", 2651),
         ("0x1.61408b09b5363p-5", "0x1.4cee1dafc7e80p-7", 2651),
         ("0x1.ac2f342acc22bp-8", "0x1.032f8e275ff6cp-8", 2651),
         ("0x1.568c29bbd6822p-12", "0x1.2484d52cbdbffp-9", 2651)]),
    "3*x*y^2 + x^5 on tri(3/2, 2, 3/4)": (
        lambda: (_poly("3*x*y^2 + x^5"), curved_triangle(Fraction(3, 2), 2, 0.75)),
        [("0x1.cfaa50e1fe08cp-4", "0x1.4de92d4b78be6p-11", 196731),
         ("0x1.fc9d6821762f8p-6", "0x1.8e4d3e02768ffp-12", 196731),
         ("0x1.0f3a692c0a224p-7", "0x1.a8316aa21774dp-13", 196731),
         ("0x1.1559dfe8ef076p-9", "0x1.b067a45011632p-14", 196731)],
        [("0x1.c3997e17dd60ep-4", "0x1.8f446e3d2b887p-7", 1580),
         ("0x1.d0bbbcbfca0b8p-6", "0x1.b2b80a9333378p-8", 1580),
         ("0x1.941daf42996e3p-8", "0x1.53c5728c00c07p-8", 1580),
         ("0x1.02a25bafbe5b0p-10", "0x1.ea96c3a9a14ecp-9", 1580)]),
    "(y - x^2)^2 on Disk(1)": (
        lambda: (_poly("(y - x^2)^2"), Disk(1.0)),
        [("0x1.fa6f092ff1875p-1", "0x1.e6a152d406331p-9", 196731),
         ("0x1.409ec69411ba3p-2", "0x1.39da8dbfcaa48p-9", 196731),
         ("0x1.960e1920a2688p-4", "0x1.6e51ae00f5c95p-10", 196731),
         ("0x1.006df5657ed43p-5", "0x1.a03ffdf99bab5p-11", 196731)],
        [("0x1.f94557dddc0c0p-1", "0x1.c2c1adafa07a6p-5", 3228),
         ("0x1.42e51e66653cbp-2", "0x1.fd987207ed577p-6", 3228),
         ("0x1.9e94cb60b48d3p-4", "0x1.20b71b55586b7p-6", 3228),
         ("0x1.fe40fa4fa323ep-6", "0x1.404d02c79a9b6p-7", 3228)]),
    "x*y - 1/4 on Sector(1, 1/2)": (
        lambda: (_poly("x*y - 1/4"), SectorProduct(1.0, 0.5)),
        [("0x1.2588fd0f7885bp-3", "0x1.0b42733d92fedp-11", 196731),
         ("0x1.bc0e370e84023p-7", "0x1.7fe39286da4d7p-13", 196731),
         ("0x1.69c60f478d8a5p-10", "0x1.f01ec02f22f79p-15", 196731),
         ("0x1.452143019a13bp-13", "0x1.4cfa32d7da49fp-16", 196731)],
        [("0x1.27c0000000000p-3", "0x1.58dc0d95ad79ap-7", 4096),
         ("0x1.d800000000000p-7", "0x1.b3a9ca53e3e82p-9", 4096),
         ("0x1.4000000000000p-10", "0x1.4000000000000p-10", 4096),
         ("0x0.0p+0", "0x1.0000000000000p-13", 4096)]),
    "x^(1/2)*y - 2*y^2 on Sector(1, 1)": (
        lambda: (phase((1, Fraction(1, 2), 1), (-2, 0, 2)), SectorProduct(1.0, 1.0)),
        [("0x1.b0d2ae42176a4p-2", "0x1.23f4c03f0ce72p-10", 196731),
         ("0x1.cd80c10bbfc8fp-5", "0x1.108aed1639c3fp-11", 196731),
         ("0x1.84172d9f06dd4p-8", "0x1.6ac4e717f65d9p-13", 196731),
         ("0x1.27d09f9670e7fp-11", "0x1.c11d095a3d968p-15", 196731)],
        [("0x1.ae00000000000p-2", "0x1.2608fb2d22549p-6", 4096),
         ("0x1.d200000000000p-5", "0x1.b0e2a5b8122dcp-8", 4096),
         ("0x1.2000000000000p-8", "0x1.e145caff13a88p-10", 4096),
         ("0x1.0000000000000p-10", "0x1.0000000000000p-10", 4096)]),
    # a triangle's box pads y0 below 0, which once refused a fractional x-exponent
    "x^(1/2)*y + y^2 on tri(1, 1, 1)": (
        lambda: (phase((1, Fraction(1, 2), 1), (1, 0, 2)), curved_triangle(1, 1, 1.0)),
        [("0x1.d19a7102faea9p-4", "0x1.61e5cdec75879p-11", 196731),
         ("0x1.0b4f461d9c348p-6", "0x1.2c0a79ac0a3d3p-12", 196731),
         ("0x1.cfbbbfb8f1af0p-10", "0x1.9116f8130bb57p-14", 196731),
         ("0x1.7cc73512fb005p-13", "0x1.016801690a0a5p-15", 196731)],
        [("0x1.bce739ce739cep-4", "0x1.98c6318c63190p-7", 1984),
         ("0x1.2108421084211p-7", "0x1.7f7bdef7bdef8p-6", 1984),
         ("0x0.0p+0", "0x1.0000000000000p-10", 1984),
         ("0x0.0p+0", "0x1.0842108421084p-12", 1984)]),
}
# the full-count call of tests/test_measure_lab.py (sampling seed 400, tri-35)
TRI_HEX = ("0x1.0000000000000p-6", "0x1.01a80f43ca3cep-19", 100000)

# (float.hex(lambda), float.hex(re J), float.hex(im J)) per input lambda
DECAY_CASES = {
    "x^2*y^2 + x^5": [float(v) for v in np.geomspace(10, 200, 4)],   # 10..200:4
    "x^2 + y^2": [200.0, -400.0, 800.0, 200.0],   # a negative and a repeated lambda
    "y^2 - x^3 + x^2*y": [float(v) for v in np.geomspace(10, 200, 4)],
    # near misses of rotation invariance, each a coefficient or a term away
    "x^2 + 2*y^2": [float(v) for v in np.geomspace(10, 200, 4)],
    "x^2 + y^2 + x^4": [float(v) for v in np.geomspace(10, 200, 4)],
    "(x^2 + y^2)^2 + x^2*y^2": [float(v) for v in np.geomspace(10, 200, 4)],
    "x^2 + y^2 + 10^(-30)*x^4": [float(v) for v in np.geomspace(10, 200, 4)],
}
# recorded from the polar ladder with its angles folded over the phase's
# symmetries.  x^2 + y^2 is rotation-invariant and evaluates one angle per
# circle.  The near misses are not, however small the term that breaks it,
# and keep the reflection fold: their values are the ones recorded before
# rotations were folded, bit for bit.  y^2 - x^3 + x^2*y has no symmetry, so
# its quadrature runs over every angle and its values are the unfolded
# ladder's, bit for bit
DECAY_HEX = {
    "x^2*y^2 + x^5": [
        ("0x1.4000000000000p+3", "0x1.76d8b5c21388fp-1", "0x1.aad234171db2fp-5"),
        ("0x1.b24e8baad9d29p+4", "0x1.490e1b074b1c3p-1", "0x1.77e394ba1641ep-4"),
        ("0x1.26b8f710478bep+6", "0x1.07365dd490506p-1", "0x1.f38e72f6cae60p-4"),
        ("0x1.9000000000000p+7", "0x1.869f806f80d23p-2", "0x1.fbe51617b1fccp-4"),
    ],
    "x^2 + y^2": [
        ("0x1.9000000000000p+7", "0x1.ee1dfc29cf388p-13", "0x1.01520c239cfb8p-6"),
        ("-0x1.9000000000000p+8", "0x1.ee1ed110848e0p-15", "-0x1.01597f4c8cc93p-7"),
        ("0x1.9000000000000p+9", "0x1.ee20a7f168980p-17", "0x1.015b5b2f9150fp-8"),
        ("0x1.9000000000000p+7", "0x1.ee1dfc29cf388p-13", "0x1.01520c239cfb8p-6"),
    ],
    "x^2 + 2*y^2": [
        ("0x1.4000000000000p+3", "0x1.9349f47ecd505p-5", "0x1.b622dd456018dp-3"),
        ("0x1.b24e8baad9d29p+4", "0x1.bb8ab9f290e10p-8", "0x1.4d989f804ea80p-4"),
        ("0x1.26b8f710478bep+6", "0x1.e2995e70b419ep-11", "0x1.eda577bb11a3ap-6"),
        ("0x1.9000000000000p+7", "0x1.060b4f5c9bf60p-13", "0x1.6bedb57f1df7cp-7"),
    ],
    "x^2 + y^2 + x^4": [
        ("0x1.4000000000000p+3", "0x1.9824d3deb6b7bp-4", "0x1.1c63f7f856aebp-2"),
        ("0x1.b24e8baad9d29p+4", "0x1.fa59704e956dcp-7", "0x1.d09560c3c6e67p-4"),
        ("0x1.26b8f710478bep+6", "0x1.1af5896b62fc5p-9", "0x1.5c45901c9ca02p-5"),
        ("0x1.9000000000000p+7", "0x1.349bccf35c081p-12", "0x1.01419d2ce7257p-6"),
    ],
    "(x^2 + y^2)^2 + x^2*y^2": [
        ("0x1.4000000000000p+3", "0x1.0b24f5bab0b41p-1", "0x1.f7be8c4a41d6cp-3"),
        ("0x1.b24e8baad9d29p+4", "0x1.5d494e88ef800p-2", "0x1.c1919b3f67ad1p-3"),
        ("0x1.26b8f710478bep+6", "0x1.b440653239c3ap-3", "0x1.4ed5a3b220de3p-3"),
        ("0x1.9000000000000p+7", "0x1.0babec6ef58dap-3", "0x1.c8250157b6fb1p-4"),
    ],
    "x^2 + y^2 + 10^(-30)*x^4": [
        ("0x1.4000000000000p+3", "0x1.73d6ffe3eeb23p-4", "0x1.2d58d9f73bb27p-2"),
        ("0x1.b24e8baad9d29p+4", "0x1.a1867acd46c4fp-7", "0x1.d653fc98d6588p-4"),
        ("0x1.26b8f710478bep+6", "0x1.c6e7be87d3600p-10", "0x1.5ce627e754a9ap-5"),
        ("0x1.9000000000000p+7", "0x1.ee1dfc29cf9c0p-13", "0x1.01520c239cfb5p-6"),
    ],
    "y^2 - x^3 + x^2*y": [
        ("0x1.4000000000000p+3", "0x1.3e23073fa6ac2p-2", "0x1.d069984de69a1p-3"),
        ("0x1.b24e8baad9d29p+4", "0x1.04f83ea34fbeap-3", "0x1.e2087f4b31ee2p-4"),
        ("0x1.26b8f710478bep+6", "0x1.ba69116b684c3p-5", "0x1.b6437673e634fp-5"),
        ("0x1.9000000000000p+7", "0x1.7dcda9f398630p-6", "0x1.81dbeedb9938ep-6"),
    ],
}
# the same values from the unfolded ladder (every angle evaluated), which the
# fold reproduces to rounding: within DECAY_DRIFT relative
UNFOLDED_DECAY_HEX = {
    "x^2*y^2 + x^5": [
        ("0x1.4000000000000p+3", "0x1.76d8b5c21388fp-1", "0x1.aad234171db29p-5"),
        ("0x1.b24e8baad9d29p+4", "0x1.490e1b074b1c2p-1", "0x1.77e394ba1641bp-4"),
        ("0x1.26b8f710478bep+6", "0x1.07365dd490506p-1", "0x1.f38e72f6cae5ep-4"),
        ("0x1.9000000000000p+7", "0x1.869f806f80d23p-2", "0x1.fbe51617b1fc9p-4"),
    ],
    "x^2 + y^2": [
        ("0x1.9000000000000p+7", "0x1.ee1dfc29cf8d8p-13", "0x1.01520c239cfb4p-6"),
        ("-0x1.9000000000000p+8", "0x1.ee1ed11085fa0p-15", "-0x1.01597f4c8cca2p-7"),
        ("0x1.9000000000000p+9", "0x1.ee20a7f16e800p-17", "0x1.015b5b2f914d8p-8"),
        ("0x1.9000000000000p+7", "0x1.ee1dfc29cf8d8p-13", "0x1.01520c239cfb4p-6"),
    ],
}
DECAY_DRIFT = 1e-13
# x^2 + y^2 at lambda = 800 with one doubling (depth=1): its phase swing leaves
# no doubling, so it is refused before any work and carries no estimate
NONCONV_MESSAGE = ("oscillatory quadrature refused lambda 800.0: a phase swing of up "
                   "to 3.2e+03 radians needs a ladder deeper than depth 1")
NONCONV_HEX = ("nan", "nan")


def _hex(s):
    return (float.hex(s.estimate), float.hex(s.stderr), s.n_samples)


def _poly(expr):
    return parse_expression(expr).poly


@pytest.mark.parametrize("threads", [1, 4])
@pytest.mark.parametrize("expr", sorted(MC_HEX))
def test_mc_golden(expr, threads):
    got = [_hex(sublevel_measure(_poly(expr), Disk(1.0), e, budget=BUDGET, seed=MC_SEED,
                                 threads=threads)) for e in EPS]
    assert got == MC_HEX[expr]


@pytest.mark.parametrize("key", sorted(GRID_HEX))
def test_grid_golden(key):
    expr, depth = key
    got = [_hex(sublevel_measure(_poly(expr), Disk(1.0), e, budget=depth, method="GRID"))
           for e in EPS]
    assert got == GRID_HEX[key]


def test_curved_triangle_golden():
    tri = curved_triangle(Fraction(3), Fraction(1), 0.5)
    s = sublevel_measure(phase((3, 3, 2)), tri, 0.005838, budget=100_000, seed=635989)
    assert _hex(s) == TRI_HEX


@pytest.mark.parametrize("threads", [1, 4])
@pytest.mark.parametrize("expr", sorted(MC_HEX))
def test_mc_epsilon_grid_call_golden(expr, threads):
    got = sublevel_measure(_poly(expr), Disk(1.0), EPS, budget=BUDGET, seed=MC_SEED,
                           threads=threads)
    assert isinstance(got, list)
    assert [_hex(s) for s in got] == MC_HEX[expr]
    assert [s.epsilon for s in got] == EPS


@pytest.mark.parametrize("key", sorted(GRID_HEX))
def test_grid_epsilon_grid_call_golden(key):
    expr, depth = key
    got = sublevel_measure(_poly(expr), Disk(1.0), EPS, budget=depth, method="GRID")
    assert [_hex(s) for s in got] == GRID_HEX[key]


@pytest.mark.parametrize("threads", [1, 4])
@pytest.mark.parametrize("name", sorted(REGION_CASES))
def test_region_mc_golden(name, threads):
    make, mc, _ = REGION_CASES[name]
    p, region = make()
    got = sublevel_measure(p, region, EPS, budget=BUDGET, seed=MC_SEED, threads=threads)
    assert [_hex(s) for s in got] == mc


@pytest.mark.parametrize("name", sorted(REGION_CASES))
def test_region_grid_golden(name):
    make, _, grid = REGION_CASES[name]
    p, region = make()
    got = sublevel_measure(p, region, EPS, budget=6, method="GRID")
    assert [_hex(s) for s in got] == grid


@pytest.mark.parametrize("method,budget", [("MC", BUDGET), ("GRID", 6)])
def test_epsilon_grid_call_equals_per_value_calls(method, budget):
    # any order, repeats and int-valued entries come back element for element
    eps = [1e-3, 0.3, 1e-3, 2e-2, 1]
    p, region = _poly("x^2*y^2 + x^5"), Disk(1.0)
    got = sublevel_measure(p, region, eps, budget=budget, seed=3, method=method)
    want = [sublevel_measure(p, region, e, budget=budget, seed=3, method=method)
            for e in eps]
    assert got == want
    assert sublevel_measure(p, region, [], budget=budget, seed=3, method=method) == []


def test_epsilon_grid_rejects_a_nonpositive_entry():
    with pytest.raises(ValueError, match="epsilon must be positive"):
        sublevel_measure(_poly("y^2 - x^3"), Disk(1.0), [1e-2, 0.0], budget=1000)


@pytest.mark.parametrize("expr", sorted(DECAY_CASES))
def test_decay_pairs_golden(expr):
    pairs = decay_pairs(_poly(expr), Cutoff(), DECAY_CASES[expr])
    got = [(float.hex(l), float.hex(J.real), float.hex(J.imag)) for l, J in pairs]
    assert got == DECAY_HEX[expr]


@pytest.mark.parametrize("expr", sorted(UNFOLDED_DECAY_HEX))
def test_folded_decay_drifts_from_the_unfolded_ladder_by_rounding(expr):
    for (lam, re, im), (lam0, re0, im0) in zip(DECAY_HEX[expr], UNFOLDED_DECAY_HEX[expr]):
        assert lam == lam0
        got = complex(float.fromhex(re), float.fromhex(im))
        want = complex(float.fromhex(re0), float.fromhex(im0))
        assert abs(got - want) <= DECAY_DRIFT * abs(want)


@pytest.mark.parametrize("expr", sorted(DECAY_CASES))
def test_decay_pairs_equal_per_value_integrals(expr):
    p, lams = _poly(expr), DECAY_CASES[expr]
    want = [(lam, oscillatory_integral(p, Cutoff(), lam)) for lam in lams]
    assert decay_pairs(p, Cutoff(), lams) == want


def test_nonconvergence_message_and_achieved():
    with pytest.raises(RuntimeError) as info:
        oscillatory_integral(_poly("x^2 + y^2"), Cutoff(), 800.0, depth=1)
    assert str(info.value) == NONCONV_MESSAGE
    got = info.value.achieved
    assert (float.hex(got.real), float.hex(got.imag)) == NONCONV_HEX


def test_decay_pairs_raise_for_the_first_nonconverging_lambda():
    # lambda = 5 converges within one doubling; -800 is taken at 800, is refused
    # first in input order, and raises the error of 800 itself
    p = _poly("x^2 + y^2")
    assert oscillatory_integral(p, Cutoff(), 5.0, depth=1)
    for lams in ([5.0, -800.0, 800.0], [5.0, 800.0]):
        with pytest.raises(RuntimeError) as info:
            decay_pairs(p, Cutoff(), lams, depth=1)
        assert str(info.value) == NONCONV_MESSAGE
        got = info.value.achieved
        assert (float.hex(got.real), float.hex(got.imag)) == NONCONV_HEX
