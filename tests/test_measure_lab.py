"""Sublevel measures, exact monomial formulas, fits, 1-D bounds, oscillation."""

import concurrent.futures
import csv
import io
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.special import j0

from newton_sublevel import (
    CurvedTriangle,
    Cutoff,
    Disk,
    MeasureSample,
    PuiseuxPoly,
    SectorProduct,
    curved_triangle,
    decay_coefficient_cap,
    decay_csv,
    decay_pairs,
    fit_decay,
    fit_growth,
    measure_csv,
    monomial_measure_exact,
    oscillatory_integral,
    parse_expression,
    region_area,
    sublevel_measure,
    to_superadapted,
    vdc_check,
    vdc_sublevel_bound,
)
from newton_sublevel import measure_lab
import helpers
from helpers import phase


# ---------------------------------------------------------------------------
# regions


def test_region_areas():
    assert abs(region_area(Disk(2.0)) - 4 * math.pi) < 1e-12
    assert abs(region_area(SectorProduct(0.5, 2.0)) - 1.0) < 1e-12
    # integral of N x^m on (0, x0)
    tri = curved_triangle(Fraction(2), Fraction(3), Fraction(1, 2))
    assert abs(region_area(tri) - 3 * 0.5 ** 3 / 3) < 1e-12


# ---------------------------------------------------------------------------
# exact monomial sublevel measure vs an independent quadrature oracle


def _numeric_oracle(a, alpha, beta, m, N, x0, eps):
    # integrate min(N x^m, (eps/(a x^alpha))^(1/beta)) on (0, x0)
    xs = np.geomspace(1e-14 * float(x0), float(x0), 2 ** 18)
    roof = float(N) * xs ** float(m)
    cut = (float(eps) / (float(a) * xs ** float(alpha))) ** (1.0 / float(beta))
    return float(np.trapezoid(np.minimum(roof, cut), xs))


@pytest.mark.parametrize("combo", [
    # (a, alpha, beta, m, N, x0, eps): spans beta > alpha, =, <
    (Fraction(1), Fraction(1), 2, Fraction(1), Fraction(1), Fraction(1), Fraction(1, 10 ** 4)),
    (Fraction(2), Fraction(2), 2, Fraction(2), Fraction(3), Fraction(1, 2), Fraction(1, 10 ** 5)),
    (Fraction(1), Fraction(3), 1, Fraction(1), Fraction(1), Fraction(1), Fraction(1, 10 ** 4)),
    (Fraction(3), Fraction(5, 2), 1, Fraction(3, 2), Fraction(2), Fraction(2, 3), Fraction(1, 10 ** 6)),
    (Fraction(1), Fraction(0), 2, Fraction(1), Fraction(1), Fraction(1), Fraction(1, 100)),
])
def test_monomial_measure_matches_quadrature(combo):
    a, alpha, beta, m, N, x0, eps = combo
    mm = monomial_measure_exact(a, alpha, beta, m, N, x0, eps)
    oracle = _numeric_oracle(a, alpha, beta, m, N, x0, eps)
    assert mm.value > 0
    assert abs(mm.value - oracle) < 2e-4 * oracle, (mm.value, oracle)


def test_monomial_measure_balanced_identity():
    # alpha = beta = m = N = x0 = 1: the measure is eps/2 + (eps/2)|ln eps|
    for eps in (Fraction(1, 100), Fraction(1, 10 ** 6)):
        mm = monomial_measure_exact(Fraction(1), Fraction(1), 1, Fraction(1),
                                    Fraction(1), Fraction(1), eps)
        e = float(eps)
        expected = e / 2 + (e / 2) * abs(math.log(e))
        assert abs(mm.value - expected) <= 1e-15 * max(1.0, expected)
        assert mm.regime == "balanced-logarithmic"
        assert mm.log_power == 1


def test_monomial_measure_regime_tags():
    tag = lambda *c: monomial_measure_exact(*c).regime
    base = (Fraction(1), Fraction(1), Fraction(1), Fraction(1, 10 ** 4))
    assert tag(Fraction(1), Fraction(1), 2, *base) == "y-exponent-dominant"
    assert tag(Fraction(1), Fraction(3), 1, *base) == "x-exponent-dominant"
    assert tag(Fraction(1), Fraction(1), 1, *base) == "balanced-logarithmic"
    # beta = 0: either the whole region or nothing, depending on a vs eps
    full = monomial_measure_exact(Fraction(1, 2), Fraction(0), 0, Fraction(1),
                                  Fraction(1), Fraction(1), Fraction(1))
    assert full.regime == "degenerate-full" and abs(full.value - 0.5) < 1e-15
    empty = monomial_measure_exact(Fraction(2), Fraction(0), 0, Fraction(1),
                                   Fraction(1), Fraction(1), Fraction(1))
    assert empty.regime == "degenerate-empty" and empty.value == 0.0


def test_monomial_measure_beta_zero_cutoff():
    # beta=0, alpha>0: sublevel is {x < (eps/a)^(1/alpha)}, roof integral up to it
    mm = monomial_measure_exact(Fraction(1), Fraction(2), 0, Fraction(1),
                                Fraction(1), Fraction(1), Fraction(1, 4))
    # cutoff x = 1/2: integral of x dx to 1/2 = 1/8
    assert abs(mm.value - 0.125) < 1e-15


def test_monomial_measure_validation():
    with pytest.raises(ValueError):
        monomial_measure_exact(Fraction(0), Fraction(1), 1, Fraction(1),
                               Fraction(1), Fraction(1), Fraction(1, 10))
    with pytest.raises(ValueError):
        monomial_measure_exact(Fraction(1), Fraction(1), 1, Fraction(1),
                               Fraction(1), Fraction(1), Fraction(0))


# ---------------------------------------------------------------------------
# Monte-Carlo and grid estimators


def test_mc_disk_matches_exact_area():
    # {x^2 + y^2 < eps} has area pi*eps
    p = phase((1, 2, 0), (1, 0, 2))
    eps = 1e-3
    s = sublevel_measure(p, Disk(1.0), eps, budget=400_000, seed=5)
    assert s.method == "MC" and s.n_samples == 400_000
    assert abs(s.estimate - math.pi * eps) < 3 * s.stderr
    assert s.stderr > 0


def test_mc_full_count_has_positive_stderr():
    # every one of the 100 000 points hits, but the set misses ~1e-6 of the
    # triangle: the estimate is not exact, so its error must not read 0
    tri = curved_triangle(Fraction(3), Fraction(1), 0.5)
    eps = 0.005838
    s = sublevel_measure(phase((3, 3, 2)), tri, eps, budget=100_000, seed=635989)
    assert s.estimate == region_area(tri)
    mm = monomial_measure_exact(Fraction(3), Fraction(3), 2, Fraction(3),
                                Fraction(1), Fraction(1, 2), eps)
    assert s.stderr > 0
    assert abs(s.estimate - mm.value) <= 3 * s.stderr


def test_mc_thread_invariance_bitwise():
    p = phase((1, 2, 2), (1, 5, 0))
    kw = dict(budget=3 * (1 << 16) + 123, seed=42)
    a = sublevel_measure(p, Disk(1.0), 1e-4, threads=1, **kw)
    b = sublevel_measure(p, Disk(1.0), 1e-4, threads=4, **kw)
    assert a.estimate == b.estimate and a.stderr == b.stderr


def test_mc_pool_is_capped_by_blocks_and_cores(monkeypatch):
    # no pool is started: a stand-in records the size asked for and maps in the
    # calling thread, so a huge thread value costs nothing here
    asked = []

    class Pool:
        def __init__(self, max_workers):
            asked.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        map = staticmethod(map)

    p = phase((1, 2, 2), (1, 5, 0))
    want = {}
    for blocks in (3, 6):
        want[blocks] = sublevel_measure(p, Disk(1.0), 1e-2, budget=blocks * (1 << 16) - 5,
                                        seed=3)
    # _mc_samples imports the pool class when it needs one, so patch it at its source
    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", Pool)
    for cores, threads, blocks, size in [(4, 10 ** 6, 6, 4), (4, 10 ** 6, 3, 3),
                                         (4, 2, 6, 2), (None, 10 ** 6, 6, None),
                                         (4, 1, 6, None), (1, 8, 6, None)]:
        monkeypatch.setattr(measure_lab.os, "cpu_count", lambda: cores)
        asked.clear()
        got = sublevel_measure(p, Disk(1.0), 1e-2, budget=blocks * (1 << 16) - 5, seed=3,
                               threads=threads)
        assert asked == ([] if size is None else [size])
        assert got == want[blocks]


_KERNEL_EXPS = [0, 1, 2, 3, Fraction(1, 2), Fraction(3, 2), Fraction(5, 3)]
_KERNEL_COEFFS = [1, -1, 3, Fraction(-2, 7), Fraction(1, 4), Fraction(5, 2)]


@st.composite
def _kernel_cases(draw):
    """(terms, region, box): a monomial or binomial phase on a disk, a sector
    product or a curved triangle; fractional x-exponents only where x > 0."""
    kind = draw(st.sampled_from(["disk", "sector", "triangle"]))
    if kind == "disk":
        region = Disk(draw(st.sampled_from([0.5, 1.0, 1.5])))
    elif kind == "sector":
        region = SectorProduct(draw(st.sampled_from([0.25, 1.0, 2.0])),
                               draw(st.sampled_from([0.5, 1.0])))
    else:
        def wall(least_terms):
            return phase(*[(draw(st.sampled_from([1, 2, Fraction(1, 3)])),
                            draw(st.sampled_from(_KERNEL_EXPS)), 0)
                           for _ in range(draw(st.integers(least_terms, 2)))])

        region = CurvedTriangle(wall(0), wall(1), draw(st.sampled_from([0.5, 0.75, 1.0])))
    exps = [a for a in _KERNEL_EXPS if kind != "disk" or a == int(a)]
    p = phase(*[(draw(st.sampled_from(_KERNEL_COEFFS)), draw(st.sampled_from(exps)),
                 draw(st.integers(0, 3))) for _ in range(draw(st.integers(1, 2)))])
    box = measure_lab._bounding_box(region)
    return measure_lab._phase_terms(p, needs_negative_x=box[0] < 0.0), region, box


_KERNEL_EPS = st.lists(st.sampled_from([1.0, 1e-1, 1e-2, 1e-3, 1e-4]), min_size=1,
                       max_size=4)


@given(_kernel_cases(), st.integers(0, 2 ** 32 - 1), st.integers(0, 40),
       st.one_of(st.just(1 << 16), st.integers(1, 1 << 16)), _KERNEL_EPS)
def test_mc_block_matches_the_boolean_mask_reference(case, seed, block, count, eps):
    terms, region, box = case
    args = (terms, region, box, eps, seed, block, count)
    assert measure_lab._mc_block(args) == helpers._mc_block(args)


@given(_kernel_cases(), st.integers(1, 6), st.integers(1, 6))
def test_grid_shaped_evaluation_matches_the_reference(case, dx, dy):
    # GRID passes an (n, 1) column and a (1, m) row: the region test and |S|
    # must fill the same (n, m) grid with the same values
    terms, region, (x0, x1, y0, y1) = case
    X = (x0 + (x1 - x0) * (np.arange(1 << dx) + 0.5) / (1 << dx))[:, None]
    Y = (y0 + (y1 - y0) * (np.arange(1 << dy) + 0.5) / (1 << dy))[None, :]
    assert np.array_equal(measure_lab._member_mask(region, X, Y),
                          helpers._member_mask(region, X, Y))
    assert np.array_equal(np.abs(measure_lab._eval_phase(terms, X, Y)),
                          np.abs(helpers._eval_phase(terms, X, Y)), equal_nan=True)


_POWER_EXPS = st.one_of(st.integers(0, 64), st.just(1500))
_U = 2.0 ** -53            # unit roundoff
_ETA = 2.0 ** -1074        # least subnormal: the absolute error of a product that underflows
# bases of every sign, zeros, subnormals and values whose powers underflow; a
# base above 1 in magnitude only under an exponent whose power stays finite
_BASES = st.one_of(st.floats(-1.0, 1.0), st.sampled_from([1e-300, -1e-160, 5e-324, -0.0]),
                   st.floats(-2.0, 2.0))


def _fits_floats(xs, n):
    return all(abs(x) <= 1.0 or n <= 64 for x in xs)


@given(_POWER_EXPS, st.lists(_BASES, min_size=1, max_size=20))
@example(1500, [-0.9999, 0.9995, -0.5, 0.0, 1e-300, -1.0, 1.0])
@example(3, [-1e-108, 1e-103, -2.0 ** -1022, 5e-324])
def test_integer_powers_are_within_their_product_count_of_pow(n, xs):
    # V ** n from k = n - 1 rounded products (a shared square counts once per
    # use) is x^n (1 + theta), |theta| <= gamma_k (Higham, section 3.1); math.pow
    # adds one rounding of at most 0.52 ulp <= 2 u, and an underflowing
    # product adds at most one subnormal step
    assume(_fits_floats(xs, n))
    got = measure_lab._eval_phase([(1.0, n, 0)], np.array(xs), np.zeros(len(xs)))
    k = max(n - 1, 0) + 2
    for x, v in zip(xs, got.tolist()):
        ref = math.pow(x, n)
        assert abs(v - ref) <= k * _U / (1 - k * _U) * abs(ref) + k * _ETA, (x, n, v, ref)


@st.composite
def _integer_phases(draw):
    return [(draw(st.sampled_from([1.0, -1.0, 3.0, -2.0 / 7.0, 0.25])), draw(_POWER_EXPS),
             draw(_POWER_EXPS)) for _ in range(draw(st.integers(1, 4)))]


_UNIT_BASES = st.one_of(st.floats(-1.0, 1.0), st.sampled_from([1e-300, -1e-160, 5e-324]))


@given(_integer_phases(), st.lists(st.tuples(_UNIT_BASES, _UNIT_BASES), min_size=1,
                                   max_size=20))
# a bare power (c = 1.0) first: the sum must not run in the power table's array
# (or in X itself), which a later term reads
@example([(1.0, 1, 0), (1.0, 0, 1), (1.0, 1, 1)], [(0.5, 0.25), (-0.75, 1.0)])
@example([(1.0, 3, 0), (1.0, 0, 1), (1.0, 3, 1)], [(0.5, 0.25), (-0.75, 1.0)])
def test_phase_is_within_its_rounding_count_of_a_pow_evaluation(terms, pts):
    # each side: a term's powers and its two products round at most a + b
    # times here and 2 + 2 + 2 times with math.pow, and the running sum adds
    # T - 1 roundings, each relative to sum |c x^a y^b|; on |x|, |y| <= 1 an
    # underflow's subnormal step grows at most by |c| <= 3
    X, Y = (np.array(v) for v in zip(*pts))
    got = measure_lab._eval_phase(terms, X, Y)
    ref = helpers.eval_phase_pow(terms, X, Y)
    mass = [math.fsum(abs(c * math.pow(x, a) * math.pow(y, b)) for c, a, b in terms)
            for x, y in zip(X.tolist(), Y.tolist())]
    k = max(a + b for _, a, b in terms) + 6 + 2 * (len(terms) - 1) + 1
    for v, r, m in zip(got.tolist(), ref.tolist(), mass):
        assert abs(v - r) <= k * _U / (1 - k * _U) * m + 3 * k * _ETA, (terms, v, r, m)


@given(st.sampled_from([1.0, -1.0, 3.0, -2.0 / 7.0]), _POWER_EXPS, _POWER_EXPS,
       st.lists(st.tuples(_BASES, _BASES), min_size=1, max_size=20))
def test_a_negated_axis_flips_the_phase_by_its_parity_bit_for_bit(c, a, b, pts):
    # products round the same for either sign of the base; numpy's SIMD pow
    # (positive bases) and libm's (negative ones) need not
    X, Y = (np.array(v) for v in zip(*pts))
    assume(_fits_floats(X, a) and _fits_floats(Y, b))
    term = [(c, a, b)]
    S = measure_lab._eval_phase(term, X, Y)
    for got, parity in ((measure_lab._eval_phase(term, -X, Y), a),
                        (measure_lab._eval_phase(term, X, -Y), b)):
        assert got.tobytes() == ((-1.0) ** parity * S).tobytes()


class _CountedProducts(np.ndarray):
    products = 0

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        _CountedProducts.products += ufunc is np.multiply
        plain = [np.asarray(v) for v in inputs]
        return getattr(ufunc, method)(*plain, **kwargs).view(_CountedProducts)


@pytest.mark.parametrize("n", [*range(1, 65), 1000, 1023, 1024, 1500])
def test_integer_powers_take_logarithmically_many_products(n):
    V = np.linspace(-1.0, 1.0, 9).view(_CountedProducts)
    _CountedProducts.products = 0
    got = measure_lab._powers(V, [n])[n]
    assert _CountedProducts.products <= 2 * n.bit_length()
    assert np.asarray(got).tobytes() == np.asarray(helpers._power(np.asarray(V), n)).tobytes()


def test_mc_measure_with_x_to_the_1500_matches_the_pow_reference():
    # one block of x^2*y^2 + x^1500 on the unit disk: x^1500 underflows to 0
    # inside |x| < 0.6 and sets the count near x = +-1
    p = phase((1, 2, 2), (1, 1500, 0))
    eps = [1e-1, 1e-2, 1e-3, 1e-4]
    region = Disk(1.0)
    box = measure_lab._bounding_box(region)
    terms = measure_lab._phase_terms(p, needs_negative_x=True)
    k_in, counts = helpers._mc_block((terms, region, box, eps, 7, 0, 1 << 16),
                                     evaluate=helpers.eval_phase_pow)
    got = sublevel_measure(p, region, eps, budget=1 << 16, seed=7)
    assert [s.estimate for s in got] == [math.pi * (k / k_in) for k in counts]
    assert 0 < counts[-1] < counts[0] < k_in


def test_mc_seed_sensitivity_and_determinism():
    p = phase((1, 2, 0), (1, 0, 2))
    a = sublevel_measure(p, Disk(1.0), 1e-3, budget=10 ** 5, seed=1)
    b = sublevel_measure(p, Disk(1.0), 1e-3, budget=10 ** 5, seed=1)
    c = sublevel_measure(p, Disk(1.0), 1e-3, budget=10 ** 5, seed=2)
    assert a.estimate == b.estimate
    assert a.estimate != c.estimate  # different stream, astronomically unlikely to tie


def test_grid_estimator_covers_truth():
    p = phase((1, 2, 0), (1, 0, 2))
    eps = 1e-2
    s = sublevel_measure(p, Disk(1.0), eps, budget=10, seed=0, method="GRID")
    assert s.method == "GRID"
    assert abs(s.estimate - math.pi * eps) <= 3 * s.stderr


def test_mc_rejects_fractional_x_when_region_crosses_zero():
    p = phase((1, Fraction(1, 2), 0), (1, 0, 2))
    for method, budget in (("MC", 1000), ("GRID", 4)):
        with pytest.raises(ValueError, match="disk crosses x = 0"):
            sublevel_measure(p, Disk(1.0), 1e-3, budget=budget, method=method)


def test_mc_takes_fractional_x_on_a_curved_triangle():
    # x > 0 on the triangle, although its bounding box pads y below 0
    s = sublevel_measure(phase((1, Fraction(1, 2), 1)), curved_triangle(1, 1, 1.0), 1e-2,
                         budget=400_000, seed=1)
    exact = monomial_measure_exact(1, Fraction(1, 2), 1, 1, 1, 1.0, 1e-2).value
    assert abs(s.estimate - exact) <= 3 * s.stderr


# ---------------------------------------------------------------------------
# fits


def _synthetic_samples(C, j, p, eps_list):
    out = []
    for e in eps_list:
        val = C * e ** j * abs(math.log(e)) ** p
        out.append(MeasureSample(epsilon=e, estimate=val, stderr=0.0,
                                 n_samples=1, method="MC"))
    return out


def test_fit_growth_recovers_noiseless():
    eps = list(np.geomspace(1e-2, 1e-8, 10))
    fit = fit_growth(_synthetic_samples(2.7, 0.63, 1, eps))
    assert abs(fit.j_hat - 0.63) < 1e-6
    assert abs(fit.p_hat - 1.0) < 1e-6
    assert fit.p_rounded == 1
    assert abs(fit.C_hat - 2.7) < 1e-5
    fit0 = fit_growth(_synthetic_samples(1.1, 0.5, 0, eps))
    assert abs(fit0.j_hat - 0.5) < 1e-6 and fit0.p_rounded == 0


def test_fit_growth_guards():
    eps = list(np.geomspace(1e-2, 1e-8, 8))
    good = _synthetic_samples(1.0, 0.5, 0, eps)
    with pytest.raises(ValueError):
        fit_growth(good[:3])  # too few
    with pytest.raises(ValueError):
        fit_growth(_synthetic_samples(1.0, 0.5, 0, list(np.geomspace(1e-3, 1e-4, 6))))
    with pytest.raises(ValueError):
        fit_growth(_synthetic_samples(1.0, 0.5, 0, [1.0, 1e-2, 1e-4, 1e-6, 1e-8]))
    bad = good[:4] + [MeasureSample(good[4].epsilon, 0.0, 0.0, 1, "MC")] + good[5:]
    with pytest.raises(ValueError):
        fit_growth(bad)  # nonpositive estimate
    with pytest.raises(ValueError):
        fit_growth(good[:4] + [good[3]])  # duplicate epsilon


def test_fit_decay_recovers_noiseless():
    lams = list(np.geomspace(50, 800, 8))
    pairs = [(l, 3.2 * l ** -1.0 * math.log(l) ** 0) for l in lams]
    fit = fit_decay(pairs)
    assert abs(fit.j_hat - 1.0) < 1e-6
    pairs_log = [(l, 0.8 * l ** -0.5 * math.log(l)) for l in lams]
    fit2 = fit_decay(pairs_log)
    assert abs(fit2.j_hat - 0.5) < 1e-6 and fit2.p_rounded == 1


def test_fit_decay_guards():
    with pytest.raises(ValueError):
        fit_decay([(0.5, 1.0), (2.0, 0.5), (4.0, 0.25), (8.0, 0.1)])  # lambda <= 1
    lams = list(np.geomspace(50, 400, 6))  # 0.90 decades: too narrow
    with pytest.raises(ValueError):
        fit_decay([(l, 1 / l) for l in lams])


# ---------------------------------------------------------------------------
# one-dimensional van der Corput checks


def test_vdc_bound_formula():
    assert vdc_sublevel_bound(1, Fraction(2), Fraction(1, 100), Fraction(10)) == \
        pytest.approx(4 * 0.5 * 0.01)
    # interval cap engages for generous epsilon
    assert vdc_sublevel_bound(1, Fraction(1), Fraction(1), Fraction(1, 2)) == \
        pytest.approx(0.5)


def test_vdc_check_square_example():
    # f = t^2 on [0,1], k=2, c=1: f'' = 2 = c*k! exactly (boundary case passes)
    eps = Fraction(1, 10 ** 4)
    chk = vdc_check([0, 0, 1], (Fraction(0), Fraction(1)), 2, Fraction(1), eps)
    assert chk["ok"]
    assert abs(float(chk["measured"]) - 0.01) < 1e-12  # sqrt(eps)
    assert float(chk["bound"]) == pytest.approx(4 * 0.01)


def test_vdc_check_exact_linear():
    eps = Fraction(1, 8)
    chk = vdc_check([0, 1], (Fraction(0), Fraction(1)), 1, Fraction(1), eps)
    assert chk["measured"] == eps  # [0, 1/8) exactly
    assert chk["ok"]


def test_vdc_check_hypothesis_violation_raises():
    # f = t^3 on [0,1]: f'' = 6t vanishes at the left endpoint
    with pytest.raises(ValueError, match="derivative hypothesis"):
        vdc_check([0, 0, 0, 1], (Fraction(0), Fraction(1)), 2, Fraction(1, 10),
                  Fraction(1, 100))


def test_vdc_measured_respects_bound_on_shifted_cubics():
    # deterministic mini-ensemble; the acceptance test runs the large one
    rng = np.random.default_rng(7)
    for _ in range(25):
        a0, a1 = int(rng.integers(-5, 6)), int(rng.integers(-5, 6))
        f = [Fraction(a0), Fraction(a1), Fraction(0), Fraction(1)]  # t^3 + a1 t + a0
        k = 3
        c = Fraction(1) * Fraction(1023, 1024)  # f''' = 6 = 1*3!
        eps = Fraction(1, 10 ** int(rng.integers(1, 5)))
        chk = vdc_check(f, (Fraction(0), Fraction(1)), k, c, eps)
        assert chk["ok"], (f, eps, chk)


def test_vdc_check_rejects_a_fractional_k():
    # int(1.9) would check k = 1, which f = 4t passes
    with pytest.raises(ValueError, match="k must be an integer, got 1.9"):
        vdc_check([0, 4], (0, 1), 1.9, 4, Fraction(1, 100))
    with pytest.raises(ValueError, match="k must be an integer, got 1.5"):
        vdc_sublevel_bound(1.5, 1, Fraction(1, 100), 1)
    with pytest.raises(ValueError, match="k must be an integer"):
        vdc_check([0, 0, 1], (0, 1), Fraction(2), 1, Fraction(1, 100))
    with pytest.raises(ValueError, match="k must be a positive integer"):
        vdc_sublevel_bound(0, 1, Fraction(1, 100), 1)


@pytest.mark.parametrize("interval, c, eps, name", [
    ((0, math.inf), 1, Fraction(1, 100), "interval"),
    ((-math.inf, 1), 1, Fraction(1, 100), "interval"),
    ((0, math.nan), 1, Fraction(1, 100), "interval"),
    ((0, 1), math.nan, Fraction(1, 100), "c"),
    ((0, 1), math.inf, Fraction(1, 100), "c"),
    ((0, 1), 1, math.nan, "epsilon"),
    ((0, 1), 1, math.inf, "epsilon"),
])
def test_vdc_check_rejects_non_finite_values(interval, c, eps, name):
    with pytest.raises(ValueError, match=f"^{name} must be finite, got (inf|-inf|nan)$"):
        vdc_check([0, 4], interval, 1, c, eps)


@pytest.mark.parametrize("args, name", [
    ((1, math.nan, 0.01, 1), "c"),
    ((1, 1, math.inf, 1), "epsilon"),
    ((1, 1, 0.01, math.nan), "interval_length"),
    ((1, 1, 0.0, 1), "epsilon"),
])
def test_vdc_sublevel_bound_rejects_non_positive_or_non_finite_values(args, name):
    with pytest.raises(ValueError, match=f"^{name} must be positive and finite"):
        vdc_sublevel_bound(*args)


_vdc_q = st.one_of(st.integers(-9, 9), st.fractions(-9, 9, max_denominator=12))


@st.composite
def _vdc_cases(draw):
    """(k, f, c, eps, interval): often vdc_instance-shaped on [0, 1], whose
    k-th coefficient dominates so that the gate holds; else any f, c and
    interval, which often fail the gate, and now and then a k or c that is
    not positive."""
    k = draw(st.sampled_from((1, 2, 3) * 4 + (0, -1)))
    degree = draw(st.integers(max(k, 1), max(k, 1) + 3))
    a = draw(st.lists(_vdc_q, min_size=degree + 1, max_size=degree + 1))
    if draw(st.booleans()) and k >= 1:
        slack = sum((abs(Fraction(a[i])) * math.factorial(i) / math.factorial(i - k)
                     for i in range(k + 1, degree + 1)), Fraction(0))
        lead = slack / math.factorial(k) + draw(st.integers(1, 40))
        a[k] = lead * draw(st.sampled_from((1, -1)))
        floor = abs(a[k]) * math.factorial(k) - slack
        c = floor / math.factorial(k) * draw(st.sampled_from(
            (Fraction(1023, 1024), Fraction(1, 2), Fraction(1), Fraction(2))))
        interval = (Fraction(0), Fraction(1))
    else:
        c = (draw(st.fractions(Fraction(1, 100), 20, max_denominator=100))
             * draw(st.sampled_from((1,) * 9 + (-1,))))
        lo = draw(st.fractions(-3, 3, max_denominator=16))
        interval = (lo, lo + draw(st.fractions(Fraction(1, 16), 4, max_denominator=16)))
    eps = draw(st.one_of(st.integers(1, 6).map(lambda e: Fraction(1, 10 ** e)),
                         st.sampled_from((1e-3, 1e-5, 0.25)),
                         st.fractions(Fraction(1, 10 ** 6), 2, max_denominator=10 ** 6)))
    return k, a, c, eps, interval


def _outcome(fn, *args):
    try:
        return fn(*args)
    except Exception as e:  # the same type and message
        return type(e), str(e)


@given(_vdc_cases())
@example((2, [Fraction(-26, 100), 0, 1], Fraction(1, 2), 1e-3, (Fraction(0), Fraction(1))))
@example((1, [0, 4], 4, Fraction(1, 100), (Fraction(1), Fraction(1))))
# f'' = 2 = c*2! on the whole interval: the gate holds with equality
@example((2, [0, 0, 1], 1, Fraction(1, 10 ** 4), (Fraction(0), Fraction(1))))
# f' = t < 3/4 on [1/4, 1/2], and f' -+ 3/4 has no root there: only the
# value at the midpoint 3/8 fails the gate (at lo + hi = 3/4 it would hold)
@example((1, [0, 0, Fraction(1, 2)], Fraction(3, 4), Fraction(1, 100),
          (Fraction(1, 4), Fraction(1, 2))))
def test_integer_vdc_check_matches_the_reference(case):
    # the same dict, or the same exception and message, as the Fraction
    # path that isolated every real root of f -+ eps (helpers.ref_vdc_check)
    k, f, c, eps, interval = case
    assert _outcome(vdc_check, f, interval, k, c, eps) \
        == _outcome(helpers.ref_vdc_check, f, interval, k, c, eps)


# ---------------------------------------------------------------------------
# oscillatory integrals


def test_oscillation_stationary_phase_morse():
    p = phase((1, 2, 0), (1, 0, 2))
    cut = Cutoff(1.0, 3)
    lam = 400.0
    val = oscillatory_integral(p, cut, lam)
    assert abs(abs(val) * lam - math.pi) < 0.01 * math.pi
    # negative frequency conjugates
    assert oscillatory_integral(p, cut, -lam) == val.conjugate()
    # deterministic
    assert oscillatory_integral(p, cut, lam) == val


def _osc_closed_form(expr, lam):
    """The integral of e^{i lam S} (1 - x^2 - y^2)^3_+ as a 1-D quadrature: in
    polar coordinates x^2 + y^2 leaves pi * int_0^1 e^{i lam s} (1 - s)^3 ds,
    and x^2 - y^2 leaves pi * int_0^1 (1 - s)^3 J0(lam s) ds; x*y is x^2 - y^2
    at lam / 2 after a rotation by pi/4."""
    if expr == "x^2 + y^2":
        re, _ = quad(lambda s: (1 - s) ** 3, 0.0, 1.0, weight="cos", wvar=lam)
        im, _ = quad(lambda s: (1 - s) ** 3, 0.0, 1.0, weight="sin", wvar=lam)
        return math.pi * complex(re, im)
    mu = lam if expr == "x^2 - y^2" else lam / 2.0
    val, _ = quad(lambda s: (1 - s) ** 3 * j0(mu * s), 0.0, 1.0, limit=2000,
                  epsabs=1e-13, epsrel=1e-10)
    return complex(math.pi * val, 0.0)


@pytest.mark.parametrize("grid", [(10, 200, 4), (20, 400, 4), (200, 800, 3)])
@pytest.mark.parametrize("expr", ["x^2 + y^2", "x^2 - y^2", "x*y"])
def test_decay_pairs_match_closed_forms(expr, grid):
    # the lambda grids of the benchmark's oscillate reports, at the default
    # stop rule: each value within 1e-6 of its 1-D closed form
    lams = [float(v) for v in np.geomspace(*grid)]
    for lam, val in decay_pairs(parse_expression(expr).poly, Cutoff(1.0, 3), lams):
        ref = _osc_closed_form(expr, lam)
        assert abs(val - ref) <= 1e-6 * abs(ref), (lam, val, ref)


def test_oscillation_linear_phase_is_tiny():
    val = oscillatory_integral(phase((1, 1, 0)), Cutoff(1.0, 3), 1000.0)
    assert abs(val) < 1e-8


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
def test_non_finite_epsilon_and_lambda_rejected(bad):
    p = phase((1, 2, 0), (1, 0, 2))
    with pytest.raises(ValueError, match="epsilon"):
        sublevel_measure(p, Disk(1.0), [1e-2, bad], budget=1000)
    with pytest.raises(ValueError, match="epsilon"):
        sublevel_measure(p, Disk(1.0), bad, budget=4, method="GRID")
    with pytest.raises(ValueError, match="lambda"):
        decay_pairs(p, Cutoff(1.0, 3), [100.0, bad])


def test_decay_pairs_refuse_before_any_work(monkeypatch):
    # |lam| * r * G(r) = 1e9 * 1 * 4 radians: far past what depth 9 can resolve
    def no_work(*args):
        raise AssertionError("quadrature ran for a refused lambda")

    monkeypatch.setattr(measure_lab, "_polar_level", no_work)
    p = phase((1, 2, 0), (1, 0, 2))
    for lams, cut in (([100.0, -1e9], Cutoff(1.0, 3)), ([1.0], Cutoff(1e150, 3))):
        with pytest.raises(RuntimeError, match="refused") as info:
            decay_pairs(p, cut, lams)
        assert math.isnan(info.value.achieved.real)


def test_decay_pairs_nonconvergence_carries_the_last_estimate():
    # lam = 50 is not refused at depth 1, but levels 0 and 1 disagree, so the
    # ladder ends at depth 1 and reports its level-1 estimate
    p = phase((1, 2, 0), (1, 0, 2))
    with pytest.raises(RuntimeError) as info:
        oscillatory_integral(p, Cutoff(1.0, 3), 50.0, depth=1)
    assert str(info.value) == (
        "oscillatory quadrature did not converge by level 1 (6 panels x 96 angles); "
        "last estimate (0.0037697966307250527+0.06268026750104921j)")
    got = info.value.achieved
    assert (float.hex(got.real), float.hex(got.imag)) == (
        "0x1.ee1d627baa7ccp-9", "0x1.00bd063058384p-4")
    # the unfolded ladder's estimate, (0.003769796630725011+0.06268026750104917j)
    unfolded = complex(float.fromhex("0x1.ee1d627baa76cp-9"),
                       float.fromhex("0x1.00bd063058381p-4"))
    assert abs(got - unfolded) <= 1e-13 * abs(unfolded)
    assert abs(got - oscillatory_integral(p, Cutoff(1.0, 3), 50.0)) < 1e-6


def _unfolded_level(degrees, level, lam):
    """Brute-force reference for one ladder level on the unit disk with the
    order-3 bump: the same nodes and weights over the full (rho, theta)
    tensor grid, every angle evaluated, no symmetry used."""
    panels, angles = measure_lab._PANELS0 << level, measure_lab._ANGLES0 << level
    gl_x, gl_w = np.polynomial.legendre.leggauss(measure_lab._NODES)
    t = ((np.arange(panels)[:, None] + 0.5 + 0.5 * gl_x[None, :]) / panels).ravel()
    w = np.tile(gl_w, panels) * (math.pi / (panels * angles)) * t * (1.0 - t * t) ** 3
    theta = (2.0 * math.pi / angles) * np.arange(angles)
    cos, sin = np.cos(theta), np.sin(theta)
    S = sum(np.multiply.outer(t ** d, sum(c * cos ** a * sin ** b for c, a, b in terms))
            for d, terms in degrees.items())
    return complex(np.sum(w * np.cos(lam * S).sum(axis=1)),
                   np.sum(w * np.sin(lam * S).sum(axis=1)))


# class -> (terms that pin the class, parities (of a, of b, of a + b) that the
# random extra terms keep, angles evaluated of 48, sine skipped); None leaves
# a parity free.  Each reflection class's pinning terms break the symmetries
# it lacks, and its levels run the reflection fold even where the draw
# happens to be rotation-invariant.  The rotation class draws
# sum c_k (x^2 + y^2)^k instead (_rotation_phases).
_FOLD_CLASSES = {
    "rotation": (None, None, 1, False),
    "x-even": ([(0, 2), (2, 1)], (0, None, None), 25, False),
    "x-odd": ([(1, 1), (1, 2)], (1, None, None), 25, True),
    "y-even": ([(2, 0), (3, 0)], (None, 0, None), 25, False),
    "y-odd": ([(2, 1), (3, 1)], (None, 1, None), 25, True),
    "both-even": ([(2, 0), (0, 2)], (0, 0, None), 13, False),
    "both-odd": ([(1, 1)], (1, 1, None), 13, True),
    "both-mixed": ([(3, 0), (1, 2)], (1, 0, None), 13, True),
    "origin-even": ([(2, 0), (1, 1), (0, 2)], (None, None, 0), 24, False),
    "origin-odd": ([(3, 0), (2, 1), (1, 2)], (None, None, 1), 24, True),
    "none": ([(0, 2), (3, 0), (2, 1)], (None, None, None), 48, False),
}


@st.composite
def _rotation_phases(draw):
    """Terms (c, a, b) of sum over k <= 3 of c_k (x^2 + y^2)^k, c_1..c_3 not
    all zero, with an optional constant c_0."""
    coeff = st.integers(-3, 3)
    cs = draw(st.lists(coeff, min_size=3, max_size=3).filter(any))
    terms = [(draw(coeff), 0, 0)] if draw(st.booleans()) else []
    for k, c in enumerate(cs, start=1):
        terms += [(c * math.comb(k, i), 2 * i, 2 * (k - i)) for i in range(k + 1) if c]
    return terms


@st.composite
def _fold_phases(draw, name):
    if name == "rotation":
        return draw(_rotation_phases())
    pinned, (pa, pb, pd), _, _ = _FOLD_CLASSES[name]
    extra = []
    for _ in range(draw(st.integers(0, 3))):
        a, b = draw(st.integers(0, 4)), draw(st.integers(0, 4))
        if a + b >= 2 and (pa is None or a % 2 == pa) and (pb is None or b % 2 == pb) and (
                pd is None or (a + b) % 2 == pd):
            extra.append((a, b))
    coeff = st.integers(-3, 3).filter(bool).map(float)
    return [(draw(coeff), a, b) for a, b in pinned + extra]


def _degrees(terms):
    degrees = {}
    for c, a, b in terms:
        degrees.setdefault(a + b, []).append((c, a, b))
    return degrees


# the integral of the order-3 bump over the unit disk: every quadrature term
# of J is at most its weight, so this is the scale of J's rounding error.  The
# unfolded grid's angles 2*pi*j/M are symmetric only to rounding, which moves
# its sums by up to ~3e-15 at lam = 200, while |J| there can be 5e-3.
_BUMP_MASS = math.pi / 4


@pytest.mark.parametrize("name", sorted(_FOLD_CLASSES))
def test_folded_level_equals_the_unfolded_sum(name):
    _, _, count, odd = _FOLD_CLASSES[name]
    rotational = name == "rotation"

    @given(_fold_phases(name))
    def check(terms):
        degrees = _degrees(terms)
        if rotational:
            assert measure_lab._rotation_invariant(phase(*terms))
        assert measure_lab._angle_fold(degrees, 48, rotational)[1] == count
        for level in range(3):
            lams = [10.0, 200.0]
            got = measure_lab._polar_level(degrees, Cutoff(1.0, 3), level, lams, rotational)
            for lam, est in zip(lams, got):
                want = _unfolded_level(degrees, level, lam)
                assert abs(est - want) <= 1e-13 * _BUMP_MASS
                if odd:
                    assert est.imag == 0.0 and math.copysign(1.0, est.imag) == 1.0
    check()


def test_folded_ladder_matches_named_phases():
    # the model phases of the catalog and the paper fold as their symmetries
    # say; the near misses of rotation invariance keep the reflection fold
    for expr, count, odd in (("x^2 + y^2", 1, False), ("(x^2 + y^2)^2", 1, False),
                             ("x^2 + 2*y^2", 13, False), ("x^2 + y^2 + x^4", 13, False),
                             ("(x^2 + y^2)^2 + x^2*y^2", 13, False),
                             ("x^2 + y^2 + 10^(-30)*x^4", 13, False),
                             ("x*y", 13, True),
                             ("y^2 - x^3", 25, False), ("x^2*y^2 + x^5", 25, False),
                             ("(y - x^2)^2", 25, False), ("x^3 + x^2*y + x*y^2", 24, True),
                             ("y^2 - x^3 + x^2*y", 48, False)):
        p = parse_expression(expr).poly
        degrees = _degrees(measure_lab._phase_terms(p, True))
        rotational = measure_lab._rotation_invariant(p)
        _, got_count, _, _, got_odd = measure_lab._angle_fold(degrees, 48, rotational)
        assert (got_count, got_odd) == (count, odd), expr
    # a truncation order hides no term from the decision: x^3 breaks the
    # symmetry although y*dS/dx would cut its x^2*y at degree 5/2
    truncated = PuiseuxPoly.from_terms([(1, 2, 0), (1, 0, 2), (1, 3, 0)], Fraction(7, 2))
    assert not measure_lab._rotation_invariant(truncated)
    assert oscillatory_integral(parse_expression("x*y").poly, Cutoff(1.0, 3), 50.0).imag == 0.0


def test_oscillation_rejects_fractional_x():
    with pytest.raises(ValueError):
        oscillatory_integral(phase((1, Fraction(1, 2), 0), (1, 0, 2)),
                             Cutoff(1.0, 3), 100.0)


def test_decay_pairs_and_cap():
    p = phase((1, 2, 0), (1, 0, 2))
    cut = Cutoff(1.0, 3)
    lams = [200.0, 400.0, 800.0]
    pairs = decay_pairs(p, cut, lams)
    assert [l for l, _ in pairs] == lams
    idx = to_superadapted(p).index
    eps = list(np.geomspace(1e-2, 1e-6, 8))
    samples = [sublevel_measure(p, Disk(1.0), e, budget=10 ** 5, seed=3) for e in eps]
    cap = decay_coefficient_cap(idx, samples)
    for lam, val in pairs:
        assert abs(val) * lam ** float(idx.j) <= cap
    assert cap < 6 * math.pi  # sanity: not vacuously huge


# ---------------------------------------------------------------------------
# CSV emitters


def test_measure_csv_format():
    samples = [MeasureSample(1e-3, 0.1, 0.01, 1000, "MC"),
               MeasureSample(1e-4, 0.05, 0.005, 1000, "MC")]
    text = measure_csv(samples)
    rows = list(csv.reader(io.StringIO(text)))
    assert rows[0] == ["epsilon", "estimate", "stderr", "n", "method"]
    assert len(rows) == 3 and rows[1][4] == "MC"
    assert float(rows[1][0]) == 1e-3


def test_decay_csv_format():
    text = decay_csv([(100.0, complex(0.01, -0.02)), (200.0, complex(0.005, 0.001))])
    rows = list(csv.reader(io.StringIO(text)))
    assert rows[0] == ["lambda", "re", "im", "abs"]
    assert abs(float(rows[1][3]) - abs(complex(0.01, -0.02))) < 1e-15
