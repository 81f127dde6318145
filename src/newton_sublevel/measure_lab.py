"""Sublevel-measure and oscillatory-integral laboratory.

Numerical verification layer: Monte Carlo / midpoint-grid estimates of
sublevel-set areas |{|S| < eps}|, exact closed forms for monomial phases on
curved triangles, two-regressor asymptotic fits for the growth law
C * eps^j * |ln eps|^p and the decay law D * lam^-j * (ln lam)^p, a van der
Corput bound checker whose hypothesis is certified by root isolation, and
polar quadrature (Gauss-Legendre in the radius, the periodic trapezoid rule
in the angle) for oscillatory integrals with a fixed polynomial bump cutoff,
whose work is bounded before it starts.  The quadrature evaluates one angle
per orbit of the phase's symmetries: one per circle for a phase that is
exactly rotation-invariant (x^2 + y^2), otherwise one per orbit of the
reflections that map S to +-S.

Determinism contract: estimates depend only on (seed, budget).  Monte Carlo
uses one PCG64 stream per fixed-size block (jumped streams, integer counts),
so results are bit-identical for any thread count.  A block takes the indices
of its inside points and evaluates only those.  An integer power of x or y is
a product of repeated squares in a fixed order, so S rounds the same for
either sign of a coordinate and on every IEEE-754 machine; a fractional power
(which only meets x > 0) is pow.  A grid call (a sequence of epsilon to
sublevel_measure, a lambda grid to decay_pairs) is bit-identical to one call
per value: the values share the sample points, grids and quadrature nodes, and
each keeps its own counts and sums.

numpy (and concurrent.futures) is imported inside the functions that use it,
so importing this module, and the package, leaves numpy unloaded until the
first numeric call.
"""

from __future__ import annotations

import csv
import functools
import io
import math
import operator
import os
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Sequence, Tuple, Union

from .exact_poly import PuiseuxPoly, _with_order, deriv_x, deriv_y, poly_add, poly_mul
from .roots import _count_roots, _hom, _primitive, _roots_in_window, coeffs_of, derivative

_BLOCK = 1 << 16          # Monte Carlo block size; fixed so threading cannot reorder sums
_CHUNK = 1 << 18          # elements per quadrature array
_ROOT_WIDTH = Fraction(1, 2 ** 60)


# ---------------------------------------------------------------------------
# domain types


@dataclass(frozen=True)
class MeasureSample:
    epsilon: float
    estimate: float
    stderr: float
    n_samples: int
    method: str            # MC | GRID


@dataclass(frozen=True)
class FitResult:
    j_hat: float
    p_hat: float
    C_hat: float
    residual_rms: float
    p_rounded: int


@dataclass(frozen=True)
class Disk:
    """Open disk of the given radius centered at the origin."""

    radius: float = 1.0


@dataclass(frozen=True)
class SectorProduct:
    """Axis-aligned product region (0, x_side) x (0, y_side)."""

    x_side: float = 1.0
    y_side: float = 1.0


@dataclass(frozen=True)
class CurvedTriangle:
    """{(x, y): 0 < x < x_max, lower(x) < y < upper(x)} for y-free curves."""

    lower: PuiseuxPoly
    upper: PuiseuxPoly
    x_max: float = 1.0


Region = Union[Disk, SectorProduct, CurvedTriangle]


def curved_triangle(m, N, x0) -> CurvedTriangle:
    """The standard aperture {0 < x < x0, 0 < y < N x^m}."""
    return CurvedTriangle(PuiseuxPoly.zero(),
                          PuiseuxPoly.monomial(N, Fraction(m), 0), float(x0))


@dataclass(frozen=True)
class MonomialMeasure:
    value: float
    regime: str            # y-exponent-dominant | balanced-logarithmic | x-exponent-dominant | degenerate-*
    leading_exponent: Fraction
    log_power: int


@dataclass(frozen=True)
class Cutoff:
    """Polynomial bump (1 - (x^2+y^2)/r^2)^order on the disk of radius r."""

    radius: float = 1.0
    order: int = 3


# ---------------------------------------------------------------------------
# region geometry


def region_area(region: Region) -> float:
    if isinstance(region, Disk):
        return math.pi * region.radius ** 2
    if isinstance(region, SectorProduct):
        return region.x_side * region.y_side
    if isinstance(region, CurvedTriangle):
        width = region.upper - region.lower
        total = 0.0
        for (a, b), c in width.items():
            if b != 0:
                raise ValueError("curved-triangle boundaries must not involve y")
            total += float(c) * region.x_max ** (float(a) + 1.0) / (float(a) + 1.0)
        if total <= 0.0:
            raise ValueError("curved triangle has nonpositive area")
        return total
    raise TypeError(f"not a region: {region!r}")


def _curve_terms(p: PuiseuxPoly) -> List[Tuple[float, float]]:
    out = []
    for (a, b), c in p.items():
        if b != 0:
            raise ValueError("curved-triangle boundaries must not involve y")
        out.append((float(c), float(a)))
    return out


def _term(c, *powers):
    """c * X ** a * Y ** b with the exact factors c = 1.0, X^0, Y^0 left out."""
    if c == 1.0 and powers:
        return math.prod(powers[1:], start=powers[0])
    return math.prod(powers, start=c)


def _eval_curve(terms, X):
    vals = (_term(c, *[X ** a] * (a != 0)) for c, a in terms)
    out = next(vals, 0.0)
    for v in vals:
        out += v
    return out


def _bounding_box(region: Region) -> Tuple[float, float, float, float]:
    import numpy as np
    if isinstance(region, Disk):
        r = region.radius
        return (-r, r, -r, r)
    if isinstance(region, SectorProduct):
        return (0.0, region.x_side, 0.0, region.y_side)
    # curve extrema probed on a fine grid; pad by 1% so the box surely covers
    lo_t, up_t = _curve_terms(region.lower), _curve_terms(region.upper)
    xs = np.linspace(0.0, region.x_max, 4097)[1:]
    lo = float(np.min(_eval_curve(lo_t, xs)))
    hi = float(np.max(_eval_curve(up_t, xs)))
    pad = 0.01 * max(hi - lo, 1e-30)
    return (0.0, region.x_max, min(lo, 0.0) - pad, hi + pad)


def _member_mask(region: Region, X, Y):
    import numpy as np
    if isinstance(region, Disk):
        return X * X + Y * Y < region.radius ** 2
    if isinstance(region, SectorProduct):
        return (X > 0.0) & (X < region.x_side) & (Y > 0.0) & (Y < region.y_side)
    lo_t, up_t = _curve_terms(region.lower), _curve_terms(region.upper)
    ok = (X > 0.0) & (X < region.x_max)
    # off 0 < x < x_max, where a wall's power can be nan or inf, evaluate at x = 1
    Xs = X if ok.all() else np.where(ok, X, 1.0)
    return ok & (Y > _eval_curve(lo_t, Xs)) & (Y < _eval_curve(up_t, Xs))


# ---------------------------------------------------------------------------
# phase evaluation (vectorized)


def _phase_terms(p: PuiseuxPoly, needs_negative_x: bool):
    """Float view [(c, a, b)].  needs_negative_x (the domain is a disk, the
    one region that crosses x = 0) requires integer x-exponents."""
    terms = []
    for (a, b), c in p.items():
        if needs_negative_x and a != int(a):
            raise ValueError(
                "phase has fractional x-exponents, but the disk crosses x = 0, "
                "where a fractional power is undefined")
        terms.append((float(c), (int(a) if a == int(a) else float(a)), int(b)))
    return terms


def _powers(V, exps):
    """{n: V ** n} for the nonzero exponents n.  An integer power is the
    product of the squares V, V^2, V^4, ... that its bits select, lowest bit
    first, and the squares are built once for all of them: at most
    2 * n.bit_length() array products for V ** n, and bit for bit the same on
    every IEEE-754 machine and for either sign of V.  A fractional power, which
    only meets V > 0, is V ** n."""
    squares = [V]
    out = {}
    for n in exps:
        if n == 0 or n in out:
            continue
        if not isinstance(n, int):
            out[n] = V ** n
            continue
        while len(squares) < n.bit_length():
            squares.append(squares[-1] * squares[-1])
        out[n] = functools.reduce(operator.mul, (sq for i, sq in enumerate(squares)
                                                 if n >> i & 1))
    return out


def _eval_phase(terms, X, Y):
    """S at the points of X and Y broadcast together.  Given an (n, 1) column
    and a (1, m) row, the powers are taken per axis and only the products
    fill the (n, m) grid; each element sees the same operations either way."""
    import numpy as np
    shape = np.broadcast_shapes(X.shape, Y.shape)
    xp, yp = _powers(X, [a for _, a, _ in terms]), _powers(Y, [b for *_, b in terms])
    vals = (_term(c, *(p[e] for p, e in ((xp, a), (yp, b)) if e != 0)) for c, a, b in terms)
    out = next(vals, 0.0)
    # the sum runs in place, so it starts in a copy of a bare power (c = 1.0),
    # which is the table's own array
    if np.shape(out) != shape or any(out is v for v in (*xp.values(), *yp.values())):
        out = np.full(shape, out)
    for v in vals:
        out += v
    return out


# ---------------------------------------------------------------------------
# sublevel measure


def _mc_block(args):
    import numpy as np
    terms, region, box, eps, seed, block, count = args
    rng = np.random.Generator(np.random.PCG64(seed).jumped(block + 1))
    X, Y = rng.random(count), rng.random(count)
    for V, lo, hi in ((X, box[0], box[1]), (Y, box[2], box[3])):
        V *= hi - lo
        V += lo
    idx = np.flatnonzero(_member_mask(region, X, Y))
    A = _eval_phase(terms, X.take(idx), Y.take(idx))
    np.abs(A, out=A)
    return idx.size, [int(np.count_nonzero(A < e)) for e in eps]


def _mc_samples(terms, region, box, area, eps, n, seed, threads):
    if n <= 0:
        raise ValueError("budget must be positive")
    blocks = [(terms, region, box, eps, seed, block, min(_BLOCK, n - off))
              for block, off in enumerate(range(0, n, _BLOCK))]
    # more workers than blocks or cores would only start idle threads
    workers = min(threads, len(blocks), os.cpu_count() or 1)
    if workers > 1:
        from concurrent.futures import ThreadPoolExecutor
        with ThreadPoolExecutor(max_workers=workers) as pool:
            counts = list(pool.map(_mc_block, blocks))
    else:
        counts = [_mc_block(b) for b in blocks]
    k_in = sum(c[0] for c in counts)
    if k_in == 0:
        return [MeasureSample(epsilon, 0.0, area, n, "MC") for epsilon in eps]
    out = []
    for i, epsilon in enumerate(eps):
        k_sub = sum(c[1][i] for c in counts)
        phat = k_sub / k_in
        estimate = area * phat
        if k_sub == 0 or k_sub == k_in:
            # rule-of-three scale for empty and full counts, where the
            # binomial formula would claim an error of 0
            stderr = area * 3.0 / k_in
        else:
            stderr = area * math.sqrt(phat * (1.0 - phat) / k_in)
        out.append(MeasureSample(epsilon, estimate, stderr, n, "MC"))
    return out


def _grid_estimates(terms, region, box, area, eps, d: int) -> Tuple[List[float], int]:
    """Midpoint-rule estimates on the 2^d x 2^d grid, one per epsilon, and the
    number of cells inside the region."""
    import numpy as np
    n_axis = 1 << d
    x0, x1, y0, y1 = box
    xs = x0 + (x1 - x0) * (np.arange(n_axis) + 0.5) / n_axis
    Y = (y0 + (y1 - y0) * (np.arange(n_axis) + 0.5) / n_axis)[None, :]
    k_in = 0
    k_sub = [0] * len(eps)
    chunk = max(1, 4_000_000 // n_axis)
    for i in range(0, n_axis, chunk):
        X = xs[i:i + chunk][:, None]
        inside = _member_mask(region, X, Y)
        k = int(np.count_nonzero(inside))
        if k == 0:
            continue
        k_in += k
        A = np.abs(_eval_phase(terms, X, Y)[inside])
        for j, e in enumerate(eps):
            k_sub[j] += int(np.count_nonzero(A < e))
    if k_in == 0:
        return [0.0] * len(eps), 0
    return [area * k / k_in for k in k_sub], k_in


def _grid_samples(terms, region, box, area, eps, depth: int):
    if not 1 <= depth <= 14:
        raise ValueError("grid depth must be between 1 and 14")
    ests, cells = _grid_estimates(terms, region, box, area, eps, depth)
    prevs, _ = _grid_estimates(terms, region, box, area, eps, depth - 1)
    x0, x1, y0, y1 = box
    h = max(x1 - x0, y1 - y0) / (1 << depth)
    out = []
    for epsilon, est, prev in zip(eps, ests, prevs):
        # successive differences can be accidentally small; floor the error by
        # the boundary-cell band of an isoperimetric set of the same area
        perimeter_proxy = 2.0 * math.sqrt(math.pi * max(est, 0.0))
        stderr = max(abs(est - prev), 0.5 * perimeter_proxy * h,
                     area / max(cells, 1))
        out.append(MeasureSample(epsilon, est, stderr, cells, "GRID"))
    return out


def sublevel_measure(p: PuiseuxPoly, region: Region, epsilon,
                     budget: int = 10 ** 6, seed: int = 0, method: str = "MC",
                     threads: int = 1) -> Union[MeasureSample, List[MeasureSample]]:
    """Estimate |{(x,y) in region: |S(x,y)| < epsilon}|.

    epsilon is one positive finite value, which returns one MeasureSample, or
    a sequence of them, which returns a list in the same order.  A grid call is
    bit-identical to one call per value: MC draws and evaluates each block
    once and counts every epsilon in it, GRID builds its two grids once.

    method MC: budget = number of samples (conditional hit estimator on the
    bounding box; stderr from the binomial count).  method GRID: budget =
    dyadic depth, midpoint rule on a 2^budget x 2^budget grid; stderr is the
    difference against depth-1.  The closed form for a monomial phase on a
    monomial curved triangle is monomial_measure_exact.
    """
    import numpy as np
    single = np.ndim(epsilon) == 0
    eps = [float(e) for e in ([epsilon] if single else epsilon)]
    if not all(0.0 < e < math.inf for e in eps):
        raise ValueError("epsilon must be positive and finite")
    if not eps:
        return []
    area = region_area(region)
    box = _bounding_box(region)
    terms = _phase_terms(p, needs_negative_x=box[0] < 0.0)
    # sum |c|·r^(a+b), r the box's largest |coordinate|, bounds every power, term
    # and partial sum of S on the box: when it is finite nothing overflows
    r = np.float64(max(map(abs, box)))
    with np.errstate(all="ignore"):
        bound = sum(abs(c) * r ** (a + b) for c, a, b in terms)
    if not np.isfinite(bound):
        raise ValueError("phase values overflow floats on this region: "
                         "sum |c|*r^(a+b) is not finite")
    if method == "MC":
        out = _mc_samples(terms, region, box, area, eps, int(budget), seed, threads)
    elif method == "GRID":
        out = _grid_samples(terms, region, box, area, eps, int(budget))
    else:
        raise ValueError("method must be MC or GRID")
    return out[0] if single else out


# ---------------------------------------------------------------------------
# exact monomial measures on the standard aperture


def _frac(v) -> Fraction:
    if isinstance(v, float):
        return Fraction(v).limit_denominator(10 ** 9)
    return Fraction(v)


def monomial_measure_exact(a, alpha, beta, m, N, x0, epsilon) -> MonomialMeasure:
    """Exact |{(x,y): 0<x<x0, 0<y<N x^m, a x^alpha y^beta < epsilon}|.

    Piecewise closed form: below the crossover abscissa the full slice
    0 < y < N x^m is admissible; above it the constraint truncates the slice.
    The regime tag classifies the small-epsilon asymptotics by beta vs alpha.
    """
    af, alf, bef, mf = float(a), float(alpha), float(beta), float(m)
    Nf, x0f, eps = float(N), float(x0), float(epsilon)
    if af <= 0 or Nf <= 0 or x0f <= 0 or eps <= 0 or mf <= 0:
        raise ValueError("a, N, x0, m, epsilon must all be positive")
    if alf < 0 or bef < 0:
        raise ValueError("alpha and beta must be nonnegative")
    alpha_q, beta_q, m_q = _frac(alpha), _frac(beta), _frac(m)

    full_area = Nf * x0f ** (mf + 1.0) / (mf + 1.0)

    if bef == 0.0:
        if alf == 0.0:
            # constant phase: all or nothing
            if af <= eps:
                return MonomialMeasure(full_area, "degenerate-full", Fraction(0), 0)
            return MonomialMeasure(0.0, "degenerate-empty", Fraction(0), 0)
        X = min(x0f, (eps / af) ** (1.0 / alf))
        value = Nf * X ** (mf + 1.0) / (mf + 1.0)
        return MonomialMeasure(value, "x-exponent-dominant",
                               (m_q + 1) / alpha_q, 0)

    # beta > 0: slice height min(N x^m, (eps/a)^{1/beta} x^{-alpha/beta})
    denom = mf * bef + alf
    xc = (eps / af) ** (1.0 / denom) * Nf ** (-bef / denom)
    X1 = min(xc, x0f)
    value = Nf * X1 ** (mf + 1.0) / (mf + 1.0)
    if xc < x0f:
        A = (eps / af) ** (1.0 / bef)
        kappa = alf / bef
        if kappa == 1.0:
            value += A * math.log(x0f / xc)
        else:
            value += A * (x0f ** (1.0 - kappa) - xc ** (1.0 - kappa)) / (1.0 - kappa)

    if bef > alf:
        return MonomialMeasure(value, "y-exponent-dominant", 1 / beta_q, 0)
    if bef == alf:
        return MonomialMeasure(value, "balanced-logarithmic", 1 / beta_q, 1)
    return MonomialMeasure(value, "x-exponent-dominant",
                           (m_q + 1) / (alpha_q + m_q * beta_q), 0)


# ---------------------------------------------------------------------------
# asymptotic fits


def _wls(A, target, w):
    import numpy as np
    sw = np.sqrt(w)
    coef, *_ = np.linalg.lstsq(A * sw[:, None], target * sw, rcond=None)
    resid = A @ coef - target
    rms = float(math.sqrt(float(np.sum(w * resid * resid) / np.sum(w))))
    return coef, rms


def _two_regressor_fit(xvals, yvals, log_reg, span_decades, what, fitted,
                       weights=None):
    import numpy as np
    x = np.asarray(xvals, dtype=float)
    y = np.asarray(yvals, dtype=float)
    if len(x) < 4:
        raise ValueError(f"need at least 4 {what} samples to fit")
    if np.any(y <= 0.0):
        raise ValueError(f"all {fitted} must be positive to fit in log space")
    if np.any(x == 1.0):
        raise ValueError(f"{what} = 1 makes the log regressor singular")
    span = np.max(x) / np.min(x)
    if span < 10.0 ** span_decades * (1.0 - 1e-9):
        raise ValueError(
            f"{what} range too narrow: need >= {span_decades} decades, got "
            f"{math.log10(span):.2f}")
    L = np.log(x)
    G = np.log(np.abs(np.log(x)))
    target = np.log(y)
    w = np.ones_like(L) if weights is None else np.asarray(weights, dtype=float)

    A_free = np.column_stack([np.ones_like(L), log_reg * L, G])
    sv = np.linalg.svd(A_free, compute_uv=False)
    if sv[-1] <= 1e-12 * sv[0]:
        raise ValueError("degenerate design matrix: widen the sample range")
    # The two log-scale regressors are nearly collinear over realistic spans,
    # so the continuous p_hat from the free fit only diagnoses; the shipped
    # p_rounded comes from a ratio test between the p = 0 and p = 1 constrained
    # models, and (j, C) are read off the winner, which is well conditioned.
    coef_free, _ = _wls(A_free, target, w)
    A = np.column_stack([np.ones_like(L), log_reg * L])
    coef0, rms0 = _wls(A, target, w)
    coef1, rms1 = _wls(A, target - G, w)
    if rms0 <= rms1:
        p_rounded, coef, rms = 0, coef0, rms0
    else:
        p_rounded, coef, rms = 1, coef1, rms1
    return FitResult(float(coef[1]), float(coef_free[2]),
                     float(math.exp(coef[0])), rms, p_rounded)


def fit_growth(samples: Sequence[MeasureSample]) -> FitResult:
    """Fit log M = log C + j log eps + p log|log eps| by weighted least squares.

    Requires >= 4 samples with positive estimates spanning >= 3 decades of
    epsilon.  Sample stderr supplies the weights (noiseless points count as
    precisely as the best noisy one).  p is chosen by the log-presence ratio
    test, and the continuous p_hat of the free fit is reported alongside.
    """
    import numpy as np
    eps = [s.epsilon for s in samples]
    est = [s.estimate for s in samples]
    if len(set(eps)) != len(eps):
        raise ValueError("duplicate epsilon values in fit input")
    rel2 = np.array([
        (s.stderr / s.estimate) ** 2 if s.estimate > 0 else 0.0
        for s in samples
    ])
    positive = rel2[rel2 > 0.0]
    weights = None
    if positive.size:
        weights = 1.0 / np.maximum(rel2, float(positive.min()))
    return _two_regressor_fit(eps, est, +1.0, 3.0, "epsilon", "measure estimates",
                              weights=weights)


def fit_decay(pairs: Sequence[Tuple[float, float]]) -> FitResult:
    """Fit log|J| = log D - j log lam + p log log lam.

    Requires >= 4 pairs spanning >= 1.2 decades of lambda (the shipped
    oscillatory sweeps use [50, 800], which is 1.2 decades).
    """
    lams = [q[0] for q in pairs]
    vals = [q[1] for q in pairs]
    if any(l <= 1.0 for l in lams):
        raise ValueError("decay fit needs lambda > 1")
    return _two_regressor_fit(lams, vals, -1.0, 1.2, "lambda", "|J| values")


# ---------------------------------------------------------------------------
# van der Corput


def vdc_sublevel_bound(k: int, c, epsilon, interval_length) -> float:
    """min(|I|, 4 c^{-1/k} eps^{1/k}) for |f^(k)| > c k! on I."""
    k = _integer_k(k)
    if k <= 0:
        raise ValueError("k must be a positive integer")
    for name, v in (("c", c), ("epsilon", epsilon), ("interval_length", interval_length)):
        if not 0 < float(v) < math.inf:
            raise ValueError(f"{name} must be positive and finite, got {v!r}")
    return min(float(interval_length),
               4.0 * float(c) ** (-1.0 / k) * float(epsilon) ** (1.0 / k))


def _integer_k(k) -> int:
    """k as an int; a ValueError unless it is an integer (not 1.9, not 2.0)."""
    try:
        return operator.index(k)
    except TypeError:
        raise ValueError(f"k must be an integer, got {k!r}") from None


def _finite(name: str, v) -> Fraction:
    """v as an exact Fraction; a ValueError naming it when v is inf or nan."""
    try:
        return Fraction(v)
    except (OverflowError, ValueError):
        if isinstance(v, str):
            raise  # a malformed literal, not a non-finite number
        raise ValueError(f"{name} must be finite, got {v!r}") from None


def _sublevel_length(F: Tuple[int, ...], E: int, lo: Fraction, hi: Fraction) -> Fraction:
    """|{t in [lo, hi]: |F(t)| < E}| for integer F of degree >= 1 and E > 0: cut
    at the roots of F -+ E, then sum the sub-intervals whose midpoint lies in
    the sublevel set, on integer numerators over the cuts' common denominator."""
    cuts = {lo, hi}
    for shift in (E, -E):
        cuts.update(_roots_in_window((F[0] + shift,) + F[1:], lo, hi, _ROOT_WIDTH))
    pts = sorted(cuts)
    den = math.lcm(*(t.denominator for t in pts))
    nums = [t.numerator * (den // t.denominator) for t in pts]
    # |F(m/(2 den))| < E  <=>  |hom(F, m, 2 den)| < E (2 den)^n
    top = E * (2 * den) ** (len(F) - 1)
    return Fraction(sum(b - a for a, b in zip(nums, nums[1:])
                        if abs(_hom(F, a + b, 2 * den)) < top), den)


def vdc_check(f, interval, k: int, c, epsilon) -> Dict[str, object]:
    """Certified sublevel check: measure {t in I: |f| < eps} vs the bound.

    The derivative hypothesis |f^(k)| >= c k! on I is verified first by root
    isolation of f^(k) -+ c k! (no roots inside I, correct magnitude at the
    midpoint); a failing hypothesis raises rather than returning a vacuous ok.
    The sublevel measure is the sum of the subintervals where |f| < eps,
    cut at the roots of f -+ eps: a rational root exactly (up to the divisor
    search's guard on the cleared constant and leading terms), any other at
    the midpoint of its isolating interval refined to width 2^-60, so within
    2^-61 of the root.  f, c k! and eps are cleared to integers over one
    common denominator once; every later step runs on integers.  k must be
    an integer and the interval, c and eps finite.
    """
    cs = coeffs_of(f)
    lo, hi = _finite("interval", interval[0]), _finite("interval", interval[1])
    if not lo < hi:
        raise ValueError("empty interval")
    k = _integer_k(k)
    c_q, eps_q = _finite("c", c), _finite("epsilon", epsilon)
    if k <= 0 or c_q <= 0 or eps_q <= 0:
        raise ValueError("k, c, epsilon must be positive")

    gate_q = c_q * math.factorial(k)
    den = math.lcm(*(x.denominator for x in cs), gate_q.denominator, eps_q.denominator)
    F = tuple(x.numerator * (den // x.denominator) for x in cs)
    gate = gate_q.numerator * (den // gate_q.denominator)
    eps = eps_q.numerator * (den // eps_q.denominator)
    dk = F
    for _ in range(k):
        dk = derivative(dk)
    p, q = (lo + hi).numerator, 2 * (lo + hi).denominator  # the midpoint p/q
    hyp_ok = bool(dk) and abs(_hom(dk, p, q)) >= gate * q ** (len(dk) - 1)
    if hyp_ok:
        # |f^(k)| >= c k! on the closed interval: each of f^(k) -+ c k! is
        # identically zero or root-free there (touching minima are rejected
        # as uncertifiable rather than silently accepted)
        for shift in (gate, -gate):
            shifted = (dk[0] + shift,) + dk[1:]
            if not any(shifted):
                continue
            if (_hom(shifted, lo.numerator, lo.denominator) == 0
                    or _hom(shifted, hi.numerator, hi.denominator) == 0):
                hyp_ok = False
                break
            if len(shifted) > 1 and _count_roots(_primitive(shifted), lo, hi) > 0:
                hyp_ok = False
                break
    if not hyp_ok:
        raise ValueError(
            f"derivative hypothesis violated: |f^({k})| >= c*{k}! fails on the interval")

    measured = _sublevel_length(F, eps, lo, hi)
    bound = vdc_sublevel_bound(k, c_q, eps_q, hi - lo)
    measured_f = float(measured)
    return {"measured": measured_f, "bound": bound, "ok": measured_f <= bound}


# ---------------------------------------------------------------------------
# oscillatory integrals


# the ladder's level k has _PANELS0 * 2^k Gauss-Legendre panels of _NODES
# nodes each on rho in [0, r] and _ANGLES0 * 2^k equispaced angles
_PANELS0, _ANGLES0, _NODES = 3, 48, 10
# a lam's ladder stops when two levels agree to _RTOL relative or _ATOL absolute
_RTOL, _ATOL = 1e-3, 1e-9
# |grad S| <= G(r) bounds the swing of lam*S along a radius and along a circle
# by |lam|*r*G(r) radians.  G overstates the swing up to ~10x on the benchmark
# catalog, so a ladder starts at the first level with at least 1/_SLACK of that
# many angles; starting higher would only skip levels that are cheap anyway.
_SLACK = 16


def _start_level(swing: float) -> float:
    """First ladder level with at least swing/_SLACK angles (inf if none)."""
    if not swing <= 2.0 ** 1000:
        return math.inf
    # (q - 1).bit_length() is the least k with 2^k >= q
    return max(0, math.ceil(swing / (_SLACK * _ANGLES0)) - 1).bit_length()


def _parity_sign(exponents) -> int:
    """1 if every exponent is even, -1 if every one is odd, 0 if they mix."""
    parities = {e % 2 for e in exponents}
    if len(parities) > 1:
        return 0
    return -1 if parities == {1} else 1


def _rotation_invariant(p: PuiseuxPoly) -> bool:
    """Whether x dS/dy - y dS/dx, the angular derivative of S in polar
    coordinates, is exactly zero: S is constant on every circle about the
    origin.  Decided on the exact terms of p, its truncation order dropped,
    since the quadrature evaluates every stored term."""
    p = _with_order(p, None)
    x, minus_y = PuiseuxPoly.monomial(1, 1, 0), PuiseuxPoly.monomial(-1, 0, 1)
    return poly_add(poly_mul(x, deriv_y(p)), poly_mul(minus_y, deriv_x(p))).is_zero()


def _angle_fold(degrees, angles: int,
                rotational: bool) -> Tuple[int, int, bool, int, bool]:
    """(first, count, ends, weight, odd): the symmetries that map S to +-S, as
    a contiguous run of orbit representatives among the angles 2*pi*j/angles
    (angles divisible by 4).

    A rotation-invariant S (rotational, from _rotation_invariant) is constant
    on each circle, whose angles then form one orbit: the run is theta = 0
    alone, weighted by angles.  Otherwise the reflections are read from the
    integer exponents of S: x -> -x (theta -> pi - theta) maps S to +-S when
    all x-exponents share a parity, y -> -y (theta -> -theta) likewise with
    the y-exponents, and (x, y) -> (-x, -y) (theta -> theta + pi) with the
    total degrees.  The cutoff is radial and the angle grid maps onto itself,
    so each circle sum is weight times the sum over the run, its two ends
    halved when ends is set (a fixed angle's orbit is half the size of the
    others).  odd: some reflection negates S, so every circle sum of
    sin(lam S) is exactly 0.
    """
    if rotational:
        return 0, 1, False, angles, False
    terms = [(a, b) for group in degrees.values() for _, a, b in group]
    sx = _parity_sign(a for a, _ in terms)
    sy = _parity_sign(b for _, b in terms)
    sp = _parity_sign(a + b for a, b in terms)
    if sx and sy:       # the quarter circle [0, pi/2]
        return 0, angles // 4 + 1, True, 4, min(sx, sy) < 0
    if sx:              # [pi/2, 3*pi/2]
        return angles // 4, angles // 2 + 1, True, 2, sx < 0
    if sy:              # [0, pi]
        return 0, angles // 2 + 1, True, 2, sy < 0
    if sp:              # [0, pi)
        return 0, angles // 2, False, 2, sp < 0
    return 0, angles, False, 1, False


@functools.cache
def _gauss_legendre():
    """The _NODES-node Gauss-Legendre rule on [-1, 1], (nodes, weights), built
    once per process and read-only, since every ladder level shares it."""
    import numpy as np
    rule = np.polynomial.legendre.leggauss(_NODES)
    for a in rule:
        a.flags.writeable = False
    return rule


def _polar_level(degrees, cutoff: Cutoff, level: int, run: List[float],
                 rotational: bool) -> List[complex]:
    """Estimates of the integral of e^{i lam S} phi at one ladder level, one per
    lam in run.  In polar coordinates rho = r*t the bump is the 1-D weight
    (1 - t^2)^order, and S is sum over degrees d of t^d (x) A_d(theta).  Only
    the angles of _angle_fold's run are evaluated."""
    import numpy as np
    panels, angles = _PANELS0 << level, _ANGLES0 << level
    first, count, ends, weight, odd = _angle_fold(degrees, angles, rotational)
    gl_x, gl_w = _gauss_legendre()
    t = ((np.arange(panels)[:, None] + 0.5 + 0.5 * gl_x[None, :]) / panels).ravel()
    # Gauss-Legendre in rho (Jacobian r*rho) times the periodic trapezoid in
    # theta, times the orbit weight (for a reflection a power of two, so the
    # scaling is exact; for a rotation the angle count, which rounds once)
    r = float(cutoff.radius)
    w = (np.tile(gl_w, panels) * (weight * math.pi * r * r / (panels * angles))
         * t * (1.0 - t * t) ** cutoff.order)
    theta = (2.0 * math.pi / angles) * np.arange(first, first + count)
    cos, sin = np.cos(theta), np.sin(theta)
    radial = [t ** d for d in degrees]
    angular = [sum(c * cos ** a * sin ** b for c, a, b in terms)
               for terms in degrees.values()]
    # per lam, the sums of cos(lam S) and sin(lam S) over each circle
    circles = np.zeros((len(run), 2, len(t)))
    rows = max(1, _CHUNK // count)
    S, arg, tmp = (np.empty((rows, count)) for _ in range(3))

    def circle_sum(tb, out):
        if ends:
            tb[:, 0] *= 0.5
            tb[:, -1] *= 0.5
        tb.sum(axis=1, out=out)

    for i in range(0, len(t), rows):
        n = min(rows, len(t) - i)
        Sb, ab, tb = S[:n], arg[:n], tmp[:n]
        Sb.fill(0.0)
        for rad, ang in zip(radial, angular):
            np.multiply.outer(rad[i:i + n], ang, out=tb)
            Sb += tb
        for k, lam in enumerate(run):
            np.multiply(Sb, lam, out=ab)
            np.cos(ab, out=tb)
            circle_sum(tb, circles[k, 0, i:i + n])
            if not odd:
                np.sin(ab, out=tb)
                circle_sum(tb, circles[k, 1, i:i + n])
    return [complex(np.sum(w * c[0]), np.sum(w * c[1])) for c in circles]


def oscillatory_integral(p: PuiseuxPoly, cutoff: Cutoff, lam,
                         depth: int = 9) -> complex:
    """Polar quadrature of integral of e^{i lam S} phi: Gauss-Legendre panels
    in the radius, the periodic trapezoid rule in the angle.

    Panel and angle counts double until two consecutive estimates agree to
    1e-3 (relative) or 1e-9 (absolute).  A lam whose phase swing (from a
    bound on |grad S| over the disk) leaves no doubling within depth is
    refused before any work; it and a lam that does not converge by depth
    raise RuntimeError carrying the last estimate (nan for a refused lam)
    in .achieved.  Negative lam is evaluated by conjugation of the
    positive-lam integral.  Each level evaluates one angle per symmetry orbit
    of S (decay_pairs): a single angle for a rotation-invariant phase.  This
    is decay_pairs on a one-value grid.
    """
    return decay_pairs(p, cutoff, [lam], depth=depth)[0][1]


def decay_pairs(p: PuiseuxPoly, cutoff: Cutoff, lams: Sequence[float],
                depth: int = 9) -> List[Tuple[float, complex]]:
    """(lam, oscillatory_integral(p, cutoff, lam)) for each lam, in input order.

    One level ladder serves the whole grid, bit-identical to one call per
    lam: each level builds the weights and the phase once per chunk and
    reuses them for every lam on the ladder at that level.  A lam enters at
    the level its swing |lam|*r*G(r) gives and leaves at the level where its
    own ladder stops.  A negative lam is computed at |lam| and conjugated, a
    repeated one once, and a non-finite one raises ValueError.  A refused lam
    raises its RuntimeError before any work (the first refused one in input
    order); otherwise, if some lam has not converged at level depth, the
    RuntimeError of the first such lam in input order is raised (for a
    negative lam, that of |lam|).

    Each level evaluates one angle per orbit of the symmetries that map S to
    +-S (_angle_fold).  A phase with x dS/dy - y dS/dx = 0 exactly, such as
    x^2 + y^2, is constant on every circle and evaluates theta = 0 alone,
    weighted by the angle count M.  Any other phase folds over the reflections
    x -> -x, y -> -y and (x, y) -> (-x, -y): the cutoff is radial and the
    angles 2*pi*j/M, with M divisible by 4, map onto themselves under each
    one.  If a reflection negates S, the sine sums are exactly 0 and im is
    0.0.  A phase with none of these symmetries gives the unfolded sum bit for
    bit; with them, estimates move from it by rounding only (at most 1e-13
    relative on the catalog).
    """
    lams = [float(l) for l in lams]
    if not all(math.isfinite(l) for l in lams):
        raise ValueError("lambda must be finite")
    if not lams:
        return []
    terms = _phase_terms(p, needs_negative_x=True)
    r = float(cutoff.radius)
    if r <= 0.0:
        raise ValueError("cutoff radius must be positive")
    # G(r) = sum |c| (a+b) r^(a+b-1) >= |grad S| on the disk, so r*G(r) is the
    # swing at |lam| = 1; the coefficients of the phase in t = rho/r are
    # c r^(a+b), grouped by degree
    degrees: Dict[int, list] = {}
    try:
        unit_swing = r * sum(abs(c) * (a + b) * r ** (a + b - 1)
                             for c, a, b in terms if a + b)
        for c, a, b in terms:
            degrees.setdefault(a + b, []).append((c * r ** (a + b), a, b))
    except OverflowError:
        unit_swing = math.inf

    # each distinct |lam| runs once, keyed by its bits so that 0.0 and -0.0
    # stay apart
    keys = [(-lam if lam < 0.0 else lam).hex() for lam in lams]
    start = {key: _start_level(float.fromhex(key) * unit_swing) for key in keys}
    for lam, key in zip(lams, keys):
        if start[key] >= depth:
            err = RuntimeError(
                f"oscillatory quadrature refused lambda {abs(lam)!r}: a phase swing "
                f"of up to {abs(lam) * unit_swing:.3g} radians needs a ladder deeper "
                f"than depth {depth}")
            err.achieved = complex(math.nan, math.nan)
            raise err
    rotational = _rotation_invariant(p)
    active = list(dict.fromkeys(keys))
    prev: Dict[str, complex] = {}
    done: Dict[str, complex] = {}
    for level in range(min(start.values()), int(depth) + 1):
        if not active:
            break
        run = [key for key in active if start[key] <= level]
        ests = _polar_level(degrees, cutoff, level, [float.fromhex(key) for key in run],
                            rotational) if run else []
        for key, cur in zip(run, ests):
            if key in prev and abs(cur - prev[key]) <= max(_RTOL * abs(cur), _ATOL):
                done[key] = cur
                active.remove(key)
            else:
                prev[key] = cur

    out = []
    for lam, key in zip(lams, keys):
        if key not in done:
            err = RuntimeError(
                f"oscillatory quadrature did not converge by level {depth} "
                f"({_PANELS0 << depth} panels x {_ANGLES0 << depth} angles); "
                f"last estimate {prev[key]!r}")
            err.achieved = prev[key]
            raise err
        out.append((lam, done[key].conjugate() if lam < 0.0 else done[key]))
    return out


_CAP_SAFETY = 3.0


def decay_coefficient_cap(index, samples: Sequence[MeasureSample]) -> float:
    """Predicted ceiling for |J| lam^j / (ln lam)^p from sublevel data.

    Transfers the growth constant sup_eps M(eps)/(eps^j |ln eps|^p) to the
    oscillatory side via the factor j*Gamma(j), for a cutoff bounded by 1,
    padded threefold (_CAP_SAFETY).
    """
    j = float(index.j)
    pp = int(index.p)
    best = 0.0
    for s in samples:
        denom = s.epsilon ** j * abs(math.log(s.epsilon)) ** pp
        if denom > 0.0:
            best = max(best, s.estimate / denom)
    return _CAP_SAFETY * j * math.gamma(j) * best


# ---------------------------------------------------------------------------
# CSV emitters


def measure_csv(samples: Sequence[MeasureSample]) -> str:
    buf = io.StringIO()
    w = csv.writer(buf)
    w.writerow(["epsilon", "estimate", "stderr", "n", "method"])
    for s in samples:
        w.writerow([repr(s.epsilon), repr(s.estimate), repr(s.stderr),
                    s.n_samples, s.method])
    return buf.getvalue()


def decay_csv(rows: Sequence[Tuple[float, complex]]) -> str:
    buf = io.StringIO()
    w = csv.writer(buf)
    w.writerow(["lambda", "re", "im", "abs"])
    for lam, J in rows:
        w.writerow([repr(float(lam)), repr(J.real), repr(J.imag), repr(abs(J))])
    return buf.getvalue()
