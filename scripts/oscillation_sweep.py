#!/usr/bin/env python3
"""Oscillatory decay rates J(lam) = integral of e^{i lam S} phi, checked numerically.

Part 1: the Morse phase x^2 + y^2 has |J(lam)| ~ pi/lam for a cutoff that is
1 near the origin, so lam*|J| should approach pi and a log-log fit of |J|
against lam should recover decay exponent 1 with no log factor.

Part 2: the degenerate phase x^2*y^2 + x^5 decays like lam^{-1/2} ln lam;
the compensated quantity |J| * lam^{1/2} / ln lam should stay inside a
bounded band across two decades of lam.

Part 3: the decay coefficient in both cases must respect the a-priori cap
transferred from sublevel-measure data (growth constant times j*Gamma(j),
times a safety factor).  The script exits 1 when either cap is violated.
"""

import argparse
import math
import sys

import numpy as np

from newton_sublevel import (
    Cutoff,
    Disk,
    decay_coefficient_cap,
    decay_pairs,
    fit_decay,
    growth_index,
    parse_expression,
    sublevel_measure,
    to_superadapted,
)


def _cap_from_measure(expr: str, radius: float, seed: int) -> float:
    p = parse_expression(expr).poly
    idx = growth_index(to_superadapted(p).final)
    samples = sublevel_measure(p, Disk(radius), np.geomspace(1e-2, 1e-5, 6),
                               budget=200_000, seed=seed)
    return decay_coefficient_cap(idx, samples)


def _cap_line(label: str, worst: float, cap: float) -> bool:
    ok = worst <= cap
    print(f"   coefficient cap: {label} = {worst:.4f} <= {cap:.4f}"
          f"  ({'ok' if ok else 'VIOLATED'})")
    return ok


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--depth", type=int, default=12,
                    help="max quadrature refinement depth (default 12)")
    args = ap.parse_args(argv)

    # -- part 1: Morse limit ------------------------------------------------
    expr = "x^2 + y^2"
    p = parse_expression(expr).poly
    cutoff = Cutoff(1.0, 3)
    lams = np.geomspace(50.0, 800.0, 8)
    pairs = decay_pairs(p, cutoff, lams, depth=args.depth)
    print(f"== {expr}  (expect lam*|J| -> pi = {math.pi:.6f})")
    print(f"   {'lam':>8} {'|J|':>12} {'lam*|J|':>10} {'vs pi':>8}")
    for lam, J in pairs:
        print(f"   {lam:>8.1f} {abs(J):>12.3e} {lam * abs(J):>10.6f} "
              f"{lam * abs(J) / math.pi - 1.0:>+8.4f}")
    fit = fit_decay([(lam, abs(J)) for lam, J in pairs])
    print(f"   decay fit: j_hat = {fit.j_hat:.4f} (exact 1), "
          f"p = {fit.p_rounded} (exact 0)")

    ok_morse = _cap_line("max lam*|J|", max(abs(J) * lam for lam, J in pairs),
                         _cap_from_measure(expr, 1.0, seed=7))

    # -- part 2: log-bearing decay ------------------------------------------
    expr = "x^2*y^2 + x^5"
    p = parse_expression(expr).poly
    cutoff = Cutoff(0.75, 3)
    lams = np.geomspace(1e2, 1e4, 7)
    pairs = decay_pairs(p, cutoff, lams, depth=args.depth)
    print(f"\n== {expr}  (expect |J| ~ C ln(lam)/sqrt(lam))")
    print(f"   {'lam':>8} {'|J|':>12} {'|J|*sqrt(lam)/ln lam':>22}")
    ratios = []
    for lam, J in pairs:
        r = abs(J) * math.sqrt(lam) / math.log(lam)
        ratios.append(r)
        print(f"   {lam:>8.1f} {abs(J):>12.3e} {r:>22.6f}")
    band = max(ratios) / min(ratios)
    print(f"   band ratio max/min = {band:.3f} over "
          f"[{lams[0]:.0f}, {lams[-1]:.0f}]")

    ok_log = _cap_line("max |J|*sqrt(lam)/ln lam", max(ratios),
                       _cap_from_measure(expr, 0.75, seed=7))
    return 0 if ok_morse and ok_log else 1


if __name__ == "__main__":
    sys.exit(main())
