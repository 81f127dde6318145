"""End-to-end acceptance gate: one test per shipped criterion.

Each test prints a single "CRITERION n: PASS" line on success (visible with
pytest -s); tolerances are pinned here and nowhere else.
"""

import json
import math
from fractions import Fraction

import numpy as np
from newton_sublevel import (
    Cutoff,
    Disk,
    curved_triangle,
    chart_apply,
    decay_coefficient_cap,
    exceptional_candidates,
    fit_decay,
    fit_growth,
    growth_index,
    is_superadapted,
    monomial_measure_exact,
    newton_polygon_of,
    oscillatory_integral,
    resolve,
    run,
    stability_sweep,
    sublevel_measure,
    to_superadapted,
    verify_chart,
)
from helpers import CATALOG, PHASES, RESOLVE_EXTRAS, phase


F = Fraction

CLI_EXPRS = {name: expr for name, expr, *_ in PHASES}


def _np_eval_x(p, x):
    # polynomial in x alone (y-degree 0 everywhere)
    out = np.zeros_like(x)
    for (a, b), c in p.items():
        assert b == 0
        out += float(c) * x ** float(a)
    return out


def _np_eval(p, x, y):
    out = np.zeros_like(x)
    for (a, b), c in p.items():
        out += float(c) * x ** float(a) * y ** int(b)
    return out


# ---------------------------------------------------------------------------


def test_criterion_1_growth_index_catalog(tmp_path):
    for name, p, j, pp, _morse in CATALOG:
        out = tmp_path / name.replace("^", "_").replace("*", "")
        out.mkdir()
        expr = CLI_EXPRS[name]
        assert run(["analyze", expr, "--out", str(out)]) == 0
        blob = json.loads((out / "analyze.json").read_text())
        assert F(blob["results"]["index"]["j"]) == j, name
        assert blob["results"]["index"]["p"] == pp, name

        assert run(["measure", expr, "--out", str(out), "--seed", "0",
                    "--samples", "1000000", "--eps", "1e-2..1e-6:8"]) == 0
        fit = json.loads((out / "measure.json").read_text())["results"]["fit"]
        assert abs(fit["j_hat"] - float(j)) <= 0.05, (name, fit)
        assert fit["p_rounded"] == pp, (name, fit)
    print("CRITERION 1: PASS — catalog indices exact and MC fits within 0.05")


def test_criterion_2_monomial_closed_forms():
    worst = 0.0
    n_combos = 0
    for alpha in (1, 2, 3):
        for beta in (1, 2, 3):
            for m in (1, 2, 3):
                n_combos += 1
                eps = F(1, 10 ** 4)
                mm = monomial_measure_exact(F(1), F(alpha), beta, F(m), F(1),
                                            F(1), eps)
                p = phase((1, alpha, beta))
                tri = curved_triangle(F(m), F(1), F(1))
                s = sublevel_measure(p, tri, eps, budget=300_000,
                                     seed=alpha * 100 + beta * 10 + m)
                z = abs(s.estimate - mm.value) / s.stderr
                worst = max(worst, z)
                assert z <= 3.0, (alpha, beta, m, mm.value, s.estimate, z)
    assert n_combos == 27
    for eps in (F(1, 100), F(1, 10 ** 5)):
        mm = monomial_measure_exact(F(1), F(1), 1, F(1), F(1), F(1), eps)
        e = float(eps)
        assert abs(mm.value - (e / 2 + (e / 2) * abs(math.log(e)))) \
            <= 1e-15 * max(1.0, mm.value)
    print(f"CRITERION 2: PASS — 27 combos within 3 stderr (worst z = {worst:.2f}), "
          "balanced identity at machine precision")


def test_criterion_3_van_der_corput(tmp_path):
    assert run(["check-vdc", "--samples", "200", "--seed", "0",
                "--out", str(tmp_path)]) == 0
    blob = json.loads((tmp_path / "vdc.json").read_text())
    assert blob["results"]["violations"] == 0
    per_k = {row["k"]: row for row in blob["results"]["per_k"]}
    assert set(per_k) == {1, 2, 3}
    assert all(row["count"] == 200 for row in per_k.values())
    print("CRITERION 3: PASS — 600 certified instances, zero bound violations")


def test_criterion_4_resolution_invariants():
    phases = [(name, p) for name, p, *_ in CATALOG]
    phases += [(name, p) for name, p in RESOLVE_EXTRAS]
    eps_measure = 1e-4
    for k, (name, p) in enumerate(phases):
        dec = resolve(p)
        R = float(dec.radius)
        eta = float(dec.sector.eta)
        roof = float(dec.sector.roof_coeff)
        assert R > 0

        # (a) coverage: >= 99.9% of seeded sector points in exactly one chart
        rng = np.random.default_rng([2024, k])
        n = 100_000
        xs = rng.random(n) * R
        ys = rng.random(n) * roof * xs ** eta
        counts = np.zeros(n, dtype=np.int64)
        for c in dec.charts:
            u = c.sign_x * xs
            yc = c.sign_y * ys - _np_eval_x(c.g, u)
            inside = (u > 0) & (u < float(c.x_max)) \
                & (yc > _np_eval_x(c.lower, u)) & (yc < _np_eval_x(c.upper, u))
            counts += inside
        frac = float(np.mean(counts == 1))
        assert frac >= 0.999, (name, frac)

        # (b) comparability at delta = 1/4 and the auto-certified radius
        for c in dec.charts:
            assert c.delta == F(1, 4)
            rep = verify_chart(p, c, samples=400, seed=3)
            assert rep.passed, (name, c.label, rep.max_ratio_violation)

        # (c) recursion orders strictly decrease along every branch
        def walk(node):
            for ch in node.children:
                assert ch.order < node.order, name
                walk(ch)
        for node in dec.recursion_trace:
            walk(node)

        # (d) finite-difference Jacobian determinant within 1e-6 of 1
        h = 1e-5
        for c in dec.charts:
            xm = float(c.x_max)
            pts_x = rng.random(1000) * xm / 2 + xm / 4
            pts_y = rng.random(1000) * 2.0 - 1.0
            for X, Y in zip(pts_x, pts_y):
                ax1, ay1 = chart_apply(c, X + h, Y)
                ax0, ay0 = chart_apply(c, X - h, Y)
                bx1, by1 = chart_apply(c, X, Y + h)
                bx0, by0 = chart_apply(c, X, Y - h)
                det = ((ax1 - ax0) * (by1 - by0) - (bx1 - bx0) * (ay1 - ay0)) \
                    / (4 * h * h)
                assert abs(abs(det) - 1.0) < 1e-6, (name, c.label, det)

        # (e) sublevel measure: direct sector MC vs chart-side MC within 3 stderr
        rng_d = np.random.default_rng([77, k])
        m_direct = 300_000
        box_h = roof * R ** eta
        dx = rng_d.random(m_direct) * R
        dy = rng_d.random(m_direct) * box_h
        ind = (dy < roof * dx ** eta) & (np.abs(_np_eval(p, dx, dy)) < eps_measure)
        direct = R * box_h * float(np.mean(ind))
        se_d = R * box_h * float(np.std(ind)) / math.sqrt(m_direct)

        chart_total, var_c = 0.0, 0.0
        m_chart = 20_000
        for c in dec.charts:
            u = rng_d.random(m_chart) * R
            lo = _np_eval_x(c.lower, u)
            hi = _np_eval_x(c.upper, u)
            w = lo + rng_d.random(m_chart) * (hi - lo)
            x = c.sign_x * u
            y = c.sign_y * (w + _np_eval_x(c.g, x))
            vals = (hi - lo) * (np.abs(_np_eval(p, x, y)) < eps_measure)
            chart_total += R * float(np.mean(vals))
            var_c += (R * float(np.std(vals))) ** 2 / m_chart
        tol = 3.0 * math.sqrt(se_d ** 2 + var_c) + 1e-12
        assert abs(direct - chart_total) <= tol, \
            (name, direct, chart_total, tol)
    print("CRITERION 4: PASS — coverage, comparability, order decrease, "
          "unit Jacobian, measure transport on all 8 phases")


def test_criterion_5_superadapted_reduction():
    rep1 = to_superadapted(phase((1, 0, 2), (-2, 2, 1), (1, 4, 0)))  # (y - x^2)^2
    assert rep1.iterations == 1
    assert set(rep1.final.terms) == {(F(0), F(2))}
    assert is_superadapted(rep1.final).ok

    rep2 = to_superadapted(phase((1, 2, 0), (-1, 0, 2)))  # x^2 - y^2
    assert rep2.iterations == 1
    assert (F(1), F(1)) in newton_polygon_of(rep2.final).vertices
    assert (rep2.index.j, rep2.index.p) == (F(1), 1)
    assert rep2.index.morse_hyperbolic
    assert is_superadapted(rep2.final).ok

    # the hyperbolic pair carries a log factor, which takes a larger budget
    # to pin down at the small-epsilon end
    for rep, j_true, budget in ((rep1, 0.5, 10 ** 6), (rep2, 1.0, 4 * 10 ** 6)):
        fits = []
        for q in (rep.original, rep.final):
            eps = np.geomspace(1e-2, 1e-6, 8)
            samples = [sublevel_measure(q, Disk(1.0), e, budget=budget, seed=0)
                       for e in eps]
            fits.append(fit_growth(samples))
        before, after = fits
        assert abs(before.j_hat - j_true) <= 0.05
        assert abs(after.j_hat - j_true) <= 0.05
        assert abs(before.j_hat - after.j_hat) <= 0.05
        assert before.p_rounded == after.p_rounded
    print("CRITERION 5: PASS — single-shear reductions exact; fitted (j, p) "
          "invariant under the coordinate change")


def test_criterion_6_stability_sweeps():
    # (i) Morse pair degradation at the flagged t = 1
    S, f = phase((1, 2, 0), (1, 0, 2)), phase((1, 2, 0), (-1, 0, 2))
    rows, verdict = stability_sweep(S, f, [F(-1, 2), F(1, 2), F(1)])
    assert verdict["ok"]
    crit = {r.t: r for r in rows}[F(1)]
    assert (crit.index.j, crit.index.p) == (F(1, 2), 0)
    assert "vertex_cancel" in crit.flags

    # (ii) polygon-preserving perturbation: every row keeps (1/2, 1)
    S2 = phase((1, 2, 2), (1, 5, 0))
    rows2, verdict2 = stability_sweep(S2, phase((1, 0, 7)),
                                      [F(-2), F(-1), F(-1, 2), F(1, 2), F(1), F(2)])
    assert verdict2["ok"]
    assert all((r.index.j, r.index.p) == (F(1, 2), 1) for r in rows2)

    # (iii) reduced parabola phase gaining a corner term
    rows3, verdict3 = stability_sweep(phase((1, 0, 2)), phase((1, 7, 0)),
                                      [F(-1), F(1, 2), F(1), F(2)])
    assert verdict3["ok"]
    assert all((r.index.j, r.index.p) == (F(9, 14), 0) for r in rows3)

    # lexicographic bound on every non-flagged row of all three sweeps
    for rows_i, verdict_i in ((rows, verdict), (rows2, verdict2), (rows3, verdict3)):
        base = (F(verdict_i["baseline"]["j"]), verdict_i["baseline"]["p"])
        for r in rows_i:
            if not r.flags:
                assert (r.index.j, -r.index.p) >= (base[0], -base[1])

    # self-cancellation: exactly {1}
    exc = exceptional_candidates(S2, phase((-1, 2, 2), (-1, 5, 0)))
    assert exc.vertex_ts == (F(1),)
    print("CRITERION 6: PASS — lex bound on non-flagged rows, exact {1} for "
          "(S, -S), Morse degradation reproduced at t = 1")


def test_criterion_7_oscillatory_decay():
    # elliptic Morse phase: lambda |J| -> pi within 5%
    p = phase((1, 2, 0), (1, 0, 2))
    cut = Cutoff(1.0, 3)
    for lam in (200.0, 400.0, 800.0):
        val = oscillatory_integral(p, cut, lam)
        assert abs(abs(val) * lam - math.pi) <= 0.05 * math.pi, lam
    lams = list(np.geomspace(50, 800, 8))
    pairs = [(lam, abs(oscillatory_integral(p, cut, lam))) for lam in lams]
    fit = fit_decay(pairs)
    assert abs(fit.j_hat - 1.0) <= 0.05

    eps = np.geomspace(1e-2, 1e-6, 8)
    samples = [sublevel_measure(p, Disk(1.0), e, budget=2 * 10 ** 5, seed=7)
               for e in eps]
    cap = decay_coefficient_cap(growth_index(p), samples)
    for lam, absval in pairs:
        assert absval * lam <= cap

    # degenerate phase: |J| lambda^(1/2) / ln(lambda) confined to a 2x band
    q = phase((1, 2, 2), (1, 5, 0))
    cut_q = Cutoff(0.75, 3)
    idx_q = growth_index(q)
    ratios = []
    for lam in np.geomspace(100.0, 10_000.0, 7):
        val = oscillatory_integral(q, cut_q, float(lam), depth=12)
        ratios.append(abs(val) * lam ** 0.5 / math.log(lam))
    assert max(ratios) / min(ratios) <= 2.0, ratios
    samples_q = [sublevel_measure(q, Disk(0.75), e, budget=2 * 10 ** 5, seed=7)
                 for e in eps]
    cap_q = decay_coefficient_cap(idx_q, samples_q)
    assert max(ratios) <= cap_q
    print(f"CRITERION 7: PASS — Morse limit within 5%, decay fit "
          f"{fit.j_hat:.3f}, band ratio {max(ratios)/min(ratios):.3f} <= 2, "
          "coefficient caps respected")


def test_criterion_8_determinism(tmp_path, monkeypatch):
    def run_all(base, threads):
        monkeypatch.setenv("NEWTON_SUBLEVEL_THREADS", str(threads))
        base.mkdir()
        cmds = [
            ["analyze", "x^2*y^2 + x^5"],
            ["adapt", "(y - x^2 - x^3)^2"],
            ["resolve", "(y - x^2)^2"],
            ["measure", "x^2*y^2 + x^5", "--eps", "1e-2..1e-4:4",
             "--samples", "100000", "--seed", "11"],
            ["measure", "x^2 + y^2", "--eps", "1e-2..1e-3:4",
             "--samples", "256", "--mode", "exact"],
            ["oscillate", "x^2 + y^2", "--lambda", "50..200:3"],
            ["sweep", "x^2*y^2 + x^5", "y^7", "--t-grid", "-1,-1/2,1/2,1"],
            ["check-vdc", "--samples", "5", "--seed", "0"],
        ]
        for i, cmd in enumerate(cmds):
            sub = base / f"c{i}"
            sub.mkdir()
            assert run(cmd + ["--out", str(sub)]) == 0, cmd
        return {
            str(f.relative_to(base)): f.read_bytes()
            for f in sorted(base.rglob("*")) if f.is_file()
        }

    first = run_all(tmp_path / "one", 1)
    second = run_all(tmp_path / "two", 1)
    multi = run_all(tmp_path / "four", 4)
    assert first.keys() == second.keys() == multi.keys()
    assert first == second == multi
    n_files = len(first)
    print(f"CRITERION 8: PASS — {n_files} report files byte-identical across "
          "reruns and 1 vs 4 threads")
