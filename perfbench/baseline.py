"""Measure the rows of the ROADMAP baseline table again (single wall-clock runs).

    python3 perfbench/baseline.py      (from the root of a source checkout)

CLI rows time a cold process running the console script's entry point;
in-process rows import the package from ``src/`` once and time the call
alone.  Each row is one run, as in the ROADMAP table, so treat the figures
as rough.  Reports go to a temporary directory under ``perfbench/out/``.
"""

from __future__ import annotations

import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path


# what the newton-sublevel console script runs
_CLI = "import sys; from newton_sublevel.cli import main; sys.argv[0] = 'newton-sublevel'; main()"


def cli_row(root: Path, args) -> float:
    env = dict(os.environ, PYTHONPATH=str(root / "src"), OMP_NUM_THREADS="1",
               OPENBLAS_NUM_THREADS="1")
    env.pop("NEWTON_SUBLEVEL_THREADS", None)
    out_root = Path(__file__).resolve().parent / "out"
    out_root.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=out_root) as out:
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", _CLI, *args, "--out", out],
                       env=env, check=True, stdout=subprocess.DEVNULL)
        return time.perf_counter() - t0


def timed(fn) -> float:
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0


def main() -> int:
    root = Path.cwd()
    if not (root / "src" / "newton_sublevel" / "__init__.py").is_file():
        print("error: run from the root of a newton-sublevel checkout", file=sys.stderr)
        return 2
    rows = [
        ("CLI analyze", ["analyze", "x^2*y^2 + x^5"]),
        ("CLI measure y^2 - x^3 default", ["measure", "y^2 - x^3"]),
        ("CLI oscillate x^2 + y^2 default", ["oscillate", "x^2 + y^2"]),
        ("CLI oscillate x^2*y^2 + x^5 default", ["oscillate", "x^2*y^2 + x^5"]),
        ("CLI oscillate x^6 + y^6 default", ["oscillate", "x^6 + y^6"]),
        ("CLI resolve (y - x^2 - x^3)^2 - x^9", ["resolve", "(y - x^2 - x^3)^2 - x^9"]),
        ("CLI check-vdc default", ["check-vdc"]),
    ]
    for name, args in rows:
        print(f"{name:48s} {cli_row(root, args):8.3f} s", flush=True)

    sys.path.insert(0, str(root / "src"))
    import numpy as np
    import newton_sublevel as ns
    from newton_sublevel.cli import parse_expression

    def poly(text):
        return parse_expression(text).poly

    eps = np.geomspace(1e-2, 1e-6, 8)
    p = poly("y^2 - x^3")
    t = timed(lambda: [ns.sublevel_measure(p, ns.Disk(1.0), e, budget=10**6, seed=0)
                       for e in eps])
    print(f"{'sublevel_measure 8 eps x 1e6':48s} {t * 1e3:8.0f} ms")
    cut = ns.Cutoff(1.0, 3)
    for name, expr, lam in (("oscillatory_integral lambda=50", "x^2*y^2 + x^5", 50.0),
                            ("oscillatory_integral lambda=800", "x^2*y^2 + x^5", 800.0),
                            ("oscillatory_integral Morse lambda=800", "x^2 + y^2", 800.0)):
        q = poly(expr)
        print(f"{name:48s} {timed(lambda: ns.oscillatory_integral(q, cut, lam)) * 1e3:8.0f} ms")
    for expr in ("(y - x^2 - x^3)^2 - x^9", "y^2 - 2*x^2*y + x^4 - x^7"):
        q = poly(expr)
        dec = ns.resolve(q)
        t_res = timed(lambda: ns.resolve(q))
        charts = dec.charts[:20]
        t_ver = timed(lambda: [ns.verify_chart(q, c, samples=1000, seed=0) for c in charts])
        print(f"{'resolve ' + expr:48s} {t_res * 1e3:8.0f} ms; verify_chart x{len(charts)} "
              f"{t_ver * 1e3:.0f} ms")
    worst = max(timed(lambda: ns.to_superadapted(poly(e)))
                for e in ("x^2 + y^2", "x*y", "x^2 - y^2", "(y - x^2)^2",
                          "x^2*y^2 + x^5", "y^2 - x^3"))
    print(f"{'to_superadapted, slowest catalog phase':48s} {worst * 1e3:8.1f} ms")
    s, f = poly("x^2*y^2 + x^5"), poly("y^7")
    grid = [ns.Rational(-1), ns.Rational(-1, 2), ns.Rational(1, 2), ns.Rational(1)]
    print(f"{'stability_sweep (4 t values)':48s} "
          f"{timed(lambda: ns.stability_sweep(s, f, grid)) * 1e3:8.1f} ms")
    return 0


if __name__ == "__main__":
    sys.exit(main())
