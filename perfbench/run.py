"""Benchmark entry point: one workload, one seed, one measured run.

    python3 perfbench/run.py --workload symbolic --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the package is imported from
``src/`` there (nothing is installed).  The run:

1. times SETUP_STARTS cold starts of worker.py (interpreter start, import of
   newton_sublevel, input generation, up to the first operation); the middle
   cold start goes on to run the workload;
2. lets that worker repeat the workload's fixed list of operations for
   --seconds (whole rounds only), with one worker thread and BLAS pinned to
   one thread;
3. checks the first round's outputs against computations made apart from
   the program (checks.py), and that every later round reproduced them;
4. prints one JSON line: end-to-end metrics untraced (--trace 0), per-layer
   metrics when traced (--trace 1).

End-to-end times are given at the reference host speed of speed.py: each
operation is scaled by a kernel timed around it, and the median cold start
by the same kernel timed before every cold start, so that the shared host's
drifting speed does not read as a change of the program (README.md, "Times
at reference speed").  summary.json keeps the raw times beside them.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from spans import METRICS  # noqa: E402
from speed import NOMINAL_S, SETUP_KERNEL, WORKLOAD_KERNEL, at_reference, time_kernel  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUP_STARTS = 9          # cold starts per run; setup_s is their median
SETUP_KERNEL_SAMPLES = 9  # host-speed samples taken right before each cold start
CHILD_TIMEOUT_S = 150.0   # hard stop for one worker process
END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "op_p50_s": "s", "op_p90_s": "s",
                    "peak_rss_mb": "MB"}


def _child_env() -> dict:
    env = dict(os.environ)
    env.pop("NEWTON_SUBLEVEL_THREADS", None)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
        env[var] = "1"
    env.pop("PYTHONPATH", None)
    return env


def _start_worker(root: Path, args, out: Path, setup_only: bool):
    """Start a worker and wait for READY; returns (process, set-up seconds)."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--root", str(root),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace), "--out", str(out)]
    if setup_only:
        cmd.append("--setup-only")
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=root, env=_child_env(), stdout=subprocess.PIPE,
                            text=True)
    line = proc.stdout.readline()
    setup = time.perf_counter() - t0
    if line.strip() != "READY":
        proc.wait(timeout=CHILD_TIMEOUT_S)
        raise RuntimeError(f"worker did not start (exit code {proc.returncode})")
    return proc, setup


def _wait(proc) -> None:
    try:
        rest = proc.stdout.read()
        proc.wait(timeout=CHILD_TIMEOUT_S)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if rest.strip():
        print(rest, file=sys.stderr, end="")
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with code {proc.returncode}")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    root = Path.cwd().resolve()
    if not (root / "src" / "newton_sublevel" / "__init__.py").is_file():
        print(f"error: no src/newton_sublevel under {root}; run from the root of a "
              "newton-sublevel checkout", file=sys.stderr)
        return 2

    out = HERE / "out" / f"{args.workload}-s{args.seed}-t{args.trace}-p{os.getpid()}"
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)

    # half of the set-up-only cold starts run before the workload and half
    # after it, so their median spans the run as the rounds do
    setups = []
    setup_kernel_s = []

    def start(setup_only: bool):
        setup_kernel_s.extend(time_kernel(SETUP_KERNEL, SETUP_KERNEL_SAMPLES))
        proc, setup = _start_worker(root, args, out, setup_only)
        setups.append(setup)
        return proc

    def cold_starts(n: int) -> None:
        for _ in range(n):
            _wait(start(setup_only=True))

    cold_starts((SETUP_STARTS - 1) // 2)
    _wait(start(setup_only=False))
    cold_starts(SETUP_STARTS - 1 - (SETUP_STARTS - 1) // 2)

    result = json.loads((out / "result.json").read_text(encoding="utf-8"))
    # the host's speed can change within one 0.3 s cold start, so the median
    # cold start is scaled by the median of all the run's set-up samples
    setup_ref = (statistics.median(setups) * NOMINAL_S[SETUP_KERNEL]
                 / statistics.median(setup_kernel_s))
    lat = result["latencies"]
    lat_ref = at_reference(lat, result["kernel_s"], WORKLOAD_KERNEL[args.workload])
    n = result["ops_per_round"]

    def round_walls(values):
        return [sum(values[r * n:(r + 1) * n]) for r in range(result["rounds"])]

    from checks import check_outputs
    summary: dict = {}
    problems = check_outputs(result["outputs"], summary)
    problems += result["mismatches"]
    summary.update(setups=setups, setup_ref=setup_ref,
                   setup_kernel_s_median=statistics.median(setup_kernel_s),
                   round_walls=round_walls(lat),
                   round_walls_ref=round_walls(lat_ref), rounds=result["rounds"],
                   kernel_s_median=statistics.median(result["kernel_s"]), problems=problems[:50],
                   failures=result["failures"])
    if args.trace:
        summary["layers"] = result["layers"]
        summary["spans"] = result["spans"]
    (out / "summary.json").write_text(json.dumps(summary, indent=1), encoding="utf-8")
    shutil.rmtree(out / "ops")
    for p in problems[:20]:
        print(f"check failed: {p}", file=sys.stderr)
    for f in result["failures"][:5]:
        print(f"operation failed: {f}", file=sys.stderr)

    if args.trace:
        metrics = {k: {"value": v, "unit": METRICS[k]} for k, v in result["layers"].items()}
    else:
        values = {
            "setup_s": setup_ref,
            "wall_s": statistics.median(round_walls(lat_ref)),
            "op_p50_s": statistics.median(lat_ref),
            "op_p90_s": statistics.quantiles(lat_ref, n=10)[8],
            "peak_rss_mb": result["peak_rss_mb"],
        }
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}
    print(json.dumps({"correct": not problems, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
