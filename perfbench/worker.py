"""One workload process: import the package, build the inputs, run whole rounds.

Started by run.py once per cold start.  It prints ``READY`` when the inputs
exist, which ends the set-up interval that run.py times.  With --setup-only
it exits there; otherwise it repeats the workload's fixed list of operations
in whole rounds, starting a round only while the previous one would still
end within --seconds (always at least one round), and writes
result.json into --out: per-operation latencies, the host-speed kernel
samples taken before every operation and after the last (speed.py), peak
RSS, the first round's outputs for the independent checks, and
(traced) the per-layer metrics.  Later rounds must reproduce the first
round's outputs exactly.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import resource
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS  # noqa: E402


class Discard:
    """Stdout sink for the CLI's summary lines."""

    def write(self, s):
        return len(s)

    def flush(self):
        pass


def execute(op, package, op_dir: Path, sink):
    """Run one operation; returns (value of a direct call or None, error or None)."""
    try:
        if op.argv is not None:
            with contextlib.redirect_stdout(sink):
                rc = package.cli.run(op.argv + ["--out", str(op_dir)])
            return None, (None if rc == 0 else f"{op.label} {op.kind}: exit code {rc}")
        return op.call(package), None
    except Exception:
        return None, f"{op.label} {op.kind}: {traceback.format_exc(limit=3)}"


def collect(op, op_dir: Path, value):
    """The operation's output: report files of a CLI op, or the call's record."""
    if op.argv is not None:
        return {f.name: f.read_text(encoding="utf-8") for f in sorted(op_dir.iterdir())}
    return None if value is None else op.record(value)


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--root", required=True)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--out", required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    src = Path(args.root) / "src"
    sys.path.insert(0, str(src))
    t0 = time.perf_counter()
    import newton_sublevel as package
    import_s = time.perf_counter() - t0
    if not Path(package.__file__).resolve().is_relative_to(src.resolve()):
        print(f"error: imported {package.__file__}, not the package under {src}",
              file=sys.stderr)
        return 2

    tracer = None
    if args.trace:
        from spans import Tracer
        tracer = Tracer()
        tracer.install(package)

    ops = WORKLOADS[args.workload](args.seed, package)
    print("READY", flush=True)
    if args.setup_only:
        return 0

    # imported after READY, so that numpy's import stays part of the package's
    from speed import KERNELS, WORKLOAD_KERNEL
    kernel = KERNELS[WORKLOAD_KERNEL[args.workload]]

    out = Path(args.out)
    op_dirs = []
    for i in range(len(ops)):
        d = out / "ops" / f"op_{i:03d}"
        d.mkdir(parents=True, exist_ok=True)
        op_dirs.append(d)

    latencies = []
    kernel_s = []
    rounds = 0
    failures = []
    mismatches = []
    first = None
    attempted = 0
    op_counter = 0
    sink = Discard()
    clock = time.perf_counter

    def sample_kernel():
        t = clock()
        kernel()
        kernel_s.append(clock() - t)

    deadline = clock() + args.seconds
    last_round = 0.0
    while not rounds or clock() + last_round <= deadline:
        round_start = clock()
        values = []
        for i, op in enumerate(ops):
            if tracer is not None:
                tracer.op_id = op_counter
            op_counter += 1
            attempted += 1
            sample_kernel()
            t_op = clock()
            value, error = execute(op, package, op_dirs[i], sink)
            latencies.append(clock() - t_op)
            values.append(value)
            if error is not None:
                failures.append(error)
        rounds += 1
        if tracer is not None:
            tracer.op_id = -1

        outputs = [collect(op, op_dirs[i], values[i]) for i, op in enumerate(ops)]
        if first is None:
            first = outputs
        else:
            for i, (a, b) in enumerate(zip(first, outputs)):
                if a != b:
                    mismatches.append(f"round {rounds}: {ops[i].label} "
                                      f"{ops[i].kind} differs from round 1")
        last_round = clock() - round_start
    sample_kernel()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    result = {
        "workload": args.workload, "seed": args.seed, "ops_per_round": len(ops),
        "rounds": rounds,
        "latencies": latencies, "kernel_s": kernel_s, "attempted": attempted,
        "failed": len(failures), "failures": failures[:20], "mismatches": mismatches[:20],
        "peak_rss_mb": peak_rss_mb, "import_s": import_s,
        "outputs": [{"kind": op.kind, "label": op.label, "argv": op.argv,
                     "meta": op.meta, "output": outputs_i}
                    for op, outputs_i in zip(ops, first)],
    }
    if tracer is not None:
        result["layers"] = tracer.layer_metrics(rounds, import_s)
        result["spans"] = len(tracer.start)
        tracer.save(out / "spans.npz")
    (out / "result.json").write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
