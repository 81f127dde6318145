"""Host-speed reference kernels, and times expressed at a fixed reference speed.

The cores of a shared host do not run at one speed: the same pure-Python
loop takes up to 1.7x longer from one few-second stretch to the next, and
up to 3x at different times of a day, with CPU time equal to wall time.
Interpreted code and numpy array code slow by different factors.  A run
therefore times a small fixed kernel, which never touches the package,
immediately before every operation and after the last one (and nine times
before every cold start), and divides each measured time by the host's
speed around it:

    time at reference speed = measured time * NOMINAL_S / local kernel time

where the local kernel time is the median of the kernel samples taken just
around the operation (for set-up: of all the run's set-up samples, see
run.py).  A program that does more work still reads
proportionally slower; only the host's speed drops out.  NOMINAL_S fixes the
unit (the kernel's median time on the machine the reference figures in
README.md come from) and must never change, or every figure moves with it.

Each workload is paired with the kernel whose work resembles its own:
exact rational arithmetic for ``symbolic``, ``vdc_audit`` and every cold
start; exact arithmetic followed by array arithmetic for ``sampling``.
"""

from __future__ import annotations

import statistics
import time
from fractions import Fraction

import numpy as np

SIDE = 3   # kernel samples before and after an operation that set its local speed

_XS = np.linspace(0.0, 1.0, 20_000)


def exact_kernel() -> Fraction:
    """Fraction sums, small-int products and dict updates (~0.9 ms)."""
    acc = Fraction(0)
    counts: dict = {}
    for i in range(1, 200):
        acc += Fraction(i, i + 1)
        counts[i % 17] = counts.get(i % 17, 0) + i * i
    return acc


def mixed_kernel() -> float:
    """The exact kernel, then a polynomial, a complex exponential and a count
    over 20 000 points."""
    exact_kernel()
    y = _XS * _XS * 3.0 - _XS + 0.5
    return float(np.exp(1j * y).sum().real) + float(np.count_nonzero(y < 0.3))


KERNELS = {"exact": exact_kernel, "mixed": mixed_kernel}
NOMINAL_S = {"exact": 9.0e-4, "mixed": 1.5e-3}
WORKLOAD_KERNEL = {"symbolic": "exact", "vdc_audit": "exact", "sampling": "mixed"}
SETUP_KERNEL = "exact"


def at_reference(latencies, samples, kernel: str) -> list:
    """Latencies at reference speed; operation i ran between samples i and i + 1."""
    if len(samples) != len(latencies) + 1:
        raise ValueError("need one kernel sample before each operation and one after the last")
    out = []
    for i, lat in enumerate(latencies):
        local = statistics.median(samples[max(0, i + 1 - SIDE): i + 1 + SIDE])
        out.append(lat * NOMINAL_S[kernel] / local)
    return out


def time_kernel(kernel: str, repeats: int = 1) -> list:
    """Time the kernel `repeats` times in this process."""
    fn = KERNELS[kernel]
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return times
