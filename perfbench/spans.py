"""Span tracing for the traced benchmark run, installed from outside the package.

Every public function of each layer module is wrapped.  The wrapper replaces
the original in every ``newton_sublevel`` module namespace that holds it, so
the copies bound by ``from .roots import isolate_real_roots`` in other modules
are traced too.  Spans (name, start, end, parent span, operation id) are kept
in flat arrays while the run lasts and written out when it ends.

A span's self time is its duration minus the durations of its direct child
spans.  A layer's time is the sum of the self times of its spans; a bucket
inside a layer (``roots.refine_s``) takes the self time of the spans that
belong to it, and of same-layer helper spans nested under them.
"""

from __future__ import annotations

import functools
import inspect
import math
import sys
import time
from array import array

import numpy as np

LAYERS = ("cli", "exact_poly", "newton", "roots", "adapt", "resolve",
          "measure_lab", "stability")

# public function -> bucket inside its layer; unlisted functions inherit the
# bucket of a same-layer caller, or fall into "<layer>.other"
BUCKETS = {
    "cli.parse_expression": "cli.parse",
    "cli.run": "cli.self",
    "cli.print_expression": "cli.self",
    "cli.main": "cli.self",
    "roots.isolate_real_roots": "roots.isolate",
    "roots.squarefree_factor": "roots.isolate",
    "roots.refine_root": "roots.refine",
    "roots.sturm_sequence": "roots.sturm",
    "roots.count_roots_halfopen": "roots.sturm",
    "resolve.branch_curve": "resolve.branch",
    "resolve.verify_chart": "resolve.verify",
    "measure_lab.oscillatory_integral": "measure_lab.quad",
    "measure_lab.decay_pairs": "measure_lab.quad",
    "measure_lab.fit_growth": "measure_lab.fit",
    "measure_lab.fit_decay": "measure_lab.fit",
    "measure_lab.vdc_check": "measure_lab.vdc",
    "measure_lab.vdc_sublevel_bound": "measure_lab.vdc",
    "stability.exceptional_candidates": "stability.exceptional",
}

# calls counted per function (span names after classification)
CALL_COUNTS = {
    "roots.isolate_calls": ("roots.isolate_real_roots",),
    "roots.refine_calls": ("roots.refine_root",),
    "resolve.verify_calls": ("resolve.verify_chart",),
    "adapt.reductions": ("adapt.to_superadapted",),
    "measure_lab.mc_calls": ("measure_lab.sublevel_measure[MC]",),
    "measure_lab.grid_calls": ("measure_lab.sublevel_measure[GRID]",),
    "measure_lab.quad_calls": ("measure_lab.oscillatory_integral",),
    "measure_lab.vdc_calls": ("measure_lab.vdc_check",),
}

# every per-layer metric, with its unit, in report order
METRICS = {
    "cli.import_s": "s", "cli.parse_s": "s", "cli.self_s": "s",
    "exact_poly.s": "s", "exact_poly.calls": "count",
    "newton.s": "s", "newton.calls": "count",
    "roots.isolate_s": "s", "roots.isolate_calls": "count",
    "roots.refine_s": "s", "roots.refine_calls": "count", "roots.sturm_s": "s",
    "adapt.s": "s", "adapt.reductions": "count", "adapt.shears": "count",
    "resolve.s": "s", "resolve.branch_s": "s", "resolve.verify_s": "s",
    "resolve.verify_calls": "count", "resolve.charts": "count",
    "resolve.radius_log2": "log2",
    "measure_lab.mc_s": "s", "measure_lab.mc_calls": "count",
    "measure_lab.grid_s": "s", "measure_lab.grid_calls": "count",
    "measure_lab.quad_s": "s", "measure_lab.quad_calls": "count",
    "measure_lab.fit_s": "s", "measure_lab.vdc_s": "s",
    "measure_lab.vdc_calls": "count",
    "stability.s": "s", "stability.exceptional_s": "s", "stability.rows": "count",
}


def _sublevel_name(args, kwargs):
    method = kwargs.get("method", args[5] if len(args) > 5 else "MC")
    return f"measure_lab.sublevel_measure[{method}]"


_NAMERS = {"measure_lab.sublevel_measure": _sublevel_name}


class Tracer:
    """In-memory span recorder plus the result-derived work counters."""

    def __init__(self):
        self.names: list = []
        self._ids: dict = {}
        self.start = array("d")
        self.end = array("d")
        self.name = array("i")
        self.parent = array("i")
        self.op = array("i")
        self._stack = [-1]
        self.op_id = -1
        self.counters = {"adapt.shears": 0, "resolve.charts": 0, "stability.rows": 0}
        self.radius_log2: list = []

    def _name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def wrap(self, qualname: str, fn):
        namer = _NAMERS.get(qualname)
        fixed_id = self._name_id(qualname)
        observe = _OBSERVERS.get(qualname)
        start, end, name, parent, op, stack = (
            self.start, self.end, self.name, self.parent, self.op, self._stack)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(start)
            name.append(fixed_id if namer is None else self._name_id(namer(args, kwargs)))
            parent.append(stack[-1])
            op.append(self.op_id)
            start.append(0.0)
            end.append(0.0)
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                start[idx] = t0
                end[idx] = t1
            if observe is not None:
                observe(self, result)
            return result

        return traced

    def install(self, package) -> None:
        """Wrap every layer's public functions in every module that binds them."""
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == package.__name__
                                         or n.startswith(package.__name__ + "."))]
        for layer in LAYERS:
            mod = sys.modules[f"{package.__name__}.{layer}"]
            for attr, fn in list(vars(mod).items()):
                if attr.startswith("_") or not inspect.isfunction(fn):
                    continue
                if fn.__module__ != mod.__name__:
                    continue
                wrapper = self.wrap(f"{layer}.{attr}", fn)
                for m in modules:
                    for k, v in list(vars(m).items()):
                        if v is fn:
                            setattr(m, k, wrapper)

    def save(self, path) -> None:
        np.savez_compressed(
            path, names=np.array(self.names), start=np.frombuffer(self.start),
            end=np.frombuffer(self.end), name=np.frombuffer(self.name, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            op=np.frombuffer(self.op, dtype=np.int32))

    def layer_metrics(self, rounds: int, import_s: float) -> dict:
        """Per-round layer times and counts, from the spans of whole rounds."""
        n = len(self.start)
        names = self.names
        name = np.frombuffer(self.name, dtype=np.int32)[:n]
        parent = np.frombuffer(self.parent, dtype=np.int32)[:n]
        op = np.frombuffer(self.op, dtype=np.int32)[:n]
        dur = np.frombuffer(self.end)[:n] - np.frombuffer(self.start)[:n]
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=n)
        self_t = dur - child

        layer_of = [nm.split(".", 1)[0] for nm in names]
        base_of = [nm.split("[", 1)[0] for nm in names]
        own_bucket = []
        for nm, base in zip(names, base_of):
            if nm.startswith("measure_lab.sublevel_measure["):
                own_bucket.append("measure_lab.mc" if nm.endswith("[MC]") else
                                  "measure_lab.grid" if nm.endswith("[GRID]") else None)
            else:
                own_bucket.append(BUCKETS.get(base))
        # spans are appended parent-first, so one forward pass resolves buckets
        bucket = [None] * n
        name_l = name.tolist()
        parent_l = parent.tolist()
        for i in range(n):
            b = own_bucket[name_l[i]]
            if b is None:
                p = parent_l[i]
                lay = layer_of[name_l[i]]
                if p >= 0 and layer_of[name_l[p]] == lay and bucket[p] is not None:
                    b = bucket[p]
                else:
                    b = lay + ".other"
            bucket[i] = b
        in_rounds = op >= 0
        per_layer: dict = {}
        per_bucket: dict = {}
        for i in np.nonzero(in_rounds)[0].tolist():
            lay = layer_of[name_l[i]]
            per_layer[lay] = per_layer.get(lay, 0.0) + self_t[i]
            per_bucket[bucket[i]] = per_bucket.get(bucket[i], 0.0) + self_t[i]
        calls_by_name = np.bincount(name[in_rounds], minlength=len(names))
        calls_by_layer: dict = {}
        for nid, c in enumerate(calls_by_name.tolist()):
            calls_by_layer[layer_of[nid]] = calls_by_layer.get(layer_of[nid], 0) + c

        r = float(rounds)
        out = {
            "cli.import_s": import_s,
            "cli.parse_s": per_bucket.get("cli.parse", 0.0) / r,
            "cli.self_s": per_bucket.get("cli.self", 0.0) / r,
            "exact_poly.s": per_layer.get("exact_poly", 0.0) / r,
            "exact_poly.calls": calls_by_layer.get("exact_poly", 0) / r,
            "newton.s": per_layer.get("newton", 0.0) / r,
            "newton.calls": calls_by_layer.get("newton", 0) / r,
            "roots.isolate_s": per_bucket.get("roots.isolate", 0.0) / r,
            "roots.refine_s": per_bucket.get("roots.refine", 0.0) / r,
            "roots.sturm_s": per_bucket.get("roots.sturm", 0.0) / r,
            "adapt.s": per_layer.get("adapt", 0.0) / r,
            "resolve.s": per_layer.get("resolve", 0.0) / r,
            "resolve.branch_s": per_bucket.get("resolve.branch", 0.0) / r,
            "resolve.verify_s": per_bucket.get("resolve.verify", 0.0) / r,
            "measure_lab.mc_s": per_bucket.get("measure_lab.mc", 0.0) / r,
            "measure_lab.grid_s": per_bucket.get("measure_lab.grid", 0.0) / r,
            "measure_lab.quad_s": per_bucket.get("measure_lab.quad", 0.0) / r,
            "measure_lab.fit_s": per_bucket.get("measure_lab.fit", 0.0) / r,
            "measure_lab.vdc_s": per_bucket.get("measure_lab.vdc", 0.0) / r,
            "stability.s": per_layer.get("stability", 0.0) / r,
            "stability.exceptional_s": per_bucket.get("stability.exceptional", 0.0) / r,
        }
        index = {nm: i for i, nm in enumerate(names)}
        for metric, fns in CALL_COUNTS.items():
            out[metric] = sum(int(calls_by_name[index[f]]) for f in fns if f in index) / r
        for key, total in self.counters.items():
            out[key] = total / r
        out["resolve.radius_log2"] = (sum(self.radius_log2) / len(self.radius_log2)
                                      if self.radius_log2 else 0.0)
        return {k: out[k] for k in METRICS}


def _count_shears(tracer: Tracer, rep) -> None:
    if tracer.op_id >= 0:
        tracer.counters["adapt.shears"] += len(rep.shears_applied)


def _count_charts(tracer: Tracer, dec) -> None:
    if tracer.op_id >= 0:
        tracer.counters["resolve.charts"] += len(dec.charts)
        tracer.radius_log2.append(-math.log2(dec.radius))


def _count_rows(tracer: Tracer, result) -> None:
    if tracer.op_id >= 0:
        tracer.counters["stability.rows"] += len(result[0])


_OBSERVERS = {
    "adapt.to_superadapted": _count_shears,
    "resolve.resolve": _count_charts,
    "stability.stability_sweep": _count_rows,
    "stability.mixture_sweep": _count_rows,
}
