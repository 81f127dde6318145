"""Show that every independent check rejects a corrupted output.

    python3 perfbench/selftest.py      (from the root of a source checkout)

Runs a few operations of each kind through the package (imported from
``src/``), confirms that checks.py accepts their genuine outputs, then feeds
each check a copy with one planted fault and confirms that it is rejected.
Exits 0 only when every genuine output passes and every corruption is caught.
"""

from __future__ import annotations

import copy
import json
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import workloads  # noqa: E402
from worker import Discard, collect, execute  # noqa: E402


def _edit_json(output: dict, name: str, fn) -> dict:
    out = copy.deepcopy(output)
    blob = json.loads(out[name])
    fn(blob)
    out[name] = json.dumps(blob)
    return out


def _set(path, value):
    def fn(blob):
        node = blob
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value(node[path[-1]]) if callable(value) else value
    return fn


def _first_chart(blob, mode):
    return next(c for c in blob["charts"] if c["mode"] == mode)


def _scale_monomial(blob):
    c = _first_chart(blob, "C")
    c["monomial"]["coeff"] = str(2 * checks.Fraction(c["monomial"]["coeff"]))


def _narrow_band(blob):
    c = _first_chart(blob, "B")
    lo, hi = (checks.Fraction(v) for v in c["band"])
    mid = (lo + hi) / 2
    c["band"] = [str(mid * checks.Fraction(999, 1000)), str(mid * checks.Fraction(1001, 1000))]


def _lower_floor(blob):
    # the chart now overlaps the one below it
    c = next(c for c in blob["charts"] if c["lower"])
    c["lower"] = [[str(checks.Fraction(cf) / 2), a, b] for cf, a, b in c["lower"]]


def _worse_row(blob):
    for r in blob["results"]["rows"]:
        if not r["flags"] and r.get("t", r.get("ratio")) not in ("0", "inf"):
            r["j"] = str(checks.Fraction(r["j"]) / 4)
            return
    raise AssertionError("no unflagged row to corrupt")


def _shift_estimate(blob):
    s = blob["results"]["samples"][1]
    s["estimate"] += 12 * s["stderr"]


def _scale_pair(blob):
    blob["results"]["pairs"][0]["re"] *= 1.01
    blob["results"]["pairs"][0]["im"] *= 1.01


def _corrupt_rec(fn):
    def apply(rec):
        rec = copy.deepcopy(rec)
        fn(rec)
        return rec
    return apply


# (kind, label, corruption name, corrupt(output) -> output)
CORRUPTIONS = [
    ("analyze", "x^2y^2+x^5", "distance changed",
     lambda o: _edit_json(o, "analyze.json", _set(["results", "newton_distance"], "3/2"))),
    ("analyze", "y^2-x^3", "index changed",
     lambda o: _edit_json(o, "analyze.json", _set(["results", "index", "j"], "2/3"))),
    ("adapt", "(y-x^2-x^3)^2-x^9", "final polynomial changed",
     lambda o: _edit_json(o, "adapt.json", _set(["results", "final"], lambda s: s + " + x^12"))),
    ("adapt", "(y-x^2-x^3)^2-x^9", "a shear dropped",
     lambda o: _edit_json(o, "adapt.json", _set(["results", "shears"], lambda s: s[:-1]))),
    ("adapt", "(y-x^2)^2", "log power changed",
     lambda o: _edit_json(o, "adapt.json", _set(["results", "index", "p"], 1))),
    ("resolve", "(y-x^2-x^3)^2-x^9", "corner monomial doubled",
     lambda o: _edit_json(o, "resolution.json", _scale_monomial)),
    ("resolve", "(y-x^2-x^3)^2-x^9", "band narrowed",
     lambda o: _edit_json(o, "resolution.json", _narrow_band)),
    ("resolve", "y^2-x^3", "chart boundary moved",
     lambda o: _edit_json(o, "resolution.json", _lower_floor)),
    ("sweep", "x^2y^2+x^5", "unflagged row made worse",
     lambda o: _edit_json(o, "sweep.json", _worse_row)),
    ("sweep", "x^2+y^2", "Morse degradation lost",
     lambda o: _edit_json(o, "sweep.json", lambda b: b["results"]["rows"][-1].update(j="1"))),
    ("newton", "y^2-x^3", "distance changed",
     _corrupt_rec(lambda r: r.update(distance="5/4"))),
    ("edge_roots", None, "root multiplicity changed",
     _corrupt_rec(lambda r: r["edges"][0]["roots"][-1].__setitem__(2, 3))),
    ("stability_sweep", "y^2+t*x^7", "row index changed",
     _corrupt_rec(lambda r: r["rows"][0].update(j="1/2"))),
    ("exceptional", "(S,-S)", "candidate set changed",
     _corrupt_rec(lambda r: r.update(vertex_ts=["1", "2"]))),
    ("check-vdc", None, "violation reported",
     lambda o: _edit_json(o, "vdc.json", _set(["results", "per_k", 0, "max_measured_over_bound"],
                                              1.25))),
    ("vdc_check", None, "measured length changed",
     _corrupt_rec(lambda r: r.update(measured=r["measured"] + 0.1 * r["bound"]))),
    ("vdc_check", None, "bound changed",
     _corrupt_rec(lambda r: r.update(bound=r["bound"] * 1.5))),
    ("measure", "y^2-x^3-mc200000", "MC estimate off by 12 stderr",
     lambda o: _edit_json(o, "measure.json", _shift_estimate)),
    ("measure", "x*y-grid9", "GRID estimate off by 12 stderr",
     lambda o: _edit_json(o, "measure.json", _shift_estimate)),
    ("measure", "(y-x^2)^2-mc200000", "fitted exponent off",
     lambda o: _edit_json(o, "measure.json",
                          _set(["results", "fit", "j_hat"], lambda v: v + 0.6))),
    ("oscillate", "x^2-y^2-osc20..400:4", "value off by 1%",
     lambda o: _edit_json(o, "oscillate.json", _scale_pair)),
    ("oscillate", "x^2+y^2-morse", "stationary-phase limit lost",
     lambda o: _edit_json(o, "oscillate.json", _scale_pair)),
    ("triangle", None, "estimate scaled by 1.5",
     _corrupt_rec(lambda r: r.update(estimate=r["estimate"] * 1.5))),
]


def main() -> int:
    root = Path.cwd()
    if not (root / "src" / "newton_sublevel" / "__init__.py").is_file():
        print("error: run from the root of a newton-sublevel checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    import newton_sublevel as package

    wanted = {(k, lab) for k, lab, _n, _f in CORRUPTIONS}
    chosen = []
    for build in workloads.WORKLOADS.values():
        for op in build(7, package):
            if (op.kind, op.label) in wanted or (op.kind, None) in wanted:
                chosen.append(op)
                wanted.discard((op.kind, None))
    # analyze and sweep checks compare against the adapt report of the phase
    labels = {op.label for op in chosen if op.kind in ("analyze", "sweep")}
    extra = [op for op in workloads.symbolic(7, package)
             if op.kind == "adapt" and op.label in labels
             and (op.kind, op.label) not in {(c.kind, c.label) for c in chosen}]

    outputs = []
    failed = 0
    with tempfile.TemporaryDirectory(dir=HERE) as tmp:
        for i, op in enumerate(chosen + extra):
            op_dir = Path(tmp) / f"op_{i:03d}"
            op_dir.mkdir()
            value, error = execute(op, package, op_dir, Discard())
            if error:
                print(f"FAIL operation {error}")
                return 1
            outputs.append({"kind": op.kind, "label": op.label, "argv": op.argv,
                            "meta": op.meta, "output": collect(op, op_dir, value)})
    genuine = checks.check_outputs(outputs)
    for p in genuine:
        print(f"FAIL genuine output rejected: {p}")
    failed += len(genuine)

    for kind, label, name, corrupt in CORRUPTIONS:
        idx = next(i for i, o in enumerate(outputs)
                   if o["kind"] == kind and (label is None or o["label"] == label))
        bad = copy.deepcopy(outputs)
        bad[idx]["output"] = corrupt(bad[idx]["output"])
        found = checks.check_outputs(bad)
        shown = outputs[idx]["label"]
        if found:
            print(f"ok    {kind:15s} {shown:24s} {name}: rejected ({found[0][:70]})")
        else:
            print(f"FAIL  {kind:15s} {shown:24s} {name}: NOT rejected")
            failed += 1
    print(f"{len(CORRUPTIONS)} corruptions, {failed} failures")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
