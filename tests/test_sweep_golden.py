"""Golden sweep reports: the bytes of sweep.json and sweep.csv for perturbation
and mixture sweeps, recorded from the two-engine sweep code that the single
sweep engine replaced.  Only the note of a zero-phase mixture row may differ,
and no case here produces one."""

import pytest

from newton_sublevel import run

# name -> (sweep arguments, exit code, sweep.json text, sweep.csv lines)
CASES = {
    # criterion 6 (i): the flagged Morse degradation at t = 1
    "morse_degradation": (
        ["x^2 + y^2", "x^2 - y^2", "--t-grid", "-1/2,1/2,1"],
        0,
        """{
 "command": "sweep",
 "config": {
  "samples": null,
  "seed": 0
 },
 "input": {
  "expr": "x^2 + y^2",
  "perturbation": "x^2 - y^2"
 },
 "results": {
  "kind": "stability",
  "rows": [
   {
    "flags": [],
    "j": "1",
    "note": "",
    "p": 0,
    "polygon_contains_NS": true,
    "superadapt_ok": true,
    "t": "-1/2"
   },
   {
    "flags": [],
    "j": "1",
    "note": "",
    "p": 0,
    "polygon_contains_NS": true,
    "superadapt_ok": true,
    "t": "1/2"
   },
   {
    "flags": [
     "edge_degenerate",
     "vertex_cancel"
    ],
    "j": "1/2",
    "note": "",
    "p": 0,
    "polygon_contains_NS": false,
    "superadapt_ok": true,
    "t": "1"
   }
  ],
  "verdict": {
   "baseline": {
    "j": "1",
    "p": 0
   },
   "edge_ts": [
    "-1",
    "1"
   ],
   "ok": true,
   "perturbation_coeff_sup": 1.0,
   "perturbation_degree": "2",
   "vertex_ts": [
    "-1",
    "1"
   ],
   "violations": []
  }
 },
 "schema": "newton-sublevel/report/1",
 "versions": {
  "newton-sublevel": "0.1.0"
 }
}
""",
        [
            "t,j,p,superadapt_ok,polygon_contains_NS,flags,note",
            "-1/2,1,0,1,1,,",
            "1/2,1,0,1,1,,",
            "1,1/2,0,1,0,edge_degenerate|vertex_cancel,",
        ],
    ),
    # a mixture with the S2-alone row and hyperbolic Morse osc_p = 0
    "mixture_inf_row": (
        ["x*y", "x^2 + y^2", "--mixture", "--t-grid", "0,1,inf"],
        0,
        """{
 "command": "sweep",
 "config": {
  "samples": null,
  "seed": 0
 },
 "input": {
  "expr": "x*y",
  "perturbation": "x^2 + y^2"
 },
 "results": {
  "kind": "mixture",
  "rows": [
   {
    "flags": [
     "edge_degenerate"
    ],
    "j": "1",
    "note": "",
    "osc_p": 0,
    "p": 1,
    "ratio": "0",
    "superadapt_ok": true
   },
   {
    "flags": [],
    "j": "1",
    "note": "",
    "osc_p": 0,
    "p": 0,
    "ratio": "1",
    "superadapt_ok": true
   },
   {
    "flags": [],
    "j": "1",
    "note": "",
    "osc_p": 0,
    "p": 0,
    "ratio": "inf",
    "superadapt_ok": true
   }
  ],
  "verdict": {
   "edge_ts": [
    "-1/2",
    "0",
    "1/2"
   ],
   "endpoints": {
    "S1": {
     "j": "1",
     "p": 1
    },
    "S2": {
     "j": "1",
     "p": 0
    }
   },
   "ok": true,
   "vertex_ts": [],
   "violations": []
  }
 },
 "schema": "newton-sublevel/report/1",
 "versions": {
  "newton-sublevel": "0.1.0"
 }
}
""",
        [
            "ratio,j,p,osc_p,superadapt_ok,flags,note",
            "0,1,1,0,1,edge_degenerate,",
            "1,1,0,0,1,,",
            "inf,1,0,0,1,,",
        ],
    ),
    # hyperbolic S1, elliptic S2: the mixture rule (no worse than both endpoints)
    # rejects the rightly hyperbolic row 1, so the sweep exits 2
    "mixture_bound_violation": (
        ["(y - 3*x)*(y + 3*x) + x^3", "x^2 + y^2", "--mixture", "--t-grid", "0,1/2,1,2,inf"],
        2,
        """{
 "command": "sweep",
 "config": {
  "samples": null,
  "seed": 0
 },
 "input": {
  "expr": "(y - 3*x)*(y + 3*x) + x^3",
  "perturbation": "x^2 + y^2"
 },
 "results": {
  "kind": "mixture",
  "rows": [
   {
    "flags": [],
    "j": "1",
    "note": "",
    "osc_p": 0,
    "p": 1,
    "ratio": "0",
    "superadapt_ok": true
   },
   {
    "flags": [
     "undecided"
    ],
    "j": null,
    "note": "algebraic shear required: offending edge root is irrational",
    "osc_p": null,
    "p": null,
    "ratio": "1/2",
    "superadapt_ok": false
   },
   {
    "flags": [],
    "j": "1",
    "note": "",
    "osc_p": 0,
    "p": 1,
    "ratio": "1",
    "superadapt_ok": true
   },
   {
    "flags": [
     "undecided"
    ],
    "j": null,
    "note": "algebraic shear required: offending edge root is irrational",
    "osc_p": null,
    "p": null,
    "ratio": "2",
    "superadapt_ok": false
   },
   {
    "flags": [],
    "j": "1",
    "note": "",
    "osc_p": 0,
    "p": 0,
    "ratio": "inf",
    "superadapt_ok": true
   }
  ],
  "verdict": {
   "edge_ts": [
    "-1",
    "9"
   ],
   "endpoints": {
    "S1": {
     "j": "1",
     "p": 1
    },
    "S2": {
     "j": "1",
     "p": 0
    }
   },
   "ok": false,
   "vertex_ts": [
    "-1",
    "9"
   ],
   "violations": [
    "1"
   ]
  }
 },
 "schema": "newton-sublevel/report/1",
 "versions": {
  "newton-sublevel": "0.1.0"
 }
}
""",
        [
            "ratio,j,p,osc_p,superadapt_ok,flags,note",
            "0,1,1,0,1,,",
            "1/2,,,,0,undecided,algebraic shear required: offending edge root is irrational",
            "1,1,1,0,1,,",
            "2,,,,0,undecided,algebraic shear required: offending edge root is irrational",
            "inf,1,0,0,1,,",
        ],
    ),
    # t = -1/2 needs the irrational shear y -> y + sqrt(1/2) x: undecided
    "undecided_irrational_shear": (
        ["y^2 - x^2", "x^2", "--t-grid", "-1/2,3"],
        0,
        """{
 "command": "sweep",
 "config": {
  "samples": null,
  "seed": 0
 },
 "input": {
  "expr": "y^2 - x^2",
  "perturbation": "x^2"
 },
 "results": {
  "kind": "stability",
  "rows": [
   {
    "flags": [
     "undecided"
    ],
    "j": null,
    "note": "algebraic shear required: offending edge root is irrational",
    "p": null,
    "polygon_contains_NS": true,
    "superadapt_ok": false,
    "t": "-1/2"
   },
   {
    "flags": [],
    "j": "1",
    "note": "",
    "p": 0,
    "polygon_contains_NS": true,
    "superadapt_ok": true,
    "t": "3"
   }
  ],
  "verdict": {
   "baseline": {
    "j": "1",
    "p": 1
   },
   "edge_ts": [
    "1"
   ],
   "ok": true,
   "perturbation_coeff_sup": 1.0,
   "perturbation_degree": "2",
   "vertex_ts": [
    "1"
   ],
   "violations": []
  }
 },
 "schema": "newton-sublevel/report/1",
 "versions": {
  "newton-sublevel": "0.1.0"
 }
}
""",
        [
            "t,j,p,superadapt_ok,polygon_contains_NS,flags,note",
            "-1/2,,,0,1,undecided,algebraic shear required: offending edge root is irrational",
            "3,1,0,1,1,,",
        ],
    ),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_sweep_report_golden(name, tmp_path):
    argv, code, json_text, csv_lines = CASES[name]
    assert run(["sweep", *argv, "--out", str(tmp_path)]) == code
    assert (tmp_path / "sweep.json").read_bytes() == json_text.encode()
    assert (tmp_path / "sweep.csv").read_bytes() == "".join(
        line + "\r\n" for line in csv_lines).encode()
