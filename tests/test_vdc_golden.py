"""Golden values of the exact van der Corput path (vdc_check, check-vdc), recorded
from the Fraction-arithmetic root kernel the integer kernel replaced; every float
must match bit for bit."""

import json
from fractions import Fraction as F

import pytest

from newton_sublevel import run, vdc_check

# results block of vdc.json from `check-vdc --samples 5 --seed 0`
CHECK_VDC_RESULTS = {
    "max_measured_over_bound": 0.3437875426066982,
    "per_k": [
        {"count": 5, "k": 1, "max_measured_over_bound": 0.3437875426066982, "violations": 0},
        {"count": 5, "k": 2, "max_measured_over_bound": 0.0019228655874208539, "violations": 0},
        {"count": 5, "k": 3, "max_measured_over_bound": 0.0033326190836036077, "violations": 0},
    ],
    "violations": 0,
}

# (k, f, c) with |f^(k)| > c k! on [0, 1]; in the fourth, f + 1/100 has the
# rational root t = 1/2
VDC_CASES = [
    (1, [-1, 5, 2, -1], 4),
    (1, [F(-1, 3), F(7, 2), F(1, 5)], 3),
    (2, [F(1, 7), -3, 4, F(1, 3)], 3),
    (2, [F(-26, 100), 0, 1], F(1, 2)),
    (3, [-1, 2, -5, 7, 1], 6),
    (3, [F(2, 3), 0, 1, F(-5, 2), F(1, 4)], 1),
]
# exact and binary-float epsilons (a float one clears to a huge constant term,
# beyond the rational-root search's divisor guard)
VDC_EPS = [F(1, 100), 1e-3, F(1, 10 ** 4), 1e-5, F(1, 10 ** 6)]

# float.hex of vdc_check(...)["measured"], cases x epsilons in row-major order
VDC_MEASURED_HEX = [
    "0x1.d0790b4e4fb78p-9", "0x1.7393f1ce6d2d0p-12", "0x1.294327a8bfcc0p-15", "0x1.db9ea5da09400p-19", "0x1.7c7eeb14d3000p-22",
    "0x1.727b10153ea69p-8", "0x1.28627248d1eeep-11", "0x1.da371d3d4a3ecp-15", "0x1.7b5f4a9766630p-18", "0x1.2f7f6edf85b00p-21",
    "0x1.eee3acae511dep-7", "0x1.8be1a21f2440ep-10", "0x1.3cb471eb42576p-13", "0x1.faba4f9e2fc80p-17", "0x1.9561d94ad5500p-20",
    "0x1.41604a038f32fp-6", "0x1.010dc6e22f699p-9", "0x1.9b490cdeeb1d2p-13", "0x1.49073d1a14c73p-16", "0x1.0738fdada8082p-19",
    "0x1.3535dca188215p-8", "0x1.eeb7204e946e0p-12", "0x1.8bc5a84788c00p-15", "0x1.3c9e20225bc00p-18", "0x1.fa9699d034000p-22",
    "0x1.ac2febe67b079p-8", "0x1.5689a3addd92cp-11", "0x1.1207afccb465cp-14", "0x1.b672b2c724c80p-18", "0x1.5ec2289f1b000p-21",
]

def test_check_vdc_results_golden(tmp_path):
    assert run(["check-vdc", "--samples", "5", "--seed", "0", "--out", str(tmp_path)]) == 0
    blob = json.loads((tmp_path / "vdc.json").read_text())
    assert blob["results"] == CHECK_VDC_RESULTS


@pytest.mark.parametrize("case", range(len(VDC_CASES)))
def test_vdc_check_measured_golden(case):
    k, f, c = VDC_CASES[case]
    got = [float.hex(vdc_check(f, (F(0), F(1)), k, c, eps)["measured"]) for eps in VDC_EPS]
    n = len(VDC_EPS)
    assert got == VDC_MEASURED_HEX[case * n:(case + 1) * n]
