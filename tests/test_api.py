"""The settable values of the public API.

Each parameter and field pinned here has a caller outside the tests, or is
read by the benchmark's checks; a setting that only its default ever used
was made a constant, and these pins keep it from returning unnoticed.
"""

import dataclasses
import importlib
import inspect

import pytest

import newton_sublevel as ns
from helpers import phase

PARAMETERS = {
    "decay_pairs": ["p", "cutoff", "lams", "depth"],
    "oscillatory_integral": ["p", "cutoff", "lam", "depth"],
    "decay_coefficient_cap": ["index", "samples"],
    "fit_growth": ["samples"],
    "fit_decay": ["pairs"],
    "sublevel_measure": ["p", "region", "epsilon", "budget", "seed", "method", "threads"],
    "to_superadapted": ["p"],
    "branch_curve": ["p", "edge", "root"],
}

FIELDS = {
    "SectorDescriptor": ["eta", "roof_coeff"],
    "Decomposition": ["sector", "charts", "recursion_trace"],
    "Chart": ["sign_x", "sign_y", "g", "lower", "upper", "monomial", "mode", "x_max",
              "delta", "phase", "band"],
    "VerifyReport": ["passed", "max_ratio_violation", "derivative_check", "sign_ok", "x_max"],
    "PhaseExpr": ["source", "canonical", "poly"],
}


@pytest.mark.parametrize("name", sorted(PARAMETERS))
def test_public_function_parameters(name):
    assert list(inspect.signature(getattr(ns, name)).parameters) == PARAMETERS[name]


@pytest.mark.parametrize("name", sorted(FIELDS))
def test_result_type_fields(name):
    assert [f.name for f in dataclasses.fields(getattr(ns, name))] == FIELDS[name]


def test_removed_names_stay_removed():
    assert not hasattr(ns, "DEFAULT_TRUNCATION_ORDER")
    assert not hasattr(ns.IsolatedRoot, "approx")
    assert not hasattr(ns.PuiseuxPoly, "min_total_order")
    assert not hasattr(ns, "lex_compare")
    assert not hasattr(ns, "ReportEnvelope")
    assert not hasattr(ns.Decomposition, "locate")
    assert not hasattr(ns.Chart, "contains")
    assert not hasattr(ns, "slice_domination_check")
    assert not hasattr(ns.measure_lab, "slice_domination_check")
    assert not hasattr(ns.PuiseuxPoly, "as_y_coefficients")
    assert not hasattr(ns, "print_expression")
    assert not hasattr(ns.cli, "print_expression")
    assert not hasattr(ns.parse_expression("x"), "ast")
    for name in ("_certify", "CERTIFY_RETRIES", "VERIFY_SAMPLES", "VERIFY_SEED",
                 "_separation_radius", "_rational_below"):
        assert not hasattr(importlib.import_module("newton_sublevel.resolve"), name)


def test_sublevel_measure_methods_are_mc_and_grid():
    with pytest.raises(ValueError, match="method must be MC or GRID"):
        ns.sublevel_measure(phase((1, 1, 1)), ns.Disk(1.0), 1e-2, method="EXACT")
