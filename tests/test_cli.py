"""Expression grammar, subcommand dispatch, report determinism."""

import importlib
import itertools
import json
import tempfile
import time
import warnings
from fractions import Fraction
from functools import lru_cache
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from newton_sublevel import ParseError, parse_expression, resolve, run, verify_chart
from newton_sublevel import cli
from newton_sublevel.cli import _tokenize
from helpers import print_expression, ref_parse


F = Fraction


# ---------------------------------------------------------------------------
# round-trip corpus: the canonical text parses back to itself and the same polynomial


_TERMS = ["x", "y", "x^2", "y^3", "2*x", "3/4*y", "x*y", "x^2*y^3",
          "x^(1/2)", "x^(3/2)*y", "5", "1/2", "2*x^4*y", "7*y^5"]


def _corpus():
    exprs = list(_TERMS)
    for a, b in itertools.combinations(_TERMS[:10], 2):
        exprs.append(f"{a} + {b}")
        exprs.append(f"{a} - {b}")
    for a, b, c in [("x^2", "y^2", "x^5"), ("2*x", "y^3", "1/2"),
                    ("x*y", "x^(1/2)", "y")]:
        exprs.append(f"{a} + {b} - {c}")
    exprs += [
        "(y - x^2)^2",
        "(y - x^2 - x^3)^2 - x^9",
        "(x + y)^3",
        "(y + x^3)^2 + x^8",
        "(2*x - y)^2",
        "((y - x^2)^2 + x^5)",
        "((x))",
        "-x^2*y^2",
        "-x - y",
        "+x",
        "2x",
        "2x^2*y",
        "x(x + y)",
        "(x + y)(x - y)",
        "3/2",
        "x^0",
        "y^0*x",
        "(y - x^2)^2 + 0*y",
    ]
    return exprs


def test_corpus_is_large_enough():
    assert len(_corpus()) >= 100


@pytest.mark.parametrize("text", _corpus())
def test_parse_print_parse_identity(text):
    first = parse_expression(text)
    second = parse_expression(first.canonical)
    # canonical form is a fixed point
    assert second.canonical == first.canonical
    assert second.poly == first.poly


def test_power_of_a_power_echoes_text_that_parses(tmp_path):
    # the power base of a power is parenthesised: x^2^3 is a parse error
    assert run(["analyze", "(x^2)^3 + y^2", "--out", str(tmp_path)]) == 0
    echo = json.loads((tmp_path / "analyze.json").read_text())["results"]["expression"]
    assert echo == "(x^2)^3 + y^2"
    assert parse_expression(echo).poly == parse_expression("x^6 + y^2").poly


# ---------------------------------------------------------------------------
# the one-pass parser against the AST reference (tests/helpers.py)

_INT = st.integers(0, 12).map(str)
_LIT = st.one_of(_INT, st.builds("{}/{}".format, _INT, st.sampled_from("2314")))
_POW = st.integers(0, 3).map(str)          # an exponent that every base takes
_EXP = st.one_of(_INT, _INT.map("-{}".format),
                 st.builds("({}{})".format, st.sampled_from(["", "-"]), _LIT))
_GAP = st.sampled_from(["", " ", "\n"])


def _sums(depth, min_terms=1):
    """Phase expressions with parentheses nested at most depth deep: signed sums
    of at least min_terms implicit and explicit products of powers (of powers)
    of x, y, rationals and parenthesised sums; the last kind of power often has
    an exponent that its base does not take."""
    atoms = st.one_of(st.sampled_from(["x", "y"]), _LIT)
    if depth:
        atoms = st.one_of(_sums(depth - 1, 2).map("({})".format), atoms,
                          _sums(depth - 1).map("({})".format))
    factor = st.one_of(atoms, st.builds("{}^{}".format, atoms, _POW),
                       st.builds("x^({}/{})".format, _INT, st.sampled_from("2351")),
                       st.builds("({}^{})^{}".format, atoms, _POW, _POW),
                       st.builds("{}^{}".format, atoms, _EXP))
    term = st.builds(lambda fs, seps: "".join(f + s for f, s in zip(fs[:-1], seps)) + fs[-1],
                     st.lists(factor, min_size=1, max_size=3),
                     st.lists(st.sampled_from(["*", "", " ", " * "]), min_size=2, max_size=2))
    return st.builds(lambda lead, ts, ops: lead + ts[0] + "".join(o + t for o, t in zip(ops, ts[1:])),
                     st.sampled_from(["", "-", "+", " -"]),
                     st.lists(term, min_size=min_terms, max_size=3),
                     st.lists(st.builds("{}{}{}".format, _GAP, st.sampled_from("+-"), _GAP),
                              min_size=2, max_size=2))


_PHASE_TEXTS = _sums(2)


@st.composite
def _maybe_malformed(draw):
    """A phase expression, or one with a character inserted, replaced or removed."""
    text = draw(_PHASE_TEXTS)
    if draw(st.booleans()):
        return text
    i = draw(st.integers(0, len(text)))
    ch = draw(st.sampled_from(list("xy09+-*/^() \n&.\u00b2\u0663")))
    return draw(st.sampled_from([text[:i] + ch + text[i:], text[:i] + ch + text[i + 1:],
                                 text[:i] + text[i + 1:]]))


def _error(parse, text):
    """The ParseError of parse(text) as (message, line, column), or None."""
    try:
        parse(text)
    except ParseError as exc:
        return str(exc), exc.line, exc.col
    return None


@given(_maybe_malformed())
def test_one_pass_parser_matches_the_ast_reference(text):
    err = _error(ref_parse, text)
    if err:
        assert _error(parse_expression, text) == err
        return
    got, (ast, poly) = parse_expression(text), ref_parse(text)
    # the same lattice in the same insertion order
    assert list(got.poly._lat.items()) == list(poly._lat.items())
    assert (got.poly.ramification, got.poly._den, got.poly.truncation_order) == (
        poly.ramification, poly._den, poly.truncation_order)
    # the same text, except where the reference's does not parse (x^2^3)
    printed = print_expression(ast)
    if not _error(ref_parse, printed):
        assert got.canonical == printed
    again = parse_expression(got.canonical)
    assert (again.canonical, again.poly) == (got.canonical, got.poly)


# ---------------------------------------------------------------------------
# parsing: semantics


def test_parse_monomials_exact():
    p = parse_expression("x^2*y^2 + x^5").poly
    assert p.coeff(F(2), 2) == 1 and p.coeff(F(5), 0) == 1
    assert len(p.terms) == 2


def test_parse_expands_squares():
    p = parse_expression("(y - x^2)^2").poly
    assert p.coeff(F(0), 2) == 1
    assert p.coeff(F(2), 1) == -2
    assert p.coeff(F(4), 0) == 1


def test_parse_fractional_x_power():
    p = parse_expression("x^(1/2) + y").poly
    assert p.coeff(F(1, 2), 0) == 1 and p.coeff(F(0), 1) == 1
    assert parse_expression("x^(3/2)").poly.coeff(F(3, 2), 0) == 1


def test_parse_rational_coefficients():
    p = parse_expression("3/4*x - 1/2*y^2").poly
    assert p.coeff(F(1), 0) == F(3, 4) and p.coeff(F(0), 2) == F(-1, 2)


def test_parse_implicit_multiplication():
    assert parse_expression("2x*y").poly == parse_expression("2*x*y").poly
    assert parse_expression("x(x + y)").poly == parse_expression("x^2 + x*y").poly


def test_parse_cancellation():
    assert parse_expression("(x + y)(x - y) - x^2 + y^2").poly.is_zero()


# ---------------------------------------------------------------------------
# parsing: rejection with positions


@pytest.mark.parametrize("bad", [
    "", "x +* y", "x^", "(y - x^2", "x^y", "x/y", "x ** y", "x & y",
    "x - -y", "1/0", "x^(1/0)",
])
def test_parse_rejects_syntax(bad):
    with pytest.raises(ParseError):
        parse_expression(bad)


_SEMANTIC_ERRORS = [  # (input, message, (line, column) of its '^')
    ("y^(1/2)", "y-power", (1, 2)),
    ("y^(-1)", "y-power", (1, 2)),
    ("x^(-2)", "x-power", (1, 2)),
    ("2^(1/2)", "fractional power", (1, 2)),
    ("(x + y)^(1/2)", "nonnegative integer", (1, 8)),
    ("x + y^(1/2)", "y-power", (1, 6)),
    ("x +\n 0^(-1)", "zero raised", (2, 3)),
]


@pytest.mark.parametrize("bad,needle,pos", _SEMANTIC_ERRORS,
                         ids=[f"{bad}-{needle}" for bad, needle, _ in _SEMANTIC_ERRORS])
def test_parse_rejects_semantics(bad, needle, pos):
    with pytest.raises(ParseError, match=needle) as err:
        parse_expression(bad)
    assert (err.value.line, err.value.col) == pos


# a '/' after a bare exponent is not part of it: each of these once parsed as a
# different phase (x^(3/2), x^(2/3)*y, x) or failed further on (x^4/10^30)
@pytest.mark.parametrize("bad,col", [
    ("y^2 + x^3/2", 10), ("x^2/3*y", 4), ("x^2 / 2", 5), ("x^4/10^30", 4),
])
def test_parse_rejects_a_slash_after_a_bare_exponent(bad, col, tmp_path):
    with pytest.raises(ParseError, match="trailing input starting at '/'") as err:
        parse_expression(bad)
    assert (err.value.line, err.value.col) == (1, col)
    assert run(["analyze", bad, "--out", str(tmp_path)]) == 1
    assert not any(tmp_path.iterdir())



def test_parse_error_positions():
    with pytest.raises(ParseError) as err:
        parse_expression("x +* y")
    assert err.value.line == 1 and err.value.col == 4
    with pytest.raises(ParseError) as err:
        parse_expression("x +\n* y")
    assert err.value.line == 2 and err.value.col == 1


# only ASCII digits are digits: '²' once raised a bare ValueError from int(),
# and '٣' once read as 3
@pytest.mark.parametrize("bad,ch,col", [("x^\u00b2", "\u00b2", 3), ("\u0663*x", "\u0663", 1),
                                        ("y +\n x^2\u0663", "\u0663", 5)])
def test_parse_rejects_non_ascii_digits(bad, ch, col, tmp_path, capsys):
    with pytest.raises(ParseError, match=f"unexpected character {ch!r}") as err:
        parse_expression(bad)
    assert (err.value.line, err.value.col) == (bad.count("\n") + 1, col)
    assert run(["analyze", bad, "--out", str(tmp_path)]) == 1
    err_text = capsys.readouterr().err
    assert f"unexpected character {ch!r}" in err_text and "_phase" not in err_text


def test_tokenizer_tracks_columns():
    toks = _tokenize("x + 12/5")
    assert [t.kind for t in toks] == ["NAME", "OP", "INT", "OP", "INT", "END"]
    assert [t.col for t in toks[:-1]] == [1, 3, 5, 7, 8]


# ---------------------------------------------------------------------------
# subcommands: happy paths


def test_analyze_morse(tmp_path):
    assert run(["analyze", "x^2 + y^2", "--out", str(tmp_path)]) == 0
    blob = json.loads((tmp_path / "analyze.json").read_text())
    assert blob["schema"] == "newton-sublevel/report/1"
    assert blob["results"]["newton_distance"] == "1"
    assert blob["results"]["index"] == {"j": "1", "p": 0, "morse_hyperbolic": False}
    assert blob["results"]["superadapted"] is True
    assert not (tmp_path / "analyze.FAILED").exists()


def test_analyze_rational_distance(tmp_path):
    assert run(["analyze", "(y - x^2)^2", "--out", str(tmp_path)]) == 0
    blob = json.loads((tmp_path / "analyze.json").read_text())
    assert blob["results"]["newton_distance"] == "4/3"
    assert blob["results"]["superadapted"] is False
    assert blob["results"]["shears_to_superadapted"] == 1
    assert blob["results"]["index"]["j"] == "1/2"


def test_analyze_prints_both_distances(tmp_path, capsys):
    # d is read in the input coordinates and j = 1/d in superadapted ones: the
    # summary line names both instead of printing d next to the adapted j
    assert run(["analyze", "(y - x^2)^2 + x^5", "--out", str(tmp_path)]) == 0
    line = capsys.readouterr().out.splitlines()[-1]
    assert line == "d = 4/3 (input coordinates), 10/7 (superadapted), index (j, p) = (7/10, 0)"


def test_adapt_reports_shear_chain(tmp_path):
    assert run(["adapt", "(y - x^2 - x^3)^2", "--out", str(tmp_path)]) == 0
    blob = json.loads((tmp_path / "adapt.json").read_text())
    assert blob["results"]["iterations"] == 2
    assert blob["results"]["final"] == "y^2"
    assert [s["root"] for s in blob["results"]["shears"]] == ["1", "1"]


def test_resolve_writes_decomposition_and_verify(tmp_path):
    assert run(["resolve", "(y - x^2)^2", "--out", str(tmp_path)]) == 0
    dec = json.loads((tmp_path / "resolution.json").read_text())
    ver = json.loads((tmp_path / "verify.json").read_text())
    assert dec["charts"] and all("x_max" in c for c in dec["charts"])
    assert all("/" in c["x_max"] or c["x_max"].lstrip("-").isdigit()
               for c in dec["charts"])
    assert ver["results"] == {"charts": len(dec["charts"]), "radius": dec["radius"],
                              "all_passed": True}


def test_measure_fit_near_half(tmp_path):
    code = run(["measure", "(y - x^2)^2", "--out", str(tmp_path),
                "--eps", "1e-2..1e-5:6", "--samples", "400000", "--seed", "0"])
    assert code == 0
    blob = json.loads((tmp_path / "measure.json").read_text())
    assert abs(blob["results"]["fit"]["j_hat"] - 0.5) < 0.08
    csv_text = (tmp_path / "measure.csv").read_text()
    assert csv_text.splitlines()[0] == "epsilon,estimate,stderr,n,method"
    assert len(csv_text.splitlines()) == 7


def test_measure_fit_error_names_the_estimates(tmp_path):
    # on a disk of radius 1e30, 256 samples all miss the sublevel sets: every
    # estimate is 0 while every epsilon is positive
    code = run(["measure", "x^2*y^2+x^5", "--radius", "1e30", "--samples", "256",
                "--out", str(tmp_path)])
    assert code == 0
    blob = json.loads((tmp_path / "measure.json").read_text())
    assert all(s["estimate"] == 0.0 for s in blob["results"]["samples"])
    assert blob["results"]["fit"] == {
        "error": "all measure estimates must be positive to fit in log space"}


@pytest.mark.parametrize("mode", ["numeric", "exact"])
def test_measure_refuses_a_disk_where_the_phase_overflows(tmp_path, capsys, mode):
    # x^5 at radius 1e100 is 1e500: refused before any sampling, so no numpy
    # overflow warning and no NaN counted as outside every sublevel set
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = run(["measure", "x^2*y^2+x^5", "--radius", "1e100", "--samples", "256",
                    "--mode", mode, "--out", str(tmp_path)])
    assert code == 1
    err = capsys.readouterr().err
    assert "RuntimeWarning" not in err
    assert "sum |c|*r^(a+b) is not finite" in err
    assert "not finite" in (tmp_path / "measure.FAILED").read_text()
    assert not (tmp_path / "measure.json").exists()


def test_oscillate_morse(tmp_path):
    code = run(["oscillate", "x^2 + y^2", "--out", str(tmp_path),
                "--lambda", "50..800:6"])
    assert code == 0
    blob = json.loads((tmp_path / "oscillate.json").read_text())
    assert abs(blob["results"]["fit"]["j_hat"] - 1.0) < 0.05
    assert (tmp_path / "oscillate.csv").read_text().splitlines()[0] == \
        "lambda,re,im,abs"


def test_sweep_exit_and_tables(tmp_path):
    # a perturbation with a leading minus needs parentheses (or "--") so the
    # shell token is not mistaken for a flag
    code = run(["sweep", "x^2*y^2 + x^5", "(-x^2*y^2)", "--out", str(tmp_path),
                "--t-grid", "-1/2,1/2,1"])
    assert code == 0
    blob = json.loads((tmp_path / "sweep.json").read_text())
    assert blob["results"]["verdict"]["ok"] is True
    rows = (tmp_path / "sweep.csv").read_text().splitlines()
    assert rows[0].startswith("t,j,p")
    assert len(rows) == 4


def test_sweep_double_dash_separator(tmp_path):
    code = run(["sweep", "--t-grid", "1/2,1", "--out", str(tmp_path),
                "--", "x^2*y^2 + x^5", "-x^2*y^2"])
    assert code == 0
    blob = json.loads((tmp_path / "sweep.json").read_text())
    assert blob["results"]["verdict"]["ok"] is True


def test_sweep_mixture_mode(tmp_path):
    code = run(["sweep", "x^2*y^2 + x^5", "x^5 + y^4", "--mixture",
                "--out", str(tmp_path), "--t-grid", "0,1,inf"])
    assert code == 0
    rows = (tmp_path / "sweep.csv").read_text().splitlines()
    assert rows[-1].startswith("inf,")


def test_check_vdc_small_ensemble(tmp_path):
    code = run(["check-vdc", "--samples", "10", "--seed", "0",
                "--out", str(tmp_path)])
    assert code == 0
    blob = json.loads((tmp_path / "vdc.json").read_text())
    assert blob["results"]["violations"] == 0
    assert {row["k"] for row in blob["results"]["per_k"]} == {1, 2, 3}


# ---------------------------------------------------------------------------
# subcommands: failure paths and exit codes


def test_exit_1_on_parse_error(tmp_path):
    assert run(["analyze", "", "--out", str(tmp_path)]) == 1
    assert run(["analyze", "x +* y", "--out", str(tmp_path)]) == 1
    assert not (tmp_path / "analyze.json").exists()
    assert not (tmp_path / "analyze.FAILED").exists()


def test_exit_1_on_usage_error(tmp_path):
    assert run(["analyze", "x^2", "--eps", "nonsense", "--out", str(tmp_path)]) == 1
    assert run(["frobnicate", "x^2"]) == 1
    assert run(["measure", "x^2 + y^2", "--mode", "telepathic"]) == 1
    assert not list(tmp_path.iterdir())


# the flags each subcommand reads besides --out and --config
_DECLARED = {
    "analyze": set(),
    "adapt": set(),
    "resolve": {"--xi", "--delta", "--eta", "--radius"},
    "measure": {"--seed", "--samples", "--eps", "--mode", "--radius"},
    "oscillate": {"--lambda", "--radius"},
    "sweep": {"--t-grid", "--mixture"},
    "check-vdc": {"--seed", "--samples"},
}
_POSITIONALS = {"sweep": ["x^2*y^2 + x^5", "y^7"], "check-vdc": []}
_SHARED_FLAGS = {"--seed": "1", "--samples": "8", "--eps": "1e-2..1e-3:2",
                 "--lambda": "10..20:2", "--mode": "exact", "--xi": "1/8",
                 "--delta": "1/4", "--eta": "1/2", "--radius": "1/4",
                 "--t-grid": "1/2,1"}
_REMOVED_SLOTS = [(cmd, flag) for cmd, flags in _DECLARED.items()
                  for flag in _SHARED_FLAGS if flag not in flags]


def test_each_subcommand_declares_only_the_flags_it_reads():
    declared = {cmd: {n for n in names if n.startswith("--")}
                for cmd, (_, names) in cli._COMMANDS.items()}
    assert declared == _DECLARED
    # 7 subcommands x 12 shared flags + sweep --mixture = 85 slots before;
    # 29 now, --out and --config included
    assert sum(len(f) + 2 for f in declared.values()) == 29
    assert len(_REMOVED_SLOTS) == 85 - 29


@pytest.mark.parametrize("cmd,flag", _REMOVED_SLOTS)
def test_undeclared_flag_is_a_usage_error(tmp_path, capsys, cmd, flag):
    # a valid value, so the flag itself is what is refused, before any output
    argv = [cmd] + _POSITIONALS.get(cmd, ["x^2 + y^2"])
    assert run(argv + [flag, _SHARED_FLAGS[flag], "--out", str(tmp_path)]) == 1
    assert "unrecognized arguments" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("argv", [
    ["check-vdc", "--samples", "0"],
    ["check-vdc", "--samples", "-3"],
    ["measure", "x^2 + y^2", "--samples", "-3"],
    ["measure", "x^2 + y^2", "--samples", "0"],
    ["measure", "x^2 + y^2", "--mode", "exact", "--samples", "0"],
    ["measure", "x^2 + y^2", "--samples", "2.5"],
])
def test_samples_must_be_positive(tmp_path, capsys, argv):
    assert run(argv + ["--out", str(tmp_path)]) == 1
    assert "argument --samples: expects a positive integer" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("argv", [
    ["measure", "x^2 + y^2", "--mode", "exact", "--samples", "16"],
    ["measure", "x^2 + y^2", "--samples", "100"],
    ["check-vdc", "--samples", "1"],
])
def test_seed_must_be_nonnegative(tmp_path, capsys, argv):
    # one converter for --seed, explicit or from --config: a usage error that
    # writes nothing, not numpy's error from inside the sampler
    out = tmp_path / "out"
    assert run(argv + ["--seed", "-1", "--out", str(out)]) == 1
    assert "argument --seed: expects a nonnegative integer, got '-1'" in capsys.readouterr().err
    cfg = tmp_path / "seed.cfg"
    cfg.write_text("seed = -1\n")
    assert run(argv + ["--config", str(cfg), "--out", str(out)]) == 1
    assert "argument --seed: expects a nonnegative integer, got '-1'" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["measure", "y^2 - x^3", "--eps", "nan..1e-2:4", "--samples", "1000"],
    ["measure", "y^2 - x^3", "--eps", "1e-3..inf:3"],
    ["oscillate", "x^2 + y^2", "--lambda", "nan..100:2"],
    ["resolve", "x^2 + y^2", "--delta", "2"],
    ["resolve", "x^2 + y^2", "--delta", "1"],
    ["resolve", "x^2 + y^2", "--delta", "0"],
    ["resolve", "x^2 + y^2", "--radius", "0"],
    ["resolve", "(y - x^2)^2", "--xi", "0"],
    ["resolve", "(y - x^2)^2", "--xi", "-1"],
    ["resolve", "x^2 + y^2", "--eta", "0"],
    ["resolve", "x^2 + y^2", "--mode", "numeric"],
    ["resolve", "x^2 + y^2", "--mode", "exact"],
    ["sweep", "x^2*y^2 + x^5", "y^7", "--t-grid", "1,inf"],
    ["measure", "x^2 + y^2", "--radius", "0"],
    ["measure", "x^2 + y^2", "--radius", "-1"],
    ["measure", "x^2 + y^2", "--radius", "1e300"],
    ["measure", "x^2 + y^2", "--mode", "exact", "--radius", "1e300"],
    ["oscillate", "x^2 + y^2", "--radius", "0"],
    ["oscillate", "x^2 + y^2", "--radius", "-1"],
    ["oscillate", "x^2 + y^2", "--radius", "1e300"],
])
def test_exit_1_on_value_outside_the_model(tmp_path, argv):
    # a NaN bound passes a `<= 0` test, comparability needs 0 < delta < 1, strips
    # and the sector roof need xi > 0 and eta > 0, resolve takes no --mode,
    # 'inf' is a mixture ratio, and a disk or cutoff radius must be positive
    # with a finite square: each is a usage error, refused before any
    # sampling, quadrature or halving
    start = time.monotonic()
    assert run(argv + ["--out", str(tmp_path)]) == 1
    assert time.monotonic() - start < 1.0
    assert not list(tmp_path.iterdir())


def test_resolve_at_radius_1e200_is_proved(tmp_path):
    # x^2 + y^2 is homogeneous, so its band and bottom corner are proved at
    # any radius, within a second; no float evaluation of the charts follows
    start = time.monotonic()
    assert run(["resolve", "x^2 + y^2", "--radius", "1e200", "--out", str(tmp_path)]) == 0
    assert time.monotonic() - start < 1.0
    dec = json.loads((tmp_path / "resolution.json").read_text())
    assert Fraction(dec["charts"][1]["x_max"]) == Fraction(10) ** 200


def test_resolve_proves_a_corner_where_a_float_product_underflows(tmp_path):
    # the proved corner 27·x^6·y^5 has x_max = 2^-48, where the product of
    # phase and model underflows to 0.0 in floats: the proof is exact
    code = run(["resolve", "3*x^2*y^3*(y + 9/4*x^3)^2*(y + 3*x^2)^2", "--out", str(tmp_path)])
    assert code == 0
    ver = json.loads((tmp_path / "verify.json").read_text())["results"]
    assert ver == {"charts": 5, "radius": f"1/{2**48}", "all_passed": True}
    assert not (tmp_path / "resolve.FAILED").exists()


@pytest.mark.parametrize("expr", ["x^100*y^2 + x^1500", "x^200*y^2 + x^3000"])
def test_resolve_cuts_large_exponent_phases(tmp_path, expr):
    # the headroom of x-derivatives up to order 100 (200) puts the upper cut
    # near 10^158 (10^316), past the 512 doublings the cut once stopped at
    assert run(["resolve", expr, "--out", str(tmp_path)]) == 0
    ver = json.loads((tmp_path / "verify.json").read_text())["results"]
    assert ver == {"charts": 3, "radius": "1/4", "all_passed": True}


@lru_cache(maxsize=1)
def _proved_charts():
    p = parse_expression("(y - x)^2*(y + x^2) + 2*x^5").poly
    return p, resolve(p).charts


@pytest.mark.parametrize("seed", range(21))
def test_resolve_passes_its_audit_at_every_seed(seed):
    # a radius sampled at one fixed seed failed the float oracle at seed 1; a
    # proved one passes it at every seed
    p, charts = _proved_charts()
    for i, c in enumerate(charts):
        assert verify_chart(p, c, samples=1000, seed=seed).passed, i


def test_resolve_never_calls_the_float_oracle(tmp_path, monkeypatch):
    def broken(*args, **kwargs):
        raise AssertionError("the CLI sampled a chart")

    monkeypatch.setattr(importlib.import_module("newton_sublevel.resolve"),
                        "verify_chart", broken)
    assert not hasattr(cli, "verify_chart")
    assert run(["resolve", "x^2 + y^2", "--out", str(tmp_path)]) == 0


@pytest.mark.parametrize("argv", [
    ["oscillate", "x^2+y^2", "--radius", "1e150", "--lambda", "1..2:2"],
    ["oscillate", "x^2+y^2", "--lambda", "1e9..1e9:1"],
])
def test_oscillate_refuses_unbounded_work(tmp_path, capsys, argv):
    # the phase swing lam*r*max|grad S| needs more angles than the finest
    # level has: refused before any quadrature, with the non-convergence exit
    start = time.monotonic()
    code = run(argv + ["--out", str(tmp_path)])
    assert time.monotonic() - start < 5.0
    assert code == 2
    assert "Traceback" not in capsys.readouterr().err
    assert "oscillatory quadrature refused" in (tmp_path / "oscillate.FAILED").read_text()


@pytest.mark.parametrize("argv,needle", [
    # a linear term puts the phase outside the model: it is rejected before
    # any shear, not sheared through ever larger expansions
    (["analyze", "y - x^2 - x^8 + y^9"], "critical point"),
    (["sweep", "(y - x^2) - x^8", "y^9"], "critical point"),
    (["analyze", "y"], "critical point"),
    (["resolve", "1 + x^2"], "critical point"),
    (["resolve", "y"], "critical point"),
    (["resolve", "y - x^2 - x^8 + y^9"], "critical point"),
    # a nonintegral edge slope defeats the shear reduction
    (["analyze", "(y - x^(3/2))^2"], "slope"),
    # critical, so it reaches the quadrature, which needs integer x-exponents
    (["oscillate", "x^(1/2)*y + y^2", "--lambda", "50..100:2"], "fractional x-exponents"),
    # measure and oscillate fit a growth index, which a zero or non-critical
    # phase does not have
    (["oscillate", "x", "--lambda", "10..200:4"], "critical point"),
    (["oscillate", "0", "--lambda", "10..200:4"], "zero phase"),
    (["measure", "x", "--eps", "1e-4..1e-1:4", "--samples", "20000"], "critical point"),
    (["measure", "0"], "zero phase"),
    (["measure", "1+x^2"], "critical point"),
    (["oscillate", "x^(1/2) + y", "--lambda", "50..100:2"], "critical point"),
    # neither command takes a region: the message names the disk, not a remedy
    (["oscillate", "x^(1/2)*y + y^2", "--lambda", "50..100:2"],
     "the disk crosses x = 0, where a fractional power is undefined"),
    (["measure", "x^(1/2)*y + y^2"],
     "the disk crosses x = 0, where a fractional power is undefined"),
])
def test_exit_1_with_failure_marker(tmp_path, argv, needle):
    start = time.monotonic()
    code = run(argv + ["--out", str(tmp_path)])
    assert time.monotonic() - start < 1.0
    assert code == 1
    assert needle in (tmp_path / f"{argv[0]}.FAILED").read_text()


def test_resolve_numeric_irrational_root_fails_cleanly(tmp_path, capsys):
    # edge polynomial (y^2 - 2)^2 has the roots +-sqrt(2): following them needs
    # an algebraic shear, so the phase is outside the model (exit 1), and
    # resolve takes no --mode, so asking for a numeric one is a usage error
    expr = "(y^2 - 2*x^2)^2 + x^9"
    assert run(["resolve", expr, "--mode", "numeric", "--out", str(tmp_path)]) == 1
    assert not list(tmp_path.iterdir())
    assert run(["resolve", expr, "--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert "irrational edge root: outside the model" in err
    assert "Traceback" not in err
    assert (tmp_path / "resolve.FAILED").exists()
    assert not (tmp_path / "resolution.json").exists()


def test_exit_3_on_internal_error(tmp_path, capsys, monkeypatch):
    # an exception that is neither ValueError nor RuntimeError is a defect:
    # one line with its type, a failure marker, and no traceback
    def broken(*args):
        raise KeyError("lost")

    monkeypatch.setitem(cli._COMMANDS, "analyze", (broken, cli._COMMANDS["analyze"][1]))
    assert run(["analyze", "x^2 + y^2", "--out", str(tmp_path)]) == 3
    err = capsys.readouterr().err
    assert err == "error: internal error: KeyError: 'lost'\n"
    assert "internal error: KeyError" in (tmp_path / "analyze.FAILED").read_text()


def test_run_writes_a_failed_check_with_its_marker(tmp_path, capsys, monkeypatch):
    # a subcommand returns its report; run writes the other files, then the
    # JSON, prints "wrote" for each and the summary, and a failed check adds
    # the marker and exit 2 without an error line
    def failing(args):
        return cli._Report("analyze.json", {"expr": args.expr.source}, {"ok": False},
                           files=(("a.csv", "x\n"),), lines=("summary",),
                           failure="check failed")

    monkeypatch.setitem(cli._COMMANDS, "analyze", (failing, cli._COMMANDS["analyze"][1]))
    assert run(["analyze", "x^2", "--out", str(tmp_path)]) == 2
    out, err = capsys.readouterr()
    assert out == f"wrote {tmp_path / 'a.csv'}\nwrote {tmp_path / 'analyze.json'}\nsummary\n"
    assert err == ""
    assert sorted(f.name for f in tmp_path.iterdir()) == ["a.csv", "analyze.FAILED",
                                                          "analyze.json"]
    assert (tmp_path / "analyze.FAILED").read_text() == "check failed\n"
    blob = json.loads((tmp_path / "analyze.json").read_text())
    assert blob["command"] == "analyze" and blob["results"] == {"ok": False}


def test_resolve_that_raises_in_verification_writes_only_the_marker(tmp_path, monkeypatch):
    def broken(*args, **kwargs):
        raise RuntimeError("not comparable at any radius")

    monkeypatch.setattr(cli, "resolve", broken)
    assert run(["resolve", "x^2 + y^2", "--out", str(tmp_path)]) == 2
    assert [f.name for f in tmp_path.iterdir()] == ["resolve.FAILED"]


def test_resolve_two_high_order_branches(tmp_path):
    # branches y = x^2 (order 3) and y = x^3 (order 2): verification computes
    # only the gated quantities, so no power y^(beta - k) with k > beta, which
    # overflows on these charts, is taken
    start = time.monotonic()
    code = run(["resolve", "(y - x^3)^2*(y - x^2)^3 + 3*x^6*y", "--out", str(tmp_path)])
    assert time.monotonic() - start < 10.0
    assert code == 0
    ver = json.loads((tmp_path / "verify.json").read_text())["results"]
    assert ver["charts"] == 8 and ver["all_passed"] is True


# ---------------------------------------------------------------------------
# the exit-code contract over generated phases and options: every call ends
# in 0, 1 or 2, never in an internal error or an exception


_COEFF = st.fractions(min_value=-3, max_value=3, max_denominator=4).filter(bool)


@st.composite
def _phases(draw):
    terms = draw(st.lists(st.tuples(_COEFF, st.integers(0, 6), st.integers(0, 4)),
                          min_size=1, max_size=4))
    expr = " + ".join(f"({c})*x^{a}*y^{b}" for c, a, b in terms)
    for c, m, k in draw(st.lists(st.tuples(_COEFF, st.integers(1, 3), st.integers(1, 3)),
                                 max_size=2)):
        expr = f"({expr})*(y - ({c})*x^{m})^{k}"
    return expr


# valid values first, then garbage; the valid ones keep each call cheap
# (1e300 is refused by measure and oscillate; at 1e100 measure refuses phases
# of degree 4 and up, whose values overflow floats there, and at 1e100 and at
# lambda 1e9 oscillate refuses the work its phase swing needs)
_RATS = ["1/8", "1/4", "1/2", "0", "-1", "2", "abc", "1/0", ""]
_FLAG_VALUES = {
    "--seed": ["0", "5", "-1", "x", "1.5"],
    "--samples": ["1", "16", "0", "-3", "abc", "2.5"],
    "--eps": ["1e-1..1e-3:3", "0.5", "nonsense", "0..1", "nan..1e-2:4",
              "1e-3..inf:3", "1..2:0"],
    "--lambda": ["10..20:2", "5..5:1", "x", "0..10", "10..20:0", "1e9..1e9:1"],
    "--mode": ["exact", "numeric", "telepathic", ""],
    "--xi": _RATS, "--delta": _RATS, "--eta": _RATS,
    "--radius": ["1/2", "1", "0", "-1", "abc", "1/0", "1e300", "1e100"],
    "--t-grid": ["-1,1/2", "0,1,inf", "1/2", "", "abc", "1/0", "inf"],
    "--config": ["no/such/file.cfg"],
    # an existing regular file, and a path below it: no report can be written
    "--out": ["{tmp}/file", "{tmp}/file/sub"],
}
# flags whose defaults are expensive get a cheap value first; a drawn value
# of the same flag comes later and wins
_CHEAP = {"measure": ["--samples", "256"],
          "oscillate": ["--lambda", "10..20:2"], "check-vdc": ["--samples", "1"]}


@st.composite
def _options(draw):
    argv, names = [], []
    for _ in range(draw(st.integers(0, 3))):
        flag = draw(st.sampled_from(sorted(_FLAG_VALUES) + ["--mixture"]))
        names.append(flag)
        argv += [flag] if flag == "--mixture" else [flag, draw(st.sampled_from(_FLAG_VALUES[flag]))]
    return argv, names


@settings(max_examples=100, deadline=None)
@given(command=st.sampled_from(sorted(_DECLARED)), expr=_phases(), pert=_phases(),
       options=_options())
def test_exit_code_contract(command, expr, pert, options):
    positionals = {"sweep": [expr, pert], "check-vdc": []}.get(command, [expr])
    argv, names = options
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "out"
        (Path(tmp) / "file").write_text("kept\n")
        # a drawn --out comes later and wins
        argv = [a.replace("{tmp}", tmp) for a in argv]
        code = run([command] + positionals + ["--out", str(out)]
                   + _CHEAP.get(command, []) + argv)
        assert code in (0, 1, 2)
        if any(n not in _DECLARED[command] | {"--config", "--out"} for n in names):
            assert code == 1 and not out.exists()
        if "--out" in names:
            assert code == 1 and not out.exists()
            assert (Path(tmp) / "file").read_text() == "kept\n"


@pytest.mark.parametrize("argv,failure", [
    (["analyze", "x^2 + y^2"], None),
    (["resolve", "x^2 + y^2"], None),
    (["analyze", "1 + x^2"], "critical point"),     # the failure is named too
])
@pytest.mark.parametrize("below", ["", "/sub"])
def test_unwritable_out_is_one_line_and_exit_1(tmp_path, capsys, argv, failure, below):
    (tmp_path / "F").write_text("kept\n")
    out = f"{tmp_path / 'F'}{below}"
    assert run(argv + ["--out", out]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: cannot write reports to {out}: ")
    assert failure is None or failure in err[0]
    assert (tmp_path / "F").read_text() == "kept\n"


# ---------------------------------------------------------------------------
# config files


def test_config_supplies_defaults_and_flags_override(tmp_path):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("# experiment defaults\nseed = 9\nsamples = 50000\n"
                   "eps = 1e-2..1e-4:4\n")
    out1 = tmp_path / "a"
    out1.mkdir()
    assert run(["measure", "x^2 + y^2", "--config", str(cfg),
                "--out", str(out1)]) == 0
    blob = json.loads((out1 / "measure.json").read_text())
    assert blob["config"]["seed"] == 9
    assert blob["config"]["samples"] == 50000
    out2 = tmp_path / "b"
    out2.mkdir()
    assert run(["measure", "x^2 + y^2", "--config", str(cfg), "--seed", "3",
                "--out", str(out2)]) == 0
    blob2 = json.loads((out2 / "measure.json").read_text())
    assert blob2["config"]["seed"] == 3


def test_config_rejects_unknown_key(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("volume = 11\n")
    assert run(["analyze", "x^2 + y^2", "--config", str(cfg),
                "--out", str(tmp_path)]) == 1


def test_config_keys_apply_only_where_declared(tmp_path):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("seed = 4\nsamples = 300\nmode = telepathic\nxi = 1/16\n")
    # analyze reads none of these keys: it ignores them, bad values included,
    # and echoes its own seed and samples
    assert run(["analyze", "x^2 + y^2", "--config", str(cfg),
                "--out", str(tmp_path / "a")]) == 0
    blob = json.loads((tmp_path / "a" / "analyze.json").read_text())
    assert blob["config"] == {"seed": 0, "samples": None}
    # measure reads mode: the bad default is a usage error that writes nothing,
    # unless an explicit flag replaces it
    assert run(["measure", "x^2 + y^2", "--config", str(cfg),
                "--out", str(tmp_path / "m")]) == 1
    assert not (tmp_path / "m").exists()
    assert run(["measure", "x^2 + y^2", "--config", str(cfg), "--mode", "numeric",
                "--eps", "1e-1..1e-2:2", "--out", str(tmp_path / "m")]) == 0
    blob = json.loads((tmp_path / "m" / "measure.json").read_text())
    assert blob["config"] == {"seed": 4, "samples": 300}
    # a key's value goes through the flag's own converter
    cfg.write_text("samples = 0\n")
    assert run(["check-vdc", "--config", str(cfg), "--out", str(tmp_path / "v")]) == 1
    assert not (tmp_path / "v").exists()


def test_config_defaults_do_not_leak_into_later_runs(tmp_path, capsys):
    # runs share one parser; a --config run must leave its defaults behind
    def usage_errors():
        msgs = []
        for argv in (["measure", "x^2 + y^2", "--eps", "nonsense"], ["measure"],
                     ["analyze", "x^2", "--seed", "3"], ["resolve", "x^2", "--xi", "abc"]):
            assert run(argv + ["--out", str(tmp_path / "u")]) == 1
            msgs.append(capsys.readouterr().err)
        return msgs

    before = usage_errors()
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("seed = 9\neps = 1e-1..1e-2:2\n")
    assert run(["measure", "x^2 + y^2", "--config", str(cfg), "--samples", "1000",
                "--out", str(tmp_path / "a")]) == 0
    blob = json.loads((tmp_path / "a" / "measure.json").read_text())
    assert blob["config"]["seed"] == 9
    assert [s["epsilon"] for s in blob["results"]["samples"]] == [0.1, 0.01]
    assert run(["measure", "x^2 + y^2", "--samples", "1000",
                "--out", str(tmp_path / "b")]) == 0
    blob = json.loads((tmp_path / "b" / "measure.json").read_text())
    assert blob["config"]["seed"] == 0
    eps = [s["epsilon"] for s in blob["results"]["samples"]]
    assert len(eps) == 8 and eps[0] == 1e-2 and abs(eps[-1] - 1e-6) < 1e-18
    assert not (tmp_path / "u").exists()
    capsys.readouterr()
    assert usage_errors() == before


# ---------------------------------------------------------------------------
# determinism


def _run_measure(outdir, monkeypatch, threads):
    monkeypatch.setenv("NEWTON_SUBLEVEL_THREADS", str(threads))
    outdir.mkdir(exist_ok=True)
    assert run(["measure", "x^2*y^2 + x^5", "--out", str(outdir),
                "--eps", "1e-2..1e-4:4", "--samples", "100000",
                "--seed", "11"]) == 0
    return ((outdir / "measure.csv").read_bytes(),
            (outdir / "measure.json").read_bytes())


@pytest.mark.parametrize("raw", ["0", "-3", "abc", "2.5"])
def test_threads_below_one_are_a_usage_error(tmp_path, capsys, monkeypatch, raw):
    monkeypatch.setenv("NEWTON_SUBLEVEL_THREADS", raw)
    out = tmp_path / "out"
    assert run(["measure", "x^2 + y^2", "--samples", "1000", "--out", str(out)]) == 1
    assert (f"error: NEWTON_SUBLEVEL_THREADS must be a positive integer, got {raw!r}"
            in capsys.readouterr().err)
    assert not out.exists()


def test_reports_byte_identical_across_runs_and_threads(tmp_path, monkeypatch):
    a = _run_measure(tmp_path / "r1", monkeypatch, 1)
    b = _run_measure(tmp_path / "r2", monkeypatch, 1)
    c = _run_measure(tmp_path / "r4", monkeypatch, 4)
    assert a == b == c


def test_sweep_reports_deterministic(tmp_path):
    outs = []
    for name in ("s1", "s2"):
        d = tmp_path / name
        d.mkdir()
        assert run(["sweep", "x^2*y^2 + x^5", "y^7", "--out", str(d),
                    "--t-grid", "-1,-1/2,1/2,1"]) == 0
        outs.append(((d / "sweep.csv").read_bytes(),
                     (d / "sweep.json").read_bytes()))
    assert outs[0] == outs[1]


def test_json_reports_have_sorted_keys_and_no_timestamps(tmp_path):
    assert run(["analyze", "y^2 - x^3", "--out", str(tmp_path)]) == 0
    raw = (tmp_path / "analyze.json").read_text()
    blob = json.loads(raw)
    assert raw == json.dumps(blob, indent=1, sort_keys=True) + "\n"
    assert "time" not in raw and "date" not in raw
