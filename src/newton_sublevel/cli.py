"""Expression front end, command dispatcher, and report serialization.

Phase expressions follow a small grammar, parsed by recursive descent:

    expr     := ('+' | '-')? term (('+' | '-') term)*
    term     := factor ('*'? factor)*
    factor   := base ('^' exponent)?
    base     := 'x' | 'y' | rational | '(' expr ')'
    exponent := '-'? INT | '(' '-'? rational ')'
    rational := INT ('/' INT)?

INT is ASCII digits only.  Coefficient arithmetic is exact; x may carry
nonnegative rational powers, y only nonnegative integer ones.  A fractional
exponent needs parentheses, x^(3/2), as format_poly prints it: x^3/2 is a
parse error at the '/'.  One pass over the tokens gives both the exact
polynomial and its canonical text, the expression that analyze echoes.
Subcommands write JSON/CSV reports under --out.  Each subcommand takes only
the flags it reads (the _COMMANDS table); any other flag is a usage error.
--config FILE gives "key = value" defaults for the chosen subcommand's
flags: explicit flags win, a key naming a flag of another subcommand is
ignored, an unknown key is an error, and a value goes through the same
converter as the flag's own.

Exit codes: 0 on success; 1 on usage or parse errors and on input outside
the model (a ValueError); 2 when a construction or proof step fails (a
RuntimeError) or a check fails; 3 on any other exception, reported in one
line without a traceback.  Usage and parse errors write nothing; every other
failure writes a ``<command>.FAILED`` marker, next to the reports after a
failed check and alone after an exception.  Each subcommand returns its
report and run writes it, so a subcommand that raises leaves no partial
outputs.  Reports carry no timestamps and serialize with sorted keys so
equal runs produce equal bytes; rationals appear as
"num/den" strings.  NEWTON_SUBLEVEL_THREADS caps sampling parallelism.

numpy is imported inside the functions that use it, here as in measure_lab and
resolve, so analyze, adapt, resolve and sweep run without loading it.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from pathlib import Path
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

from . import __version__
from .adapt import _require_critical, to_superadapted
from .exact_poly import (
    PuiseuxPoly,
    format_poly,
    poly_add,
    poly_mul,
    poly_scale,
)
from .measure_lab import (
    Cutoff,
    Disk,
    decay_csv,
    decay_pairs,
    fit_decay,
    fit_growth,
    measure_csv,
    sublevel_measure,
    vdc_check,
)
from .newton import bisectrix_classify, newton_distance, newton_polygon_of
from .resolve import ResolveParams, decomposition_to_json, resolve
from .roots import derivative, isolate_real_roots, poly_value, refine_root
from .stability import mixture_sweep, stability_sweep, sweep_csv

REPORT_SCHEMA = "newton-sublevel/report/1"

__all__ = [
    "ParseError",
    "PhaseExpr",
    "parse_expression",
    "run",
    "main",
]


# ---------------------------------------------------------------------------
# tokens


class ParseError(ValueError):
    """Syntax or semantic error in a phase expression, with position."""

    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"{message} (line {line}, column {col})")
        self.line = line
        self.col = col


class _Token(NamedTuple):
    kind: str  # INT | NAME | OP | END
    text: str
    line: int
    col: int


_OPS = set("+-*/^()")

# what a grammar rule read: (exact polynomial, canonical text, kind of that text)
_Read = Tuple[PuiseuxPoly, str, str]


def _tokenize(text: str) -> List[_Token]:
    toks: List[_Token] = []
    line, col = 1, 1
    i = 0
    while i < len(text):
        ch = text[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch.isspace():
            col += 1
            i += 1
            continue
        if "0" <= ch <= "9":
            j = i
            while j < len(text) and "0" <= text[j] <= "9":
                j += 1
            toks.append(_Token("INT", text[i:j], line, col))
            col += j - i
            i = j
            continue
        if ch in ("x", "y"):
            toks.append(_Token("NAME", ch, line, col))
            col += 1
            i += 1
            continue
        if ch in _OPS:
            toks.append(_Token("OP", ch, line, col))
            col += 1
            i += 1
            continue
        raise ParseError(f"unexpected character {ch!r}", line, col)
    toks.append(_Token("END", "", line, col))
    return toks


class _Parser:
    """Recursive descent that evaluates as it reads.  Each rule returns what it
    read as (poly, text, kind): the exact polynomial, its canonical text, and
    the kind of that text -- 'x', 'y', 'int', 'frac', 'pow', 'prod' or 'sum' --
    from which the rule above decides the parentheses.  Products fold from 1
    and sums from 0, in the order read."""

    def __init__(self, toks: List[_Token]):
        self.toks = toks
        self.i = 0

    def peek(self) -> _Token:
        return self.toks[self.i]

    def advance(self) -> _Token:
        t = self.toks[self.i]
        self.i += 1
        return t

    def expect_op(self, ch: str) -> _Token:
        t = self.peek()
        if t.kind == "OP" and t.text == ch:
            return self.advance()
        raise ParseError(f"expected {ch!r}, found {t.text or 'end of input'!r}",
                         t.line, t.col)

    # expr := ('+'|'-')? term (('+'|'-') term)*
    def expr(self) -> _Read:
        signed: List[Tuple[int, _Read]] = []
        sign = 1
        t = self.peek()
        while True:
            if t.kind == "OP" and t.text in "+-":
                self.advance()
                sign = 1 if t.text == "+" else -1
            signed.append((sign, self.term()))
            t = self.peek()
            if not (t.kind == "OP" and t.text in "+-"):
                break
        if len(signed) == 1 and signed[0][0] == 1:
            return signed[0][1]
        out, parts = PuiseuxPoly.zero(), []
        for sg, (poly, s, kind) in signed:
            out = poly_add(out, poly if sg == 1 else poly_scale(poly, -1))
            if kind == "sum":
                s = f"({s})"
            if parts:
                parts.append(f" + {s}" if sg == 1 else f" - {s}")
            else:
                parts.append(s if sg == 1 else f"-{s}")
        return out, "".join(parts), "sum"

    # term := factor ('*'? factor)*  -- adjacency multiplies
    def term(self) -> _Read:
        factors = [self.factor()]
        while True:
            t = self.peek()
            if t.kind == "OP" and t.text == "*":
                self.advance()
                factors.append(self.factor())
            elif t.kind in ("NAME", "INT") or (t.kind == "OP" and t.text == "("):
                factors.append(self.factor())
            else:
                break
        if len(factors) == 1:
            return factors[0]
        out = PuiseuxPoly.constant(1)
        for poly, _s, _kind in factors:
            out = poly_mul(out, poly)
        return out, "*".join(f"({s})" if kind == "sum" else s
                             for _p, s, kind in factors), "prod"

    # factor := base ('^' exponent)?  -- the exponent must suit the base
    def factor(self) -> _Read:
        b = self.base()
        t = self.peek()
        if not (t.kind == "OP" and t.text == "^"):
            return b
        self.advance()
        e = self.exponent()
        poly, s, kind = b
        neg, frac = e < 0, e.denominator != 1
        if kind == "x":
            bad = neg and "negative x-power"
        elif kind == "y":
            bad = (neg or frac) and "negative or fractional y-power"
        elif kind in ("int", "frac"):
            bad = (frac and "fractional power of a rational literal"
                   or neg and poly.is_zero() and "zero raised to a negative power")
        else:
            bad = (neg or frac) and "compound bases take nonnegative integer powers only"
        if bad:
            raise ParseError(bad, t.line, t.col)
        if kind == "x":
            poly = PuiseuxPoly.monomial(1, e, 0)
        elif kind == "y":
            poly = PuiseuxPoly.monomial(1, 0, int(e))
        elif kind in ("int", "frac"):
            poly = PuiseuxPoly.constant(poly.coeff(0, 0) ** int(e))
        else:
            poly = poly ** int(e)
        if kind in ("frac", "pow", "prod", "sum"):
            s = f"({s})"
        return poly, f"{s}^{e}" if e >= 0 and not frac else f"{s}^({e})", "pow"

    def base(self) -> _Read:
        t = self.peek()
        if t.kind == "NAME":
            self.advance()
            a, b = (1, 0) if t.text == "x" else (0, 1)
            return PuiseuxPoly.monomial(1, a, b), t.text, t.text
        if t.kind == "INT":
            q = self.rational()
            return PuiseuxPoly.constant(q), str(q), "int" if q.denominator == 1 else "frac"
        if t.kind == "OP" and t.text == "(":
            self.advance()
            inner = self.expr()
            self.expect_op(")")
            return inner
        raise ParseError(
            f"expected 'x', 'y', a rational, or '(', found {t.text or 'end of input'!r}",
            t.line, t.col)

    def rational(self, slash: bool = True) -> Fraction:
        """INT ('/' INT)?, or INT alone when slash is False."""
        t = self.peek()
        if t.kind != "INT":
            raise ParseError(f"expected an integer, found {t.text or 'end of input'!r}",
                             t.line, t.col)
        self.advance()
        num = int(t.text)
        nxt = self.peek()
        if slash and nxt.kind == "OP" and nxt.text == "/":
            self.advance()
            d = self.peek()
            if d.kind != "INT":
                raise ParseError(
                    f"expected a denominator, found {d.text or 'end of input'!r}",
                    d.line, d.col)
            self.advance()
            if int(d.text) == 0:
                raise ParseError("zero denominator", d.line, d.col)
            return Fraction(num, int(d.text))
        return Fraction(num)

    # exponent := '-'? INT | '(' '-'? rational ')'  -- a '/' after a bare
    # exponent is not part of it, so x^3/2 is an error, never x^(3/2)
    def exponent(self) -> Fraction:
        t = self.peek()
        parens = t.kind == "OP" and t.text == "("
        if parens:
            self.advance()
            t = self.peek()
        sign = 1
        if t.kind == "OP" and t.text == "-":
            self.advance()
            sign = -1
        q = sign * self.rational(slash=parens)
        if parens:
            self.expect_op(")")
        return q


@dataclass(frozen=True)
class PhaseExpr:
    source: str
    canonical: str
    poly: PuiseuxPoly


def parse_expression(text: str) -> PhaseExpr:
    """Parse a phase expression, in one pass, to its exact polynomial and its
    canonical text, which parses back to the same polynomial and text."""
    toks = _tokenize(text)
    if toks[0].kind == "END":
        raise ParseError("empty expression", toks[0].line, toks[0].col)
    p = _Parser(toks)
    poly, canonical, _kind = p.expr()
    t = p.peek()
    if t.kind != "END":
        raise ParseError(f"trailing input starting at {t.text!r}", t.line, t.col)
    return PhaseExpr(source=text, canonical=canonical, poly=poly)


# ---------------------------------------------------------------------------
# report plumbing


@dataclass(frozen=True)
class _Report:
    """What a subcommand hands to run, which writes the files, prints the
    lines and sets the exit status."""

    name: str                                  # the JSON report's file name
    inputs: Dict[str, object]
    results: Dict[str, object]
    files: Tuple[Tuple[str, str], ...] = ()    # (name, text) written before the JSON
    lines: Tuple[str, ...] = ()                # the summary, after the "wrote" lines
    failure: Optional[str] = None              # a failed check: marker text, exit 2


def _fstr(q: Fraction) -> str:
    # "num/den" for proper fractions, bare "num" for integers — never floats
    return str(Fraction(q))


class _WriteError(Exception):
    """A report file could not be written; the message names the directory."""


def _write_text(out: Path, name: str, text: str) -> Path:
    # the directory is made on the first write, so a usage error leaves no trace
    path = out / name
    try:
        out.mkdir(parents=True, exist_ok=True)
        path.write_text(text, encoding="utf-8")
    except OSError as exc:
        raise _WriteError(f"cannot write reports to {out}: {exc.strerror or exc}") from None
    return path


def _json_text(obj: Dict[str, object]) -> str:
    return json.dumps(obj, sort_keys=True, indent=1) + "\n"


def _fail_marker(out: Path, command: str, message: str) -> None:
    _write_text(out, f"{command}.FAILED", message + "\n")


def _polygon_json(np_) -> Dict[str, object]:
    return {
        "vertices": [[_fstr(a), _fstr(b)] for (a, b) in np_.vertices],
        "edges": [
            {"lo": [_fstr(e.lo[0]), _fstr(e.lo[1])],
             "hi": [_fstr(e.hi[0]), _fstr(e.hi[1])],
             "m": _fstr(e.m), "alpha": _fstr(e.alpha)}
            for e in np_.edges
        ],
        "a_min": _fstr(np_.a_min),
        "b_min": _fstr(np_.b_min),
    }


def _index_json(idx) -> Dict[str, object]:
    return {"j": _fstr(idx.j), "p": idx.p, "morse_hyperbolic": idx.morse_hyperbolic}


# ---------------------------------------------------------------------------
# flags: one argparse converter per value type, so explicit values and
# --config defaults (which argparse converts like flag values) are checked alike


class _UsageError(Exception):
    pass


class _ArgParser(argparse.ArgumentParser):
    def error(self, message):  # argparse defaults to exit(2); usage errors are 1 here
        raise _UsageError(message)


def _phase(text: str) -> PhaseExpr:
    try:
        return parse_expression(text)
    except ParseError as exc:
        raise argparse.ArgumentTypeError(str(exc))


def _parse_range(spec: str) -> List[float]:
    """LO..HI[:COUNT] -> geometric grid, order as written."""
    import numpy as np
    malformed = argparse.ArgumentTypeError(f"expects LO..HI[:COUNT], got {spec!r}")
    body, _, cnt = spec.partition(":")
    lo, sep, hi = body.partition("..")
    if not sep:
        raise malformed
    try:
        lof, hif = float(lo), float(hi)
        n = int(cnt) if cnt else 8
    except ValueError:
        raise malformed
    if not (0 < lof < math.inf and 0 < hif < math.inf) or n < 1:
        raise argparse.ArgumentTypeError("bounds must be positive and finite and COUNT >= 1")
    if n == 1:
        return [lof]
    return [float(v) for v in np.geomspace(lof, hif, n)]


def _parse_tgrid(spec: str) -> List[Optional[Fraction]]:
    """Comma-separated rationals; 'inf' (None) is for mixture sweeps only."""
    out: List[Optional[Fraction]] = []
    for part in spec.split(","):
        s = part.strip()
        if s.lower() in ("inf", "infinity"):
            out.append(None)
        elif s:
            out.append(_frac_opt(s))
    if not out:
        raise argparse.ArgumentTypeError("empty grid")
    return out


def _frac_opt(s: str) -> Fraction:
    try:
        return Fraction(s)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"not a rational: {s!r}")


def _int_at_least(lo: int):
    """The converter of integers >= lo: 1 for --samples, 0 for --seed."""
    kind = "positive" if lo == 1 else "nonnegative"

    def convert(s: str) -> int:
        try:
            n = int(s)
        except ValueError:
            n = lo - 1
        if n < lo:
            raise argparse.ArgumentTypeError(f"expects a {kind} integer, got {s!r}")
        return n

    return convert


def _mode(s: str) -> str:
    # checked here, not by choices=, which argparse skips for defaults
    if s not in ("exact", "numeric"):
        raise argparse.ArgumentTypeError(f"expects exact or numeric, got {s!r}")
    return s


def _threads_from_env() -> int:
    raw = os.environ.get("NEWTON_SUBLEVEL_THREADS", "")
    if not raw.strip():
        return 1
    try:
        threads = int(raw)
    except ValueError:
        threads = 0
    if threads < 1:
        raise _UsageError(f"NEWTON_SUBLEVEL_THREADS must be a positive integer, got {raw!r}")
    return threads


# every argument of any subcommand: positionals, then flags
_ARGS: Dict[str, Dict[str, object]] = {
    "expr": dict(type=_phase),
    "perturbation": dict(type=_phase),
    "--out": dict(default=".", metavar="DIR", help="output directory (default: .)"),
    "--config": dict(metavar="FILE", help="key = value defaults; explicit flags win"),
    "--seed": dict(type=_int_at_least(0), default=0, metavar="N"),
    "--samples": dict(type=_int_at_least(1), metavar="N"),
    "--eps": dict(type=_parse_range, default="1e-2..1e-6:8", metavar="LO..HI[:COUNT]"),
    "--lambda": dict(type=_parse_range, default="50..800:8", dest="lam",
                     metavar="LO..HI[:COUNT]"),
    "--mode": dict(type=_mode, default="numeric", metavar="exact|numeric",
                   help="numeric (the default) runs Monte Carlo; exact runs the GRID "
                        "estimator at depth round(log2(samples)/2) clamped to "
                        "[1, 14], not a closed form"),
    "--xi": dict(type=_frac_opt, metavar="RAT"),
    "--delta": dict(type=_frac_opt, metavar="RAT"),
    "--eta": dict(type=_frac_opt, metavar="RAT"),
    "--radius": dict(type=_frac_opt, metavar="RAT"),
    "--t-grid": dict(type=_parse_tgrid, metavar="LIST"),
    "--mixture": dict(action="store_true",
                      help="treat the second phase as a mixture endpoint instead of "
                           "a perturbation; --t-grid entries are ratios, 'inf' allowed"),
}


def _load_config(path: str) -> Dict[str, str]:
    vals: Dict[str, str] = {}
    for ln, raw in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise _UsageError(f"{path}:{ln}: expected 'key = value'")
        key, val = (s.strip() for s in line.split("=", 1))
        # a key names a flag that takes a value
        flag = "--" + key
        if flag not in _ARGS or flag in ("--config", "--mixture"):
            raise _UsageError(f"{path}:{ln}: unknown config key {key!r}")
        vals[flag] = val
    return vals


# ---------------------------------------------------------------------------
# subcommands: each reads the parsed arguments its table row declares and
# returns its report; run writes it


def _cmd_analyze(args) -> _Report:
    expr = args.expr
    np_ = newton_polygon_of(expr.poly)
    d = newton_distance(np_)
    cls = bisectrix_classify(np_)
    rep = to_superadapted(expr.poly)
    results = {
        "expression": expr.canonical,
        "polynomial": format_poly(expr.poly),
        "polygon": _polygon_json(np_),
        "newton_distance": _fstr(d),
        "bisectrix": {"tag": cls.tag,
                      "touch_point": [_fstr(cls.touch_point[0]), _fstr(cls.touch_point[1])]},
        "superadapted": bool(rep.iterations == 0),
        "shears_to_superadapted": rep.iterations,
        "index": _index_json(rep.index),
    }
    # d is read in the input coordinates, j = 1/d in superadapted ones
    line = (f"d = {d} (input coordinates), {1 / rep.index.j} (superadapted), "
            f"index (j, p) = ({rep.index.j}, {rep.index.p})")
    return _Report("analyze.json", {"expr": expr.source}, results, lines=(line,))


def _cmd_adapt(args) -> _Report:
    rep = to_superadapted(args.expr.poly)
    results = {
        "original": format_poly(rep.original),
        "final": format_poly(rep.final),
        "iterations": rep.iterations,
        "shears": [
            {"m": _fstr(s.m), "root": _fstr(s.root), "x_sign": s.x_sign,
             "curve": format_poly(s.curve)}
            for s in rep.shears_applied
        ],
        "final_polygon": _polygon_json(newton_polygon_of(rep.final)),
        "index": _index_json(rep.index),
    }
    line = f"{results['original']}  ->  {results['final']}  ({rep.iterations} shear(s))"
    return _Report("adapt.json", {"expr": args.expr.source}, results, lines=(line,))


def _cmd_resolve(args) -> _Report:
    given = {"eta": args.eta, "xi": args.xi, "delta": args.delta, "x_max": args.radius}
    try:
        params = ResolveParams(**{k: v for k, v in given.items() if v is not None})
    except ValueError as exc:
        raise _UsageError(str(exc))
    dec = resolve(args.expr.poly, params)
    results = {"charts": len(dec.charts), "radius": _fstr(dec.radius), "all_passed": True}
    return _Report("verify.json", {"expr": args.expr.source}, results,
                   files=(("resolution.json", _json_text(decomposition_to_json(dec))),),
                   lines=(f"{len(dec.charts)} charts, radius {dec.radius}, "
                          "every chart proved",))


def _fit_json(fit, data) -> Dict[str, object]:
    """A fit's fields, or the reason it is unavailable."""
    try:
        f = fit(data)
    except ValueError as exc:
        return {"error": str(exc)}
    return {"j_hat": f.j_hat, "p_hat": f.p_hat, "C_hat": f.C_hat,
            "residual_rms": f.residual_rms, "p_rounded": f.p_rounded}


def _fit_line(fit_json: Dict[str, object], summary: str) -> str:
    if "error" in fit_json:
        return f"fit unavailable: {fit_json['error']}"
    return summary.format(**fit_json)


def _disk_radius(radius: Optional[Fraction]) -> float:
    """The --radius of measure and oscillate as a float (default 1): it must be
    positive and its square finite, since both take areas and cutoffs in r^2."""
    if radius is None:
        return 1.0
    try:
        r = float(radius)
    except OverflowError:
        r = math.inf
    if not (r > 0 and math.isfinite(r * r)):
        raise _UsageError("--radius must be a positive float with a finite square, "
                          f"got {r:g}")
    return r


def _require_model_phase(p: PuiseuxPoly) -> None:
    """measure and oscillate fit a growth index, which only a nonzero phase
    with a critical point at the origin has (as analyze requires)."""
    if p.is_zero():
        raise ValueError("the zero phase has no growth index to measure")
    _require_critical(p)


def _cmd_measure(args) -> _Report:
    _require_model_phase(args.expr.poly)
    budget = args.samples if args.samples is not None else 10**6
    method = "GRID" if args.mode == "exact" else "MC"
    if method == "GRID":
        # grid evaluator takes a dyadic depth; match the cell count to the budget
        budget = max(1, min(14, round(math.log2(max(2, budget)) / 2)))
    region = Disk(_disk_radius(args.radius))
    samples = sublevel_measure(args.expr.poly, region, args.eps, budget=budget,
                               seed=args.seed, method=method,
                               threads=_threads_from_env())
    results = {
        "region": {"type": "disk", "radius": float(region.radius)},
        "method": method,
        "samples": [
            {"epsilon": s.epsilon, "estimate": s.estimate, "stderr": s.stderr,
             "n": s.n_samples, "method": s.method}
            for s in samples
        ],
        "fit": _fit_json(fit_growth, samples),
    }
    return _Report("measure.json", {"expr": args.expr.source}, results,
                   files=(("measure.csv", measure_csv(samples)),),
                   lines=(_fit_line(results["fit"], "fit: j = {j_hat:.4f}, p = {p_hat:.3f} "
                                                    "(rounded {p_rounded})"),))


def _cmd_oscillate(args) -> _Report:
    _require_model_phase(args.expr.poly)
    radius = _disk_radius(args.radius)
    cutoff = Cutoff(radius=radius, order=3)
    pairs = decay_pairs(args.expr.poly, cutoff, args.lam)
    results = {
        "cutoff": {"radius": radius, "order": cutoff.order},
        "pairs": [
            {"lambda": lam, "re": val.real, "im": val.imag, "abs": abs(val)}
            for lam, val in pairs
        ],
        "fit": _fit_json(fit_decay, [(lam, abs(val)) for lam, val in pairs]),
    }
    return _Report("oscillate.json", {"expr": args.expr.source}, results,
                   files=(("oscillate.csv", decay_csv(pairs)),),
                   lines=(_fit_line(results["fit"], "fit: decay exponent j = {j_hat:.4f}, "
                                                    "p = {p_hat:.3f}"),))


def _sweep_row_json(r, mixture: bool) -> Dict[str, object]:
    row = {
        "j": None if r.index is None else _fstr(r.index.j),
        "p": None if r.index is None else r.index.p,
        "superadapt_ok": r.superadapt_ok,
        "flags": sorted(r.flags),
        "note": r.note,
    }
    if mixture:
        row.update(ratio="inf" if r.t is None else _fstr(r.t), osc_p=r.osc_p)
    else:
        row.update(t=_fstr(r.t), polygon_contains_NS=r.polygon_contains_NS)
    return row


def _cmd_sweep(args) -> _Report:
    mixture = args.mixture
    grid = args.t_grid
    if grid is None:
        grid = _parse_tgrid("0,1/2,1,2,inf" if mixture else "-1,-1/2,1/2,1")
    elif None in grid and not mixture:
        raise _UsageError("'inf' is only meaningful with --mixture")
    sweep = mixture_sweep if mixture else stability_sweep
    rows, verdict = sweep(args.expr.poly, args.perturbation.poly, grid)
    results = {"kind": "mixture" if mixture else "stability",
               "rows": [_sweep_row_json(r, mixture) for r in rows],
               "verdict": verdict}
    ok = bool(verdict["ok"])
    return _Report("sweep.json", {"expr": args.expr.source,
                                  "perturbation": args.perturbation.source}, results,
                   files=(("sweep.csv", sweep_csv(rows, mixture)),),
                   lines=(f"verdict: {'ok' if ok else 'VIOLATIONS'}",),
                   failure=None if ok else ("index bound violated on a non-flagged row; "
                                            "see sweep.json"))


def _random_vdc_instance(rng: np.random.Generator, k: int):
    """Integer polynomial of degree in [k, k+3] whose k-th derivative is
    root-free on [0, 1], with a certified safe lower constant."""
    deg = int(rng.integers(k, k + 4))
    while True:
        coeffs = [Fraction(int(c)) for c in rng.integers(-9, 10, size=deg + 1)]
        if coeffs[-1] == 0:
            coeffs[-1] = Fraction(int(rng.integers(1, 10)))
        dk = coeffs
        for _ in range(k):
            dk = derivative(dk)
        if not dk:
            continue
        lo_v = poly_value(dk, Fraction(0))
        hi_v = poly_value(dk, Fraction(1))
        if lo_v == 0 or hi_v == 0 or (lo_v > 0) != (hi_v > 0):
            continue
        if any(r.lo < 1 and r.hi > 0 for r in isolate_real_roots(dk)):
            continue
        # min of |f^(k)| sits at an endpoint or a critical point of f^(k)
        cand = [abs(lo_v), abs(hi_v)]
        dk1 = derivative(dk)
        if dk1:
            for r in isolate_real_roots(dk1):
                if r.hi <= 0 or r.lo >= 1:
                    continue
                rr = refine_root(r, Fraction(1, 2**40))
                cand.append(abs(poly_value(dk, rr.midpoint())))
        fk_min = min(cand)
        if fk_min <= 0:
            continue
        c = fk_min / math.factorial(k) * Fraction(1023, 1024)
        return coeffs, c


def _cmd_check_vdc(args) -> _Report:
    import numpy as np
    per_k = args.samples if args.samples is not None else 200
    seed = args.seed
    interval = (Fraction(0), Fraction(1))
    per_k_rows = []
    violations = 0
    worst = 0.0
    for k in (1, 2, 3):
        rng = np.random.default_rng([seed, k])
        max_ratio = 0.0
        kv = 0
        for _ in range(per_k):
            coeffs, c = _random_vdc_instance(rng, k)
            eps = Fraction(10) ** -int(rng.integers(2, 7))
            chk = vdc_check(coeffs, interval, k, c, eps)
            ratio = chk["measured"] / chk["bound"] if chk["bound"] else 0.0
            max_ratio = max(max_ratio, float(ratio))
            if not chk["ok"]:
                kv += 1
        violations += kv
        worst = max(worst, max_ratio)
        per_k_rows.append({"k": k, "count": per_k, "violations": kv,
                           "max_measured_over_bound": max_ratio})
    results = {"per_k": per_k_rows, "violations": violations,
               "max_measured_over_bound": worst}
    return _Report("vdc.json", {}, results,
                   lines=(f"{3 * per_k} instances, {violations} violations, "
                          f"max measured/bound = {worst:.4f}",),
                   failure=f"{violations} sublevel bound violations" if violations else None)


# ---------------------------------------------------------------------------
# dispatcher: subcommand -> (handler, the arguments it reads besides --out and
# --config); every other flag is a usage error


_COMMANDS = {
    "analyze": (_cmd_analyze, ("expr",)),
    "adapt": (_cmd_adapt, ("expr",)),
    "resolve": (_cmd_resolve, ("expr", "--xi", "--delta", "--eta", "--radius")),
    "measure": (_cmd_measure, ("expr", "--seed", "--samples", "--eps", "--mode",
                               "--radius")),
    "oscillate": (_cmd_oscillate, ("expr", "--lambda", "--radius")),
    "sweep": (_cmd_sweep, ("expr", "perturbation", "--t-grid", "--mixture")),
    "check-vdc": (_cmd_check_vdc, ("--seed", "--samples")),
}


@lru_cache(maxsize=1)
def _parser():
    """The argument parser, built on the first run and reused by later ones."""
    ap = _ArgParser(prog="newton-sublevel",
                    description="Newton-polygon invariants, resolution charts, and "
                                "sublevel/oscillatory asymptotics for bivariate phases.")
    sub = ap.add_subparsers(dest="command", required=True)
    for command, (_, names) in _COMMANDS.items():
        sp = sub.add_parser(command)
        for name in names + ("--out", "--config"):
            sp.add_argument(name, **_ARGS[name])
    return ap, sub


def _parse_args(argv: List[str]) -> argparse.Namespace:
    ap, sub = _parser()
    args = ap.parse_args(argv)
    if args.config:
        # config values become the subcommand's defaults, which argparse
        # converts like flag values; keys for flags it lacks are ignored.  A
        # fresh parser takes them, so that they do not leak into later runs.
        ap, sub = _parser.__wrapped__()
        names = _COMMANDS[args.command][1] + ("--out",)
        sub.choices[args.command].set_defaults(**{
            _ARGS[flag].get("dest", flag[2:].replace("-", "_")): val
            for flag, val in _load_config(args.config).items() if flag in names})
        args = ap.parse_args(argv)
    return args


def run(argv: Optional[Sequence[str]] = None) -> int:
    """Parse flags, dispatch one subcommand, return the process exit code."""
    if argv is None:
        argv = sys.argv[1:]
    argv = list(argv)
    # join "--t-grid -1/2,..." so argparse does not read the value as a flag
    for i in range(len(argv) - 1):
        if argv[i] == "--t-grid" and argv[i + 1].startswith("-"):
            argv[i:i + 2] = [f"--t-grid={argv[i + 1]}"]
            break
    try:
        args = _parse_args(argv)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (OSError, UnicodeDecodeError) as exc:
        print(f"error: cannot read config: {exc}", file=sys.stderr)
        return 1
    except SystemExit as exc:  # --help
        return int(exc.code or 0)

    out = Path(args.out)
    command = args.command
    # thread count deliberately not echoed: reports must be byte-identical
    # across 1-thread and N-thread runs
    cfg_echo = {
        "seed": getattr(args, "seed", 0),
        "samples": getattr(args, "samples", None),
    }
    try:
        rep = _COMMANDS[command][0](args)
        envelope = {"schema": REPORT_SCHEMA, "command": command, "input": rep.inputs,
                    "config": cfg_echo, "results": rep.results,
                    "versions": {"newton-sublevel": __version__}}
        paths = [_write_text(out, name, text)
                 for name, text in rep.files + ((rep.name, _json_text(envelope)),)]
        for line in [f"wrote {path}" for path in paths] + list(rep.lines):
            print(line)
        if rep.failure is None:
            return 0
        _fail_marker(out, command, rep.failure)
        return 2
    except (_UsageError, _WriteError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:        # input outside the model
        code, message = 1, str(exc)
    except RuntimeError as exc:      # a construction or proof step failed
        code, message = 2, str(exc)
    except Exception as exc:         # a defect: one line, no traceback
        code, message = 3, f"internal error: {type(exc).__name__}: {exc}"
    try:
        _fail_marker(out, command, message)
    except _WriteError as exc:
        print(f"error: {exc} (the failure it would have recorded: {message})",
              file=sys.stderr)
        return 1
    print(f"error: {message}", file=sys.stderr)
    return code


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
