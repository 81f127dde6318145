"""Shared test utilities: terse phase constructors and catalog data."""

from fractions import Fraction

from newton_sublevel import PuiseuxPoly, parse_expression


def phase(*terms):
    """phase((c, a, b), ...) -> PuiseuxPoly sum of c * x^a * y^b."""
    return PuiseuxPoly.from_terms(terms)


# The one catalog: (name, CLI expression, growth index (j, p), morse_hyperbolic).
# The first six are the phase catalog; the last two are the extra resolution
# stress phases.
PHASES = [
    ("x^2+y^2", "x^2 + y^2", Fraction(1), 0, False),
    ("x*y", "x*y", Fraction(1), 1, True),
    ("x^2-y^2", "x^2 - y^2", Fraction(1), 1, True),
    ("(y-x^2)^2", "(y - x^2)^2", Fraction(1, 2), 0, False),
    ("x^2y^2+x^5", "x^2*y^2 + x^5", Fraction(1, 2), 1, False),
    ("y^2-x^3", "y^2 - x^3", Fraction(5, 6), 0, False),
    ("(y-x^2-x^3)^2-x^9", "(y - x^2 - x^3)^2 - x^9", Fraction(11, 18), 0, False),
    ("y^2-2x^2y+x^4-x^7", "y^2 - 2*x^2*y + x^4 - x^7", Fraction(9, 14), 0, False),
]

# (name, phase, j, p, morse_hyperbolic)
CATALOG = [(name, parse_expression(expr).poly, j, p, mh)
           for name, expr, j, p, mh in PHASES[:6]]
# (name, phase)
RESOLVE_EXTRAS = [(name, parse_expression(expr).poly) for name, expr, *_ in PHASES[6:]]
