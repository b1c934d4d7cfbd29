"""Univariate gcd over Q, an oracle for the factored cyclotomic gcd.

The package computes gcds of characteristic polynomials as exponent minima
in ``CycloProduct``; the tests compare them with this Euclidean algorithm on
the expanded polynomials, which are one-variable ``MultiPoly`` objects in t.
The algorithm works on plain coefficient lists and shares no code with the
package's expansion.
"""

from fractions import Fraction
from math import gcd, lcm

from lenumbers import MultiPoly


def t_poly(coeffs) -> MultiPoly:
    """The polynomial sum_i coeffs[i] * t^i."""
    return MultiPoly({(i,): c for i, c in enumerate(coeffs)}, 1)


def t_power_minus_one(d: int) -> MultiPoly:
    return t_poly([-1] + [0] * (d - 1) + [1])


def coefficients(p: MultiPoly) -> list[Fraction]:
    """Coefficients lowest degree first; the zero polynomial gives []."""
    out = [Fraction(0)] * (p.total_degree() + 1)
    for (e,), c in p.terms.items():
        out[e] = c
    return out


def _trim(p: list[Fraction]) -> list[Fraction]:
    while p and not p[-1]:
        p.pop()
    return p


def remainder(a: MultiPoly, b: MultiPoly) -> MultiPoly:
    """The remainder of a by a nonzero b over Q."""
    return t_poly(_remainder(coefficients(a), coefficients(b)))


def _remainder(fa: list[Fraction], fb: list[Fraction]) -> list[Fraction]:
    fa = list(fa)
    while len(fa) >= len(fb) and fa:
        factor = fa[-1] / fb[-1]
        shift = len(fa) - len(fb)
        for i, c in enumerate(fb):
            fa[shift + i] -= factor * c
        _trim(fa)
    return fa


def primitive_positive(p: MultiPoly) -> MultiPoly:
    """Scale to coprime integer coefficients with a positive leading one."""
    cs = coefficients(p)
    if not cs:
        return p
    scale = Fraction(lcm(*(c.denominator for c in cs)), gcd(*(c.numerator for c in cs)))
    return t_poly(c * scale for c in cs) * (1 if cs[-1] > 0 else -1)


def unipoly_gcd(a: MultiPoly, b: MultiPoly) -> MultiPoly:
    """Monic gcd over Q scaled to primitive integer form, leading coefficient positive."""
    fa, fb = coefficients(a), coefficients(b)
    while fb:
        fa, fb = fb, _remainder(fa, fb)
    return primitive_positive(t_poly(fa))
