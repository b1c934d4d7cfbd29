"""Univariate gcd over Q, an oracle for the factored cyclotomic gcd.

The package computes gcds of characteristic polynomials as exponent minima
in ``CycloProduct``; the tests compare them with this Euclidean algorithm on
the expanded integer polynomials.
"""

from fractions import Fraction
from math import gcd

from lenumbers import UniPoly


def primitive_positive(p: UniPoly) -> UniPoly:
    """Divide by the content and force a positive leading coefficient."""
    if p.is_zero:
        return p
    g = gcd(*p.coeffs)
    if p.coeffs[-1] < 0:
        g = -g
    return UniPoly(c // g for c in p.coeffs)


def unipoly_gcd(a: UniPoly, b: UniPoly) -> UniPoly:
    """Monic gcd over Q scaled to primitive integer form, leading coefficient positive."""
    fa = [Fraction(c) for c in a.coeffs]
    fb = [Fraction(c) for c in b.coeffs]

    def trim(p: list[Fraction]) -> list[Fraction]:
        while p and not p[-1]:
            p.pop()
        return p

    fa, fb = trim(fa), trim(fb)
    while fb:
        # remainder of fa by fb over Q
        while len(fa) >= len(fb) and fa:
            factor = fa[-1] / fb[-1]
            shift = len(fa) - len(fb)
            for i, c in enumerate(fb):
                fa[shift + i] -= factor * c
            trim(fa)
        fa, fb = fb, fa
    if not fa:
        return UniPoly()
    denom = 1
    for c in fa:
        denom = denom * c.denominator // gcd(denom, c.denominator)
    return primitive_positive(UniPoly((c * denom).numerator for c in fa))
