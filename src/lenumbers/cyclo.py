"""Characteristic polynomials kept in factored cyclotomic form.

A ``CycloProduct`` is a finite product of cyclotomic polynomials Phi_k with
positive integer exponents.  Divisibility and gcd are then plain exponent
arithmetic, immune to coefficient growth; expansion to Z[t] happens only on
demand.  Monodromy eigenvalues of the singularities handled here are roots
of unity, so the representation is closed under everything we need.
"""

from __future__ import annotations

import re
from functools import lru_cache
from typing import Iterable, Mapping

from .errors import InputError, InvariantViolationError
from .polynomials import UniPoly

def _factorize(k: int) -> dict[int, int]:
    factors: dict[int, int] = {}
    d = 2
    while d * d <= k:
        while k % d == 0:
            factors[d] = factors.get(d, 0) + 1
            k //= d
        d += 1 if d == 2 else 2
    if k > 1:
        factors[k] = factors.get(k, 0) + 1
    return factors


def mobius(k: int) -> int:
    """Moebius function by trial factorization."""
    if k < 1:
        raise InputError("mobius needs a positive integer")
    factors = _factorize(k)
    return 0 if any(e > 1 for e in factors.values()) else (-1) ** len(factors)


def totient(k: int) -> int:
    """Euler totient by trial factorization."""
    if k < 1:
        raise InputError("totient needs a positive integer")
    value = k
    for p in _factorize(k):
        value = value // p * (p - 1)
    return value


def divisors(k: int) -> list[int]:
    small, large = [], []
    d = 1
    while d * d <= k:
        if k % d == 0:
            small.append(d)
            if d != k // d:
                large.append(k // d)
        d += 1
    return small + large[::-1]


@lru_cache(maxsize=None)
def cyclotomic(k: int) -> UniPoly:
    """The k-th cyclotomic polynomial, by exact division of t^k - 1."""
    if k < 1:
        raise InputError("cyclotomic index must be positive")
    numerator = UniPoly.t_power_minus_one(k)
    for d in divisors(k):
        if d < k:
            numerator = numerator.exact_div(cyclotomic(d))
    return numerator


class CycloProduct:
    """A product prod_k Phi_k^{c_k} with positive exponents; empty means 1."""

    __slots__ = ("_factors",)

    def __init__(self, factors: Mapping[int, int] | Iterable[tuple[int, int]] = ()):
        items = factors.items() if isinstance(factors, Mapping) else factors
        clean: dict[int, int] = {}
        for k, c in items:
            k, c = int(k), int(c)
            if k < 1:
                raise InputError(f"cyclotomic index {k} must be positive")
            if c < 0:
                raise InputError(f"negative exponent for Phi_{k}")
            if c:
                clean[k] = clean.get(k, 0) + c
        self._factors = clean

    @property
    def factors(self) -> dict[int, int]:
        return dict(self._factors)

    def exponent(self, k: int) -> int:
        return self._factors.get(k, 0)

    def degree(self) -> int:
        return sum(c * totient(k) for k, c in self._factors.items())

    def trace(self) -> int:
        """Sum of all roots with multiplicity: sum_k c_k * mobius(k)."""
        return sum(c * mobius(k) for k, c in self._factors.items())

    def expand(self) -> UniPoly:
        result = UniPoly.one()
        for k in sorted(self._factors):
            phi = cyclotomic(k)
            for _ in range(self._factors[k]):
                result = result * phi
        return result

    def gcd(self, other: "CycloProduct") -> "CycloProduct":
        """Pointwise minimum of exponents."""
        out = {}
        for k, c in self._factors.items():
            m = min(c, other._factors.get(k, 0))
            if m:
                out[k] = m
        return CycloProduct(out)

    def divides(self, other: "CycloProduct") -> bool:
        return all(c <= other._factors.get(k, 0) for k, c in self._factors.items())

    def __mul__(self, other: "CycloProduct") -> "CycloProduct":
        out = dict(self._factors)
        for k, c in other._factors.items():
            out[k] = out.get(k, 0) + c
        return CycloProduct(out)

    def __eq__(self, other) -> bool:
        if not isinstance(other, CycloProduct):
            return NotImplemented
        return self._factors == other._factors

    def __hash__(self) -> int:
        return hash(frozenset(self._factors.items()))

    def __str__(self) -> str:
        if not self._factors:
            return "1"
        parts = []
        for k in sorted(self._factors):
            c = self._factors[k]
            parts.append(f"Phi_{k}" if c == 1 else f"Phi_{k}^{c}")
        return " * ".join(parts)

    def __repr__(self) -> str:
        return f"CycloProduct({self})"

    _FACTOR_RE = re.compile(r"^Phi_(\d+)(?:\^(\d+))?$")

    @classmethod
    def parse(cls, text: str) -> "CycloProduct":
        """Inverse of str(): 'Phi_1^2 * Phi_3', or '1' for the empty product."""
        text = text.strip()
        if text == "1":
            return cls()
        factors: dict[int, int] = {}
        for chunk in text.split("*"):
            m = cls._FACTOR_RE.match(chunk.strip())
            if m is None:
                raise InputError(f"cannot parse cyclotomic factor {chunk.strip()!r}")
            k = int(m.group(1))
            c = int(m.group(2) or 1)
            factors[k] = factors.get(k, 0) + c
        return cls(factors)


def cyclo_product(items: Iterable[CycloProduct]) -> CycloProduct:
    """Pointwise sum of exponents; the empty product is 1."""
    out = CycloProduct()
    for item in items:
        out = out * item
    return out


def factor_unity(d: int) -> CycloProduct:
    """t^d - 1 in factored form: exponent 1 at every divisor of d."""
    if d < 1:
        raise InputError("factor_unity needs a positive integer")
    return CycloProduct({k: 1 for k in divisors(d)})


def homogeneous_char_exponents(n: int, d: int) -> tuple[int, int]:
    """Exponent pair (a0, b0) of the monodromy characteristic polynomial of a
    homogeneous isolated singularity of degree d in n variables."""
    if n < 1:
        raise InputError("ambient dimension n must be positive")
    if d < 2:
        raise InputError("degree must be at least 2")
    sign = (-1) ** n
    numerator = (d - 1) ** n - sign
    if numerator % d:
        raise InvariantViolationError(f"b0 is not an integer for n={n}, d={d}")
    b0 = numerator // d
    return b0 + sign, b0


def homogeneous_char(n: int, d: int) -> CycloProduct:
    """(t-1)^a0 * ((t^d-1)/(t-1))^b0 in factored form; degree (d-1)^n."""
    a0, b0 = homogeneous_char_exponents(n, d)
    factors = {1: a0}
    for k in divisors(d):
        if k > 1:
            factors[k] = b0
    return CycloProduct(factors)
