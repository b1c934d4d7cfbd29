"""Characteristic polynomials kept in factored cyclotomic form.

A ``CycloProduct`` is a finite product of cyclotomic polynomials Phi_k with
positive integer exponents.  Divisibility and gcd are then plain exponent
arithmetic, immune to coefficient growth.  Expansion happens only on demand:
by Moebius inversion of t^n - 1 = prod_{d | n} Phi_d the product is a product
of binomials t^d - 1 to integer powers, multiplied out into a one-variable
``MultiPoly`` in t.  Monodromy eigenvalues of the singularities handled here
are roots of unity, so the representation is closed under everything we need.
"""

from __future__ import annotations

import re
from math import prod
from typing import Iterable, Mapping

from .errors import InputError, ResourceLimitError
from .polynomials import MAX_MONOMIALS, MultiPoly, check_power_bits, integer


# An exponent, degree or trace the package prints has at most 14,000 bits
# (4,215 decimal digits): below the 4,300 digits that Python converts between
# int and str by default.
MAX_PRINTED_BITS = 14_000

# `cyclo homchar 2 N` lists, factors and prints every divisor of N: 2^16 of
# them take about a second.
MAX_DIVISORS = 2**16


def check_printable(value: int, what: str) -> None:
    """Raise ``ResourceLimitError`` when value has more than ``MAX_PRINTED_BITS`` bits."""
    bits = abs(value).bit_length()
    if bits > MAX_PRINTED_BITS:
        raise ResourceLimitError(f"{what} has {bits} bits, over the cap of "
                                 f"{MAX_PRINTED_BITS} bits on printed integers")


def _positive(value, name: str) -> int:
    """A positive integer read through ``integer``, else an ``InputError`` naming it."""
    if integer(value, name) < 1:
        raise InputError(f"{name!r} must be a positive integer, not {value!r}")
    return value


def _factorize(k: int) -> dict[int, int]:
    factors: dict[int, int] = {}
    d = 2
    while d * d <= k:
        if d > MAX_MONOMIALS:
            raise ResourceLimitError(f"trial division of {k} passes the cap of {MAX_MONOMIALS}")
        while k % d == 0:
            factors[d] = factors.get(d, 0) + 1
            k //= d
        d += 1 if d == 2 else 2
    if k > 1:
        factors[k] = factors.get(k, 0) + 1
    return factors


def _mobius(factors: dict[int, int]) -> int:
    return 0 if any(e > 1 for e in factors.values()) else (-1) ** len(factors)


def _totient(k: int, factors: dict[int, int]) -> int:
    for p in factors:
        k = k // p * (p - 1)
    return k


def mobius(k: int) -> int:
    """Moebius function by trial factorization."""
    return _mobius(_factorize(_positive(k, "k")))


def totient(k: int) -> int:
    """Euler totient by trial factorization."""
    return _totient(k, _factorize(_positive(k, "k")))


def divisors(k: int) -> list[int]:
    """The divisors of k in increasing order: products of its prime powers.

    More than ``MAX_DIVISORS`` of them, counted from the factorization before
    the list is built, raises ``ResourceLimitError``.
    """
    factors = _factorize(_positive(k, "k"))
    count = prod(e + 1 for e in factors.values())
    if count > MAX_DIVISORS:
        raise ResourceLimitError(f"{k} has {count} divisors, over the cap of {MAX_DIVISORS}")
    divs = [1]
    for p, e in factors.items():
        divs = [d * p ** i for d in divs for i in range(e + 1)]
    return sorted(divs)


def cyclotomic(k: int) -> MultiPoly:
    """The k-th cyclotomic polynomial as a one-variable ``MultiPoly`` in t."""
    return CycloProduct({k: 1}).expand()


class CycloProduct:
    """A product prod_k Phi_k^{c_k} with positive exponents; empty means 1."""

    __slots__ = ("_factors", "_primes")

    def __init__(self, factors: Mapping[int, int] | Iterable[tuple[int, int]] = ()):
        items = factors.items() if isinstance(factors, Mapping) else factors
        clean: dict[int, int] = {}
        for k, c in items:
            k = _positive(k, "cyclotomic index")
            if integer(c, "exponent") < 0:
                raise InputError(f"negative exponent for Phi_{k}")
            if c:
                clean[k] = clean.get(k, 0) + c
        self._factors = clean
        self._primes: dict[int, dict[int, int]] | None = None

    def _index_factors(self) -> dict[int, dict[int, int]]:
        """Each index's prime factorization, found on first use and kept:
        ``degree`` and ``trace`` share it."""
        if self._primes is None:
            self._primes = {k: _factorize(k) for k in self._factors}
        return self._primes

    @property
    def factors(self) -> dict[int, int]:
        return dict(self._factors)

    def exponent(self, k: int) -> int:
        return self._factors.get(k, 0)

    def degree(self) -> int:
        """The degree, which bounds every exponent and the trace; it must pass
        ``check_printable``, so any message or report may print it."""
        primes = self._index_factors()
        degree = sum(c * _totient(k, primes[k]) for k, c in self._factors.items())
        check_printable(degree, "the degree")
        return degree

    def trace(self) -> int:
        """Sum of all roots with multiplicity: sum_k c_k * mobius(k)."""
        primes = self._index_factors()
        return sum(c * _mobius(primes[k]) for k, c in self._factors.items())

    def expand(self) -> MultiPoly:
        """The product multiplied out, as a one-variable ``MultiPoly`` in t.

        Phi_k = prod_{d | k} (t^d - 1)^mobius(k/d), so the product is
        prod_d (t^d - 1)^e_d with e_d = sum_{d | k} c_k mobius(k/d).  The
        binomials with e_d > 0 are multiplied in first, then those with
        e_d < 0 are divided out; each division is exact because the partial
        quotients are products of cyclotomic polynomials.

        The coefficient list grows to 1 + sum(d * e_d for e_d > 0) entries,
        at least 1 + k for the largest index k, since e_k = c_k.  Before any
        index is factored and again before the list is built, a length over
        the default monomial budget raises ``ResourceLimitError``.
        """
        _check_length(1 + max(self._factors, default=0))
        powers: dict[int, int] = {}
        for k, c in self._factors.items():
            for d in divisors(k):
                powers[d] = powers.get(d, 0) + c * mobius(k // d)
        _check_length(1 + sum(d * e for d, e in powers.items() if e > 0))
        coeffs = [1]  # lowest degree first
        for d, e in sorted(powers.items(), key=lambda item: -item[1]):
            for _ in range(abs(e)):
                coeffs = _times_binomial(coeffs, d) if e > 0 else _over_binomial(coeffs, d)
        return MultiPoly({(i,): c for i, c in enumerate(coeffs) if c}, 1)

    def gcd(self, other: "CycloProduct") -> "CycloProduct":
        """Pointwise minimum of exponents."""
        return CycloProduct({k: min(c, other.exponent(k)) for k, c in self._factors.items()})

    def divides(self, other: "CycloProduct") -> bool:
        return all(c <= other._factors.get(k, 0) for k, c in self._factors.items())

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
        pairs = []
        for chunk in text.split("*"):
            m = cls._FACTOR_RE.match(chunk.strip())
            if m is None:
                raise InputError(f"cannot parse cyclotomic factor {chunk.strip()!r}")
            pairs.append((int(m.group(1)), int(m.group(2) or 1)))
        return cls(pairs)


def _check_length(length: int) -> None:
    """Raise ``ResourceLimitError`` if a coefficient list of this length passes
    ``MAX_MONOMIALS``."""
    if length > MAX_MONOMIALS:
        raise ResourceLimitError(f"expanding a cyclotomic product needs {length} "
                                 f"coefficients, over the monomial budget of {MAX_MONOMIALS}")


def _times_binomial(coeffs: list[int], d: int) -> list[int]:
    """coeffs * (t^d - 1)."""
    return [a - b for a, b in zip([0] * d + coeffs, coeffs + [0] * d)]


def _over_binomial(coeffs: list[int], d: int) -> list[int]:
    """coeffs / (t^d - 1) when the division is exact: q_i = q_{i-d} - c_i."""
    q = [-c for c in coeffs[:d]]
    for start in range(d, len(coeffs), d):
        q.extend([a - b for a, b in zip(q[start - d:start], coeffs[start:start + d])])
    return q[:-d]


def cyclo_product(items: Iterable[CycloProduct]) -> CycloProduct:
    """Pointwise sum of exponents; the empty product is 1."""
    return CycloProduct([factor for item in items for factor in item._factors.items()])


def factor_unity(d: int) -> CycloProduct:
    """t^d - 1 in factored form: exponent 1 at every divisor of d."""
    return CycloProduct({k: 1 for k in divisors(_positive(d, "d"))})


def homogeneous_char_exponents(n: int, d: int) -> tuple[int, int]:
    """Exponent pair (a0, b0) of the monodromy characteristic polynomial of a
    homogeneous isolated singularity of degree d in n variables.

    The Milnor number (d-1)^n bounds a0, b0, the degree and the trace; it
    must pass ``check_printable``.
    """
    _positive(n, "ambient dimension n")
    if integer(d, "degree") < 2:
        raise InputError("degree must be at least 2")
    sign = (-1) ** n
    check_power_bits(d - 1, n)
    milnor = (d - 1) ** n
    check_printable(milnor, "the Milnor number (d-1)^n")
    # exact, since (d-1)^n = (-1)^n mod d
    b0 = (milnor - sign) // d
    return b0 + sign, b0


def homogeneous_char(n: int, d: int) -> CycloProduct:
    """(t-1)^a0 * ((t^d-1)/(t-1))^b0 in factored form; degree (d-1)^n."""
    a0, b0 = homogeneous_char_exponents(n, d)
    return CycloProduct({1: a0, **dict.fromkeys(divisors(d)[1:], b0)})
