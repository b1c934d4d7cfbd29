"""Exact polynomial arithmetic over the rationals.

A polynomial is an immutable sparse map from exponent tuples to nonzero
``Fraction`` coefficients; the one-variable case also carries the expanded
cyclotomic products of ``cyclo``.  No floating point is used anywhere:
intersection multiplicities and divisibility are exact statements.

The canonical term order for printing and equality is graded lexicographic,
so printed forms are deterministic and ``parse_poly`` inverts ``to_string``.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import gcd, lcm, prod
from operator import add, le
from typing import Callable, Iterable, Mapping, Sequence

from .errors import InputError, PolyParseError, ResourceLimitError

Monomial = tuple[int, ...]

# The one default cap on work measured in monomials: the default monomial budget
# of a standard basis, the most term pairs of one product, the longest expanded
# cyclotomic product, the largest trial divisor and the most divisors of a
# cyclotomic index, and the entries of a block-cycle matrix.  It also caps the
# bits of one power, through ``check_power_bits``.
MAX_MONOMIALS = 1_000_000


def rational(value) -> Fraction:
    """An exact rational read from an int, a ``Fraction``, a string or a float.

    A float is read through its repr, so 0.1 is 1/10, as the CLI reads a JSON
    number.  A bool, or any other type, is an ``InputError``.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, (int, str, float)) and not isinstance(value, bool):
        try:
            return Fraction(repr(value) if isinstance(value, float) else value)
        except (ValueError, ZeroDivisionError):
            pass
    raise InputError(f"cannot read {value!r} as a rational number")


def integer(value, name: str) -> int:
    """An exact count: an ``int`` that is not a bool, else an ``InputError`` naming it."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise InputError(f"{name!r} must be an integer, not {value!r}")
    return value


def mono_mul(a: Monomial, b: Monomial) -> Monomial:
    return tuple(map(add, a, b))


def mono_divides(a: Monomial, b: Monomial) -> bool:
    """True iff x^a divides x^b."""
    return all(map(le, a, b))


def mono_deg(a: Monomial) -> int:
    return sum(a)


def _grlex_key(m: Monomial) -> tuple[int, Monomial]:
    return (mono_deg(m), m)


class MultiPoly:
    """Immutable multivariate polynomial with exact rational coefficients.

    Terms map exponent tuples (one entry per variable) to nonzero Fractions;
    the zero polynomial has an empty term map.  Coefficients, constants and
    scalars from outside are read by ``rational``, exponents by ``integer``.
    Arithmetic returns new objects; instances are safe to share between
    threads.  A product of more than ``MAX_MONOMIALS`` term pairs, or a power
    of more than as many coefficient bits, raises ``ResourceLimitError``.
    """

    __slots__ = ("_terms", "nvars")

    def __init__(self, terms: Mapping[Monomial, object] | Iterable[tuple[Monomial, object]], nvars: int):
        if nvars < 1:
            raise InputError("a polynomial needs at least one variable")
        items = terms.items() if isinstance(terms, Mapping) else terms
        clean: dict[Monomial, Fraction] = {}
        for mono, coeff in items:
            mono = tuple(integer(e, "exponent") for e in mono)
            if len(mono) != nvars or any(e < 0 for e in mono):
                raise InputError(f"bad exponent vector {mono!r} for {nvars} variable(s)")
            c = clean.get(mono, Fraction(0)) + rational(coeff)
            if c:
                clean[mono] = c
            else:
                clean.pop(mono, None)
        self._terms = clean
        self.nvars = nvars

    @classmethod
    def _raw(cls, terms: dict[Monomial, Fraction], nvars: int) -> "MultiPoly":
        # internal fast path: terms must already be canonical
        p = object.__new__(cls)
        p._terms = terms
        p.nvars = nvars
        return p

    @classmethod
    def zero(cls, nvars: int) -> "MultiPoly":
        return cls._raw({}, nvars)

    @classmethod
    def constant(cls, value, nvars: int) -> "MultiPoly":
        c = rational(value)
        return cls._raw({(0,) * nvars: c} if c else {}, nvars)

    @classmethod
    def variable(cls, index: int, nvars: int) -> "MultiPoly":
        if not 0 <= index < nvars:
            raise InputError(f"variable index {index} out of range for {nvars} variable(s)")
        exps = [0] * nvars
        exps[index] = 1
        return cls._raw({tuple(exps): Fraction(1)}, nvars)

    @property
    def terms(self) -> dict[Monomial, Fraction]:
        """The internal term map; callers must not mutate it."""
        return self._terms

    @property
    def is_zero(self) -> bool:
        return not self._terms

    def total_degree(self) -> int:
        """Maximum total degree of a term, or -1 for the zero polynomial."""
        return max((mono_deg(m) for m in self._terms), default=-1)

    def constant_term(self) -> Fraction:
        return self._terms.get((0,) * self.nvars, Fraction(0))

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __eq__(self, other) -> bool:
        if not isinstance(other, MultiPoly):
            return NotImplemented
        return self.nvars == other.nvars and self._terms == other._terms

    def __hash__(self) -> int:
        return hash((self.nvars, frozenset(self._terms.items())))

    def __neg__(self) -> "MultiPoly":
        return MultiPoly._raw({m: -c for m, c in self._terms.items()}, self.nvars)

    def _combine(self, other: "MultiPoly", sign: int) -> "MultiPoly":
        if self.nvars != other.nvars:
            raise InputError("variable counts differ")
        out = dict(self._terms)
        for m, c in other._terms.items():
            v = out.get(m, Fraction(0)) + sign * c
            if v:
                out[m] = v
            else:
                out.pop(m, None)
        return MultiPoly._raw(out, self.nvars)

    def __add__(self, other: "MultiPoly") -> "MultiPoly":
        return self._combine(other, 1)

    def __sub__(self, other: "MultiPoly") -> "MultiPoly":
        return self._combine(other, -1)

    def __mul__(self, other) -> "MultiPoly":
        if isinstance(other, MultiPoly):
            if self.nvars != other.nvars:
                raise InputError("variable counts differ")
            # integer products, then one division per term: several times faster than
            # Fraction arithmetic, so a product at the cap takes well under a second
            da, a = scaled_terms(self._terms)
            db, b = scaled_terms(other._terms)
            return MultiPoly._raw({m: Fraction(v, da * db) for m, v in _product(a, b).items()},
                                  self.nvars)
        c = rational(other)
        if not c:
            return MultiPoly.zero(self.nvars)
        return MultiPoly._raw({m: co * c for m, co in self._terms.items()}, self.nvars)

    def __rmul__(self, other) -> "MultiPoly":
        return self.__mul__(other)

    def __pow__(self, exponent: int) -> "MultiPoly":
        if integer(exponent, "exponent") < 0:
            raise InputError("negative polynomial power")
        # with D the lcm of the denominators, numerators and denominators of the
        # power have up to exponent * log2(max(D, |D * self|_1)) bits
        d, scaled = scaled_terms(self._terms)
        check_power_bits(max(d, sum(map(abs, scaled.values()))), exponent)
        # repeated squaring: one product per bit after the first for the squares,
        # one per set bit for the result
        base, result = self, MultiPoly.constant(1, self.nvars)
        while exponent:
            if exponent & 1:
                result = result * base
            exponent >>= 1
            if exponent:
                base = base * base
        return result

    def term_mul(self, mono: Monomial, coeff: Fraction) -> "MultiPoly":
        """Multiply by the single term coeff * x^mono."""
        if not self._terms or not coeff:
            return MultiPoly.zero(self.nvars)
        return MultiPoly._raw(
            {mono_mul(m, mono): c * coeff for m, c in self._terms.items()}, self.nvars
        )

    def partial(self, index: int) -> "MultiPoly":
        """Formal partial derivative with respect to variable ``index``."""
        if not 0 <= index < self.nvars:
            raise InputError(f"variable index {index} out of range for {self.nvars} variable(s)")
        out: dict[Monomial, Fraction] = {}
        for m, c in self._terms.items():
            e = m[index]
            if e:
                lowered = m[:index] + (e - 1,) + m[index + 1:]
                out[lowered] = c * e
        return MultiPoly._raw(out, self.nvars)

    def restrict_first_var(self) -> "MultiPoly":
        """Substitute 0 for variable 0 and drop that coordinate."""
        if self.nvars < 2:
            raise InputError("restriction needs at least two variables")
        out = {m[1:]: c for m, c in self._terms.items() if m[0] == 0}
        return MultiPoly._raw(out, self.nvars - 1)

    def linear_change(self, matrix: Sequence[Sequence]) -> "MultiPoly":
        """Compose with the substitution z -> M z.

        Variable i is replaced by the linear form given by row i of M.  The
        matrix must be square of size nvars and invertible.
        """
        n = self.nvars
        rows = [[rational(v) for v in row] for row in matrix]
        if len(rows) != n or any(len(r) != n for r in rows):
            raise InputError("matrix size must match the variable count")
        from .intlinalg import bareiss_rank  # intlinalg imports this module

        # integer arithmetic, as in a product: variable i goes to images[i] / dens[i],
        # and the result has one denominator, d * prod(dens[i] ** tops[i]) with
        # tops[i] the top exponent of variable i
        dens = [lcm(*(c.denominator for c in row)) for row in rows]
        cleared = [[int(c * den) for c in row] for row, den in zip(rows, dens)]
        if bareiss_rank(cleared) < n:
            raise InputError("singular matrix in linear change of coordinates")
        d, scaled = scaled_terms(self._terms)
        images = [{(0,) * j + (1,) + (0,) * (n - j - 1): v for j, v in enumerate(row) if v}
                  for row in cleared]
        tops = [max((m[i] for m in scaled), default=0) for i in range(n)]
        powers: list[list[dict[Monomial, int]]] = [[{(0,) * n: 1}] for _ in range(n)]
        out: dict[Monomial, int] = {}
        for m, c in scaled.items():
            term = {(0,) * n: c * prod(den ** (top - e) for den, top, e in zip(dens, tops, m))}
            for i, e in enumerate(m):
                cache = powers[i]
                while len(cache) <= e:
                    cache.append(_product(cache[-1], images[i]))
                term = _product(term, cache[e])
            for mono, v in term.items():
                v += out.get(mono, 0)
                if v:
                    out[mono] = v
                else:
                    out.pop(mono, None)
        denominator = d * prod(den ** top for den, top in zip(dens, tops))
        return MultiPoly._raw({m: Fraction(v, denominator) for m, v in out.items()}, n)

    def to_string(self, names: Sequence[str] | None = None) -> str:
        """Render in graded-lex descending order; output re-parses exactly."""
        if names is None:
            names = [f"x{i}" for i in range(self.nvars)]
        if len(names) != self.nvars:
            raise InputError("wrong number of variable names")
        if not self._terms:
            return "0"
        pieces: list[str] = []
        for m in sorted(self._terms, key=_grlex_key, reverse=True):
            c = self._terms[m]
            factors = []
            for name, e in zip(names, m):
                if e == 1:
                    factors.append(name)
                elif e > 1:
                    factors.append(f"{name}^{e}")
            mag = abs(c)
            if mag != 1 or not factors:
                factors.insert(0, str(mag))
            body = "*".join(factors)
            if not pieces:
                pieces.append(body if c > 0 else f"-{body}")
            else:
                pieces.append(f"{'+' if c > 0 else '-'} {body}")
        return " ".join(pieces)

    def __str__(self) -> str:
        return self.to_string()

    def __repr__(self) -> str:
        return f"MultiPoly({self.to_string()!r}, nvars={self.nvars})"


def _product(a: dict[Monomial, int], b: dict[Monomial, int]) -> dict[Monomial, int]:
    """The product of two polynomials with integer terms; ``ResourceLimitError``
    past ``MAX_MONOMIALS`` term pairs."""
    if len(a) * len(b) > MAX_MONOMIALS:
        raise ResourceLimitError(f"a product of {len(a)} by {len(b)} "
                                 f"terms passes the monomial cap of {MAX_MONOMIALS}")
    out: dict[Monomial, int] = {}
    for ma, ca in a.items():
        for mb, cb in b.items():
            m = mono_mul(ma, mb)
            v = out.get(m, 0) + ca * cb
            if v:
                out[m] = v
            else:
                out.pop(m, None)
    return out


def scaled_terms(terms: dict[Monomial, Fraction]) -> tuple[int, dict[Monomial, int]]:
    """The lcm d of the denominators, and the integer terms of d times the polynomial."""
    d = lcm(*(c.denominator for c in terms.values()))
    return d, {m: c.numerator * (d // c.denominator) for m, c in terms.items()}


def check_power_bits(base: int, exponent: int) -> None:
    """Raise ``ResourceLimitError`` when base ** exponent, for a positive int base,
    needs more than ``MAX_MONOMIALS`` bits: exponent * floor(log2(base)) of them."""
    bits = exponent * (base.bit_length() - 1)
    if bits > MAX_MONOMIALS:
        raise ResourceLimitError(f"raising to the power {exponent} needs about {bits} "
                                 f"coefficient bits, over the cap of {MAX_MONOMIALS}")


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------

_NAME = r"[A-Za-z_][A-Za-z_0-9]*"
_TOKEN = re.compile(rf"\s*(?:(?P<num>\d+)|(?P<name>{_NAME})"
                    r"|(?P<op>[+\-*^()/])|(?P<bad>\S))")


def variable_index(names: Sequence[str]) -> dict[str, int]:
    """{name: position} for distinct identifiers, else ``InputError``."""
    for name in names:
        if not isinstance(name, str) or not re.fullmatch(_NAME, name):
            raise InputError(f"variable names must be identifiers, not {name!r}")
    index = {name: i for i, name in enumerate(names)}
    if len(index) != len(names):
        raise InputError("duplicate variable names")
    return index


def parse_poly(text: str, names: Sequence[str]) -> MultiPoly:
    """Parse an expression over the named variables into canonical expanded form.

    The grammar, with no implicit multiplication and '/' only in a literal p/q::

        sum     := product (('+' | '-') product)*
        product := factor ('*' factor)*
        factor  := ('+' | '-')* (int ['/' int] | name | '(' sum ')') ['^' int]

    Malformed text, too-deep nesting included, is a ``PolyParseError`` at the
    offending token; a bad character anywhere is reported first, then the
    first of ``names`` that is not a name, or a repeated name (``InputError``).
    A product past ``MAX_MONOMIALS`` term pairs, or a power past as many
    coefficient bits, raises ``ResourceLimitError``.
    """
    tokens = []
    for m in _TOKEN.finditer(text):
        kind = m.lastgroup
        value, pos = m.group(kind), m.start(kind)
        if kind == "bad":
            raise PolyParseError(f"unexpected character {value!r}", pos)
        tokens.append((value if kind == "op" else kind,
                       int(value) if kind == "num" else value, pos))
    tokens.append(("end", None, len(text)))
    index = variable_index(names)
    i = 0

    def take(*kinds):
        """The next token, consumed; given kinds, only a token of one of them, else None."""
        nonlocal i
        tok = tokens[i]
        if kinds and tok[0] not in kinds:
            return None
        i += 1
        return tok

    def sum_() -> MultiPoly:
        value = product()
        while op := take("+", "-"):
            value = value + product() if op[0] == "+" else value - product()
        return value

    def product() -> MultiPoly:
        value = factor()
        while take("*"):
            value = value * factor()
        return value

    def factor() -> MultiPoly:
        negate = False
        while sign := take("+", "-"):
            negate ^= sign[0] == "-"
        kind, value, pos = take()
        if kind == "num":
            number = Fraction(value)
            if take("/"):
                kind, den, pos = take()
                if kind != "num" or den == 0:
                    raise PolyParseError("denominator must be a nonzero integer", pos)
                number /= den
            base = MultiPoly.constant(number, len(index))
        elif kind == "name":
            if value not in index:
                raise PolyParseError(f"unknown variable {value!r}", pos)
            base = MultiPoly.variable(index[value], len(index))
        elif kind == "(":
            base = sum_()
            kind, _, pos = take()
            if kind != ")":
                raise PolyParseError("expected ')'", pos)
        else:
            raise PolyParseError(f"unexpected token {value!r}", pos)
        if take("^"):
            kind, exponent, pos = take()
            if kind != "num":
                raise PolyParseError("exponent must be a nonnegative integer", pos)
            base = base ** exponent
        return -base if negate else base

    try:
        result = sum_()
    except RecursionError:  # reported at the last token read
        raise PolyParseError("parentheses nested too deeply", tokens[i - 1][2]) from None
    if not take("end"):
        raise PolyParseError(f"unexpected token {tokens[i][1]!r}", tokens[i][2])
    return result


def eliminate_linear(hs: Sequence[dict[Monomial, int]], nvars: int,
                     charge: Callable[[int], object]) -> tuple[list[dict[Monomial, int]], int]:
    """(hs', n'): while some lin in hs is exactly linear (every term of degree
    1), lin = c·x_v + rest with x_v its first variable is dropped, and each
    other h becomes c^e·h with x_v = −rest/c substituted and x_v dropped,
    over its content, zeros dropped, for e the top exponent of x_v in h (0
    when rest = 0); n' is nvars less the number dropped.  All on integer
    terms.  ``charge`` gets the terms of each power of −rest built, and of
    each result, at least 1; rest = 0 builds no power."""
    while lin := next((h for h in hs if all(mono_deg(m) == 1 for m in h)), None):
        lm = max(lin)
        v, c = lm.index(1), lin[lm]
        image = {m[:v] + m[v + 1:]: -a for m, a in lin.items() if m != lm}
        hs, nvars = [h for h in hs if h is not lin], nvars - 1
        # the powers of −rest that the exponents of x_v call for
        needed = {m[v] for h in hs for m in h} if image else {0}
        powers, power = {}, {(0,) * nvars: 1}
        for k in range(max(needed, default=0) + 1):
            if k:
                power = _product(power, image)
                charge(len(power))
            if k in needed:
                powers[k] = power
        out = []
        for h in hs:
            e, g = max(m[v] for m in h) if image else 0, {}
            for m, a in h.items():
                if m[v] in powers:
                    a *= c ** (e - m[v])
                    for p, b in powers[m[v]].items():
                        p = mono_mul(m[:v] + m[v + 1:], p)
                        g[p] = g.get(p, 0) + a * b
            g = {m: a for m, a in g.items() if a}
            charge(max(1, len(g)))
            if g:
                content = gcd(*g.values())
                out.append({m: a // content for m, a in g.items()})
        hs = out
    return list(hs), nvars
