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
from operator import add, le, sub
from typing import Iterable, Mapping, Sequence

from .errors import InputError, PolyParseError

Monomial = tuple[int, ...]


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


def mono_div(a: Monomial, b: Monomial) -> Monomial:
    """Exponent vector of x^a / x^b; the caller guarantees divisibility."""
    return tuple(map(sub, a, b))


def mono_lcm(a: Monomial, b: Monomial) -> Monomial:
    return tuple(map(max, a, b))


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
    threads.
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
            out: dict[Monomial, Fraction] = {}
            for ma, ca in self._terms.items():
                for mb, cb in other._terms.items():
                    m = mono_mul(ma, mb)
                    v = out.get(m, Fraction(0)) + ca * cb
                    if v:
                        out[m] = v
                    else:
                        out.pop(m, None)
            return MultiPoly._raw(out, self.nvars)
        c = rational(other)
        if not c:
            return MultiPoly.zero(self.nvars)
        return MultiPoly._raw({m: co * c for m, co in self._terms.items()}, self.nvars)

    def __rmul__(self, other) -> "MultiPoly":
        return self.__mul__(other)

    def __pow__(self, exponent: int) -> "MultiPoly":
        if exponent < 0:
            raise InputError("negative polynomial power")
        result = MultiPoly.constant(1, self.nvars)
        base = self
        e = exponent
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
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

    def insert_var(self, position: int = 0) -> "MultiPoly":
        """Reinterpret in one more variable, with exponent 0 at ``position``."""
        if not 0 <= position <= self.nvars:
            raise InputError("bad insertion position")
        out = {m[:position] + (0,) + m[position:]: c for m, c in self._terms.items()}
        return MultiPoly._raw(out, self.nvars + 1)

    def evaluate(self, values: Sequence) -> Fraction:
        vals = [rational(v) for v in values]
        if len(vals) != self.nvars:
            raise InputError("wrong number of values")
        total = Fraction(0)
        for m, c in self._terms.items():
            term = c
            for e, v in zip(m, vals):
                if e:
                    term *= v ** e
            total += term
        return total

    def linear_change(self, matrix: Sequence[Sequence]) -> "MultiPoly":
        """Compose with the substitution z -> M z.

        Variable i is replaced by the linear form given by row i of M.  The
        matrix must be square of size nvars and invertible.
        """
        n = self.nvars
        rows = [[rational(v) for v in row] for row in matrix]
        if len(rows) != n or any(len(r) != n for r in rows):
            raise InputError("matrix size must match the variable count")
        if not _det(rows):
            raise InputError("singular matrix in linear change of coordinates")
        images = [
            MultiPoly([((0,) * j + (1,) + (0,) * (n - j - 1), rows[i][j]) for j in range(n)], n)
            for i in range(n)
        ]
        powers: list[list[MultiPoly]] = [[MultiPoly.constant(1, n)] for _ in range(n)]
        result = MultiPoly.zero(n)
        for m, c in self._terms.items():
            term = MultiPoly.constant(c, n)
            for i, e in enumerate(m):
                cache = powers[i]
                while len(cache) <= e:
                    cache.append(cache[-1] * images[i])
                term = term * cache[e]
            result = result + term
        return result

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


def _det(rows: list[list[Fraction]]) -> Fraction:
    n = len(rows)
    a = [row[:] for row in rows]
    det = Fraction(1)
    for col in range(n):
        pivot = next((r for r in range(col, n) if a[r][col]), None)
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            a[col], a[pivot] = a[pivot], a[col]
            det = -det
        det *= a[col][col]
        inv = 1 / a[col][col]
        for r in range(col + 1, n):
            if a[r][col]:
                factor = a[r][col] * inv
                a[r] = [x - factor * y for x, y in zip(a[r], a[col])]
    return det


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------

_TOKEN = re.compile(r"(?P<num>\d+)|(?P<name>[A-Za-z_][A-Za-z_0-9]*)|(?P<op>[+\-*^()/])")


def _tokenize(text: str) -> list[tuple[str, object, int]]:
    tokens = []
    pos = 0
    while pos < len(text):
        ch = text[pos]
        if ch.isspace():
            pos += 1
            continue
        m = _TOKEN.match(text, pos)
        if m is None:
            raise PolyParseError(f"unexpected character {ch!r}", pos)
        if m.lastgroup == "num":
            tokens.append(("num", int(m.group()), pos))
        elif m.lastgroup == "name":
            tokens.append(("name", m.group(), pos))
        else:
            tokens.append((m.group(), m.group(), pos))
        pos = m.end()
    tokens.append(("end", None, len(text)))
    return tokens


class _PolyParser:
    """Recursive-descent parser for +, -, *, ^ expressions over named variables.

    Rational literals are written p/q; '/' is not a general operator and
    implicit multiplication is not accepted.
    """

    def __init__(self, text: str, names: Sequence[str]):
        self.tokens = _tokenize(text)
        self.pos = 0
        self.names = list(names)
        self.index = {name: i for i, name in enumerate(self.names)}
        if len(self.index) != len(self.names):
            raise InputError("duplicate variable names")
        self.nvars = len(self.names)

    def peek(self):
        return self.tokens[self.pos]

    def take(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind: str):
        tok = self.take()
        if tok[0] != kind:
            raise PolyParseError(f"expected {kind!r}", tok[2])
        return tok

    def parse(self) -> MultiPoly:
        p = self.expr()
        tok = self.peek()
        if tok[0] != "end":
            raise PolyParseError(f"unexpected token {tok[1]!r}", tok[2])
        return p

    def expr(self) -> MultiPoly:
        value = self.term()
        while self.peek()[0] in ("+", "-"):
            op = self.take()[0]
            rhs = self.term()
            value = value + rhs if op == "+" else value - rhs
        return value

    def term(self) -> MultiPoly:
        value = self.unary()
        while self.peek()[0] == "*":
            self.take()
            value = value * self.unary()
        return value

    def unary(self) -> MultiPoly:
        tok = self.peek()
        if tok[0] in ("+", "-"):
            self.take()
            inner = self.unary()
            return inner if tok[0] == "+" else -inner
        return self.factor()

    def factor(self) -> MultiPoly:
        base = self.atom()
        if self.peek()[0] == "^":
            self.take()
            tok = self.take()
            if tok[0] != "num":
                raise PolyParseError("exponent must be a nonnegative integer", tok[2])
            return base ** tok[1]
        return base

    def atom(self) -> MultiPoly:
        tok = self.take()
        if tok[0] == "num":
            value = Fraction(tok[1])
            if self.peek()[0] == "/":
                self.take()
                den = self.take()
                if den[0] != "num" or den[1] == 0:
                    raise PolyParseError("denominator must be a nonzero integer", den[2])
                value /= den[1]
            return MultiPoly.constant(value, self.nvars)
        if tok[0] == "name":
            idx = self.index.get(tok[1])
            if idx is None:
                raise PolyParseError(f"unknown variable {tok[1]!r}", tok[2])
            return MultiPoly.variable(idx, self.nvars)
        if tok[0] == "(":
            inner = self.expr()
            self.expect(")")
            return inner
        raise PolyParseError(f"unexpected token {tok[1]!r}", tok[2])


def parse_poly(text: str, names: Sequence[str]) -> MultiPoly:
    """Parse an expression over the named variables into canonical expanded form."""
    return _PolyParser(text, names).parse()
