"""Local computations at the origin of affine space over Q.

The ambient ring is the localization of Q[x_1..x_n] at the origin, so a
polynomial is a unit exactly when its constant term is nonzero.  Monomial
orders are anti-graded (1 is the largest monomial), division is Mora's weak
normal form with ecart bookkeeping, and standard bases are computed by
S-polynomial completion.  Colengths of zero-dimensional ideals realize
intersection multiplicities and Milnor numbers; ``colength`` returns None for
an ideal that is not zero-dimensional, whose colength is infinite.  Before it
completes, ``colength`` substitutes one variable of each exactly linear
generator, the one the others raise to the least power, into the others and
drops it, which keeps the quotient ring.

Standard-basis completion, ideal membership and Mora division run one
fraction-free Mora loop, ``_reduce``: the polynomials are dicts from packed
monomials to integer coefficients, and each S-polynomial and each Mora step
is a nonzero integer multiple of the same step over Q.  Division tracks the
witnesses it reads as further entries of the reduction state, which every
step updates alike: ``mora_divide`` its unit and quotients, a colon only its
quotient.  Leading monomials, ecarts and reducer choices are those over Q.
Content is divided out in three places only: a remainder joining a basis,
or a basis element cut at the highest corner, is made primitive (so the
bases are those over Q); ``mora_divide`` ends by dividing by U(0), and a
colon generator is made primitive; ``ideal`` normalizes generators.  A
reduction never divides its state.  Polynomials cross the module boundary
with ``Fraction`` coefficients only when read: an ``Ideal`` is stored once,
as its generators' primitive integer terms, which ``ideal_sum``
concatenates, the completion packs, and ``ideal_quotient`` and ``saturate``
lift by shifting exponents; a ``StandardBasis`` keeps the
completion's integer records, ``colength`` reads the completion's own
staircase count, and a colon divides the elimination basis's records by g
in the completion's own packing.

Inside that loop a monomial is one int (Bachmann and Schönemann, "Monomial
representations for Gröbner bases computations", ISSAC 1998): the fields
(total degree, x_0, .., x_(n-1)), from high bits to low, each with a guard
bit above it.  A product of monomials is a sum of ints; the int order is
grlex, so a grlex-leading term and the largest degree of an ecart are a plain
``max``; the degree is a shift; and x^a divides x^b iff b − a sets no guard
bit.  The lcm of an S-pair is taken on the packed ints too, once, when the
pair is queued.  Each call sizes the fields from its inputs' largest degree
with 16 bits of headroom, and a product or lcm whose degree would reach the
field limit raises ``ResourceLimitError`` instead of wrapping into the next
field.  Monomials are packed where polynomials enter the loop and unpacked
where they leave it; everywhere else a monomial is an exponent tuple.

Under a local degree order, a standard basis whose leading ideal becomes
zero-dimensional is truncated at its highest corner: if every monomial of
degree K lies in the leading ideal, then m^K ⊆ I + m^(K+1), so m^K ⊆ I by
Nakayama's lemma, and terms of degree >= K can be dropped everywhere without
changing the ideal.  This bounds the polynomials and their coefficients.
Completion skips the S-pairs that Buchberger's chain criterion makes
redundant; the criterion holds for local and mixed orders too.  It forms no
pair inside an ideal's standard prefix, the generators that ``ideal_quotient``
and ``saturate`` return as a local standard basis.

Blowups are caught by hard resource budgets: every completion and reduction
is charged to a ``Budget`` (a default one when the caller passes none), and
exceeding it raises ``ResourceLimitError``; a wrong answer is never returned
instead.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, partial
from heapq import heappop, heappush
from itertools import product
from math import gcd, prod
from operator import lshift
from typing import Iterable, Sequence

from .errors import InputError, InvariantViolationError, ResourceLimitError
from .polynomials import (
    MAX_MONOMIALS,
    Monomial,
    MultiPoly,
    eliminate_linear,
    integer,
    mono_deg,
    mono_divides,
    scaled_terms,
)


@dataclass
class Budget:
    """Hard caps on standard-basis work; exceeding one is an error."""

    max_pairs: int = 100_000
    max_monomials: int = MAX_MONOMIALS
    pairs_used: int = field(default=0, init=False)
    monomials_used: int = field(default=0, init=False)

    def __post_init__(self):
        for name in ("max_pairs", "max_monomials"):
            if integer(getattr(self, name), name) < 1:
                raise InputError(f"{name!r} must be positive, not {getattr(self, name)!r}")

    def tick_pair(self) -> None:
        self.pairs_used += 1
        if self.pairs_used > self.max_pairs:
            self._exhausted(f"S-pair budget of {self.max_pairs}")

    def tick_monomials(self, count: int) -> None:
        self.monomials_used += count
        if self.monomials_used > self.max_monomials:
            self._exhausted(f"monomial budget of {self.max_monomials}")

    def _exhausted(self, what: str):
        raise ResourceLimitError(f"{what} exhausted (pairs_used={self.pairs_used}, "
                                 f"monomials_used={self.monomials_used})")


@dataclass(frozen=True)
class LocalOrder:
    """Anti-graded lexicographic order: lower total degree is larger, ties lex.

    1 is the largest monomial and the order is compatible with multiplication,
    so a polynomial is a local unit iff its leading monomial is 1.
    """

    ntags = 0

    def key(self, m: Monomial):
        return (-mono_deg(m), m)


@dataclass(frozen=True)
class EliminationOrder(LocalOrder):
    """The exponent of the tag variable x_0 compared globally first, then
    LocalOrder on the rest.

    Any monomial containing the tag beats every tag-free monomial, so a
    standard basis with respect to this order eliminates the tag.
    """

    ntags = 1

    def key(self, m: Monomial):
        return (m[0], -mono_deg(m), m[1:])


def leading(terms: dict[Monomial, object], order: LocalOrder) -> tuple[Monomial, object]:
    """Leading (monomial, coefficient) of a nonzero polynomial's term map, such
    as ``MultiPoly.terms`` or one of ``Ideal.integer_terms``."""
    if not terms:
        raise InputError("the zero polynomial has no leading term")
    m = max(terms, key=order.key)
    return m, terms[m]


# ---------------------------------------------------------------------------
# the fraction-free kernel: polynomials as dicts {packed monomial: int}
# ---------------------------------------------------------------------------

# bits of headroom, above the largest input degree, in each field of a packed monomial
_HEADROOM_BITS = 16


class _OrderKeys(dict):
    """Order key of each packed monomial met, computed once: keys[p] == key(p)."""

    __slots__ = ("_key",)

    def __init__(self, key):
        super().__init__()
        self._key = key

    def __missing__(self, p: int):
        k = self[p] = self._key(p)
        return k


class _Packing:
    """Exponent vectors in ``nvars`` variables packed into ints, for one kernel
    call, in the layout of the module docstring.

    Each field is ``bits`` wide, the bit length of the inputs' largest degree
    plus ``_HEADROOM_BITS``, under a guard bit that stays 0 because ``check``
    keeps every degree below 2^bits.  If x^a does not divide x^b, the lowest
    field with b_i < a_i borrows from its own guard bit in b − a.  ``lead``
    returns the leading monomial, from int keys computed once per monomial
    without unpacking it: for ``LocalOrder`` the int with the degree field
    inverted, which orders as (−deg, m); for ``EliminationOrder`` that int
    under a copy of the x_0 field, which orders as (m[0], −deg, m[1:]).  On a
    monomial whose x_0 field is 0 the copy is 0, so the elimination key is
    the local one, and ``_intersect`` divides tag-free records in the
    elimination packing.
    """

    def __init__(self, nvars: int, maxdeg: int, order: LocalOrder):
        self.nvars = nvars
        self.bits = bits = max(maxdeg, 1).bit_length() + _HEADROOM_BITS
        width = bits + 1
        self.deg_shift = width * nvars
        self.shifts = tuple(width * k for k in range(nvars, -1, -1))
        self.guard = sum(1 << (bits + width * k) for k in range(nvars + 1))
        self.top = 1 << (bits + self.deg_shift)
        mask = (1 << width) - 1
        flip = mask << self.deg_shift
        # for lcm: the exponent fields; the multiplier that adds every exponent
        # field into the degree field; the degree field with its guard bit
        self._exponents = (1 << self.deg_shift) - 1
        self._ones = sum(1 << (width * k) for k in range(1, nvars + 1))
        self._degree = flip
        if order.ntags:
            tag, above = self.shifts[1], self.deg_shift + width

            def key(p: int) -> int:
                return (p >> tag & mask) << above | p ^ flip
        else:
            key = flip.__xor__
        self.lead = partial(max, key=_OrderKeys(key).__getitem__)

    def pack(self, m: Monomial) -> int:
        return self.check(sum(map(lshift, (mono_deg(m), *m), self.shifts)))

    def unpack(self, p: int) -> Monomial:
        mask = (1 << self.bits) - 1
        return tuple([(p >> s) & mask for s in self.shifts[1:]])

    def lcm(self, a: int, b: int) -> int:
        """The packed lcm of packed monomials; ``ResourceLimitError`` if its
        degree reaches 2^bits.

        Each field of (a with its guard bits set) − b keeps its guard bit iff
        a_i >= b_i, and g − (g >> bits) widens those bits to field masks.
        Multiplying the exponents e by ``_ones`` adds e_0 .. e_(n-1) into the
        degree field without a carry: every partial sum is at most deg a +
        deg b < 2^(bits+1), the width of a field with its guard bit.
        """
        g = ((a | self.guard) - b) & self.guard
        sel = g - (g >> self.bits)
        e = (a & sel | b & ~sel) & self._exponents
        return self.check(e * self._ones & self._degree | e)

    def check(self, p: int) -> int:
        """p, unless its degree reached 2^bits: then ``ResourceLimitError``."""
        if p >= self.top:
            raise ResourceLimitError(f"a monomial of degree {p >> self.deg_shift} reached the "
                                     f"packed degree limit of 2^{self.bits}")
        return p

    def cut(self, cap: int | None) -> int:
        """The least packed monomial of degree >= cap, or of degree 2^bits."""
        return self.top if cap is None else min(cap << self.deg_shift, self.top)

    def terms(self, h: dict[Monomial, int], cap: int | None = None) -> dict[int, int]:
        """h packed, without its terms of degree >= cap."""
        return {self.pack(m): c for m, c in h.items() if cap is None or mono_deg(m) < cap}

    def poly(self, h: dict[int, int], den: int = 1) -> MultiPoly:
        """h / den with exponent tuples and ``Fraction`` coefficients."""
        return MultiPoly._raw({self.unpack(p): Fraction(c, den) for p, c in h.items()}, self.nvars)


def _primitive(h: dict, top) -> dict:
    """h over the gcd of its coefficients, with h[top] made positive."""
    content = gcd(*h.values())
    if h[top] < 0:
        content = -content
    return h if content == 1 else {m: c // content for m, c in h.items()}


def _combine(h: dict[int, int], sh: int, r: dict[int, int], a: int, sr: int, cut: int,
             packing: _Packing) -> dict[int, int]:
    """sh·h − sr·x^a·r; terms of x^a·r at or above ``cut`` are dropped, h has none."""
    out = dict(h) if sh == 1 else {m: sh * c for m, c in h.items()}
    for m, c in r.items():
        m += a
        if m >= cut:
            packing.check(m)
            continue
        v = out.get(m, 0) - sr * c
        if v:
            out[m] = v
        else:
            del out[m]
    return out


def _reducer(polys: list[dict[int, int]], packing: _Packing) -> tuple:
    """The record (lm, lc, ecart, polys) of polys[0]; the rest are its witnesses."""
    g = polys[0]
    lm = packing.lead(g)
    return lm, g[lm], (max(g) >> packing.deg_shift) - (lm >> packing.deg_shift), polys


def _reduce(state: list[dict[int, int]], reducers: list[tuple], packing: _Packing,
            budget: Budget, cap: int | None) -> list[dict[int, int]]:
    """Mora weak normal form of state[0], up to a nonzero integer factor.

    The state is [h]; [h, U, Q_1..Q_k] with U·f = Σ Q_i·g_i + h in
    ``mora_divide``; or [h, Q] in a colon, which reads no unit.  Each record
    (lm, lc, ecart, polys) in ``reducers``, which is not modified, carries in
    polys a state of the same length.  Each step reads h's leading term and
    ecart, takes the first reducer of least ecart whose leading monomial
    divides h's (the scan stops at ecart 0), and applies
    h ← sh·h − sr·x^a·r to every entry alike, a nonzero integer multiple of
    Mora's step over Q; it never divides by a content, so reducer choices,
    remembered remainders and budget charges are those over Q.  A record of
    the state is built only when it is remembered.  With a cap K (plain
    reduction only), m^K lies in the ideal of the reducers and h has no term
    of degree >= K; none is created.  Returns the final state.
    """
    reducers = list(reducers)
    guard, cut, lead, shift = packing.guard, packing.cut(cap), packing.lead, packing.deg_shift
    h = state[0]
    while h:
        lm_h = lead(h)
        e_h = (max(h) >> shift) - (lm_h >> shift)
        red = None
        for r in reducers:
            if (red is None or r[2] < red[2]) and not (lm_h - r[0]) & guard:
                red = r
                if not r[2]:
                    break
        if red is None:
            break
        lm_r, lc_r, e_r, polys = red
        lc_h = h[lm_h]
        if e_r > e_h:
            # remember the current remainder so later reductions stay local
            reducers.append((lm_h, lc_h, e_h, state))
        gamma = gcd(lc_r, lc_h)
        sh, a, sr = lc_r // gamma, lm_h - lm_r, lc_h // gamma
        state = [_combine(p, sh, pr, a, sr, cut, packing) for p, pr in zip(state, polys)]
        h = state[0]
        budget.tick_monomials(max(1, len(h)))
    return state


def mora_reduce(f: MultiPoly, gens: Sequence[MultiPoly],
                order: LocalOrder | None = None,
                budget: Budget | None = None) -> MultiPoly:
    """Mora weak normal form of f against gens: the remainder of ``mora_divide``.

    The remainder r satisfies u*f = (combination of gens) + r for some local
    unit u.  When gens is a standard basis, r == 0 iff f lies in the ideal
    generated by gens in the local ring.  Termination is guaranteed by the
    ecart-based reducer selection.
    """
    return mora_divide(f, gens, order, budget)[0]


def mora_divide(f: MultiPoly, gens: Sequence[MultiPoly],
                order: LocalOrder | None = None,
                budget: Budget | None = None):
    """Mora division with witnesses: returns (r, u, q) with u*f = sum(q_i*g_i) + r.

    u is a local unit with constant term 1; the identity is exact and can be
    checked term by term.  A zero generator gets a zero quotient.

    With f = h/d and g_i = G_i/D_i on packed integer terms, the division is
    ``_reduce`` on the state [h, U, Q_1..Q_k], started from U = d, Q = 0;
    g_i enters as the record of [G_i, 0, .., −D_i, .., 0], so
    U·f = Σ Q_i·g_i + r holds throughout.  Each state is then c·(r, u, q) for
    the state of Mora's division over Q and some integer c ≠ 0, with the same
    leading monomials, ecarts, reducer choices and budget charges.  Over Q, u
    starts at 1 and a step by a remembered remainder subtracts a multiple of
    x^a·u_r with a ≠ 0, so u(0) = 1 throughout, and dividing by c = U(0)
    gives the division over Q term for term.
    """
    gens = list(gens)
    if any(g.nvars != f.nvars for g in gens):
        raise InputError("generators must share the variable count")
    budget = budget if budget is not None else Budget()
    packing = _Packing(f.nvars, max(p.total_degree() for p in (f, *gens)), order or LocalOrder())
    # the packed unit monomial is 0
    reducers = [_reducer([packing.terms(G), {}]
                         + [{0: -D} if j == i else {} for j in range(len(gens))], packing)
                for i, (D, G) in enumerate(scaled_terms(g.terms) for g in gens) if G]
    d, h = scaled_terms(f.terms)
    state = _reduce([packing.terms(h), {0: d}] + [{} for _ in gens], reducers, packing, budget,
                    None)
    c = state[1][0]
    r, u, *q = (packing.poly(p, c) for p in state)
    return r, u, q


# ---------------------------------------------------------------------------
# ideals and standard bases
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Ideal:
    """An ideal of the local ring, stored as its generators' integer terms.

    Each of ``integer_terms`` maps exponent tuples to a generator's coprime
    integer coefficients, with a positive grlex-leading one, as ``ideal``
    makes them; ``standard_basis`` packs them.  ``generators``, the same
    polynomials with ``Fraction`` coefficients, is built when first read;
    in the package only ``to_strings`` reads it.
    ``standard`` counts the leading generators that form a ``LocalOrder``
    standard basis of the ideal they generate, whose pairs a ``LocalOrder``
    completion never forms: all of the generators of ``ideal_quotient`` and
    ``saturate``, the first summand's count for ``ideal_sum``, and 0
    otherwise.  It is not compared.
    """

    integer_terms: tuple[dict[Monomial, int], ...]
    nvars: int
    standard: int = field(default=0, compare=False)

    @cached_property
    def generators(self) -> tuple[MultiPoly, ...]:
        return tuple(MultiPoly._raw({m: Fraction(c) for m, c in h.items()}, self.nvars)
                     for h in self.integer_terms)

    def __hash__(self) -> int:
        return hash((self.nvars, *(frozenset(h.items()) for h in self.integer_terms)))

    def to_strings(self, names: Sequence[str] | None = None) -> list[str]:
        return [g.to_string(names) for g in self.generators]

    def __repr__(self) -> str:
        return f"Ideal([{', '.join(self.to_strings())}], nvars={self.nvars})"


def _grlex_primitive(h: dict[Monomial, int]) -> dict[Monomial, int]:
    """Nonzero integer terms over their content, with a positive grlex-leading
    coefficient."""
    return _primitive(h, max(h, key=lambda m: (mono_deg(m), m)))


def _ideal(terms: Iterable[dict[Monomial, int]], nvars: int, standard: int = 0) -> Ideal:
    """The ``Ideal`` of these nonzero primitive integer terms, without repeats
    (the first of equal ones kept), with the given standard prefix."""
    kept: dict[frozenset, dict[Monomial, int]] = {}
    for h in terms:
        kept.setdefault(frozenset(h.items()), h)
    return Ideal(tuple(kept.values()), nvars, standard)


def ideal(gens: Iterable[MultiPoly], nvars: int | None = None) -> Ideal:
    """The ideal of these generators, with zeros dropped, each scaled to its
    primitive form and duplicates dropped, in first-seen order.

    The primitive form has coprime integer coefficients and a positive
    grlex-leading one, as the standard-basis kernel makes its elements; it
    is what the ideal stores.  Every generator, a zero one too, must have
    ``nvars`` variables, or the first generator's count when nvars is None.
    """
    terms = []
    for g in gens:
        if nvars is None:
            nvars = g.nvars
        if g.nvars != nvars:
            raise InputError("generators must share the variable count")
        if not g.is_zero:
            terms.append(_grlex_primitive(scaled_terms(g.terms)[1]))
    if nvars is None:
        raise InputError("cannot infer the variable count of an empty ideal")
    return _ideal(terms, nvars)


def ideal_sum(a: Ideal, b: Ideal) -> Ideal:
    """Concatenated generators, deduplicated; realizes scheme intersection.

    Both ideals store primitive terms, so concatenating them gives
    ``ideal(a.generators + b.generators)`` without normalizing again.  a's
    standard prefix stays one.
    """
    if a.nvars != b.nvars:
        raise InputError("ideals live in different rings")
    return _ideal(a.integer_terms + b.integer_terms, a.nvars, a.standard)


class StandardBasis:
    """A completed local standard basis together with its leading staircase.

    The completion's packed integer records stay on the basis, with the
    exponent tuples of their leading monomials and ``counted``: under
    ``LocalOrder`` the ``_staircase_count`` of those leading monomials, None
    when it is infinite or under ``EliminationOrder``.  ``cap`` is read off
    it: the certified highest-corner bound K = 1 + the largest degree of a
    standard monomial, with m^K inside the ideal (see ``standard_basis``), or
    None.  A basis element whose leading monomial has degree < K has no term
    of degree >= K; any other element is its leading monomial.  ``basis``
    (the elements with ``Fraction`` coefficients) and ``staircase`` (the
    minimal leading monomials) are built when first read.  Two bases compare
    by identity.
    """

    def __init__(self, order: LocalOrder, nvars: int, packing: _Packing,
                 records: Sequence[tuple], lms: Sequence[Monomial],
                 counted: tuple[int, int] | None):
        self.order, self.nvars = order, nvars
        self.cap = None if counted is None else 1 + counted[1]
        self._packing, self._records, self._lms, self._counted = packing, records, lms, counted

    @cached_property
    def basis(self) -> tuple[MultiPoly, ...]:
        return tuple(self._packing.poly(polys[0]) for _, _, _, polys in self._records)

    @cached_property
    def staircase(self) -> tuple[Monomial, ...]:
        return _minimal_monomials(self._lms)

    def contains(self, f: MultiPoly, budget: Budget | None = None) -> bool:
        """Ideal membership in the local ring via Mora reduction.

        With a cap K, f lies in the ideal iff its part of degree < K does, so
        the reduction drops every term of degree >= K.
        """
        if f.nvars != self.nvars:
            raise InputError("element and ideal live in different rings")
        budget = budget if budget is not None else Budget()
        packing = _Packing(self.nvars, max(p.total_degree() for p in (f, *self.basis)), self.order)
        reducers = [_reducer([packing.terms(scaled_terms(g.terms)[1])], packing)
                    for g in self.basis]
        h = packing.terms(scaled_terms(f.terms)[1], self.cap)
        return not _reduce([h], reducers, packing, budget, self.cap)[0]


def _minimal_monomials(monos: Iterable[Monomial]) -> tuple[Monomial, ...]:
    unique = sorted(set(monos))
    minimal = [m for m in unique
               if not any(o != m and mono_divides(o, m) for o in unique)]
    return tuple(minimal)


def _staircase_count(lead: Sequence[Monomial], nvars: int,
                     budget: Budget) -> tuple[int, int] | None:
    """(number, largest degree) of the monomials outside the monomial ideal
    generated by lead: (0, −1) when there are none.

    None when there are infinitely many, i.e. when lead lacks a pure power of
    some variable.  Otherwise they lie in the box below the smallest pure
    powers, which is charged to the monomial budget.  They are counted in runs
    along the variable x_v with the largest bound: for each prefix a in the
    box of the other variables, the standard monomials x^a·x_v^k are those
    with k < t, where t is the least x_v-exponent of an element of lead whose
    other exponents are <= a (x_v's pure power always is one).  With lead
    sorted by x_v-exponent, t is the first fit.
    """
    bounds = []
    for v in range(nvars):
        pure = [m[v] for m in lead if mono_deg(m) == m[v]]
        if not pure:
            return None
        bounds.append(min(pure))
    budget.tick_monomials(prod(bounds))
    if nvars == 0:
        return (0, -1) if lead else (1, 0)
    v = bounds.index(max(bounds))
    rest = bounds[:v] + bounds[v + 1:]
    runs = sorted((m[v], m[:v] + m[v + 1:]) for m in lead)
    count, top = 0, -1
    for a in product(*map(range, rest)):
        t = next(t for t, b in runs if mono_divides(b, a))
        if t:
            count += t
            top = max(top, mono_deg(a) + t - 1)
    return count, top


def _lower_cap(basis: list[tuple], lms: list[Monomial], cap: int | None, packing: _Packing,
               budget: Budget) -> tuple[tuple[int, int] | None, int | None, list[tuple]]:
    """The ``_staircase_count`` of the records' leading monomials ``lms``, their
    highest-corner cap (1 + the largest degree of a standard monomial; None while there
    are infinitely many), and the records truncated to the cap if it fell."""
    counted = _staircase_count(lms, packing.nvars, budget)
    if counted is None or 1 + counted[1] == cap:
        return counted, cap, basis
    new_cap = 1 + counted[1]
    budget.tick_monomials(sum(len(polys[0]) for _, _, _, polys in basis))
    cut = packing.cut(new_cap)
    truncated = [{lm: 1} if lm >= cut else {m: c for m, c in polys[0].items() if m < cut}
                 for lm, _, _, polys in basis]
    return counted, new_cap, [_reducer([_primitive(h, max(h))], packing) for h in truncated]


def standard_basis(I: Ideal, order: LocalOrder | None = None,
                   budget: Budget | None = None) -> StandardBasis:
    """Complete the generators to a standard basis under the given local order.

    Pair selection is deterministic: minimal degree of the leading-monomial
    lcm, then first-created order.  The pending pairs (i, j) are a set, with a
    heap of (lcm degree, i, j, packed lcm) beside it, the lcm taken by
    ``_Packing.lcm`` when the pair is queued; the keys (lcm degree, i, j) are
    unique, so the heap pops the pair that a scan for the least key would
    pick, and never compares two lcms.  Each selected pair is
    charged to the budget, then skipped by Buchberger's chain criterion
    (Gebauer–Möller) when some other element k has lm_k | lcm(lm_i, lm_j) and
    neither (i, k) nor (j, k) is still pending: the leading-term syzygy of
    (i, j) is then a combination of those of (i, k) and (j, k), which were
    reduced to zero or skipped the same way before.  A basis is standard once
    the S-polynomials of a generating set of these syzygies have weak normal
    form zero, for any monomial order, so the criterion holds for local and
    mixed orders (Greuel–Pfister, §2.5).  The product criterion is not used.

    Under ``LocalOrder`` the pairs inside the standard prefix of I (its first
    ``I.standard`` generators) are never queued, so the chain criterion
    counts them as done; ``EliminationOrder`` ignores the prefix.  The prefix
    P is a standard basis of the ideal J it generates, so the S-polynomial s
    of two of its elements has weak normal form zero with respect to P: a
    standard representation u·s = Σ a_p·p with u a unit and LM(a_p·p) <=
    LM(s), which is one with respect to any basis that contains P, and that
    is all Buchberger's criterion asks of the pair (Greuel–Pfister, §1.7 and
    §2.5).  Under a highest-corner cap K the completion runs modulo m^K, on
    the prefix P' cut at K, and L(J + m^K) = L(J) + m^K: an element j + b of
    J + m^K, b in m^K, whose leading monomial has degree < K shares its
    terms of degree < K with j, so that monomial is LM(j), and any other has
    it in m^K.  An element of P' keeps its leading monomial or becomes it,
    so L(P') + m^K = L(J + m^K), P' with m^K is a standard basis of J + m^K,
    and its pairs stay done for every cap.

    The completion is fraction-free: polynomials are integer dicts, the
    S-polynomial of f and g is lc_g·x^(L−lm_f)·f − lc_f·x^(L−lm_g)·g (over
    gcd(lc_f, lc_g)), and a Mora step replaces h by
    (lc_r/γ)·h − (lc_h/γ)·x^a·r, γ = gcd(lc_r, lc_h).  Each is a nonzero
    integer multiple of the same step over Q, so leading monomials, ecarts
    and reducer choices agree with Mora's algorithm over Q.  A remainder is
    made primitive only when it joins the basis, and is then the one Q would
    give.  The basis is one list of records (lm, lc, ecart, [poly]), kept on
    the returned ``StandardBasis``, which builds the ``Fraction`` polynomials
    when they are first read; every element is primitive, as ``ideal`` makes
    generators, with a positive grlex-leading coefficient.  Order keys are
    computed once.

    The records' monomials are packed ints (``_Packing``): fields (total
    degree, x_0, .., x_(n-1)) from high bits to low, each under a guard bit,
    sized from the generators' largest degree with 16 bits of headroom.  The
    first records are the ideal's ``integer_terms``, packed as they are.
    x^a·r adds a to each packed term of r, a reducer is found by one
    subtraction and a guard-bit test per record, and a product whose degree
    would reach the field limit raises ``ResourceLimitError`` instead of
    wrapping; so does a pair lcm, when the pair is queued.  The exponent
    tuples of the leading monomials are kept beside the records only for the
    staircase and for ``_intersect``'s tag test.

    Highest-corner truncation (Greuel–Pfister; Singular's ``highcorner``),
    under a local degree order only: once the leading monomials of the
    partial basis G include a pure power of every variable, let K be 1 + the
    largest degree of a monomial outside L(G).  Every monomial of degree K
    then lies in L(G) ⊆ L(I); since the leading monomial of an element is a
    term of least degree, this gives m^K ⊆ I + m^(K+1), and Nakayama's lemma
    gives m^K ⊆ I.  From then on terms of degree >= K are dropped from the
    basis elements (an element whose leading monomial has degree >= K becomes
    that monomial), from the S-polynomials and from every reduction step;
    this changes nothing modulo I and keeps coefficients from growing.  K is
    recomputed whenever an element is added and can only fall; it is read off
    ``_staircase_count``, which counts the monomials outside L(G) in runs along
    one variable and returns their largest degree beside their number.  The
    last count, on the leading monomials of the final basis (on none for an
    ideal without generators), is kept for ``colength``.
    """
    order = order or LocalOrder()
    budget = budget if budget is not None else Budget()
    packing = _Packing(I.nvars, max((mono_deg(m) for h in I.integer_terms for m in h), default=0),
                       order)
    basis = [_reducer([packing.terms(h)], packing) for h in I.integer_terms]
    # the pairs inside the standard prefix are done (see above)
    done = I.standard if order.ntags == 0 else 0
    # the leading monomials as exponent tuples, for the staircase and _intersect
    lms = [packing.unpack(lm) for lm, _, _, _ in basis]
    cap, counted = None, None
    if order.ntags == 0:
        counted, cap, basis = _lower_cap(basis, lms, cap, packing, budget)
    cut, guard, shift = packing.cut(cap), packing.guard, packing.deg_shift

    def entry(i: int, j: int) -> tuple[int, int, int, int]:
        lcm_ij = packing.lcm(basis[i][0], basis[j][0])
        return lcm_ij >> shift, i, j, lcm_ij

    # the pending pairs (i, j), i < j, and a heap of (lcm degree, i, j, packed lcm) over them
    pending = {(i, j) for j in range(done, len(basis)) for i in range(j)}
    queue = sorted(entry(i, j) for i, j in pending)
    while queue:
        budget.tick_pair()
        _, i, j, lcm_fg = heappop(queue)
        pending.remove((i, j))
        (lm_f, lc_f, _, (f,)), (lm_g, lc_g, _, (g,)) = basis[i], basis[j]
        # chain criterion: the done pairs (i, k) and (j, k) generate this one
        if any(not (lcm_fg - lm_k) & guard and k != i and k != j
               and (min(i, k), max(i, k)) not in pending and (min(j, k), max(j, k)) not in pending
               for k, (lm_k, _, _, _) in enumerate(basis)):
            continue
        gamma = gcd(lc_f, lc_g)
        s = _combine({}, 1, f, lcm_fg - lm_f, -(lc_g // gamma), cut, packing)
        s = _combine(s, 1, g, lcm_fg - lm_g, lc_f // gamma, cut, packing)
        if not s:
            continue
        r = _reduce([s], basis, packing, budget, cap)[0]
        if not r:
            continue
        basis.append(_reducer([_primitive(r, max(r))], packing))
        lms.append(packing.unpack(basis[-1][0]))
        if order.ntags == 0:
            counted, cap, basis = _lower_cap(basis, lms, cap, packing, budget)
            cut = packing.cut(cap)
        new = len(basis) - 1
        for k in range(new):
            heappush(queue, entry(k, new))
            pending.add((k, new))
    return StandardBasis(order, I.nvars, packing, basis, lms, counted)


def colength(I: Ideal, budget: Budget | None = None) -> int | None:
    """Dimension over Q of the local ring modulo the ideal, or None if infinite.

    First ``eliminate_linear`` eliminates each exactly linear generator ℓ
    (every term of degree 1): it drops ℓ, puts x_v = −(ℓ − c_v·x_v)/c_v, for
    x_v the first variable of ℓ that the other generators raise to the least
    power, into them and drops x_v, until no generator is linear.  ℓ is a
    coordinate, so O/(ℓ) is the local ring O' of the other variables, and
    O/I ≅ O'/I' for the substituted ideal I': the count is I's, with no Mora
    step spent on x_v (Greuel–Pfister; Singular's ``elimpart``).  The substitution is charged
    to the budget.

    The count is the number of standard monomials (those outside the leading
    ideal), as ``_staircase_count`` counts them in runs.  The ``LocalOrder``
    completion counted them for its last highest-corner cap, on the leading
    monomials of the final basis (on none for an ideal without generators),
    and that count is read.  The count is finite iff the staircase contains
    a pure power of every variable; otherwise some axis direction escapes and
    None is returned.
    For a finite count the standard basis was computed with the highest-corner
    cap K of ``standard_basis``: m^K ⊆ I by Nakayama, so dropping terms of
    degree >= K along the way changes neither the ideal nor its staircase.
    """
    budget = budget if budget is not None else Budget()
    terms, n = eliminate_linear(I.integer_terms, I.nvars, budget.tick_monomials)
    if n < I.nvars:
        I = _ideal(map(_grlex_primitive, terms), n)
    counted = standard_basis(I, budget=budget)._counted
    return None if counted is None else counted[0]


def multiplicity(lead: Sequence[Monomial], nvars: int,
                 budget: Budget | None = None) -> int | None:
    """The multiplicity e(m; A) of A = O/I for a one-dimensional A, else None.

    ``lead`` generates the leading ideal L of I under ``LocalOrder``: the
    ``staircase`` of its standard basis, or the leading monomials of any
    standard basis, such as the generators ``ideal_quotient`` and ``saturate``
    return.  The order is a degree order, so L has the Hilbert–Samuel function
    of I and e(m; A) = e(m; O/L) (Greuel–Pfister, ch. 5).  O/L is
    one-dimensional iff some variable x_v has no pure power in L and, for
    each such v, L with x_v set to 1 has finitely many standard monomials u.
    The standard monomials of a large degree k are then exactly the
    u·x_v^(k − deg u), so the Hilbert function of degree k is the sum of
    those counts: that sum is e.  Each count is ``_staircase_count`` of lead
    with x_v dropped.
    """
    if any(len(m) != nvars for m in lead):
        raise InputError(f"leading monomials must have {nvars} exponents")
    budget = budget if budget is not None else Budget()
    # the unit monomial counts as a pure power of every variable
    free = [v for v in range(nvars) if not any(mono_deg(m) == m[v] for m in lead)]
    if not free:
        return None
    e = 0
    for v in free:
        counted = _staircase_count([m[:v] + m[v + 1:] for m in lead], nvars - 1, budget)
        if counted is None:
            return None
        e += counted[0]
    return e


def _intersect(lifted: Ideal, n: int, budget: Budget, g: MultiPoly | None = None) -> Ideal:
    """The tag-free h of a standard basis of the lifted ideal of O[t] under
    ``EliminationOrder``, t dropped, or with g their quotients by g: the h
    generate its intersection K with O (Greuel–Pfister, §1.8).

    They are a ``LocalOrder`` standard basis of K, and so are the quotients
    when K ⊆ (g).  A monomial with the tag beats every tag-free one, so an
    element of the basis whose leading monomial divides that of an element
    of K is tag-free; on tag-free monomials the order is ``LocalOrder``.  A
    division u·h = q·g with u a local unit (leading monomial 1) gives
    LM(q) = LM(h)/LM(g), and for a in (K : g), LM(a)·LM(g) = LM(a·g) is a
    multiple of some LM(h), so LM(a) is a multiple of that LM(q).

    The h are the completion's packed records whose leading monomial has no
    tag, so that no term has one.  Each is divided by g = G/D with one
    ``_reduce`` on the state [h, Q], started from Q = 0, against g's record
    [G, −D], built once, in the completion's own packing, whose key orders
    tag-free monomials as ``LocalOrder`` in n variables.  ``_reduce`` updates
    each entry on its own, so h, Q, reducer choices and budget charges are
    those of ``mora_divide``'s [h, U, Q], whose unit the colon does not read.
    The quotient Q is c·h/g for an integer c ≠ 0, and the generator is Q
    made primitive with a positive grlex-leading coefficient, as ``ideal``
    makes h/g.  Without g, h is a record of the completion, primitive with a
    positive grlex-leading coefficient too.  No two records are equal, since
    a record that joins the basis has a leading monomial that no earlier one
    divides, and the tag-free records of a colon's basis all joined it, so
    their quotients have distinct leading monomials.  The generators are
    therefore distinct, and they are unpacked into the returned ideal's
    integer terms as they are, all in its standard prefix.
    """
    sb = standard_basis(lifted, EliminationOrder(), budget)
    # the generators are not interreduced (y*z - 278*z^2 may stay beside
    # y - 278*z): dropping those whose leading monomial is not minimal made
    # the later bases slower, as in the polar curve of y^4 - y^3*z^2 + 2*x*y*z^4
    # at (1, 1, -5) and its saturation check, 208 s instead of 1.9 s
    gens = [polys[0] for (_, _, _, polys), lm in zip(sb._records, sb._lms) if not lm[0]]
    packing = sb._packing
    if g is not None:
        D, G = scaled_terms(g.terms)
        # the packed unit monomial is 0
        divisor = [_reducer([packing.terms({(0, *m): c for m, c in G.items()}), {0: -D}], packing)]
        states = [_reduce([h, {}], divisor, packing, budget, None) for h in gens]
        if any(r for r, _ in states):
            raise InvariantViolationError("intersection element failed to divide by g")
        gens = [_primitive(q, max(q)) for _, q in states]
    # in the local ring a nonzero constant term (the packed monomial 0) makes a generator a unit
    if any(0 in h for h in gens):
        gens = [{0: 1}]
    return _ideal([{packing.unpack(p)[1:]: c for p, c in h.items()} for h in gens], n, len(gens))


def ideal_quotient(I: Ideal, g: MultiPoly, budget: Budget | None = None) -> Ideal:
    """The colon ideal (I : g) in the local ring.

    Computed by intersecting I with (g) through a tag variable under a mixed
    elimination order, followed by Mora division of each intersection
    generator by g, in the completion's own packed integer records, with
    the steps of ``mora_divide`` but no unit witness (see ``_intersect``);
    the division quotients generate (I : g) because the division unit is
    invertible in the local ring.  The generators returned are a
    ``LocalOrder`` standard basis of (I : g), so their leading monomials give
    ``multiplicity`` without a completion.  A generator with a nonzero constant term is a
    unit, so I and (I : g) are the unit ideal, returned as ``_intersect``
    returns it without completing the lift.
    """
    if g.is_zero:
        raise InputError("quotient by the zero element")
    if g.nvars != I.nvars:
        raise InputError("element and ideal live in different rings")
    one = (0,) * I.nvars
    if any(one in h for h in I.integer_terms):
        return _ideal([{one: 1}], I.nvars, 1)
    budget = budget if budget is not None else Budget()
    return _intersect(_lift(I, g), I.nvars, budget, g)


def _lift(I: Ideal, g: MultiPoly) -> Ideal:
    """The ideal (t·f_1, .., t·f_k, (1 − t)·g) of O[t], t = x_0, built from
    the primitive terms of I's generators f_i.

    t·f shifts the exponents of f's primitive terms, which stay primitive
    with the same grlex-leading term.  With ĝ the primitive form of g, the
    grlex-leading term of (1 − t)·ĝ is −t times that of ĝ, so its primitive
    form is (t − 1)·ĝ: two copies of ĝ's terms, with and without t.
    """
    gh = _grlex_primitive(scaled_terms(g.terms)[1])
    terms = [{(1, *m): c for m, c in h.items()} for h in I.integer_terms]
    terms.append({(1, *m): c for m, c in gh.items()} | {(0, *m): -c for m, c in gh.items()})
    return _ideal(terms, I.nvars + 1)


def saturate(I: Ideal, g: MultiPoly, budget: Budget | None = None) -> Ideal:
    """The saturation (I : g^infinity) = (I + (t·g − 1)) ∩ O, by Rabinowitsch's
    trick in one elimination basis.

    If g^k·a lies in I, then a = (1 − (t·g)^k)·a + t^k·g^k·a lies in
    I + (t·g − 1); conversely t = 1/g maps that ideal to zero in (O/I)_g.
    The lift is built from the primitive terms of I's generators, with a 0
    exponent of t put in front, and the primitive form of t·G − d, where
    G = d·g has integer coefficients.  The basis grows with I:
    ``polar_ideal`` says why it hands in a colon.  The generators returned
    are a ``LocalOrder`` standard basis of the saturation (see
    ``_intersect``).
    """
    if g.is_zero:
        raise InputError("saturation by the zero element")
    if g.nvars != I.nvars:
        raise InputError("element and ideal live in different rings")
    budget = budget if budget is not None else Budget()
    d, G = scaled_terms(g.terms)
    terms = [{(0, *m): c for m, c in h.items()} for h in I.integer_terms]
    terms.append(_grlex_primitive({(1, *m): c for m, c in G.items()} | {(0,) * (I.nvars + 1): -d}))
    return _intersect(_ideal(terms, I.nvars + 1), I.nvars, budget)
