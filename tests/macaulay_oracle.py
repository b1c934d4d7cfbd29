"""Colength of a zero-dimensional ideal of the local ring, by linear algebra.

An oracle for ``localring.colength`` that shares no code with the Mora
kernel.  For an ideal I of the local ring at the origin and K >= 1,

    l_K = dim Q[x]/(I + m^K)

is the number of monomials of degree < K minus the rank of the rows x^a·g,
g a generator and deg a < K, each truncated below degree K: Q[x]/m^K is
already local, so those rows span the image of I there.  The rank comes from
fraction-free row elimination.  If l_K = l_(K+1), then m^K ⊆ I + m^(K+1),
so m^K ⊆ I by Nakayama's lemma and the colength of I is l_K (Macaulay's
inverse systems; Mourrain, ISSAC 1997; Dayton and Zeng, ISSAC 2005).  An
ideal of infinite colength never stabilizes, so the search gives up at a
degree bound instead of deciding that case.
"""

from itertools import product
from math import gcd, lcm

from lenumbers import MultiPoly


def _integer_terms(g: MultiPoly) -> dict[tuple, int]:
    """g times the lcm of its denominators, as {exponent tuple: int}."""
    scale = lcm(*(c.denominator for c in g.terms.values()))
    return {m: int(c * scale) for m, c in g.terms.items()}


def _rank(rows) -> int:
    """Rank over Q of integer rows {column: int}, by fraction-free elimination."""
    pivots = {}
    for row in rows:
        while row:
            lead = max(row)
            pivot = pivots.get(lead)
            if pivot is None:
                pivots[lead] = row
                break
            # every other column of the pivot row lies below lead
            s = gcd(pivot[lead], row[lead])
            a, b = pivot[lead] // s, row[lead] // s
            out = {m: a * c for m, c in row.items()}
            for m, c in pivot.items():
                v = out.get(m, 0) - b * c
                if v:
                    out[m] = v
                else:
                    del out[m]
            content = gcd(*out.values())
            row = {m: c // content for m, c in out.items()}
    return len(pivots)


def truncated_colength(gens: list[MultiPoly], nvars: int, K: int) -> int:
    """l_K = dim Q[x]/(I + m^K) for the ideal I generated by gens."""
    monomials = [a for a in product(range(K), repeat=nvars) if sum(a) < K]
    polys = [_integer_terms(g) for g in gens if g.terms]
    rows = []
    for a in monomials:
        for g in polys:
            row = {}
            for m, c in g.items():
                am = tuple(i + j for i, j in zip(a, m))
                if sum(am) < K:
                    row[am] = c
            if row:
                rows.append(row)
    return len(monomials) - _rank(rows)


def macaulay_colength(gens: list[MultiPoly], nvars: int, max_degree: int = 30) -> tuple[int, int]:
    """(colength, K) for the least K with l_K = l_(K+1), which certifies it.

    Raises ``ValueError`` when no K below ``max_degree`` stabilizes, as for
    an ideal of infinite colength.
    """
    previous = truncated_colength(gens, nvars, 1)
    for K in range(1, max_degree):
        current = truncated_colength(gens, nvars, K + 1)
        if current == previous:
            return current, K
        previous = current
    raise ValueError(f"l_K did not stabilize below K = {max_degree}")
