"""Ideals of the local ring checked through their standard bases: equality
by mutual membership, and whether given generators already are one."""

from lenumbers import Budget
from lenumbers.localring import LocalOrder, _minimal_monomials, leading, standard_basis


def contains_all(I, gens, budget=None) -> bool:
    """Whether every element of gens lies in I, by membership in a standard basis of I."""
    budget = budget if budget is not None else Budget()
    sb = standard_basis(I, budget=budget)
    return all(sb.contains(g, budget) for g in gens)


def ideals_equal(a, b, budget=None) -> bool:
    """Whether a and b generate the same ideal of the local ring: each contains
    the other's generators."""
    budget = budget if budget is not None else Budget()
    return contains_all(a, b.generators, budget) and contains_all(b, a.generators, budget)


def is_local_standard_basis(I) -> bool:
    """Whether the leading monomials of I's generators under ``LocalOrder``
    generate the leading ideal that a completion of I finds."""
    lead = [leading(g.terms, LocalOrder())[0] for g in I.generators]
    return _minimal_monomials(lead) == standard_basis(I).staircase
