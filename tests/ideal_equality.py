"""Equality of two ideals of the local ring, by mutual membership."""

from lenumbers import Budget
from lenumbers.localring import standard_basis


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
