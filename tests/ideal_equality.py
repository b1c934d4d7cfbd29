"""Equality of two ideals of the local ring, by mutual membership."""

from lenumbers import Budget
from lenumbers.localring import _contains_all


def ideals_equal(a, b, budget=None) -> bool:
    """Whether a and b generate the same ideal of the local ring: each contains
    the other's generators, by membership in its standard basis."""
    budget = budget if budget is not None else Budget()
    return _contains_all(a, b.generators, budget) and _contains_all(b, a.generators, budget)
