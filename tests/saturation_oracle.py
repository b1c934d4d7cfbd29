"""Saturation by iterated colons, a reference for ``localring.saturate``.

``saturate`` computes (I : g^infinity) as (I + (t·g - 1)) ∩ O in one
elimination basis.  This oracle takes the colon chain
(I : g) ⊆ (I : g^2) ⊆ ... instead, one ``ideal_quotient`` at a time, and stops
when a step adds nothing, certified by standard-basis membership.  The chain
stabilizes because the local ring is Noetherian.
"""

from lenumbers.localring import ideal, ideal_quotient
from ideal_equality import contains_all


def colon_saturation(I, g, rounds=64):
    """(I : g^infinity) by colon steps; fails after ``rounds`` steps."""
    current = ideal(I.generators, I.nvars)
    for _ in range(rounds):
        nxt = ideal_quotient(current, g)
        if contains_all(current, nxt.generators):
            return current
        current = nxt
    raise AssertionError(f"the colon chain did not stabilize in {rounds} steps")
