"""Saturation by iterated colons, a reference for ``localring.saturate``.

``saturate`` computes (I : g^infinity) as (I + (t·g - 1)) ∩ O in one
elimination basis.  This oracle takes the colon chain
(I : g) ⊆ (I : g^2) ⊆ ... instead, one ``ideal_quotient`` at a time, and stops
when a step adds nothing, certified by standard-basis membership.  The chain
stabilizes because the local ring is Noetherian.

``multipoly_saturation`` is the same elimination as ``saturate``, with the
lift I + (t·g - 1) built by ``MultiPoly`` arithmetic and ``insert_var``, and
normalized by ``ideal``, instead of from I's integer terms.
"""

from lenumbers import Budget, MultiPoly, localring
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


def insert_var(f):
    """f in one more variable, put first, with exponent 0."""
    return MultiPoly({(0, *m): c for m, c in f.terms.items()}, f.nvars + 1)


def multipoly_saturation(I, g):
    """(I + (t·g - 1)) ∩ O from the lift that ``insert_var`` and ``ideal`` make."""
    n = I.nvars
    t, one = MultiPoly.variable(0, n + 1), MultiPoly.constant(1, n + 1)
    lifted = [insert_var(f) for f in I.generators] + [t * insert_var(g) - one]
    return localring._intersect(ideal(lifted, n + 1), n, Budget())
