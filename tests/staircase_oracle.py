"""Standard monomials of a monomial ideal, by scanning a cube.

An oracle for ``localring._staircase_count`` that shares no code with it.
The staircase is finite iff it contains a pure power of every variable; the
cube's side is then the largest of the smallest pure powers, so every
standard monomial lies inside it, and each monomial of the cube is tested
against every generator.
"""

from itertools import product


def staircase_oracle(gens, nvars):
    """(count, largest degree) of the monomials outside the ideal generated by
    the exponent tuples gens, (0, -1) when there are none, None when infinite."""
    exps = [tuple(g) for g in gens]
    side = 0
    for v in range(nvars):
        pures = [e[v] for e in exps if sum(e) == e[v]]
        if not pures:
            return None
        side = max(side, min(pures))
    count, top = 0, -1
    for mono in product(range(side + 1), repeat=nvars):
        if not any(all(x <= y for x, y in zip(e, mono)) for e in exps):
            count += 1
            top = max(top, sum(mono))
    return count, top
