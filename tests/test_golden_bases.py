"""Recorded standard bases of seeded random ideals, compared element for element.

The cases are random ideals in 2 and 3 variables under ``LocalOrder()``,
half of them with one generator per variable carrying a pure power of it
(mostly zero-dimensional, so the highest-corner cap engages), and the
tag-variable lifts that ``ideal_quotient`` builds to divide a few of them by
a binomial linear form, under ``EliminationOrder()``.  For each the
recording keeps the printed basis elements, the staircase and the
highest-corner cap, so any change to the completion (pair order, reducer
choice, truncation, normalization) shows.

The chain criterion skips S-pairs that the criterion-free recording reduced,
which gives other elements of the same ideal in the cases named in
``EQUIVALENT_ONLY``; there the test asserts the recorded staircase and cap
and equality with the recorded ideal by mutual membership.  Every other case
is compared element for element.  Independently of the recording, every
returned basis is checked against Buchberger's criterion: the S-polynomial of
each pair of its elements, formed here over Q, lies in the ideal; and under
``LocalOrder()`` ``colength`` is checked against the staircase oracle.

Running this module as a script rewrites ``tests/data/standard_bases.json``;
do that only when a change of the computed bases is intended.
"""

import json
import random
import sys
from math import gcd
from operator import sub
from pathlib import Path

import pytest

from lenumbers import MultiPoly, colength, ideal, parse_poly
from lenumbers.localring import EliminationOrder, LocalOrder, standard_basis
from lenumbers.polynomials import mono_deg
from saturation_oracle import insert_var
from staircase_oracle import staircase_oracle

DATA = Path(__file__).resolve().parent / "data" / "standard_bases.json"
RANDOM_IDEALS = 60
QUOTIENT_LIFTS = 8
# cases whose recorded elements the chain criterion changes, but not their ideal
EQUIVALENT_ONLY = {"lift6"}


def _random_poly(rng, nvars, pure_power=None):
    terms = {}
    if pure_power is not None:
        terms[tuple(pure_power[1] if v == pure_power[0] else 0 for v in range(nvars))] = 1
    for _ in range(rng.randint(1, 3)):
        mono = tuple(rng.randint(0, 3) for _ in range(nvars))
        if 1 <= sum(mono) <= 4:
            terms[mono] = rng.choice((-3, -2, -1, 1, 2, 3))
    return MultiPoly(terms, nvars)


def _cases():
    rng = random.Random(2024)
    cases = []
    while len(cases) < RANDOM_IDEALS:
        nvars = rng.randint(2, 3)
        if len(cases) % 2 == 0:
            gens = [_random_poly(rng, nvars, (v, rng.randint(2, 4))) for v in range(nvars)]
        else:
            gens = [_random_poly(rng, nvars) for _ in range(rng.randint(1, 3))]
        gens = [g for g in gens if not g.is_zero and not g.constant_term()]
        if gens:
            cases.append((f"local{len(cases)}", ideal(gens, nvars), LocalOrder()))
    for k in range(QUOTIENT_LIFTS):
        _, base, _ = cases[3 * k + 1]
        n = base.nvars
        # the intersection ideal of ideal_quotient(base, x_v + c*x_w)
        v, w = rng.sample(range(n), 2)
        g = MultiPoly({tuple(int(i == v) for i in range(n)): 1,
                       tuple(int(i == w) for i in range(n)): rng.choice((-2, -1, 1, 2))}, n)
        tag = MultiPoly.variable(0, n + 1)
        lifted = [tag * insert_var(f) for f in base.generators]
        lifted.append((MultiPoly.constant(1, n + 1) - tag) * insert_var(g))
        cases.append((f"lift{k}", ideal(lifted, n + 1), EliminationOrder()))
    return cases


def _record(I, sb):
    return {
        "order": repr(sb.order),
        "generators": I.to_strings(),
        "basis": [g.to_string() for g in sb.basis],
        "staircase": [list(m) for m in sb.staircase],
        "cap": sb.cap,
    }


CASES = _cases()


@pytest.fixture(scope="module")
def recorded():
    return json.loads(DATA.read_text())


@pytest.mark.parametrize("name,I,order", CASES, ids=[c[0] for c in CASES])
def test_standard_basis_matches_recording(recorded, name, I, order):
    sb = standard_basis(I, order)
    got, want = _record(I, sb), recorded[name]
    if name in EQUIVALENT_ONLY:
        got.pop("basis")
        names = [f"x{i}" for i in range(I.nvars)]
        ref = [parse_poly(g, names) for g in want.pop("basis")]
        ref_sb = standard_basis(ideal(ref, I.nvars), order)
        assert all(sb.contains(g) for g in ref) and all(ref_sb.contains(g) for g in sb.basis)
    assert got == want
    # every element is a primitive integer polynomial, grlex-leading term positive
    for g in sb.basis:
        coeffs = list(g.terms.values())
        assert all(c.denominator == 1 for c in coeffs)
        assert gcd(*(c.numerator for c in coeffs)) == 1
        assert g.terms[max(g.terms, key=lambda m: (mono_deg(m), m))] > 0
    # colength reads the count the completion made for its last cap
    if order.ntags == 0:
        counted = staircase_oracle(sb.staircase, I.nvars)
        assert colength(I) == (None if counted is None else counted[0])


def _lcm(a, b):
    return tuple(map(max, a, b))


def _leading(g, order):
    m = max(g.terms, key=order.key)
    return m, g.terms[m]


def _spoly(f, g, order):
    (lm_f, lc_f), (lm_g, lc_g) = _leading(f, order), _leading(g, order)
    lcm_fg = _lcm(lm_f, lm_g)
    return (MultiPoly({tuple(map(sub, lcm_fg, lm_f)): 1 / lc_f}, f.nvars) * f
            - MultiPoly({tuple(map(sub, lcm_fg, lm_g)): 1 / lc_g}, g.nvars) * g)


@pytest.mark.parametrize("name,I,order", CASES, ids=[c[0] for c in CASES])
def test_every_spolynomial_of_the_basis_reduces_to_zero(name, I, order):
    # Buchberger's criterion over all pairs, including those the completion skipped
    sb = standard_basis(I, order)
    assert all(sb.contains(g) for g in I.generators)
    for j, g in enumerate(sb.basis):
        for f in sb.basis[:j]:
            assert sb.contains(_spoly(f, g, order))


def test_recording_covers_both_orders_and_caps(recorded):
    assert len(recorded) == RANDOM_IDEALS + QUOTIENT_LIFTS
    assert {case["order"] for case in recorded.values()} == {
        "LocalOrder()", "EliminationOrder()"}
    capped = sum(case["cap"] is not None for case in recorded.values())
    assert 0 < capped < len(recorded)


if __name__ == "__main__":
    DATA.parent.mkdir(exist_ok=True)
    out = {name: _record(I, standard_basis(I, order)) for name, I, order in CASES}
    DATA.write_text(json.dumps(out, indent=1) + "\n")
    print(f"wrote {DATA.name} ({len(out)} cases)", file=sys.stderr)
