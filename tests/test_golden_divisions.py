"""Recorded Mora divisions of seeded random polynomials, compared term for term.

The cases divide a random f with rational coefficients by 1 to 3 random
generators without constant term, some of them zero, under ``LocalOrder()``
in 2 and 3 variables and under ``EliminationOrder()`` in 3 variables, and
by 1 or 2 small generators of which at least one has a constant term, so that
a generator may be a unit and lead with the monomial 1, under both.  For
each the recording keeps the printed remainder, unit and quotients of
``mora_divide`` and the monomial budget it charged, so any change to the
division (reducer choice, remembered remainders, scaling of the witnesses,
budget charges) shows.

Running this module as a script rewrites ``tests/data/mora_divisions.json``;
do that only when a change of the computed divisions is intended.
"""

import json
import random
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from lenumbers import Budget, MultiPoly
from lenumbers.localring import EliminationOrder, LocalOrder, mora_divide, mora_reduce

DATA = Path(__file__).resolve().parent / "data" / "mora_divisions.json"
LOCAL_CASES = 36
ELIMINATION_CASES = 24
UNIT_CASES = 12


def _random_poly(rng, nvars, low, high, count):
    terms = {}
    for _ in range(rng.randint(1, count)):
        mono = tuple(rng.randint(0, 2) for _ in range(nvars))
        if low <= sum(mono) <= high:
            terms[mono] = Fraction(rng.choice((-5, -3, -2, -1, 1, 2, 3, 7)), rng.randint(1, 4))
    return MultiPoly(terms, nvars)


def _cases():
    rng = random.Random(7)
    cases = []
    for k in range(LOCAL_CASES + ELIMINATION_CASES):
        local = k < LOCAL_CASES
        nvars = rng.randint(2, 3) if local else 3
        # no generator has a constant term here; generators with one are kept
        # small in _unit_cases, since a large one can make the coefficients grow
        # until a division takes minutes
        gens = [MultiPoly.zero(nvars) if rng.random() < 0.15
                else _random_poly(rng, nvars, 1, 4, 4) for _ in range(rng.randint(1, 3))]
        # a combination of the generators, some multipliers units, sometimes plus other terms
        f = _random_poly(rng, nvars, 2, 4, 2) if rng.random() < 0.3 else MultiPoly.zero(nvars)
        for g in gens:
            unit = MultiPoly.constant(rng.choice((0, 1, -2)), nvars)
            f = f + (unit + _random_poly(rng, nvars, 0, 2, 3)) * g
        if f and rng.random() < 0.6:
            # or its lowest-degree part, so that remainders are remembered
            top = min(map(sum, f.terms))
            f = MultiPoly({m: c for m, c in f.terms.items() if sum(m) <= top}, nvars)
        order = LocalOrder() if local else EliminationOrder()
        cases.append((f"{'local' if local else 'elim'}{k}", f, gens, order))
    return cases + _unit_cases()


def _unit_cases():
    rng = random.Random(11)
    cases = []
    for k in range(UNIT_CASES):
        nvars = rng.randint(2, 3)
        gens = [_random_poly(rng, nvars, 1, 2, 2) for _ in range(rng.randint(1, 2))]
        gens[0] = gens[0] + MultiPoly.constant(rng.choice((-2, 1, 3)), nvars)
        f = _random_poly(rng, nvars, 0, 3, 3) + _random_poly(rng, nvars, 1, 3, 3)
        order = LocalOrder() if k % 2 == 0 else EliminationOrder()
        cases.append((f"unit{k}", f, gens, order))
    return cases


def _record(f, gens, order):
    budget = Budget()
    r, u, q = mora_divide(f, gens, order, budget)
    return {
        "order": repr(order),
        "f": f.to_string(),
        "gens": [g.to_string() for g in gens],
        "r": r.to_string(),
        "u": u.to_string(),
        "q": [p.to_string() for p in q],
        "monomials_used": budget.monomials_used,
    }


CASES = _cases()


@pytest.fixture(scope="module")
def recorded():
    return json.loads(DATA.read_text())


@pytest.mark.parametrize("name,f,gens,order", CASES, ids=[c[0] for c in CASES])
def test_mora_division_matches_recording(recorded, name, f, gens, order):
    assert _record(f, gens, order) == recorded[name]
    assert mora_reduce(f, gens, order).to_string() == recorded[name]["r"]


def test_recording_covers_orders_zero_slots_and_remainders(recorded):
    assert len(recorded) == LOCAL_CASES + ELIMINATION_CASES + UNIT_CASES
    assert {case["order"] for case in recorded.values()} == {
        "LocalOrder()", "EliminationOrder()"}
    assert any("0" in case["gens"] for case in recorded.values())
    assert any(len(case["gens"]) == 3 for case in recorded.values())
    zero = sum(case["r"] == "0" for case in recorded.values())
    assert 0 < zero < len(recorded)
    assert any(case["u"] != "1" for case in recorded.values())
    units = [case for name, case in recorded.items() if name.startswith("unit")]
    assert {case["order"] for case in units} == {"LocalOrder()", "EliminationOrder()"}


if __name__ == "__main__":
    DATA.parent.mkdir(exist_ok=True)
    out = {name: _record(f, gens, order) for name, f, gens, order in CASES}
    DATA.write_text(json.dumps(out, indent=1) + "\n")
    print(f"wrote {DATA.name} ({len(out)} cases)", file=sys.stderr)
