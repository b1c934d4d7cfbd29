"""The standard prefix of the colon ideals, checked on the pipeline's own colons.

``ideal_quotient`` and ``saturate`` return their generators as a
``LocalOrder`` standard basis and claim them as the ideal's standard prefix,
whose pairs ``standard_basis`` never forms.  The corpus is every colon and
saturation the polar stage computes on the ``analyze`` jobs recorded in
``polar_ideals.json``, the first 50 census germs, the cones over plane curves,
the generic arrangements of 4 to 8 planes and the two pinned germs that take
the saturation and the second slice form, each with the sliced function f it
was computed for.  On each, the claim must hold (a completion from
scratch adds no minimal leading monomial), and the completion of J + (h) for
h = f and h = z0 must count what a completion that forms every pair counts.
"""

from functools import cache
from itertools import islice

import pytest

from lenumbers import (Budget, CentralArrangement3, MultiPoly, analyze_poly, compute_all,
                       defining_polynomial, invariants, localring, pick_slice_form,
                       slice_with_form)
from lenumbers.localring import ideal, ideal_sum, standard_basis
from census import census_job, random_germs
from ideal_equality import is_local_standard_basis
from test_cyclo import alarm_after
from test_golden_polar import JOBS as POLAR_JOBS, run_job
from test_invariants import CONES
from test_kernel import GENERIC, P


@cache
def corpus():
    """(colons, claims): colons is [(name, J, f)] for each colon or
    saturation J of the corpus, in the order computed, with the sliced
    function f of its polar stage; claims lists every ideal with a standard
    prefix that the corpus hands to a ``LocalOrder`` completion."""
    colons, claims, polar, complete = [], [], invariants.polar_ideal, localring.standard_basis
    name = f = None

    def polar_spy(setup, budget=None):
        nonlocal f
        f = setup.f
        return polar(setup, budget)

    def spy(operation):
        def wrapper(I, g, budget=None):
            J = operation(I, g, budget)
            colons.append((f"{name}-{operation.__name__}{len(colons)}", J, f))
            return J
        return wrapper

    def complete_spy(I, order=None, budget=None):
        if I.standard and order is None:
            claims.append((name, I))
        return complete(I, order, budget)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(invariants, "polar_ideal", polar_spy)
        mp.setattr(localring, "standard_basis", complete_spy)
        for operation in (invariants.ideal_quotient, invariants.saturate):
            mp.setattr(invariants, operation.__name__, spy(operation))
        with alarm_after(60):
            for germ, seed in POLAR_JOBS:
                name = f"{germ}-seed{seed}"
                run_job(germ, seed)
            for k, text in enumerate(islice(random_germs(1), 50)):
                name = f"census{k}"
                census_job(text)
            for k, (text, _) in enumerate(CONES):
                name = f"cone{k}"
                analyze_poly(P(text))
            for k in range(4, 9):
                name = f"generic{k}"
                arr = CentralArrangement3(GENERIC[:k])
                compute_all(slice_with_form(defining_polynomial(arr), pick_slice_form(arr))[0])
            name = "polarC"
            analyze_poly(P("y^4 - y^3*z^2 + 2*x*y*z^4"), z0=(1, 1, -5))
            name = "two_round"
            analyze_poly(P("2*x*y^4 + 3*z^2 - y^3*z"))
    return colons, claims


def test_the_corpus_covers_every_source():
    colons, claims = corpus()
    names = [name for name, _, _ in colons]
    sources = {name.split("-")[0].rstrip("0123456789") for name in names}
    # the pencil's df/dz0 is 0, so its curve is the unit ideal, without a colon
    assert sources == {"umbrella", "dinf", "xyz", "census", "cone", "generic", "polarC",
                       "two_round"}
    assert [name for name in names if "saturate" in name] == ["polarC-saturate34"]
    assert (len(names), len(claims)) == (37, 13)


def test_only_colons_claim_a_prefix_and_every_claim_holds():
    colons, claims = corpus()
    for name, J, _ in colons:
        assert J.standard == len(J.generators), name
        assert ideal(J.generators).standard == 0
    prefixes = {J.generators for _, J, _ in colons}
    for name, I in claims:
        prefix = I.generators[:I.standard]
        assert prefix in prefixes, name
        # a completion from scratch finds no new minimal leading monomial
        assert is_local_standard_basis(ideal(prefix, I.nvars)), name


def test_prefix_completion_counts_what_the_full_completion_counts():
    for name, J, f in corpus()[0]:
        for h in (f, MultiPoly.variable(0, J.nvars)):
            summed = ideal_sum(J, ideal([h]))
            assert summed.standard == J.standard, name
            # ideal claims no prefix
            full = ideal(J.generators + (h,), J.nvars)
            fast, slow = standard_basis(summed), standard_basis(full)
            assert fast._counted == slow._counted, name
            assert fast.staircase == slow.staircase, name


def test_eight_planes_form_no_pair_inside_the_prefix(monkeypatch):
    (J, f), = [(J, f) for name, J, f in corpus()[0] if name.startswith("generic8")]
    k = len(J.generators)
    popped, heappop = [], localring.heappop
    monkeypatch.setattr(localring, "heappop", lambda queue: popped.append(heappop(queue))
                        or popped[-1])
    fast, slow = Budget(), Budget()
    omega = localring.colength(ideal_sum(J, ideal([f])), fast)
    assert (k, fast.pairs_used, len(popped)) == (28, 1000, 1000)
    assert min(entry[2] for entry in popped) == k
    popped.clear()
    assert localring.colength(ideal(J.generators + (f,), J.nvars), slow) == omega == 168
    assert (slow.pairs_used, len(popped)) == (1378, 1378)
    assert sum(entry[2] < k for entry in popped) == k * (k - 1) // 2
