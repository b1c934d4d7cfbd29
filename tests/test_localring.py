import random
from fractions import Fraction
from itertools import product
from math import gcd, prod

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lenumbers import (
    Budget,
    InputError,
    MultiPoly,
    ResourceLimitError,
    colength,
    ideal,
    localring,
    parse_poly,
    slice_with_form,
)
from lenumbers.localring import (
    EliminationOrder,
    LocalOrder,
    _staircase_count,
    ideal_quotient,
    ideal_sum,
    leading,
    mora_divide,
    mora_reduce,
    multiplicity,
    saturate,
    standard_basis,
)
from lenumbers.polynomials import mono_deg, mono_divides
from ideal_equality import ideals_equal
from saturation_oracle import colon_saturation, insert_var, multipoly_saturation
from staircase_oracle import staircase_oracle
from test_cyclo import alarm_after

XY = ["x", "y"]
XYZ = ["x", "y", "z"]


def P(text, names=XY):
    return parse_poly(text, names)


def unit_ideal(nvars):
    return ideal([MultiPoly.constant(1, nvars)], nvars)


# ---------------------------------------------------------------------------
# Mora reduction
# ---------------------------------------------------------------------------


def test_local_leading_monomial_prefers_low_degree():
    order = LocalOrder()
    assert leading(P("x + x^2"), order) == ((1, 0), Fraction(1))
    assert leading(P("x^2 + x*y + y^2"), order)[0] == (2, 0)


def test_mora_reduce_monomial_membership():
    assert mora_reduce(P("x^2"), [P("x")]).is_zero
    assert mora_reduce(P("x"), [P("x^2")]) == P("x")


def test_mora_reduce_absorbs_local_unit():
    # x = (1+x)^-1 * (x + x^2) in the local ring, so the remainder is 0
    assert mora_reduce(P("x"), [P("x + x^2")]).is_zero


def _rand_poly(rng, nvars, low=0):
    terms = {}
    for _ in range(rng.randint(1, 3)):
        mono = tuple(rng.randint(0, 2) for _ in range(nvars))
        if sum(mono) >= low:
            terms[mono] = Fraction(rng.randint(-3, 3), rng.randint(1, 4))
    return MultiPoly(terms, nvars)


def test_mora_divide_witness_identity_any_inputs():
    # f and the generators may have a constant term, so generators may be units
    for order in (LocalOrder(), EliminationOrder()):
        rng = random.Random(17)
        for _ in range(30):
            nvars = rng.randint(2, 3)

            def rand_poly():
                terms = {tuple(rng.randint(0, 2) for _ in range(nvars)):
                         Fraction(rng.randint(-3, 3)) for _ in range(rng.randint(1, 3))}
                return MultiPoly(terms, nvars)

            f = rand_poly()
            gens = [g for g in (rand_poly(), rand_poly()) if not g.is_zero]
            if not gens or f.is_zero:
                continue
            r, unit, quots = mora_divide(f, gens, order)
            combination = MultiPoly.zero(nvars)
            for q, g in zip(quots, gens):
                combination = combination + q * g
            assert unit * f == combination + r
            assert unit.constant_term() == 1


def test_mora_divide_witness_identity():
    for order in (LocalOrder(), EliminationOrder()):
        rng = random.Random(17)
        units = 0
        for trial in range(40):
            n = rng.randint(2, 3)
            one = MultiPoly.constant(1, n)
            # a zero slot, and a generator with a unit factor
            gens = [_rand_poly(rng, n, 1), MultiPoly.zero(n),
                    (one + _rand_poly(rng, n, 1)) * _rand_poly(rng, n, 1)]
            # f = 0, a combination of the generators, or its terms of degree at
            # most that of its leading monomial (ecart 0, so remainders are kept)
            f = MultiPoly.zero(n)
            if trial % 4:
                f = _rand_poly(rng, n) * gens[0] + _rand_poly(rng, n) * gens[2]
            if trial % 4 == 3 and f:
                top = mono_deg(leading(f, order)[0])
                f = MultiPoly({m: c for m, c in f.terms.items() if mono_deg(m) <= top}, n)
            r, unit, quots = mora_divide(f, gens, order)
            assert len(quots) == len(gens)
            assert quots[1].is_zero
            assert unit * f == quots[0] * gens[0] + quots[2] * gens[2] + r
            assert unit.constant_term() == 1
            if f.is_zero:
                assert r.is_zero and unit == one
            units += unit != one
        # some remainders were remembered and used, so the unit was tracked
        assert units, order


# ---------------------------------------------------------------------------
# standard bases and colength
# ---------------------------------------------------------------------------


def test_standard_basis_coordinate_ideal():
    sb = standard_basis(ideal([P("x"), P("y")]))
    assert set(sb.staircase) == {(1, 0), (0, 1)}


def test_standard_basis_unit_multiple():
    sb = standard_basis(ideal([P("x + x^2"), P("y")]))
    assert set(sb.staircase) == {(1, 0), (0, 1)}


def test_standard_basis_monomial_jacobian():
    sb = standard_basis(ideal([P("3*x^2"), P("3*y^2")]))
    assert set(sb.staircase) == {(2, 0), (0, 2)}


def test_colength_examples():
    assert colength(ideal([parse_poly(v, XYZ) for v in "xyz"])) == 1
    assert colength(ideal([P("x^2"), P("y^2")])) == 4
    assert colength(ideal([P("x^2"), P("x*y")])) is None
    assert colength(unit_ideal(2)) == 0
    assert colength(ideal([], 2)) is None


def test_colength_local_vs_global():
    assert colength(ideal([P("x + x^2"), P("y")])) == 1


def test_milnor_numbers_of_plane_curve_family():
    for a in range(2, 6):
        for b in range(2, 6):
            f = P(f"x^{a} + y^{b}")
            jac = ideal([f.partial(0), f.partial(1)])
            sb = standard_basis(jac)
            assert colength(jac) == (a - 1) * (b - 1)
            assert staircase_oracle(sb.staircase, 2)[0] == (a - 1) * (b - 1)


def test_milnor_number_of_ordinary_double_point():
    f = parse_poly("x^2+y^2+z^2", XYZ)
    jac = ideal([f.partial(i) for i in range(3)])
    assert colength(jac) == 1
    assert staircase_oracle(standard_basis(jac).staircase, 3) == (1, 0)


def test_colength_matches_oracle_on_random_monomial_ideals():
    rng = random.Random(41)
    for _ in range(40):
        nvars = rng.randint(1, 3)
        gens = []
        for _ in range(rng.randint(1, 4)):
            mono = tuple(rng.randint(0, 4) for _ in range(nvars))
            if sum(mono) == 0 or sum(mono) > 8:
                continue
            gens.append(MultiPoly({mono: 1}, nvars))
        if not gens:
            continue
        value = colength(ideal(gens, nvars))
        oracle = staircase_oracle(standard_basis(ideal(gens, nvars)).staircase, nvars)
        assert value == (None if oracle is None else oracle[0])


@st.composite
def monomial_ideals(draw):
    """(nvars, generators): 0-4 variables, exponents 0-6, 1-6 exponent tuples,
    about half of them pure powers, which include the unit monomial."""
    nvars = draw(st.integers(0, 4))
    exponents = st.integers(0, 6)
    monomials = st.tuples(*[exponents] * nvars)
    if nvars:
        monomials |= st.builds(lambda v, e: tuple(e if u == v else 0 for u in range(nvars)),
                               st.integers(0, nvars - 1), exponents)
    return nvars, draw(st.lists(monomials, min_size=1, max_size=6))


@settings(max_examples=400, deadline=None)
@given(monomial_ideals())
@example((2, [(3, 0), (1, 1)]))             # no pure power of y: infinite
@example((3, [(0, 0, 0), (2, 0, 0)]))       # the unit monomial: nothing standard
@example((0, [()]))
def test_staircase_count_matches_the_oracle(case):
    nvars, gens = case
    budget = Budget()
    assert _staircase_count(gens, nvars, budget) == staircase_oracle(gens, nvars)
    # the box below the smallest pure powers is charged, and nothing when it is infinite
    bounds = [min((m[v] for m in gens if sum(m) == m[v]), default=None) for v in range(nvars)]
    assert budget.monomials_used == (0 if None in bounds else prod(bounds))
    assert budget.pairs_used == 0


def test_colength_reads_the_count_of_the_last_cap(monkeypatch):
    # the highest-corner cap falls twice as elements join the basis, so a
    # count taken before the last one joined would be too large
    caps = []
    lower = localring._lower_cap

    def spy(*args):
        counted, cap, basis = lower(*args)
        caps.append(cap)
        return counted, cap, basis

    monkeypatch.setattr(localring, "_lower_cap", spy)
    I = ideal([P("x^5"), P("y^9"), P("2*x^2*y + y^3"), P("x^2*y^3 - x^3*y^2")])
    assert colength(I) == 13
    assert caps == [10, 9, 6]
    assert staircase_oracle(standard_basis(I).staircase, 2) == (13, 5)


def multiplicity_of(I):
    sb = standard_basis(I)
    return multiplicity(sb.staircase, sb.nvars)


def test_colength_and_multiplicity_edge_values():
    X = ["x"]
    assert multiplicity_of(ideal([], 1)) == 1                               # the zero ideal
    cube = ideal([P("x^3", X)])
    assert (colength(cube), multiplicity_of(cube)) == (3, None)
    square = ideal([P("x^2")])                                              # in x and y
    assert (colength(square), multiplicity_of(square)) == (None, 2)
    assert multiplicity_of(ideal([P("x*y")])) == 2
    unit = unit_ideal(2)
    assert (colength(unit), multiplicity_of(unit)) == (0, None)


def test_colength_invariant_under_coordinate_change():
    rng = random.Random(43)
    f = P("x^3 + y^4")
    base = ideal([f.partial(0), f.partial(1)])
    expected = colength(base)
    for _ in range(5):
        m = [[Fraction(int(i == j)) for j in range(2)] for i in range(2)]
        for _ in range(4):
            i, j = rng.sample(range(2), 2)
            c = rng.randint(-2, 2)
            for col in range(2):
                m[i][col] += c * m[j][col]
        changed = ideal([g.linear_change(m) for g in base.generators])
        assert colength(changed) == expected


def jacobian(f):
    return ideal([f.partial(i) for i in range(f.nvars)])


def small_budget():
    # far above what the truncated computations below need (at most about
    # 1500 monomials), far below what unbounded coefficient growth costs
    return Budget(max_pairs=100, max_monomials=5_000)


def test_le_iomdine_colength_of_sliced_germs():
    # mu(g + w^N) = lambda0 + (N - 1) * lambda1 (Le-Iomdine) for the umbrella
    # and D-infinity, both with (lambda0, lambda1) = (2, 1), sliced by the
    # generic form (1, 1, -5).  Without the highest-corner cap the umbrella's
    # Mora reductions grow coefficients without bound.
    for text in ("x^2 - y^2*z", "x^2*y + z^2"):
        g = slice_with_form(parse_poly(text, XYZ), (1, 1, -5))[0].f
        for N in range(5, 9):
            F = g + MultiPoly.variable(0, 3) ** N
            assert colength(jacobian(F), small_budget()) == 2 + (N - 1)


def test_semi_quasihomogeneous_milnor_numbers():
    """mu(x^a + y^b + z^c + h) = (a-1)(b-1)(c-1) when h has weighted degree > 1.

    Every extra term also has total degree > max(a, b, c), so each partial
    derivative of h has degree >= max(a, b, c) > the degree of the pure power
    leading that Jacobian generator.  The generators' leading monomials are
    then x^(a-1), y^(b-1), z^(c-1), and the cap engages from the first basis.
    """
    rng = random.Random(59)
    for _ in range(60):
        a, b, c = (rng.randint(2, 6) for _ in range(3))
        terms = {(a, 0, 0): 1, (0, b, 0): 1, (0, 0, c): 1}
        while len(terms) < 3 + rng.randint(1, 3):
            e = tuple(rng.randint(0, 6) for _ in range(3))
            # weighted degree e0/a + e1/b + e2/c > 1, in integers
            if e[0] * b * c + e[1] * a * c + e[2] * a * b > a * b * c and sum(e) > max(a, b, c):
                terms[e] = rng.choice((-3, -2, -1, 1, 2, 3))
        f = MultiPoly(terms, 3)
        assert colength(jacobian(f), small_budget()) == (a - 1) * (b - 1) * (c - 1)


def test_highest_corner_cap_is_certified():
    g = slice_with_form(parse_poly("x^2 - y^2*z", XYZ), (1, 1, -5))[0].f
    cases = [
        (jacobian(g + MultiPoly.variable(0, 3) ** 5), 3),
        (jacobian(P("x^3 + y^4 + x^2*y^2")), 2),
        (ideal([P("x + x^2"), P("y")]), 2),
    ]
    for I, nvars in cases:
        sb = standard_basis(I, budget=small_budget())
        assert sb.cap is not None
        # an element is truncated below the cap, or is its leading monomial
        assert all(len(el.terms) == 1 or all(mono_deg(m) < sb.cap for m in el.terms)
                   for el in sb.basis)
        box = [m for m in product(range(sb.cap + 1), repeat=nvars) if sum(m) <= sb.cap]
        standard = [m for m in box if not any(mono_divides(s, m) for s in sb.staircase)]
        assert len(standard) == colength(I)
        for m in box:
            mono = MultiPoly({m: 1}, nvars)
            if mono_deg(m) == sb.cap:
                assert any(mono_divides(s, m) for s in sb.staircase)
                assert sb.contains(mono)
            elif m in standard:
                assert not sb.contains(mono)


def test_plain_and_tracked_reduction_agree_on_membership():
    # contains() runs the Mora loop on [f] (truncated at the cap), mora_reduce
    # on [f, U, Q_1..Q_k]; both must say whether f lies in the ideal
    rng = random.Random(61)
    seen = set()
    for trial in range(40):
        n = rng.randint(2, 3)
        gens = [_rand_poly(rng, n, 1) for _ in range(rng.randint(1, 3))]
        if trial % 2:
            # pure powers of every variable make the ideal zero-dimensional
            gens += [MultiPoly.variable(v, n) ** rng.randint(2, 4) + _rand_poly(rng, n, 2)
                     for v in range(n)]
        if all(g.is_zero for g in gens):
            continue
        sb = standard_basis(ideal(gens, n), budget=small_budget())
        inside = MultiPoly.zero(n)
        for g in gens:
            inside = inside + _rand_poly(rng, n) * g
        candidates = [inside, inside + _rand_poly(rng, n), _rand_poly(rng, n, 1)]
        if sb.cap:
            standard = [m for m in product(range(sb.cap), repeat=n)
                        if not any(mono_divides(s, m) for s in sb.staircase)]
            # a standard monomial is outside the ideal, and so is inside + it
            candidates.append(inside + MultiPoly({rng.choice(standard): 1}, n))
        for f in candidates:
            member = sb.contains(f, small_budget())
            assert mora_reduce(f, sb.basis, budget=small_budget()).is_zero == member
            truncated = sb.cap is not None and any(mono_deg(m) >= sb.cap for m in f.terms)
            seen.add((member, sb.cap is not None, truncated))
    assert {(True, False, False), (False, False, False),
            (True, True, True), (False, True, True)} <= seen


def test_highest_corner_cap_edge_cases():
    unit = standard_basis(unit_ideal(2))
    assert unit.cap == 0
    assert colength(unit_ideal(2)) == 0
    assert unit.contains(P("x + 3"))
    line = standard_basis(ideal([P("x^2"), P("x*y")]))
    assert line.cap is None
    assert colength(ideal([P("x^2"), P("x*y")])) is None
    assert not line.contains(P("y^7"))


# ---------------------------------------------------------------------------
# quotients and saturation
# ---------------------------------------------------------------------------


def test_quotient_examples():
    assert ideals_equal(ideal_quotient(ideal([P("x*y")]), P("y")), ideal([P("x")]))
    assert ideals_equal(ideal_quotient(ideal([P("x")]), P("x")), unit_ideal(2))
    assert ideals_equal(
        ideal_quotient(ideal([P("x"), P("y")]), P("x^2 + y^2")), unit_ideal(2))


def test_quotient_rejects_zero():
    with pytest.raises(InputError):
        ideal_quotient(ideal([P("x")]), MultiPoly.zero(2))


def test_quotient_by_local_unit_is_identity():
    base = ideal([P("x^2"), P("x*y")])
    assert ideals_equal(ideal_quotient(base, P("1 + x")), base)


def test_quotient_of_a_unit_ideal_is_the_unit_ideal_at_once():
    # 15*x^2*y + 18*y - 5 is a unit; completing this lift charged 19,308
    # monomials in 5 s without finishing
    I = ideal([P("15*x^2*y + 18*y - 5"), P("33*x^3*y + 20*x^3 + 44*y")])
    with alarm_after(10):
        colon = ideal_quotient(I, P("-3*y^3"))
    assert (colon, colon.standard) == (unit_ideal(2), 1)
    # where the completion of the lift finishes, it gives the same ideal
    I, g = ideal([P("x + 1"), P("y^2")]), P("x*y")
    slow = localring._intersect(localring._lift(I, g), 2, Budget(), g)
    fast = ideal_quotient(I, g)
    assert (fast, fast.standard) == (slow, slow.standard) == (unit_ideal(2), 1)


def test_quotient_sandwich_random():
    # soundness both ways: I <= (I : g) and (I : g) * g <= I
    rng = random.Random(53)
    done = 0
    while done < 25:
        nvars = rng.randint(2, 3)

        def rand_poly():
            terms = {}
            for _ in range(rng.randint(1, 3)):
                mono = tuple(rng.randint(0, 2) for _ in range(nvars))
                if sum(mono) <= 3:
                    terms[mono] = Fraction(rng.randint(-3, 3))
            return MultiPoly(terms, nvars)

        gens = [p for p in (rand_poly(), rand_poly()) if not p.is_zero]
        g = rand_poly()
        if not gens or g.is_zero:
            continue
        base = ideal(gens, nvars)
        quotient = ideal_quotient(base, g)
        sb_base = standard_basis(base)
        sb_quot = standard_basis(quotient)
        assert all(sb_quot.contains(h) for h in base.generators)
        assert all(sb_base.contains(q * g) for q in quotient.generators)
        done += 1


@pytest.mark.parametrize("gens,expected", [
    (["x", "y"], 1),                # the z-axis
    (["x", "y^2"], 2),              # a double line
    (["x^2", "x*y", "y^2"], 3),     # the z-axis with the square of its ideal
    (["x*y", "z"], 2),              # two lines
    (["x", "y", "z^2"], None),      # zero-dimensional
    (["z"], None),                  # two-dimensional
    (["1"], None),                  # the unit ideal
], ids=["line", "double-line", "fat-line", "two-lines", "dim0", "dim2", "unit"])
def test_multiplicity_of_monomial_staircases(gens, expected):
    # monomials are their own standard basis, so the staircase is gens
    sb = standard_basis(ideal([P(g, XYZ) for g in gens], 3))
    assert multiplicity(sb.staircase, sb.nvars) == expected


def test_multiplicity_is_the_hilbert_samuel_slope():
    # the cusp y^2 = x^3, z = x*y has multiplicity 2: for large k,
    # colength(I + m^(k+1)) - colength(I + m^k) = e
    I = ideal([P("y^2 - x^3", XYZ), P("z - x*y", XYZ)], 3)

    def colength_mod_power(k):
        power = [MultiPoly({m: 1}, 3) for m in product(range(k + 1), repeat=3) if sum(m) == k]
        return colength(ideal_sum(I, ideal(power, 3)))

    assert multiplicity_of(I) == colength_mod_power(7) - colength_mod_power(6) == 2


def test_saturate_examples():
    assert ideals_equal(saturate(ideal([P("x*y^2")]), P("y")), ideal([P("x")]))
    assert ideals_equal(
        saturate(ideal([P("x"), P("y")]), P("x^2 + y^2")), unit_ideal(2))
    # the integer-term lift gives the generators of the MultiPoly lift
    halves = MultiPoly({(1, 0): Fraction(-1, 2), (0, 1): Fraction(1, 3)}, 2)
    for gens, g in [(["x*y^2"], P("y")), (["x", "y"], P("x^2 + y^2")),
                    (["2*x^2 - y^3"], halves), (["x^2*y", "x*y^3"], P("3*y + 1"))]:
        I = ideal([P(text) for text in gens])
        assert saturate(I, g).generators == multipoly_saturation(I, g).generators


def test_saturate_and_quotient_of_the_zero_ideal_are_zero():
    zero = ideal([], 2)
    for g in (P("x"), P("x + y^2"), P("1 + x")):
        assert not saturate(zero, g).generators
        assert not multipoly_saturation(zero, g).generators
        assert not ideal_quotient(zero, g).generators


@pytest.mark.parametrize("operation", [ideal_quotient, saturate])
def test_quotient_and_saturate_check_the_ring_first(operation):
    # the zero ideal of the wrong ring is an error, not the zero ideal
    for I in (ideal([], 2), ideal([P("x")])):
        with pytest.raises(InputError, match="different rings"):
            operation(I, MultiPoly.variable(0, 3))


def _random_saturations():
    """50 pairs (I, g) of random ideals and elements in 2 or 3 variables."""
    rng = random.Random(47)
    pairs = []
    while len(pairs) < 50:
        nvars = rng.randint(2, 3)

        def rand_poly():
            terms = {}
            for _ in range(rng.randint(1, 3)):
                mono = tuple(rng.randint(0, 2) for _ in range(nvars))
                if sum(mono) > 3:
                    continue
                terms[mono] = Fraction(rng.randint(-3, 3))
            return MultiPoly(terms, nvars)

        gens = [g for g in (rand_poly(), rand_poly()) if not g.is_zero]
        g = rand_poly()
        if gens and not g.is_zero:
            pairs.append((ideal(gens, nvars), g))
    return pairs


def test_saturate_idempotent_random():
    for I, g in _random_saturations():
        first = saturate(I, g)
        assert ideals_equal(first, saturate(first, g))
        assert first.generators == multipoly_saturation(I, g).generators


def test_saturate_matches_the_colon_chain_random():
    # one elimination basis against colon steps until they add nothing
    for I, g in _random_saturations():
        assert ideals_equal(saturate(I, g), colon_saturation(I, g))


def test_ideal_sum_examples():
    assert ideals_equal(ideal_sum(ideal([P("x")]), ideal([P("y")])),
                        ideal([P("x"), P("y")]))
    assert ideals_equal(ideal_sum(ideal([P("x^2")]), unit_ideal(2)), unit_ideal(2))
    summed = ideal_sum(ideal([P("x^2")]), ideal([P("x")]))
    assert set(standard_basis(summed).staircase) == {(1, 0)}


def test_ideal_sum_rejects_mixed_rings():
    with pytest.raises(InputError):
        ideal_sum(ideal([P("x")]), ideal([parse_poly("x", XYZ)]))
    # x divides x but lives in another ring: no division is attempted
    with pytest.raises(InputError):
        mora_divide(P("x"), [parse_poly("x", XYZ)])


COEFFICIENTS = st.fractions(-4, 4, max_denominator=5)
POLYS = st.dictionaries(st.tuples(st.integers(0, 3), st.integers(0, 3)), COEFFICIENTS,
                        max_size=3).map(lambda t: MultiPoly(t, 2))


@st.composite
def generator_lists(draw):
    """Polynomials in x and y with Fraction coefficients, as a list of
    scalar multiples of a few of them: duplicates, multiples and zeros."""
    bases = draw(st.lists(POLYS, min_size=1, max_size=4))
    scalars = COEFFICIENTS.filter(bool) | st.just(1)
    return draw(st.lists(st.tuples(st.sampled_from(bases), scalars).map(lambda p: p[0] * p[1]),
                         max_size=6))


def assert_stored_form(I):
    """I stores primitive integer terms with a positive grlex-leading
    coefficient, and ``ideal`` of its generators gives I back, with its hash."""
    for h in I.integer_terms:
        assert h and all(type(c) is int for c in h.values())
        assert gcd(*h.values()) == 1 and h[max(h, key=lambda m: (sum(m), m))] > 0
    again = ideal(I.generators, I.nvars)
    assert again == I and hash(again) == hash(I)


@settings(max_examples=150, derandomize=True, deadline=None)
@given(generator_lists(), generator_lists())
def test_ideal_sum_is_the_normalized_concatenation(A, B):
    a, b = ideal(A, 2), ideal(B, 2)
    fast, slow = ideal_sum(a, b), ideal(a.generators + b.generators, 2)
    assert fast.generators == slow.generators
    assert fast.integer_terms == slow.integer_terms
    assert fast.standard == slow.standard == 0
    for I in (a, b, fast):
        assert_stored_form(I)


@settings(max_examples=100, derandomize=True, deadline=None)
@given(generator_lists(), POLYS.filter(bool))
def test_the_colon_lift_is_the_ideal_of_the_lifted_products(A, g):
    I = ideal(A, 2)
    t, one = MultiPoly.variable(0, 3), MultiPoly.constant(1, 3)
    slow = ideal([t * insert_var(f) for f in I.generators] + [(one - t) * insert_var(g)], 3)
    fast = localring._lift(I, g)
    assert fast.generators == slow.generators
    assert fast.integer_terms == slow.integer_terms
    assert_stored_form(fast)
    for operation in (ideal_quotient, saturate):
        # the budget cuts off the few colons whose coefficients run away
        try:
            J = operation(I, g, Budget(max_monomials=5000))
        except ResourceLimitError:
            continue
        assert_stored_form(J)
        if operation is saturate:
            assert J.generators == multipoly_saturation(I, g).generators


def test_leading_and_multiplicity_reject_bad_input():
    with pytest.raises(InputError, match="zero polynomial"):
        leading(MultiPoly.zero(2), LocalOrder())
    for lead in ([(1, 0)], [(1, 0, 0), (0, 1)], [(0, 0, 0, 1)]):
        with pytest.raises(InputError, match="3 exponents"):
            multiplicity(lead, 3)


# ---------------------------------------------------------------------------
# resource budgets
# ---------------------------------------------------------------------------


def test_pair_budget_enforced():
    gens = [P("x^2 + y^3"), P("y^2 + x^3"), P("x*y")]
    with pytest.raises(ResourceLimitError, match="S-pair"):
        standard_basis(ideal(gens), budget=Budget(max_pairs=1))


def test_monomial_budget_enforced():
    gens = [P("x^2 + y^3"), P("y^2 + x^3"), P("x*y")]
    with pytest.raises(ResourceLimitError, match="monomial"):
        standard_basis(ideal(gens), budget=Budget(max_monomials=2))


@pytest.mark.parametrize("caps", [
    {"max_pairs": 0}, {"max_pairs": 1.5}, {"max_monomials": -3}, {"max_monomials": True},
], ids=["zero-pairs", "float-pairs", "negative-monomials", "bool-monomials"])
def test_budget_caps_are_positive_integers(caps):
    with pytest.raises(InputError):
        Budget(**caps)


def test_budget_is_cumulative():
    budget = Budget(max_pairs=10)
    standard_basis(ideal([P("x"), P("y")]), budget=budget)
    assert budget.pairs_used >= 1
    assert colength(ideal([P("x"), P("y")]), budget) is not None


@pytest.fixture
def monomial_charges(monkeypatch):
    """The counts charged to any Budget's monomial counter while the test runs."""
    charges = []
    tick = Budget.tick_monomials
    monkeypatch.setattr(Budget, "tick_monomials",
                        lambda self, count: charges.append(count) or tick(self, count))
    return charges


def test_mora_reduce_without_a_budget_is_charged(monomial_charges):
    assert mora_reduce(P("x^2 + x*y"), [P("x")]).is_zero
    assert monomial_charges


def test_membership_without_a_budget_is_charged(monomial_charges):
    sb = standard_basis(ideal([P("x")]))
    assert not monomial_charges  # a single generator needs no reduction
    assert sb.contains(P("x*y"))
    assert monomial_charges


def test_ideal_checks_the_variable_count_of_zero_generators():
    # a zero generator in the wrong ring is an error, as a nonzero one is
    with pytest.raises(InputError, match="variable count"):
        ideal([P("x"), MultiPoly.zero(5)])
    with pytest.raises(InputError, match="variable count"):
        ideal([MultiPoly.zero(5)], 2)


def test_ideal_scales_generators_to_primitive_integer_form():
    g = MultiPoly({(1, 0): Fraction(-1, 2), (0, 1): Fraction(1, 3)}, 2)
    assert ideal([g]).generators == (P("3*x - 2*y"),)
    assert ideal([P("2*x^2 + 4*y"), P("-x^2 - 2*y")]).generators == (P("x^2 + 2*y"),)
    # first-seen order, a positive grlex-leading coefficient, and x, 2*x and -x as one
    assert ideal([P("y - x^2"), P("x"), P("2*x"), P("-x")]).generators == (P("x^2 - y"), P("x"))
    # the ideal stores the primitive integer terms
    assert ideal([g]).integer_terms == ({(1, 0): 3, (0, 1): -2},)


def test_budget_error_reports_counters():
    gens = [P("x^2 + y^3"), P("y^2 + x^3"), P("x*y")]
    for budget in (Budget(max_pairs=1), Budget(max_monomials=2)):
        with pytest.raises(ResourceLimitError) as info:
            standard_basis(ideal(gens), budget=budget)
        assert (f"pairs_used={budget.pairs_used}, monomials_used={budget.monomials_used}"
                in str(info.value))


def test_budget_counters_are_not_constructor_arguments():
    with pytest.raises(TypeError):
        Budget(pairs_used=1)
    with pytest.raises(TypeError):
        Budget(monomials_used=1)
