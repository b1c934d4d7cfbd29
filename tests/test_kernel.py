"""The Mora kernel's packed monomials, and the work the kernel does.

The kernel packs each exponent vector into one int; these tests check the
packed helpers against the tuple ones, that exponents far past machine words
never wrap, and that the budget charges of fixed jobs stay what they are, so
that a change in pair order or reducer choice shows in tier-1.
"""

import random
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lenumbers import (
    Budget,
    CentralArrangement3,
    InputError,
    MultiPoly,
    ResourceLimitError,
    analyze_poly,
    colength,
    defining_polynomial,
    ideal,
    invariants,
    localring,
    parse_poly,
    pick_slice_form,
    slice_with_form,
)
from lenumbers.localring import (
    EliminationOrder,
    LocalOrder,
    StandardBasis,
    _combine,
    _Packing,
    ideal_quotient,
    ideal_sum,
    mora_divide,
    saturate,
    standard_basis,
)
from lenumbers.polynomials import mono_deg, mono_divides, mono_mul
from arrangement_pipeline import arrangement_pipeline
from macaulay_oracle import macaulay_colength
from test_cyclo import alarm_after

XYZ = ["x", "y", "z"]
E = 2**40


def P(text: str) -> MultiPoly:
    return parse_poly(text, XYZ)


def show(p: MultiPoly) -> str:
    return p.to_string(XYZ)


# ---------------------------------------------------------------------------
# packed monomials against exponent tuples
# ---------------------------------------------------------------------------

monomial_lists = st.integers(1, 5).flatmap(lambda n: st.lists(
    st.tuples(*[st.integers(0, E)] * n) | st.tuples(*[st.integers(0, 3)] * n),
    min_size=2, max_size=6))


@settings(max_examples=150, derandomize=True, deadline=None)
@given(monomial_lists)
def test_packed_monomials_agree_with_exponent_tuples(monos):
    n = len(monos[0])
    packing = _Packing(n, max(map(mono_deg, monos)), LocalOrder())
    packed = [packing.pack(m) for m in monos]
    assert [packing.unpack(p) for p in packed] == monos
    for a, pa in zip(monos, packed):
        for b, pb in zip(monos, packed):
            assert packing.unpack(packing.check(pa + pb)) == mono_mul(a, b)
            assert packing.unpack(packing.lcm(pa, pb)) == tuple(map(max, a, b))
            assert (not (pb - pa) & packing.guard) == mono_divides(a, b)
            # int order is grlex, as the content sign and the ecart read it
            assert (pa < pb) == ((mono_deg(a), a) < (mono_deg(b), b))
    orders = [LocalOrder(), EliminationOrder()] if n > 1 else [LocalOrder()]
    for order in orders:
        packing = _Packing(n, max(map(mono_deg, monos)), order)
        packed = [packing.pack(m) for m in monos]
        for a, pa in zip(monos, packed):
            for b, pb in zip(monos, packed):
                assert packing.unpack(packing.lead({pa: 1, pb: 1})) == max(a, b, key=order.key)
        assert packing.unpack(packing.lead(dict.fromkeys(packed, 1))) == max(monos, key=order.key)


@pytest.mark.parametrize("order", [LocalOrder(), EliminationOrder()], ids=repr)
def test_leading_monomials_are_keyed_without_unpacking(monkeypatch, order):
    # both order keys are computed from the packed int: lead must agree with
    # order.key on exponent tuples and never unpack a monomial to key it
    monos = list(product(range(3), repeat=3))
    packing = _Packing(3, 6, order)
    packed = {packing.pack(m): m for m in monos}

    def refuse(self, p):
        raise AssertionError(f"unpacked {p} to key it")

    monkeypatch.setattr(_Packing, "unpack", refuse)
    for a, pa in zip(monos, packed):
        for b, pb in zip(monos, packed):
            assert packed[packing.lead({pa: 1, pb: 1})] == max(a, b, key=order.key)
    assert packed[packing.lead(dict.fromkeys(packed, 1))] == max(monos, key=order.key)
    # on monomials without x_0 both keys are the local one, so _intersect
    # divides the tag-free records of an elimination basis in its own packing
    rng = random.Random(93)
    for trial in range(60):
        n, top = rng.randint(2, 5), E if trial % 3 == 0 else 3
        tag_free = sorted({(0,) + tuple(rng.randint(0, top) for _ in range(n - 1))
                           for _ in range(rng.randint(1, 8))})
        maxdeg = max(map(mono_deg, tag_free))
        packing, local = _Packing(n, maxdeg, order), _Packing(n, maxdeg, LocalOrder())
        packed = {packing.pack(m): m for m in tag_free}
        assert list(packed) == [local.pack(m) for m in tag_free]
        terms = dict.fromkeys(packed, 1)
        assert packing.lead(terms) == local.lead(terms)
        assert packed[packing.lead(terms)] == max(tag_free, key=LocalOrder().key)


@pytest.mark.parametrize("n", [1, 3, 5])
@pytest.mark.parametrize("maxdeg", [0, 7, E])
def test_a_product_at_the_field_limit_raises(n, maxdeg):
    packing = _Packing(n, maxdeg, LocalOrder())
    limit = 1 << packing.bits
    assert limit > maxdeg
    x0 = packing.pack((1,) + (0,) * (n - 1))
    below = packing.pack((limit - 2,) + (0,) * (n - 1))
    assert packing.unpack(packing.check(below + x0)) == (limit - 1,) + (0,) * (n - 1)
    # the guard test holds up to the largest degree allowed
    assert not (below + x0 - x0) & packing.guard and (x0 - below - x0) & packing.guard
    with pytest.raises(ResourceLimitError, match="packed degree limit"):
        packing.check(below + x0 + x0)
    with pytest.raises(ResourceLimitError, match="packed degree limit"):
        packing.pack((0,) * (n - 1) + (limit,))
    # so does an lcm, whose degree exceeds both degrees only in two variables or more
    if n > 1:
        x1 = packing.pack((0, 1) + (0,) * (n - 2))
        assert packing.lcm(below, x1) == below + x1
        with pytest.raises(ResourceLimitError, match="packed degree limit"):
            packing.lcm(below + x0, x1)
    # the kernel's product x^a·r checks every term it makes
    r = {below: 1, 0: 1}
    assert _combine({}, 1, r, x0, -1, packing.cut(None), packing) == {below + x0: 1, x0: 1}
    with pytest.raises(ResourceLimitError, match="packed degree limit"):
        _combine({}, 1, r, x0 + x0, -1, packing.cut(None), packing)


# ---------------------------------------------------------------------------
# exponents of 2^40 never wrap: the answers of the tuple kernel
# ---------------------------------------------------------------------------

MEMBERSHIP = [
    # generators, then each candidate with whether it lies in the ideal
    ([f"x^{E} + y", f"z^{E} - x*z"],
     {f"x^{E + 1}": False, "y": False, "x": False, "z": False, "x*y": False,
      f"x^{2 * E} - x^{E}*y": False, "x*z": False, f"x^{E}*z + y*z": True}),
    ([f"x^{E}*y + y^2", f"x*y + x^{E}*z"],
     {f"x^{E + 1}": False, "y": False, "x": False, "z": False, "x*y": False,
      f"x^{2 * E} - x^{E}*y": False, "x*z": False, f"x^{E}*z + y*z": False,
      f"x^{E}*y*z": False}),
    ([f"y + x^{E}", f"x + y*z^{E}"],
     {f"x^{E + 1}": True, "y": True, "x": True, "z": False, "x*y": True,
      f"x^{2 * E} - x^{E}*y": True, "x*z": True, f"x^{E}*z + y*z": True, f"x^{E}*y*z": True}),
]


@pytest.mark.parametrize("gens,members", MEMBERSHIP, ids=["one", "two", "three"])
def test_membership_with_huge_exponents(gens, members):
    sb = standard_basis(ideal([P(g) for g in gens]))
    assert sb.cap is None
    assert {f: sb.contains(P(f)) for f in members} == members


def test_membership_of_an_element_of_another_ring_is_an_input_error():
    # packing x*z in two variables would drop z and answer True
    sb = standard_basis(ideal([parse_poly("x", ["x", "y"])]))
    with pytest.raises(InputError, match="different rings"):
        sb.contains(P("x*z"))


def test_standard_basis_past_twice_the_input_degree():
    sb = standard_basis(ideal([P(f"x^{E}*y + y^2"), P(f"x*y + x^{E}*z")]))
    assert [show(g) for g in sb.basis] == [
        f"x^{E}*y + y^2", f"x^{E}*z + x*y", f"x^{2 * E}*z - x^{2 * E - 1}*z^2"]
    assert sb.staircase == ((0, 2, 0), (1, 1, 0), (2 * E, 0, 1))


DIVISIONS = [
    # f, generators, (remainder, quotients) under LocalOrder, then under
    # EliminationOrder; the unit is 1 throughout
    (f"3*x^{E}*y + x^{2 * E} + x*y^3", [f"x^{E} - y", f"y^2 + x*y^{E}"],
     (f"x^{2 * E + 1}*y + 4*x^{2 * E}", [f"-x^{E + 1}*y - 3*x^{E} - x*y^2", "0"]),
     ("x*y^3 + 4*y^2", [f"x^{E} + 4*y", "0"])),
    (f"2*x^{E}*y*z + x*y", [f"x + x^{E}*z", "y"],
     ("0", ["0", f"2*x^{E}*z + x"]),
     ("0", ["2*y", "-x"])),
    (f"x^{2 * E}*y^2 + 5*z^{E}", [f"x^{E}*y + z"],
     (f"5*x^{2 * E}*y^2*z^{E - 2} + x^{2 * E}*y^2", [f"-5*x^{E}*y*z^{E - 2} + 5*z^{E - 1}"]),
     (f"5*z^{E} + z^2", [f"x^{E}*y - z"])),
]


@pytest.mark.parametrize("f,gens,local,elimination", DIVISIONS, ids=["one", "two", "three"])
def test_mora_division_with_huge_exponents(f, gens, local, elimination):
    for order, expected in [(LocalOrder(), local), (EliminationOrder(), elimination)]:
        r, u, q = mora_divide(P(f), [P(g) for g in gens], order)
        assert show(u) == "1"
        assert (show(r), [show(p) for p in q]) == expected


@pytest.mark.parametrize("gens,g,expected", [
    ([f"x^{E}*y", "y^2"], "y", ["y", f"x^{E}"]),
    ([f"x^{E} + y^{E}", "x*y"], "x", ["y", f"x^{E}"]),
    ([f"x^{E}*y + y*z", "y^2"], "y", [f"x^{E} + z", "y"]),
], ids=["one", "two", "three"])
def test_ideal_quotient_with_huge_exponents(gens, g, expected):
    # the intersection runs under EliminationOrder, which has no cap
    quotient = ideal_quotient(ideal([P(t) for t in gens]), P(g))
    assert [show(p) for p in quotient.generators] == expected


def test_colength_substitutes_a_coordinate_by_0_without_powers():
    # x ↦ 0 drops x^(2^40)*y at once, leaving (y^2, z^3)
    with alarm_after(10):
        assert colength(ideal([P("x"), P(f"x^{E}*y + y^2"), P("z^3")]), Budget()) == 6


def test_colength_charges_each_power_of_a_linear_form():
    # x - y - z substitutes y, which x^(2^40) + z^2 does not raise: y = x - z
    # builds (x - z)^2 only, and the count is that of the completion of I
    I = ideal([P("x - y - z"), P(f"x^{E} + z^2"), P("y^2")])
    with alarm_after(10):
        assert colength(I, Budget()) == 4 == standard_basis(I)._counted[0]
    # every variable raised to 2^40: x = y + z calls for (y + z)^(2^40), each
    # power is charged, and the default budget fires
    with alarm_after(10), pytest.raises(ResourceLimitError, match="monomial budget"):
        colength(ideal([P("x - y - z"), P(f"x^{E} + y^{E} + z^{E}")]), Budget())


# ---------------------------------------------------------------------------
# the kernel's work on fixed jobs, charged to one Budget each
# ---------------------------------------------------------------------------

GENERIC = ((1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1), (1, 2, 3), (1, -1, 2), (2, 1, -1),
           (1, 3, -2))

ARRANGEMENTS = [
    # normals, (mu0, lambda0, lambda1, omega), pairs_used, monomials_used
    (GENERIC[:4], (9, 9, 6, 12), 64, 641),
    (((1, 0, 0), (0, 1, 0), (1, 1, 0), (0, 0, 1), (1, 0, 1)), (16, 16, 12, 20), 95, 1918),
    (((1, 0, 0), (0, 1, 0), (1, 1, 0), (0, 0, 1), (1, 2, 3)), (16, 20, 11, 25), 104, 2370),
    (GENERIC[:5], (16, 24, 10, 30), 185, 5023),
    (GENERIC[:6], (25, 50, 15, 60), 466, 23953),
    (GENERIC[:7], (36, 90, 21, 105), 1164, 102869),
    (GENERIC[:8], (49, 147, 28, 168), 2568, 366474),
]


@pytest.mark.parametrize("normals,le,pairs,monomials", ARRANGEMENTS,
                         ids=["generic4", "two_triple5", "one_triple5", "generic5", "generic6",
                              "generic7", "generic8"])
def test_arrangement_pipeline_work_is_pinned(normals, le, pairs, monomials):
    inv, pairs_used, monomials_used = arrangement_pipeline(normals)
    assert (inv.mu0, inv.lambda0, inv.lambda1, inv.omega) == le
    assert (pairs_used, monomials_used) == (pairs, monomials)


@pytest.mark.parametrize("text,mu,pairs,monomials", [
    ("x^2 - y^2*z", 5, 15, 189),
    ("x*y*z", 11, 15, 162),
    ("x^2*y + z^2", 5, 6, 134),
    ("x^2 + y^3", 6, 1, 12),
    ("x*y*(x + y)", 12, 36, 329),
], ids=["umbrella", "xyz", "dinf", "cusp_line", "pencil"])
def test_le_iomdine_colength_work_is_pinned(text, mu, pairs, monomials):
    # the Jacobian of g + w^4 for the germ sliced by the form (1, 1, -5)
    g = slice_with_form(parse_poly(text, XYZ), (1, 1, -5))[0].f
    F = g + MultiPoly.variable(0, g.nvars) ** 4
    budget = Budget()
    assert colength(ideal([F.partial(i) for i in range(F.nvars)]), budget) == mu
    assert (budget.pairs_used, budget.monomials_used) == (pairs, monomials)


# the runaways: each exits in the polar stage under the default Budget, with
# the counters it reached; a reduction that carries its content must still
# reach them in bounded time
RUNAWAYS = [
    # polynomial, slice form (None: the automatic search), pairs_used, monomials_used
    ("x*y^3*z + z^3 - x^4*z^4", None, 11, 1002090),
    ("-y^3 + x*y*z^2 + x^4*y^4*z^3", None, 13, 1000015),
    ("y^2 - x^3 - x^2*z^2", (1, 1, -5), 14, 1000165),
]


@pytest.mark.parametrize("text,z0,pairs,monomials", RUNAWAYS, ids=["R1", "R2", "polarA"])
def test_runaways_exit_on_the_default_budget(text, z0, pairs, monomials):
    with alarm_after(20), pytest.raises(ResourceLimitError) as raised:
        analyze_poly(P(text), z0=z0)
    assert str(raised.value) == (f"stage polar: monomial budget of 1000000 exhausted "
                                 f"(pairs_used={pairs}, monomials_used={monomials})")


# runaways of the colon by f that the colon by df/dz0 answers
FORMER_RUNAWAYS = [
    # polynomial, slice form, (mu0, lambda0, lambda1, omega), pairs_used, monomials_used
    ("x^3 + y^2*z^3 + x*y*z^2", (1, 1, -5), (7, 7, 5, 9), 69, 95280),
    ("x*y^2 + x^4*y^3*z^4 + 2*x^3*z^3", None, (7, 5, 6, 6), 31, 21933),
    ("-y^2*z^4 + x^2*z + 2*x^2*y^4*z", None, (7, 5, 6, 6), 28, 2275),
]


@pytest.mark.parametrize("text,z0,le,pairs,monomials", FORMER_RUNAWAYS,
                         ids=["polarB", "R3", "R4"])
def test_former_runaways_answer_on_the_default_budget(text, z0, le, pairs, monomials):
    budget = Budget()
    with alarm_after(20):
        result = analyze_poly(P(text), z0=z0, budget=budget)
    inv = result.invariants
    assert inv.genericity_ok
    assert (inv.mu0, inv.lambda0, inv.lambda1, inv.omega) == le
    assert (budget.pairs_used, budget.monomials_used) == (pairs, monomials)
    # lambda0 by the third colength, which the pipeline does not compute
    g = result.setup.f
    assert colength(ideal_sum(result.polar.ideal, ideal([g.partial(0)]))) == inv.lambda0
    # Le-Iomdine past every polar quotient: mu(g + w^N) = lambda0 + (N - 1)*lambda1
    for N in (inv.omega + 1, inv.omega + 2):
        F = g + MultiPoly.variable(0, 3) ** N
        jacobian = [F.partial(i) for i in range(3)]
        mu = inv.lambda0 + (N - 1) * inv.lambda1
        assert colength(ideal(jacobian)) == mu
        if z0 is not None:
            assert macaulay_colength(jacobian, 3)[0] == mu


def _polar_steps(monkeypatch):
    """The ideals the polar stage hands to ideal_quotient and to saturate, as it goes."""
    handed = {"ideal_quotient": [], "saturate": []}

    def spy(name, fn):
        def wrapper(I, g, budget=None):
            handed[name].append(I)
            return fn(I, g, budget)
        return wrapper

    monkeypatch.setattr(invariants, "ideal_quotient", spy("ideal_quotient", ideal_quotient))
    monkeypatch.setattr(invariants, "saturate", spy("saturate", saturate))
    return handed


def test_polarC_answers_on_the_default_budget(monkeypatch):
    # (I : df/dz0) has infinite omega, so the curve is its saturation:
    # e(m; O/Γ) = colength(Γ + (z0)) = 3 and omega = 20
    steps = _polar_steps(monkeypatch)
    budget = Budget()
    with alarm_after(20):
        result = analyze_poly(P("y^4 - y^3*z^2 + 2*x*y*z^4"), z0=(1, 1, -5), budget=budget)
    inv = result.invariants
    assert (inv.mu0, inv.lambda0, inv.lambda1, inv.omega) == (17, 17, 14, 20)
    assert [len(steps["ideal_quotient"]), len(steps["saturate"])] == [1, 1]
    assert (budget.pairs_used, budget.monomials_used) == (109, 893)
    # Teissier: omega = (Γ . V(dg/dw)) + (mu0 - lambda1), with the first
    # number computed here, since the pipeline derives lambda0 from omega
    g = result.setup.f
    assert colength(ideal_sum(result.polar.ideal, ideal([g.partial(0)]))) == inv.lambda0
    assert inv.omega == inv.lambda0 + inv.mu0 - inv.lambda1
    # Le-Iomdine against the Macaulay oracle: mu(g + w^N) = lambda0 + (N - 1)*lambda1
    for N, mu in ((8, 115), (10, 143)):
        F = g + MultiPoly.variable(0, 3) ** N
        assert macaulay_colength([F.partial(i) for i in range(3)], 3)[0] == mu
        assert mu == inv.lambda0 + (N - 1) * inv.lambda1


def test_two_round_polar_curve_work_is_pinned(monkeypatch):
    # the first form, (1, 0, 0), is tangent to the smooth polar curve
    # J = (I : df/dz0), whose omega is finite: it meets it twice, above
    # e(m; O/J) = 1.  The search moves on: (0, 1, 0) and (0, 0, 1) give an
    # infinite mu0, and (1, 1, 1) passes in one colon step with the generic
    # (4, 4, 3, 5) that forms such as (1, 1, -5) give too.  No form saturates.
    steps = _polar_steps(monkeypatch)
    budget = Budget()
    result = analyze_poly(P("2*x*y^4 + 3*z^2 - y^3*z"), budget=budget)
    inv = result.invariants
    assert (inv.mu0, inv.lambda0, inv.lambda1, inv.omega) == (4, 4, 3, 5)
    assert result.setup.z0_coefficients == (1, 1, 1)
    assert [len(steps["ideal_quotient"]), len(steps["saturate"])] == [2, 0]
    assert (budget.pairs_used, budget.monomials_used) == (66, 375)


def test_polar_ideal_reads_no_fraction_generators(monkeypatch):
    # e(m; O/J) is read off J's integer terms, so no Ideal on the way to the
    # curve builds its Fraction generators: on 4 generic planes one colon
    # gives the curve, on polarC the colon is saturated
    def refuse(self):
        raise AssertionError("read an Ideal's Fraction generators")

    arr = CentralArrangement3(GENERIC[:4])
    setups = [slice_with_form(defining_polynomial(arr), pick_slice_form(arr))[0],
              slice_with_form(P("y^4 - y^3*z^2 + 2*x*y*z^4"), (1, 1, -5))[0]]
    monkeypatch.setattr(localring.Ideal, "generators", property(refuse))
    with alarm_after(20):
        curves = [invariants.polar_ideal(setup) for setup in setups]
    monkeypatch.undo()
    assert [(c.slice_colength, c.f_colength, c.ideal.to_strings(["w", "u", "v"]))
            for c in curves] == [
        (3, 12, ["3*w*u - 7*w*v - 4*u^2 + 24*v^2", "w*v + u^2 - 6*u*v - 6*v^2",
                 "w^2 - 19*w*v + 8*u*v + 48*v^2", "u^3 - 7*u^2*v + 8*u*v^2 + 6*v^3"]),
        (3, 20, ["4*w*v^2 - 4*u*v^2 + 25*v^3 - u^2",
                 "64*w^2*v - 138*w*u*v + 800*w*v^2 + 72*u^2*v - 865*u*v^2 + 2500*v^3",
                 "2*w*v^2 - 4*u*v^2 + 10*v^3 + 16*w*u - 19*u^2 + 100*u*v",
                 "8*w*v^2 + 60*v^3 - 64*w^2 + 74*w*u - 800*w*v + 465*u*v - 2500*v^2"])]


def test_colength_and_the_colon_stay_in_the_integer_form(monkeypatch):
    # colength reads the completion's own staircase count, and ideal_quotient
    # divides the elimination basis's packed records: neither reads a
    # StandardBasis's Fraction polynomials or staircase, nor calls mora_divide
    def refuse(self):
        raise AssertionError("read the Fraction basis or the staircase")

    divisions = []
    divide = localring.mora_divide
    monkeypatch.setattr(StandardBasis, "basis", property(refuse))
    monkeypatch.setattr(StandardBasis, "staircase", property(refuse))
    monkeypatch.setattr(localring, "mora_divide",
                        lambda *args, **kwargs: divisions.append(args) or divide(*args, **kwargs))
    steps = _polar_steps(monkeypatch)
    for text, mu in [("x^2 - y^2*z", 5), ("x*y*z", 11), ("x^2*y + z^2", 5), ("x^2 + y^3", 6),
                     ("x*y*(x + y)", 12)]:
        g = slice_with_form(parse_poly(text, XYZ), (1, 1, -5))[0].f
        F = g + MultiPoly.variable(0, g.nvars) ** 4
        assert colength(ideal([F.partial(i) for i in range(F.nvars)])) == mu
    arr = CentralArrangement3(GENERIC[:5])
    inv = analyze_poly(defining_polynomial(arr), z0=pick_slice_form(arr)).invariants
    assert (inv.mu0, inv.lambda0, inv.lambda1, inv.omega) == (16, 24, 10, 30)
    with alarm_after(20):
        inv = analyze_poly(P("y^4 - y^3*z^2 + 2*x*y*z^4"), z0=(1, 1, -5)).invariants
    assert (inv.mu0, inv.lambda0, inv.lambda1, inv.omega) == (17, 17, 14, 20)
    # polarC takes the saturate route
    assert [len(steps["ideal_quotient"]), len(steps["saturate"])] == [2, 1]
    assert divisions == []
    # the colon divides in its completion's own packing: one per call
    packings = []
    init = _Packing.__init__
    monkeypatch.setattr(_Packing, "__init__",
                        lambda self, *args: packings.append(args) or init(self, *args))
    for text in ["x^2 - y^2*z", "x*y*z", "x*y*(x + y)"]:
        g = slice_with_form(parse_poly(text, XYZ), (1, 1, -5))[0].f
        packings.clear()
        ideal_quotient(ideal([g.partial(1), g.partial(2)]), g.partial(0))
        assert len(packings) == 1
    # a generator-free ideal is counted by its completion, not off the staircase
    assert colength(ideal([], 3)) is None
    assert colength(ideal([MultiPoly.zero(3)])) is None
