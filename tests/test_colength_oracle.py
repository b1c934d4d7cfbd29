"""``colength`` against the Macaulay-matrix oracle, which shares no code with
the Mora kernel: it certifies each zero-dimensional colength by linear
algebra on the truncations I + m^K.  The Lê–Iomdine colengths are also
checked against the staircase oracle on their standard basis, and the
colengths of ideals with exactly linear generators, which ``colength``
eliminates before it completes, against the completion of I itself."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lenumbers import Budget, MultiPoly, colength, ideal, parse_poly, slice_with_form
from lenumbers.localring import standard_basis
from lenumbers.polynomials import eliminate_linear
from macaulay_oracle import macaulay_colength, truncated_colength
from staircase_oracle import staircase_oracle

XYZ = ["x", "y", "z"]


def jacobian(f: MultiPoly) -> list[MultiPoly]:
    return [f.partial(i) for i in range(f.nvars)]


@pytest.mark.parametrize("N", range(4, 9))
@pytest.mark.parametrize("text", ["x^2 - y^2*z", "x*y*z", "x^2*y + z^2", "x^2 + y^3", "x*y*(x + y)"],
                         ids=["umbrella", "xyz", "dinf", "cusp_line", "pencil"])
def test_le_iomdine_colengths_agree_with_the_oracle(text, N):
    # the Jacobian of g + w^N for the germ sliced by the form (1, 1, -5)
    g = slice_with_form(parse_poly(text, XYZ), (1, 1, -5))[0].f
    gens = jacobian(g + MultiPoly.variable(0, g.nvars) ** N)
    mu = colength(ideal(gens))
    assert mu == macaulay_colength(gens, 3)[0]
    # colength reads the count the completion made for its last cap
    assert mu == staircase_oracle(standard_basis(ideal(gens)).staircase, 3)[0]


def test_oracle_certifies_mu75_which_mora_cannot_finish():
    # semi-quasihomogeneous with weights (1/4, 1/6, 1/6): mu = (4-1)(6-1)(6-1)
    f = parse_poly("x^4 + y^6 + z^6 + 3*x^2*y*z^3 - 3*x^4*y^3*z^4", XYZ)
    assert macaulay_colength(jacobian(f), 3) == (75, 11)


def test_oracle_counts_truncations_and_gives_up_on_a_curve():
    x, y, z = (MultiPoly.variable(i, 3) for i in range(3))
    # (x, y^2, z^3): every truncation above degree 3 leaves the 6 monomials y^j*z^k
    assert [truncated_colength([x, y**2, z**3], 3, K) for K in range(1, 6)] == [1, 3, 5, 6, 6]
    assert macaulay_colength([x, y**2, z**3], 3) == (6, 4)
    # the unit ideal has colength 0, certified at once
    assert macaulay_colength([MultiPoly.constant(1, 3) + x], 3) == (0, 1)
    # (x, y) is the z-axis: l_K = K never stabilizes
    with pytest.raises(ValueError, match="did not stabilize below K = 8"):
        macaulay_colength([x, y], 3, max_degree=8)


def unit_vector(v: int) -> tuple[int, ...]:
    return tuple(int(i == v) for i in range(3))


COEFFICIENTS = st.integers(-3, 3)
LINEAR_FORMS = st.tuples(*[COEFFICIENTS] * 3).filter(any).map(
    lambda c: MultiPoly({unit_vector(v): a for v, a in enumerate(c)}, 3))


@st.composite
def ideals_with_linear_generators(draw):
    """2-4 generators in x, y, z: one or two exactly linear forms, and each
    other one a pure power of its own variable, from z on, plus up to two
    small terms."""
    linear = draw(st.lists(LINEAR_FORMS, min_size=1, max_size=2))
    others = []
    # 4, 3 or 2 generators, mostly 4: only 2 always leave a curve, or a plane
    for v in range(4 - len(linear) - draw(st.sampled_from((0, 0, 1, 2)))):
        power = draw(st.integers(2, 4))
        terms = {tuple(power * e for e in unit_vector(2 - v)): 1}
        for m, c in draw(st.lists(st.tuples(st.tuples(*[st.integers(0, 3)] * 3), COEFFICIENTS),
                                  max_size=2)):
            terms[m] = terms.get(m, 0) + c
        others.append(MultiPoly(terms, 3))
    return draw(st.permutations(linear + others))


@settings(max_examples=100, derandomize=True, deadline=None)
@given(ideals_with_linear_generators())
def test_eliminating_linear_generators_keeps_the_colength(gens):
    # the completion of I itself counts the same, None on both sides when infinite
    I = ideal(gens, 3)
    counted = standard_basis(I)._counted
    mu = colength(I)
    assert mu == (None if counted is None else counted[0])
    if mu is not None:
        assert mu == macaulay_colength(gens, 3)[0]


@pytest.mark.parametrize("texts,mu,left", [
    # every variable is eliminated, and Q has colength 1
    (["x - y", "y - z", "z"], 1, ([], 0)),
    # a unit stays a unit
    (["x + 2*y", "1 + y*z"], 0, ([{(0, 0): 1, (1, 1): 1}], 2)),
    # a lone linear form leaves a plane
    (["x + 2*y - z"], None, ([], 2)),
    # x - z becomes y - z once x = y, and then 0 once y = z
    (["x - y", "y - z", "x - z", "x^3"], 3, ([{(3,): 1}], 1)),
], ids=["point", "unit", "plane", "dependent"])
def test_linear_generators_are_eliminated(texts, mu, left):
    I = ideal([parse_poly(t, XYZ) for t in texts])
    assert colength(I) == mu
    assert eliminate_linear(I.integer_terms, 3, Budget().tick_monomials) == left
