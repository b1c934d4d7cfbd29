"""``colength`` against the Macaulay-matrix oracle, which shares no code with
the Mora kernel: it certifies each zero-dimensional colength by linear
algebra on the truncations I + m^K.  The Lê–Iomdine colengths are also
checked against the staircase oracle on their standard basis."""

import pytest

from lenumbers import MultiPoly, colength, ideal, parse_poly, slice_with_form
from lenumbers.localring import standard_basis
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
