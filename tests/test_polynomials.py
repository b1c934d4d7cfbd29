import random
from fractions import Fraction
from math import comb

import pytest

from lenumbers import InputError, MultiPoly, PolyParseError, ResourceLimitError, parse_poly
from lenumbers.polynomials import MAX_MONOMIALS, eliminate_linear, integer, rational
from test_cyclo import alarm_after
from unipoly_oracle import primitive_positive, remainder, t_poly, unipoly_gcd

XY = ["x", "y"]
XYZ = ["x", "y", "z"]


def P(text, names=XYZ):
    return parse_poly(text, names)


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------


def test_parse_two_squares():
    p = P("x^2 + y^2")
    assert len(p.terms) == 2
    assert p.terms[(2, 0, 0)] == 1
    assert p.terms[(0, 2, 0)] == 1


def test_parse_triple_product():
    p = P("x*y*z")
    assert p.terms == {(1, 1, 1): Fraction(1)}
    assert p.total_degree() == 3


def test_parse_expand_and_cancel():
    # hand expansion: (x+y)^2 - x^2 - 2xy = y^2
    assert P("(x+y)^2 - x^2 - 2*x*y", XY) == P("y^2", XY)


def test_parse_rational_literals_and_unary_minus():
    p = P("-x^2 + 1/2*y", XY)
    assert p.terms[(2, 0)] == -1
    assert p.terms[(0, 1)] == Fraction(1, 2)
    assert P("3/2", XY) == MultiPoly.constant(Fraction(3, 2), 2)


def test_parse_zero():
    assert P("0", XY).is_zero
    assert P("x - x", XY).is_zero


def test_parse_syntax_error_has_position():
    with pytest.raises(PolyParseError) as err:
        P("x + * y", XY)
    assert err.value.position == 4


def test_parse_unknown_variable():
    with pytest.raises(PolyParseError, match="unknown variable 'q'"):
        P("x + q", XY)


def test_parse_rejects_implicit_multiplication():
    with pytest.raises(PolyParseError):
        P("2x", XY)


def test_parse_rejects_bare_slash():
    with pytest.raises(PolyParseError):
        P("x/2", XY)
    with pytest.raises(PolyParseError):
        P("1/0", XY)


def test_parse_rejects_fractional_exponent():
    with pytest.raises(PolyParseError):
        P("x^(2)", XY)


# text -> printed result over x, y, z, or (error message, position); each rule
# of the grammar and each error message appears at least once
PARSE_TABLE = [
    ("x", "x"),
    ("42", "42"),
    ("0", "0"),
    ("1/2", "1/2"),
    ("-3/4*x", "-3/4*x"),
    ("x + y - z", "x + y - z"),
    ("x*y*z", "x*y*z"),
    ("2*x^3", "2*x^3"),
    ("x^0", "1"),
    ("(x + y)^3", "x^3 + 3*x^2*y + 3*x*y^2 + y^3"),
    ("-x^2", "-x^2"),
    ("--x", "x"),
    ("+-+x", "-x"),
    ("-(x - y)^2", "-x^2 + 2*x*y - y^2"),
    ("((x))", "x"),
    ("(1/2*x + y)*(x - 2*y)", "1/2*x^2 - 2*y^2"),
    ("x - -y", "x + y"),
    ("2^10", "1024"),
    ("1/2^3", "1/8"),
    ("  x\t*\ny  ", "x*y"),
    ("x*-y", "-x*y"),
    ("x^2 - x^2", "0"),
    ("007/010", "7/10"),
    ("", ("unexpected token None", 0)),
    ("   ", ("unexpected token None", 3)),
    ("x +", ("unexpected token None", 3)),
    ("x + * y", ("unexpected token '*'", 4)),
    ("2x", ("unexpected token 'x'", 1)),
    ("x y", ("unexpected token 'y'", 2)),
    ("x 5", ("unexpected token 5", 2)),
    ("x/2", ("unexpected token '/'", 1)),
    ("1/0", ("denominator must be a nonzero integer", 2)),
    ("1/x", ("denominator must be a nonzero integer", 2)),
    ("1/", ("denominator must be a nonzero integer", 2)),
    ("1/-2", ("denominator must be a nonzero integer", 2)),
    ("x^", ("exponent must be a nonnegative integer", 2)),
    ("x^y", ("exponent must be a nonnegative integer", 2)),
    ("x^(2)", ("exponent must be a nonnegative integer", 2)),
    ("x^-1", ("exponent must be a nonnegative integer", 2)),
    ("x^2^3", ("unexpected token '^'", 3)),
    ("(x + y", ("expected ')'", 6)),
    ("(x", ("expected ')'", 2)),
    ("(x + y))", ("unexpected token ')'", 7)),
    ("()", ("unexpected token ')'", 1)),
    (")", ("unexpected token ')'", 0)),
    ("x ** 2", ("unexpected token '*'", 3)),
    ("x + ( * y", ("unexpected token '*'", 6)),
    ("q", ("unknown variable 'q'", 0)),
    ("x + q", ("unknown variable 'q'", 4)),
    ("x @ y", ("unexpected character '@'", 2)),
    ("x + é", ("unexpected character 'é'", 4)),
    ("x;", ("unexpected character ';'", 1)),
    ("x * (y + @", ("unexpected character '@'", 9)),  # ahead of the unclosed '('
]


@pytest.mark.parametrize("text, expected", PARSE_TABLE)
def test_parse_table(text, expected):
    if isinstance(expected, str):
        assert P(text).to_string(XYZ) == expected
        return
    message, position = expected
    with pytest.raises(PolyParseError) as err:
        P(text)
    assert str(err.value) == f"{message} (at position {position})"
    assert err.value.position == position


def test_parse_checks_names_after_characters():
    with pytest.raises(InputError, match="duplicate variable names"):
        parse_poly("x", ["x", "x"])
    with pytest.raises(PolyParseError, match="unexpected character '@'"):
        parse_poly("@", ["x", "x"])


@pytest.mark.parametrize("names,bad", [
    (["x", 2, "z"], "2"),
    (["x", "2y"], "'2y'"),
    (["x", "y z"], "'y z'"),
    (["x", ""], "''"),
    (["x", None], "None"),
], ids=["number", "leading-digit", "space", "empty", "none"])
def test_variable_names_must_be_identifiers(names, bad):
    # names are read by the tokenizer's name rule, so a printed polynomial re-parses
    with pytest.raises(InputError) as info:
        parse_poly("x^2", names)
    assert str(info.value) == f"variable names must be identifiers, not {bad}"


def test_parse_deep_nesting_is_a_parse_error():
    assert P("(" * 100 + "x" + ")" * 100) == P("x")
    with pytest.raises(PolyParseError, match="parentheses nested too deeply"):
        P("(" * 10_000 + "x" + ")" * 10_000)


def test_product_past_the_monomial_cap_is_refused_before_multiplying():
    p = MultiPoly({(i,): 1 for i in range(1001)}, 1)
    assert len(p.terms) * len(p.terms) > MAX_MONOMIALS
    with pytest.raises(ResourceLimitError, match="monomial cap of 1000000"):
        p * p


def test_product_matches_the_fraction_loop_term_for_term():
    # reference: accumulate Fraction products term by term, dropping zeros as they occur
    def reference(p, q):
        out = {}
        for ma, ca in p.terms.items():
            for mb, cb in q.terms.items():
                m = tuple(a + b for a, b in zip(ma, mb))
                v = out.get(m, Fraction(0)) + ca * cb
                if v:
                    out[m] = v
                else:
                    out.pop(m, None)
        return out

    rng = random.Random(5)
    for _ in range(500):
        nvars = rng.randint(1, 3)
        p, q = (MultiPoly([(tuple(rng.randint(0, 2) for _ in range(nvars)),
                            Fraction(rng.randint(-3, 3), rng.choice([1, 2, 3, 6])))
                           for _ in range(rng.randint(0, 6))], nvars) for _ in range(2))
        assert list((p * q).terms.items()) == list(reference(p, q).items())


@pytest.mark.parametrize("e", [1, 2, 3, 7, 8, 40, 63, 64])
def test_power_uses_one_product_per_bit(monkeypatch, e):
    # e.bit_length() - 1 squarings and popcount(e) multiplications
    base = P("x + 2", XY)
    products = []
    mul = MultiPoly.__mul__

    def counted(a, b):
        products.append((a, b))
        return mul(a, b)

    monkeypatch.setattr(MultiPoly, "__mul__", counted)
    binomial = {(k, 0): comb(e, k) * 2 ** (e - k) for k in range(e + 1)}
    assert base ** e == MultiPoly(binomial, 2)
    assert len(products) <= e.bit_length() + bin(e).count("1") - 1


@pytest.mark.parametrize("text", ["3^10000000", "(1/2)^10000000"])
def test_power_past_the_coefficient_bit_cap_is_refused(text):
    with alarm_after(2):
        with pytest.raises(ResourceLimitError, match="coefficient bits, over the cap of 1000000"):
            P(text)


@pytest.mark.parametrize("text,bits", [("3^1000000", 1584963), ("2^999999", 1000000),
                                       ("x^10000000", 1)])
def test_power_at_the_coefficient_bit_cap_parses(text, bits):
    value = P(text)
    assert max(c.numerator.bit_length() for c in value.terms.values()) == bits


def test_print_parse_roundtrip_random():
    rng = random.Random(7)
    for _ in range(60):
        nvars = rng.randint(1, 3)
        names = XYZ[:nvars]
        terms = {}
        for _ in range(rng.randint(0, 6)):
            mono = tuple(rng.randint(0, 3) for _ in range(nvars))
            terms[mono] = Fraction(rng.randint(-5, 5), rng.randint(1, 4))
        p = MultiPoly(terms, nvars)
        assert parse_poly(p.to_string(names), names) == p


# ---------------------------------------------------------------------------
# calculus and substitution
# ---------------------------------------------------------------------------


def test_partial_examples():
    assert P("x^2+y^2", XY).partial(0) == P("2*x", XY)
    assert P("x*y*z").partial(2) == P("x*y")
    assert P("x^3 - x*y^2", XY).partial(0) == P("3*x^2 - y^2", XY)


def test_partial_index_out_of_range():
    with pytest.raises(InputError):
        P("x", XY).partial(2)


def test_partial_linearity_and_product_rule():
    rng = random.Random(11)

    def rand_poly():
        terms = {tuple(rng.randint(0, 2) for _ in range(2)): Fraction(rng.randint(-3, 3))
                 for _ in range(rng.randint(1, 4))}
        return MultiPoly(terms, 2)

    for _ in range(40):
        f, g = rand_poly(), rand_poly()
        i = rng.randint(0, 1)
        assert (f + g).partial(i) == f.partial(i) + g.partial(i)
        assert (f * g).partial(i) == f.partial(i) * g + f * g.partial(i)


def test_linear_change_identity_and_swap():
    f = P("x^2 + 2*y", XY)
    assert f.linear_change([[1, 0], [0, 1]]) == f
    assert f.linear_change([[0, 1], [1, 0]]) == P("y^2 + 2*x", XY)


def test_linear_change_shear_example():
    # z -> x+y+z in f = xyz gives xyz + xy(x+y), by hand expansion
    f = P("x*y*z")
    m = [[1, 0, 0], [0, 1, 0], [1, 1, 1]]
    assert f.linear_change(m) == P("x*y*z + x^2*y + x*y^2")


def test_linear_change_rejects_singular_matrix():
    # the rows of [[1/2, 1/3], [3, 2]] are dependent only over Q: cleared of
    # denominators they are [3, 2] twice
    half, third = Fraction(1, 2), Fraction(1, 3)
    for m in ([[1, 1], [1, 1]], [[half, third], [3, 2]]):
        with pytest.raises(InputError, match="^singular matrix in linear change of coordinates$"):
            P("x", XY).linear_change(m)
    with pytest.raises(InputError, match="^singular matrix"):
        P("x*y*z").linear_change([[1, 2, 3], [0, 1, 1], [1, 3, 4]])
    assert P("x + y", XY).linear_change([[half, third], [3, 1]]) == P("7/2*x + 4/3*y", XY)


# ---------------------------------------------------------------------------
# reading numbers
# ---------------------------------------------------------------------------


def test_rational_reads_ints_fractions_strings_and_floats_by_repr():
    half = Fraction(1, 2)
    assert rational(half) is half
    assert rational(-3) == -3 and type(rational(-3)) is Fraction
    assert rational("7/21") == Fraction(1, 3)
    assert rational(" 2.5 ") == Fraction(5, 2)
    assert rational(0.1) == Fraction(1, 10)
    assert rational(1e-20) == Fraction(1, 10**20)


@pytest.mark.parametrize("value", [True, False, None, [1], "1/0", "x", float("inf"),
                                   float("nan"), 1j])
def test_rational_rejects_bools_and_non_numbers(value):
    with pytest.raises(InputError, match="as a rational number"):
        rational(value)


def test_integer_reads_ints_as_they_are():
    assert integer(3, "k") == 3
    assert integer(-2, "k") == -2


@pytest.mark.parametrize("value", [2.7, 2.0, True, "1", None, Fraction(2)])
def test_integer_rejects_floats_bools_and_non_ints(value):
    with pytest.raises(InputError) as info:
        integer(value, "k")
    assert str(info.value) == f"'k' must be an integer, not {value!r}"


@pytest.mark.parametrize("mono", [(1.5, 0), (True, 0), ("1", 0)],
                         ids=["float", "bool", "string"])
def test_exponents_must_be_integers(mono):
    with pytest.raises(InputError, match="'exponent' must be an integer"):
        MultiPoly({mono: 1}, 2)


def test_polynomial_entry_points_read_floats_by_repr():
    x = MultiPoly.variable(0, 2)
    assert MultiPoly({(1, 0): 0.1}, 2) == Fraction(1, 10) * x
    assert MultiPoly.constant(0.1, 2).constant_term() == Fraction(1, 10)
    assert (x * 0.1).terms == {(1, 0): Fraction(1, 10)}
    assert (0.1 * x).terms == {(1, 0): Fraction(1, 10)}
    assert P("x", XY).linear_change([[0.1, 0], [0, 1]]) == Fraction(1, 10) * x


def test_polynomial_entry_points_reject_bools():
    with pytest.raises(InputError):
        MultiPoly({(1, 0): True}, 2)
    with pytest.raises(InputError):
        MultiPoly.constant(True, 2)
    with pytest.raises(InputError):
        MultiPoly.variable(0, 2) * True
    with pytest.raises(InputError):
        P("x", XY).linear_change([[True, 0], [0, 1]])


def test_linear_change_inverse_roundtrip():
    rng = random.Random(3)
    for _ in range(15):
        n = rng.randint(2, 3)
        # build a unimodular matrix from random shears, tracking its inverse
        m = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
        minv = [row[:] for row in m]
        for _ in range(6):
            i, j = rng.sample(range(n), 2)
            c = rng.randint(-2, 2)
            for col in range(n):
                m[i][col] += c * m[j][col]
            for row in range(n):
                minv[row][j] -= c * minv[row][i]
        names = XYZ[:n]
        terms = {tuple(rng.randint(0, 2) for _ in range(n)): Fraction(rng.randint(-3, 3))
                 for _ in range(3)}
        f = MultiPoly(terms, n)
        assert f.linear_change(m).linear_change(minv) == f


def test_linear_change_matches_composition_by_polynomial_arithmetic():
    # the reference substitutes each variable's linear form with MultiPoly
    # sums, products and powers; the matrices are P·L·U, with L unit lower
    # triangular and U upper triangular with a nonzero diagonal, so invertible
    def reference(f, rows):
        n = f.nvars
        images = [sum((c * MultiPoly.variable(j, n) for j, c in enumerate(row)),
                      MultiPoly.zero(n)) for row in rows]
        out = MultiPoly.zero(n)
        for mono, c in f.terms.items():
            term = MultiPoly.constant(c, n)
            for image, e in zip(images, mono):
                term = term * image ** e
            out = out + term
        return out

    rng = random.Random(13)

    def entry():
        return Fraction(rng.randint(-3, 3), rng.choice([1, 2, 3, 5]))

    for _ in range(200):
        n = rng.randint(2, 4)
        lower = [[Fraction(int(i == j)) if j >= i else entry() for j in range(n)]
                 for i in range(n)]
        upper = [[(entry() or Fraction(1, 7)) if i == j else entry() if j > i else Fraction(0)
                  for j in range(n)] for i in range(n)]
        rows = [[sum(lower[i][k] * upper[k][j] for k in range(n)) for j in range(n)]
                for i in range(n)]
        rng.shuffle(rows)
        f = MultiPoly([(tuple(rng.randint(0, 3) for _ in range(n)), entry())
                       for _ in range(rng.randint(0, 5))], n)
        assert f.linear_change(rows) == reference(f, rows)


def test_eliminate_linear_scales_by_the_leading_coefficient():
    # 2*x - y puts x = y/2 into x^2 + x*z + z, times 2^2: y^2 + 2*y*z + 4*z in
    # y and z, after one power of y/2 of one term each for x^1 and x^2
    charged = []
    lin, h = {(1, 0, 0): 2, (0, 1, 0): -1}, {(2, 0, 0): 1, (1, 0, 1): 1, (0, 0, 1): 1}
    assert eliminate_linear([h, lin], 3, charged.append) == (
        [{(2, 0): 1, (1, 1): 2, (0, 1): 4}], 2)
    assert charged == [1, 1, 3]
    # x puts x = 0, without a power: x^3 vanishes and is dropped, still
    # charged, and 7*y^2 is divided by its content
    charged = []
    assert eliminate_linear([{(3, 0): 5}, {(1, 0): 1}, {(1, 1): 1, (0, 2): 7}], 2,
                            charged.append) == ([{(2,): 1}], 1)
    assert charged == [1, 1]


def test_restrict_first_var():
    assert P("z^2 + x^3", ["z", "x"]) .restrict_first_var() == P("x^3", ["x"])
    assert P("z*x", ["z", "x"]).restrict_first_var().is_zero
    assert P("(x+z)^2 - x^2", ["z", "x"]).restrict_first_var().is_zero


# ---------------------------------------------------------------------------
# univariate polynomials: one-variable MultiPoly in t
# ---------------------------------------------------------------------------


def test_unipoly_gcd_examples():
    # t^2-1 = (t-1)(t+1), t^2+2t+1 = (t+1)^2 -> gcd t+1
    assert unipoly_gcd(t_poly((-1, 0, 1)), t_poly((1, 2, 1))) == t_poly((1, 1))
    assert unipoly_gcd(t_poly((2, 0, 4)), t_poly((1,))) == t_poly((1,))
    assert unipoly_gcd(t_poly(()), t_poly((2, 2))) == t_poly((1, 1))


def test_unipoly_gcd_divides_and_scales():
    rng = random.Random(5)

    def rand_poly(max_deg):
        return t_poly([rng.randint(-4, 4) for _ in range(rng.randint(1, max_deg + 1))])

    for _ in range(50):
        a, b, c = rand_poly(4), rand_poly(4), rand_poly(3)
        g = unipoly_gcd(a, b)
        if not g.is_zero:
            assert remainder(a, g).is_zero
            assert remainder(b, g).is_zero
        if not (a.is_zero and b.is_zero) and not c.is_zero:
            lhs = unipoly_gcd(a * c, b * c)
            rhs = primitive_positive(c * unipoly_gcd(a, b))
            assert lhs == rhs


def test_unipoly_str():
    assert t_poly((1, -1, 1)).to_string(["t"]) == "t^2 - t + 1"
    assert t_poly((-1, 0, 0, 0, 0, 0, 1)).to_string(["t"]) == "t^6 - 1"
    assert t_poly(()).to_string(["t"]) == "0"
    assert t_poly((3,)).to_string(["t"]) == "3"
    assert t_poly((1, -2, 0, 5)).to_string(["t"]) == "5*t^3 - 2*t + 1"


@pytest.mark.parametrize("exponent", [2.5, True], ids=["float", "bool"])
def test_power_reads_its_exponent_as_an_integer(exponent):
    with pytest.raises(InputError, match="'exponent' must be an integer"):
        P("x + 1", XY) ** exponent
