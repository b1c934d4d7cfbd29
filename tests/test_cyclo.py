import random
import signal
from contextlib import contextmanager

import pytest

from lenumbers import (
    CycloProduct,
    InputError,
    ResourceLimitError,
    cyclotomic,
    factor_unity,
    homogeneous_char_exponents,
    mobius,
    totient,
)
from lenumbers.cyclo import cyclo_product, divisors, homogeneous_char
from unipoly_oracle import coefficients, t_poly, t_power_minus_one, unipoly_gcd


def test_mobius_and_totient_values():
    assert [mobius(k) for k in (1, 2, 3, 4, 6, 12, 30)] == [1, -1, -1, 0, 1, 0, -1]
    assert [totient(k) for k in (1, 2, 6, 12)] == [1, 1, 2, 4]


def test_divisors_match_the_definition():
    for k in range(1, 500):
        assert divisors(k) == [d for d in range(1, k + 1) if k % d == 0]


@pytest.mark.parametrize("call", [
    lambda: mobius(2.5), lambda: totient(2.5), lambda: factor_unity(2.5),
    lambda: divisors(0), lambda: divisors(-4), lambda: divisors(6.0),
    lambda: mobius(0), lambda: totient(True), lambda: cyclotomic(0),
    lambda: homogeneous_char_exponents(2.0, 3), lambda: homogeneous_char_exponents(2, 2.5),
    lambda: CycloProduct({1.5: 1}), lambda: CycloProduct({1: 1.5}),
    lambda: CycloProduct({"3": 1}),
], ids=["mobius-float", "totient-float", "factor-unity-float", "divisors-zero",
        "divisors-negative", "divisors-float", "mobius-zero", "totient-bool",
        "cyclotomic-zero", "homchar-float-n", "homchar-float-d", "cyclo-float-index",
        "cyclo-float-exponent", "cyclo-string-index"])
def test_integer_arguments_are_read_not_truncated(call):
    with pytest.raises(InputError):
        call()


def test_cyclotomic_small():
    assert cyclotomic(1) == t_poly((-1, 1))
    assert cyclotomic(2) == t_poly((1, 1))
    # divide t^6-1 by Phi_1*Phi_2*Phi_3 by hand: t^2 - t + 1
    assert cyclotomic(6) == t_poly((1, -1, 1))


def test_cyclotomic_degree_is_totient():
    for k in range(1, 40):
        assert cyclotomic(k).total_degree() == totient(k)


def test_cyclotomics_over_the_divisors_multiply_to_unity():
    # the product is taken with MultiPoly's own multiplication, not by expand()
    for d in range(1, 31):
        product = t_poly((1,))
        for k in divisors(d):
            product = product * cyclotomic(k)
        assert product == t_power_minus_one(d)


@contextmanager
def alarm_after(seconds: int):
    def timeout(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, timeout)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def test_cyclotomic_30030_expands_quickly():
    # 30030 = 2*3*5*7*11*13 has 64 divisors; the guard fails an expansion
    # whose cost grows with the number of divisor pairs
    with alarm_after(10):
        phi = cyclotomic(30030)
    coeffs = coefficients(phi)
    assert phi.total_degree() == totient(30030) == 5760
    assert sum(phi.terms.values()) == 1  # phi(1): 30030 is not a prime power
    assert coeffs == coeffs[::-1]


@pytest.mark.parametrize("factors", [
    {10**12: 1},            # the largest index alone forces 10^12 + 1 coefficients
    {10**12 + 39: 1, 6: 2},
    {1000: 2000},           # (t^1000 - 1)^2000 is multiplied out first
])
def test_expansion_past_the_monomial_budget_is_refused_before_allocating(factors):
    with alarm_after(2), pytest.raises(ResourceLimitError, match="monomial budget of 1000000"):
        CycloProduct(factors).expand()


def test_factor_unity_examples():
    assert factor_unity(1).factors == {1: 1}
    assert factor_unity(4).factors == {1: 1, 2: 1, 4: 1}
    assert factor_unity(6).factors == {1: 1, 2: 1, 3: 1, 6: 1}


def test_factor_unity_expands_to_unity():
    for d in range(1, 31):
        assert factor_unity(d).expand() == t_power_minus_one(d)


def test_homogeneous_char_worked_values():
    assert homogeneous_char_exponents(2, 3) == (2, 1)
    assert homogeneous_char(2, 3).factors == {1: 2, 3: 1}
    assert homogeneous_char(2, 3).degree() == 4
    assert homogeneous_char_exponents(2, 2) == (1, 0)
    assert homogeneous_char(2, 2).factors == {1: 1}
    assert homogeneous_char_exponents(3, 2) == (0, 1)
    assert homogeneous_char(3, 2).factors == {2: 1}
    assert homogeneous_char(3, 2).degree() == 1


def test_homogeneous_char_degree_and_trace_sweep():
    for n in range(1, 5):
        for d in range(2, 10):
            a0, b0 = homogeneous_char_exponents(n, d)
            char = homogeneous_char(n, d)
            assert char.degree() == (d - 1) ** n
            assert a0 + (d - 1) * b0 == (d - 1) ** n
            assert char.trace() == (-1) ** n


def test_cyclo_product_rejects_a_negative_exponent():
    with pytest.raises(InputError, match="^negative exponent for Phi_2$"):
        CycloProduct({2: -1})


def test_homogeneous_char_rejects_bad_input():
    with pytest.raises(InputError):
        homogeneous_char(0, 3)
    with pytest.raises(InputError):
        homogeneous_char(2, 1)


def test_gcd_examples():
    x = CycloProduct({1: 2, 3: 1})
    assert x.gcd(x) == x
    assert CycloProduct({1: 2, 3: 1}).gcd(CycloProduct({1: 3})) == CycloProduct({1: 2})
    assert homogeneous_char(2, 3).gcd(CycloProduct({1: 3})) == CycloProduct({1: 2})


def test_product_examples():
    assert cyclo_product([]) == CycloProduct()
    assert cyclo_product([CycloProduct({1: 1}), CycloProduct({1: 2})]) == CycloProduct({1: 3})
    three = cyclo_product([homogeneous_char(2, 2)] * 3)
    assert three == CycloProduct({1: 3})


def test_divides_examples():
    assert CycloProduct().divides(CycloProduct({5: 2}))
    assert CycloProduct({1: 2}).divides(CycloProduct({1: 2, 3: 1}))
    assert not homogeneous_char(2, 3).divides(CycloProduct({1: 3}))


def test_trace_examples():
    assert CycloProduct({1: 5}).trace() == 5
    assert CycloProduct({2: 1}).trace() == -1
    assert homogeneous_char(2, 3).trace() == 1


def test_expand_examples():
    assert CycloProduct().expand() == t_poly((1,))
    assert CycloProduct({1: 1, 2: 1}).expand() == t_poly((-1, 0, 1))
    # (t-1)^2 (t^2+t+1) multiplied out by hand
    assert homogeneous_char(2, 3).expand() == t_poly((1, -1, 0, -1, 1))


def _random_product(rng) -> CycloProduct:
    factors = {}
    for _ in range(rng.randint(0, 3)):
        factors[rng.randint(1, 12)] = rng.randint(1, 3)
    return CycloProduct(factors)


def test_expand_is_multiplicative():
    rng = random.Random(23)
    for _ in range(40):
        a, b = _random_product(rng), _random_product(rng)
        assert cyclo_product([a, b]).expand() == a.expand() * b.expand()


def test_gcd_matches_expanded_gcd():
    rng = random.Random(29)
    for _ in range(60):
        a, b = _random_product(rng), _random_product(rng)
        assert a.gcd(b).expand() == unipoly_gcd(a.expand(), b.expand())


def test_degree_matches_expansion():
    rng = random.Random(31)
    for _ in range(30):
        a = _random_product(rng)
        assert a.degree() == a.expand().total_degree()


def test_str_and_parse():
    c = CycloProduct({3: 1, 1: 2})
    assert str(c) == "Phi_1^2 * Phi_3"
    assert CycloProduct.parse("Phi_1^2 * Phi_3") == c
    assert CycloProduct.parse("1") == CycloProduct()
    assert str(CycloProduct()) == "1"
    with pytest.raises(InputError):
        CycloProduct.parse("Phi_x")
