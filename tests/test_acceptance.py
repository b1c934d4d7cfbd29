"""Acceptance suite: one test per criterion, one printed PASS/FAIL line each.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
lines; every expected value is exact, no tolerances anywhere.
"""

import random
from fractions import Fraction
from math import comb

from lenumbers import (
    CentralArrangement3,
    ComponentData,
    CycloProduct,
    MultiPoly,
    SingularSetup,
    SliceSetup,
    analyze_poly,
    non_splitting_verdict,
    rank_attained_cases,
    colength,
    compute_all,
    cyclotomic,
    factor_unity,
    full_report,
    homogeneous_char_exponents,
    ideal,
    parse_poly,
)
from lenumbers.arrangements import arrangement_report, multiple_points, to_setup
from lenumbers.localring import saturate, standard_basis
from lenumbers.constraints import (VERDICT_EXPONENTS, VERDICT_NON_SPLITTING, cyclic_kernel_rank,
                                   lambda1_from_components)
from lenumbers.intlinalg import fixed_rank
from lenumbers.cyclo import cyclo_product, divisors, homogeneous_char
from ideal_equality import ideals_equal
from matrix_oracle import mat_pow
from saturation_oracle import multipoly_saturation
from staircase_oracle import staircase_oracle
from unipoly_oracle import t_poly, t_power_minus_one, unipoly_gcd


def criterion(number, description, body):
    try:
        body()
    except BaseException:
        print(f"criterion {number:02d} FAIL  {description}")
        raise
    print(f"criterion {number:02d} PASS  {description}")


def test_criterion_01_homogeneous_char_formula():
    def body():
        for n in range(1, 5):
            for d in range(2, 10):
                assert ((d - 1) ** n - (-1) ** n) % d == 0
                a0, b0 = homogeneous_char_exponents(n, d)
                char = homogeneous_char(n, d)
                assert char.degree() == (d - 1) ** n
                assert char.trace() == (-1) ** n
                assert a0 == b0 + (-1) ** n

    criterion(1, "homogeneous characteristic polynomial: degree, trace, integrality",
              body)


def test_criterion_02_cyclotomic_algebra():
    def body():
        for d in range(1, 31):
            unity = t_power_minus_one(d)
            assert factor_unity(d).expand() == unity
            product = t_poly((1,))
            for k in divisors(d):
                product = product * cyclotomic(k)
            assert product == unity
        rng = random.Random(202)
        for _ in range(200):
            a = CycloProduct({rng.randint(1, 12): rng.randint(1, 3)
                              for _ in range(rng.randint(0, 3))})
            b = CycloProduct({rng.randint(1, 12): rng.randint(1, 3)
                              for _ in range(rng.randint(0, 3))})
            assert a.gcd(b).expand() == unipoly_gcd(a.expand(), b.expand())

    criterion(2, "cyclotomic factorization of t^d-1 and gcd versus expansion", body)


def test_criterion_03_milnor_number_oracle():
    def body():
        for a in range(2, 6):
            for b in range(2, 6):
                f = parse_poly(f"x^{a} + y^{b}", ["x", "y"])
                jac = ideal([f.partial(0), f.partial(1)])
                sb = standard_basis(jac)
                value = colength(jac)
                assert value == (a - 1) * (b - 1)
                assert staircase_oracle(sb.staircase, 2)[0] == value
        f = parse_poly("x^2 + y^2 + z^2", ["x", "y", "z"])
        jac = ideal([f.partial(i) for i in range(3)])
        sb = standard_basis(jac)
        assert colength(jac) == 1
        assert staircase_oracle(sb.staircase, 3)[0] == 1

    criterion(3, "Milnor numbers of x^a+y^b and the ordinary double point", body)


def test_criterion_04_local_ring_semantics():
    def body():
        x = MultiPoly.variable(0, 2)
        y = MultiPoly.variable(1, 2)
        assert colength(ideal([x + x * x, y])) == 1
        rng = random.Random(404)
        done = 0
        while done < 50:
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
            I = ideal(gens, nvars)
            first = saturate(I, g)
            again = saturate(first, g)
            assert ideals_equal(again, first)
            # the integer-term lift gives the generators of the MultiPoly lift
            assert first.generators == multipoly_saturation(I, g).generators
            assert again.generators == multipoly_saturation(first, g).generators
            done += 1

    criterion(4, "unit absorption and saturation idempotence", body)


def test_criterion_05_end_to_end_cylinder_over_node():
    def body():
        f = parse_poly("x^2 + y^2", ["z", "x", "y"])
        inv = compute_all(SliceSetup(f))
        assert (inv.mu0, inv.lambda0, inv.lambda1, inv.omega) == (1, 0, 1, 0)
        assert inv.genericity_ok
        report = full_report(SingularSetup(n=2, mu0=1, lambda1=inv.lambda1))
        verdict = next(v for v in report.verdicts if v.tag == VERDICT_NON_SPLITTING)
        assert verdict.data["h_top_rank"] == 0
        assert verdict.data["h_middle_rank"] == 1

    criterion(5, "f = x^2+y^2 in C^3: invariants (1,0,1,0) and non-splitting", body)


def test_criterion_06_end_to_end_triple_planes():
    def body():
        f = parse_poly("x*y*z", ["x", "y", "z"])
        inv = analyze_poly(f, z0=[1, 1, 1]).invariants
        assert inv.mu0 == 4
        assert inv.lambda0 == 2
        assert inv.lambda1 == 3
        assert inv.lambda0 - inv.lambda1 == -1  # reduced Euler char of (C*)^2
        setup = SingularSetup(
            n=2, mu0=4, d0=3,
            components=tuple(ComponentData(k=1, mu=1, d=2) for _ in range(3)),
            lambda1=inv.lambda1)  # checked against the components' sum of k*mu
        assert lambda1_from_components(setup) == 3  # second, combinatorial path
        report = full_report(setup)
        assert report.divisor_bound == CycloProduct({1: 2})
        assert homogeneous_char(2, 3).gcd(
            cyclo_product([homogeneous_char(2, 2)] * 3)) == CycloProduct({1: 2})

    criterion(6, "f = xyz: lambda1 = 3 both ways, mu0 = 4, lambda0 = 2, bound (t-1)^2",
              body)


def test_criterion_07_omega_dominates_lambda0_everywhere():
    corpus = [
        ("x^2 + y^2", ["z", "x", "y"], [1, 0, 0]),
        ("z^2 + x^2 + y^2", ["z", "x", "y"], [1, 0, 0]),
        ("x*y*z", ["x", "y", "z"], [1, 1, 1]),
        ("x^3 + y^3 + z^2", ["z", "x", "y"], [1, 0, 0]),
        ("x^2*y + z^2", ["x", "y", "z"], None),
        ("x*y*(x+y)", ["x", "y", "z"], None),
        ("x^3 + y^4 + z^2", ["z", "x", "y"], [1, 0, 0]),
    ]

    def body():
        analyzed = 0
        for text, names, z0 in corpus:
            f = parse_poly(text, names)
            inv = analyze_poly(f, z0=z0, names=names).invariants
            if not inv.genericity_ok:
                continue
            # the pipeline itself raises on violation; re-assert explicitly
            assert inv.omega >= inv.lambda0
            if inv.omega == inv.lambda0:
                assert inv.omega == 0
            analyzed += 1
        assert analyzed >= 6

    criterion(7, "omega >= lambda0 with equality only at zero, whole corpus", body)


def test_criterion_08_cyclic_kernel_lemma():
    def body():
        rng = random.Random(808)
        for _ in range(100):
            m = rng.randint(1, 4)
            k = rng.randint(1, 4)
            tau = tuple(tuple(rng.randint(-2, 2) for _ in range(m)) for _ in range(m))
            result = cyclic_kernel_rank(tau, k)
            assert result == fixed_rank(mat_pow(tau, k))

    criterion(8, "cyclic kernel rank equals the k-th power kernel rank (100 cases)",
              body)


def test_criterion_09_slice_point_case_table():
    def body():
        assert rank_attained_cases(4, 4).data["s_feasible"] == [1]
        assert rank_attained_cases(4, 3).data["s_feasible"] == [2]
        assert rank_attained_cases(5, 2).data["s_feasible"] == [2, 3, 4]
        pencil = CentralArrangement3(((1, 0, 0), (0, 1, 0), (1, 1, 0)))
        report = arrangement_report(pencil)
        assert report.lambda1 == 4  # equals mu0 = (3-1)^2
        assert any(v.tag == VERDICT_NON_SPLITTING for v in report.verdicts)
        assert non_splitting_verdict(4, 4).data["s"] == 1
        generic4 = CentralArrangement3(((1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1)))
        report4 = arrangement_report(generic4)
        assert report4.divisor_bound == CycloProduct({1: 3})
        assert report4.rank_bound == 6

    criterion(9, "slice-point case table, pencil equality, generic quadruple", body)


def test_criterion_10_arrangement_pair_accounting():
    def body():
        rng = random.Random(1010)
        from lenumbers.arrangements import _cross
        for _ in range(100):
            normals = []
            target = rng.randint(2, 8)
            while len(normals) < target:
                cand = tuple(Fraction(rng.randint(-3, 3), rng.randint(1, 2))
                             for _ in range(3))
                if not any(cand):
                    continue
                if any(not any(_cross(cand, n)) for n in normals):
                    continue
                normals.append(cand)
            arr = CentralArrangement3(tuple(normals))
            points = multiple_points(arr)
            assert sum(comb(p.multiplicity, 2) for p in points) == comb(arr.d0, 2)
            # the ceilings, from the local degrees alone, are the gcd bound's exponents
            a0, b0 = homogeneous_char_exponents(2, arr.d0)
            expected = {str(k): min(a0 if k == 1 else b0,
                                    sum(homogeneous_char(2, p.multiplicity).exponent(k)
                                        for p in points))
                        for k in divisors(arr.d0)}
            report = arrangement_report(arr)
            ceilings = next(v for v in report.verdicts if v.tag == VERDICT_EXPONENTS)
            assert ceilings.data["ceilings"] == expected
            setup = to_setup(arr)
            assert report.divisor_bound.divides(setup.char0)
            assert report.divisor_bound.divides(setup.component_product)

    criterion(10, "pair accounting sum C(m,2) = C(d0,2) and the Phi_k ceilings "
              "on 100 random arrangements", body)
