import random
from itertools import combinations
from math import gcd

import pytest

from lenumbers import (
    ComponentData,
    ConstraintReport,
    CycloProduct,
    InputError,
    ResourceLimitError,
    SingularSetup,
    non_splitting_verdict,
    rank_attained_cases,
    compute_all,
    full_report,
    parse_poly,
    smith_normal_form,
    SliceSetup,
)
from lenumbers.arrangements import CentralArrangement3, multiple_points, to_setup
from lenumbers.cyclo import homogeneous_char
from lenumbers.intlinalg import as_matrix
from lenumbers.constraints import (
    VERDICT_NON_SPLITTING,
    VERDICT_NOT_APPLICABLE,
    VERDICT_RANK_BELOW,
    Finding,
    acampo_validate,
    cyclic_kernel_rank,
    divisibility_bound,
    lambda1_from_components,
    rank_bound,
)
from lenumbers import constraints, intlinalg
from lenumbers.intlinalg import bareiss_rank, block_cycle_matrix, fixed_rank
from matrix_oracle import identity, mat_mul, mat_pow, mat_sub, rank_gauss


def triple_planes_setup():
    return SingularSetup(
        n=2, mu0=4, d0=3,
        components=tuple(ComponentData(k=1, mu=1, d=2) for _ in range(3)))


# ---------------------------------------------------------------------------
# integer linear algebra
# ---------------------------------------------------------------------------


def test_smith_normal_form_known_values():
    assert smith_normal_form([[2, 4], [6, 8]]) == [2, 4]
    assert smith_normal_form([[1, 0], [0, 1]]) == [1, 1]
    assert smith_normal_form([[0, 0], [0, 0]]) == [0, 0]
    assert smith_normal_form([[2, 0], [0, 3]]) == [1, 6]
    assert smith_normal_form([[6, 10], [10, 6]]) == [2, 32]


def test_smith_normal_form_divisibility_and_rank():
    rng = random.Random(59)
    for _ in range(60):
        rows = rng.randint(1, 4)
        cols = rng.randint(1, 4)
        mat = [[rng.randint(-5, 5) for _ in range(cols)] for _ in range(rows)]
        diag = smith_normal_form(mat)
        nonzero = [d for d in diag if d]
        assert len(nonzero) == rank_gauss(mat)
        for a, b in zip(nonzero, nonzero[1:]):
            assert b % a == 0


def _det(rows):
    """Integer determinant by Laplace expansion along the first row."""
    if not rows:
        return 1
    return sum((-1) ** j * v * _det([r[:j] + r[j + 1:] for r in rows[1:]])
               for j, v in enumerate(rows[0]) if v)


def test_smith_normal_form_products_are_gcds_of_minors():
    # d_1 * ... * d_i is the gcd of all i x i minors
    rng = random.Random(67)
    for _ in range(300):
        rows, cols = rng.randint(1, 4), rng.randint(1, 4)
        mat = [[0 if rng.random() < 0.3 else rng.randint(-30, 30) for _ in range(cols)]
               for _ in range(rows)]
        diag = smith_normal_form(mat)
        product = 1
        for i, d in enumerate(diag, start=1):
            product *= d
            minors = [_det([[mat[r][c] for c in cs] for r in rs])
                      for rs in combinations(range(rows), i)
                      for cs in combinations(range(cols), i)]
            assert product == gcd(*minors), (mat, diag)


@pytest.mark.parametrize("mat", [[[1], [2, 3]], [[1, 2], [3]], [], [[]]],
                         ids=["short-second-row", "short-last-row", "no-rows", "empty-row"])
def test_smith_normal_form_rejects_ragged_and_empty_matrices(mat):
    with pytest.raises(InputError, match="^matrix "):
        smith_normal_form(mat)


def test_smith_normal_form_size_cap():
    # MAX_RANK_SIZE rows and columns still pass; one more raises before any pass
    size = intlinalg.MAX_RANK_SIZE
    assert smith_normal_form(identity(size)) == [1] * size
    assert fixed_rank(as_matrix([[0] * size] * size)) == 0
    for shape in [(size + 1, 1), (1, size + 1)]:
        with pytest.raises(ResourceLimitError, match=f"^a Smith normal form of a {shape[0]} x "
                                                     f"{shape[1]} matrix is over the size cap"):
            smith_normal_form([[1] * shape[1]] * shape[0])
    with pytest.raises(ResourceLimitError, match=f"^the rank of a {size + 1} x {size + 1} "
                                                 "matrix is over the size cap of 96 rows and columns"):
        fixed_rank(identity(size + 1))
    # a block cycle is built only for its rank, so it is capped before it is built
    assert len(block_cycle_matrix([[1]], size)) == size
    with pytest.raises(ResourceLimitError, match=f"^the rank of a {size + 1} x "
                                                 f"{size + 1} matrix is over the size cap"):
        block_cycle_matrix([[1]], size + 1)


def _oracle_rank(rows):
    """The rank by the two oracles: rational elimination and the Smith form."""
    by_gauss = rank_gauss(rows)
    assert sum(1 for d in smith_normal_form(rows) if d) == by_gauss
    return by_gauss


def test_bareiss_rank_against_gaussian_elimination_and_smith():
    # rectangular, with zero rows and columns, dependent rows and entries up to 2^64
    rng = random.Random(71)
    for _ in range(200):
        rows, cols = rng.randint(1, 6), rng.randint(1, 6)
        bound = 2 ** rng.choice([1, 8, 64])
        mat = [[rng.randint(-bound, bound) for _ in range(cols)] for _ in range(rows)]
        for i in range(1, rows):
            if rng.random() < 0.3:
                a, b = rng.randint(-3, 3), rng.randint(-3, 3)
                mat[i] = [a * x + b * y for x, y in zip(mat[rng.randrange(i)],
                                                         mat[rng.randrange(i)])]
        for i in range(rows):
            if rng.random() < 0.15:
                mat[i] = [0] * cols
        for j in range(cols):
            if rng.random() < 0.15:
                for row in mat:
                    row[j] = 0
        copy = [list(row) for row in mat]
        assert bareiss_rank(mat) == _oracle_rank(mat), mat
        assert mat == copy


def test_bareiss_rank_at_the_size_cap():
    # products of random factors of inner size r have rank r here
    size = intlinalg.MAX_RANK_SIZE
    rng = random.Random(73)
    for (rows, cols), r, bound in [((size, size), 8, 1), ((size, 40), 12, 1),
                                   ((40, size), 12, 1), ((size, size), 3, 2**64)]:
        left = tuple(tuple(rng.randint(-bound, bound) for _ in range(r)) for _ in range(rows))
        right = tuple(tuple(rng.randint(-1, 1) for _ in range(cols)) for _ in range(r))
        mat = mat_mul(left, right)
        assert bareiss_rank(mat) == _oracle_rank(mat) == r
    assert bareiss_rank(identity(size)) == size
    assert bareiss_rank([[0] * size] * size) == 0


# ---------------------------------------------------------------------------
# cyclic kernel lemma
# ---------------------------------------------------------------------------


def test_cyclic_kernel_examples():
    assert cyclic_kernel_rank(identity(2), 3) == 2
    swap = ((0, 1), (1, 0))
    assert cyclic_kernel_rank(swap, 1) == 1
    assert cyclic_kernel_rank(swap, 2) == 2


def test_cyclic_kernel_randomized(monkeypatch):
    # one elimination per call, of id minus the block cycle, which is never
    # read through as_matrix: only tau is, once, in either module
    forms, validated = [], []
    rank, read = intlinalg.bareiss_rank, intlinalg.as_matrix

    def counted(mat):
        forms.append(mat)
        return rank(mat)

    def reading(mat, *name):
        validated.append(mat)
        return read(mat, *name)

    monkeypatch.setattr(intlinalg, "bareiss_rank", counted)
    monkeypatch.setattr(intlinalg, "as_matrix", reading)
    monkeypatch.setattr(constraints, "as_matrix", reading)
    rng = random.Random(61)
    for _ in range(40):
        m = rng.randint(1, 4)
        k = rng.randint(1, 4)
        tau = tuple(tuple(rng.randint(-2, 2) for _ in range(m)) for _ in range(m))
        forms.clear()
        validated.clear()
        result = cyclic_kernel_rank(tau, k)
        assert len(forms) == 1 and len(forms[0]) == k * m
        assert [len(mat) for mat in validated] == [m]
        # independent route: rational rank of id - tau^k (the cyclic kernel lemma)
        oracle = m - rank_gauss(mat_sub(identity(m), mat_pow(tau, k)))
        assert result == oracle


@pytest.mark.parametrize("call", [
    lambda: as_matrix([[1.5]]), lambda: as_matrix([[True]]), lambda: as_matrix([["2"]]),
    lambda: smith_normal_form([[2, 0], [0, 1.5]]),
    lambda: cyclic_kernel_rank([[1.7, 0], [0, 1]], 2),
], ids=["as-matrix-float", "as-matrix-bool", "as-matrix-string", "snf-float",
        "cyclic-kernel-float"])
def test_integer_matrices_are_read_not_truncated(call):
    with pytest.raises(InputError, match="must be an integer"):
        call()


def test_as_matrix_names_the_matrix_it_reads():
    with pytest.raises(InputError, match="^'tau' must be an integer, not 1.5$"):
        as_matrix([[1, 1.5]], "tau")


@pytest.mark.parametrize("call", [
    lambda: cyclic_kernel_rank([[1]], 2.5), lambda: cyclic_kernel_rank([[1]], True),
    lambda: block_cycle_matrix([[1]], 2.0),
], ids=["cyclic-kernel-float", "cyclic-kernel-bool", "block-cycle-float"])
def test_cycle_lengths_are_read_not_coerced(call):
    with pytest.raises(InputError, match="must be an integer"):
        call()


def test_fixed_space_rank_against_gaussian_elimination():
    rng = random.Random(67)
    for _ in range(30):
        m = rng.randint(1, 4)
        a = tuple(tuple(rng.randint(-2, 2) for _ in range(m)) for _ in range(m))
        assert fixed_rank(as_matrix(a)) == m - rank_gauss(mat_sub(identity(m), a))
    assert fixed_rank(identity(3)) == 3


# ---------------------------------------------------------------------------
# component data and setups
# ---------------------------------------------------------------------------


def test_component_validation():
    with pytest.raises(InputError):
        ComponentData(k=0, mu=1)
    with pytest.raises(InputError):
        ComponentData(k=1, mu=1, d=1)
    with pytest.raises(InputError, match="degree"):
        ComponentData(k=1, mu=2, char_h=CycloProduct({1: 1}))
    with pytest.raises(InputError, match="fixed_rank"):
        ComponentData(k=1, mu=1, fixed_rank=5)


@pytest.mark.parametrize("cls,kwargs,key", [
    (ComponentData, {"k": 1.5, "mu": 1}, "k"),
    (ComponentData, {"k": 1, "mu": True}, "mu"),
    (ComponentData, {"k": 1, "mu": 1, "d": 2.0}, "d"),
    (ComponentData, {"k": 1, "mu": 1, "tau": ((1.5,),)}, "tau"),
    (ComponentData, {"k": 1, "mu": 1, "fixed_rank": 1.0}, "fixedRank"),
    (SingularSetup, {"n": 2.0, "mu0": 4}, "n"),
    (SingularSetup, {"n": 2, "mu0": "4"}, "mu0"),
    (SingularSetup, {"n": 2, "mu0": 4, "d0": 3.0}, "d0"),
    (SingularSetup, {"n": 2, "mu0": 4, "lambda0": True, "omega": 2}, "lambda0"),
    (SingularSetup, {"n": 2, "mu0": 4, "lambda0": 1, "omega": 2.5}, "omega"),
    (SingularSetup, {"n": 2, "mu0": 4, "lambda1": 1.0}, "lambda1"),
], ids=["k", "mu", "d", "tau", "fixedRank", "n", "mu0", "d0", "lambda0", "omega",
        "lambda1"])
def test_library_construction_reads_counts_as_integers(cls, kwargs, key):
    with pytest.raises(InputError, match=f"^'{key}' must be an integer"):
        cls(**kwargs)


@pytest.mark.parametrize("key", ["lambda0", "omega", "lambda1"])
def test_setup_le_numbers_must_be_nonnegative(key):
    with pytest.raises(InputError, match=f"^{key} must be nonnegative"):
        SingularSetup(n=2, mu0=4, **{key: -1})


def test_setup_validation():
    with pytest.raises(InputError, match="mu0"):
        SingularSetup(n=2, mu0=3, d0=3)  # (3-1)^2 = 4 != 3
    with pytest.raises(InputError, match="disagrees"):
        SingularSetup(n=2, mu0=4, d0=3, char_h0=CycloProduct({1: 4}))
    with pytest.raises(InputError, match="forces"):
        SingularSetup(n=2, mu0=4, d0=3,
                      components=(ComponentData(k=1, mu=2, d=2),))
    with pytest.raises(InputError, match="fixedRank"):
        SingularSetup(n=2, mu0=4, d0=3, components=(
            ComponentData(k=1, mu=1, tau=((1,),), fixed_rank=0),))
    with pytest.raises(InputError, match="omega"):
        SingularSetup(n=2, mu0=4, d0=3, lambda0=2, omega=1)
    # consistent fixed rank derived from tau passes
    SingularSetup(n=2, mu0=4, d0=3,
                  components=(ComponentData(k=1, mu=1, tau=((1,),), fixed_rank=1),))


def test_setup_json_roundtrip():
    setup = SingularSetup(
        n=2, mu0=4, d0=3,
        components=(ComponentData(k=1, mu=1, d=2,
                                  tau=((1,),), fixed_rank=1),
                    ComponentData(k=2, mu=1, char_h=CycloProduct({2: 1}))),
        lambda0=2, omega=3)
    assert SingularSetup.from_dict(setup.to_dict()) == setup


# ---------------------------------------------------------------------------
# the constraint operations
# ---------------------------------------------------------------------------


def test_lambda1_from_components():
    assert lambda1_from_components(SingularSetup(
        n=2, mu0=1, components=(ComponentData(k=1, mu=1),))) == 1
    assert lambda1_from_components(triple_planes_setup()) == 3
    assert lambda1_from_components(SingularSetup(
        n=2, mu0=9, components=(ComponentData(k=2, mu=3),))) == 6


def test_divisibility_bound_triple_planes():
    bound = divisibility_bound(triple_planes_setup())
    assert bound == CycloProduct({1: 2})


def test_divisibility_bound_degenerate_and_unknown():
    assert divisibility_bound(SingularSetup(n=2, mu0=4, d0=3)) == CycloProduct()
    unknown = SingularSetup(n=2, mu0=4, d0=3,
                            components=(ComponentData(k=1, mu=1),))
    assert divisibility_bound(unknown) is None


def test_rank_bound_examples():
    assert rank_bound(triple_planes_setup()) == 3
    with_ranks = SingularSetup(n=2, mu0=4, d0=3, components=tuple(
        ComponentData(k=1, mu=1, d=2, fixed_rank=1) for _ in range(3)))
    assert rank_bound(with_ranks) == 3
    assert rank_bound(SingularSetup(
        n=2, mu0=2, components=(ComponentData(k=1, mu=5),))) == 2


def test_non_splitting_verdict_cases():
    verdict = non_splitting_verdict(1, 1)
    assert verdict.tag == VERDICT_NON_SPLITTING
    assert verdict.data["s"] == 1
    assert verdict.data["h_top_rank"] == 0
    assert verdict.data["h_middle_rank"] == 1
    assert non_splitting_verdict(4, 3).tag == VERDICT_NOT_APPLICABLE
    degenerate = non_splitting_verdict(0, 0)
    assert degenerate.tag == VERDICT_NON_SPLITTING
    assert degenerate.data.get("degenerate") is True
    with pytest.raises(InputError, match="impossible"):
        non_splitting_verdict(1, 2)


def test_rank_attained_case_table():
    assert rank_attained_cases(4, 4).data["s_feasible"] == [1]
    assert rank_attained_cases(4, 3).data["s_feasible"] == [2]
    assert rank_attained_cases(5, 2).data["s_feasible"] == [2, 3, 4]
    assert rank_attained_cases(4, 4).data["k_all_one_if_rank_attained"]
    with pytest.raises(InputError):
        rank_attained_cases(2, 3)


def test_analyzer_consistency_at_equality():
    # both analyzers agree in the mu0 == lambda1 case
    assert non_splitting_verdict(3, 3).data["s"] == 1
    assert rank_attained_cases(3, 3).data["s_feasible"] == [1]


def test_acampo_validation():
    for n in range(1, 5):
        for d in range(2, 10):
            setup = SingularSetup(n=n, mu0=(d - 1) ** n, d0=d)
            assert acampo_validate(setup) == []
    bad = SingularSetup(n=2, mu0=2, char_h0=CycloProduct({1: 2}))
    violations = acampo_validate(bad)
    assert len(violations) == 1
    assert violations[0].data["trace"] == 2
    assert violations[0].data["expected"] == 1
    assert acampo_validate(SingularSetup(n=2, mu0=0)) == []


def test_full_report_triple_planes():
    report = full_report(triple_planes_setup())
    assert report.lambda1 == 3
    assert report.divisor_bound == CycloProduct({1: 2})
    assert report.rank_bound == 3
    assert report.s_bounds == (2,)
    tags = [v.tag for v in report.verdicts]
    assert VERDICT_NOT_APPLICABLE in tags
    assert VERDICT_RANK_BELOW in tags  # s = 3 is infeasible at full rank


def test_full_report_non_splitting_from_invariants():
    inv = compute_all(SliceSetup(parse_poly("x^2 + y^2", ["z", "x", "y"])))
    report = full_report(SingularSetup(n=2, mu0=1, lambda1=inv.lambda1))
    assert report.lambda1 == 1
    tags = [v.tag for v in report.verdicts]
    assert VERDICT_NON_SPLITTING in tags
    assert report.rank_bound == 1
    assert report.divisor_bound is None


def test_full_report_nontransverse_component():
    # one smooth component met doubly by the slice: lambda1 = 2, and k = 2
    # alone rules out a middle cohomology of full rank lambda1
    inv = compute_all(SliceSetup(parse_poly("x^2 + (y - z^2)^2", ["y", "x", "z"])))
    setup = SingularSetup(n=2, mu0=3, components=(ComponentData(k=2, mu=1, d=2),),
                          lambda1=inv.lambda1)
    report = full_report(setup)
    assert report.lambda1 == 2
    assert report.rank_bound == 1  # sum of transverse Milnor numbers
    assert VERDICT_RANK_BELOW in [v.tag for v in report.verdicts]


def test_full_report_rejects_inconsistent_lambda1():
    inv = compute_all(SliceSetup(parse_poly("x^2 + y^2", ["z", "x", "y"])))
    with pytest.raises(InputError, match="lambda1"):
        SingularSetup(n=2, mu0=1, components=(ComponentData(k=2, mu=1),),
                      lambda1=inv.lambda1)


def test_full_report_rejects_inconsistent_mu0():
    # a supplied lambda1 above mu0 is impossible, with or without components
    inv = compute_all(SliceSetup(parse_poly("x^2 + y^2", ["z", "x", "y"])))
    with pytest.raises(InputError, match="mu0"):
        full_report(SingularSetup(n=2, mu0=0, lambda1=inv.lambda1))


def test_setup_lambda1_stands_in_for_missing_components():
    setup = SingularSetup(n=2, mu0=4, d0=3, lambda1=3)
    assert setup.to_dict()["lambda1"] == 3
    assert SingularSetup.from_dict(setup.to_dict()) == setup
    report = full_report(setup)
    assert (report.lambda1, report.rank_bound, report.s_bounds) == (3, 3, (2,))
    assert not any("no components" in w for w in report.warnings)


def test_full_report_empty_components_contract():
    report = full_report(SingularSetup(n=2, mu0=4, d0=3))
    assert report.lambda1 == 0
    assert report.divisor_bound == CycloProduct()
    assert report.rank_bound == 0
    assert any("no components" in w for w in report.warnings)
    assert report.s_bounds is None


def test_divisor_bound_divides_inputs():
    setup = triple_planes_setup()
    bound = full_report(setup).divisor_bound
    assert bound.divides(homogeneous_char(2, 3))


def test_report_json_roundtrip():
    report = full_report(triple_planes_setup())
    assert ConstraintReport.from_dict(report.to_dict()) == report
    rendered = report.render_text()
    assert "Phi_1^2" in rendered


@pytest.mark.parametrize("key, value", [
    ("lambda1", 2.9), ("rank_bound", True), ("s_bounds", ["3", 1]), ("s_bounds", [3, 1.5]),
])
def test_report_from_dict_reads_counts_not_truncates(key, value):
    d = {"lambda1": 2, "rank_bound": 1, "s_bounds": [3, 1], "divisor_bound": None}
    assert ConstraintReport.from_dict(d).s_bounds == (3, 1)
    with pytest.raises(InputError, match=f"^'{key}' must be an integer"):
        ConstraintReport.from_dict({**d, key: value})


def test_finding_roundtrip():
    finding = Finding("TAG", "message", {"a": 1, "b": [1, 2]})
    assert Finding.from_dict(finding.to_dict()) == finding


def test_setup_derived_data_stays_out_of_eq_repr_and_json():
    comps = (ComponentData(k=1, mu=1, d=2), ComponentData(k=1, mu=2, tau=((0, 1), (1, 0))))
    setup = SingularSetup(n=2, mu0=4, d0=3, components=comps)
    assert setup.char0 == homogeneous_char(2, 3)
    assert setup.component_product is None
    assert setup.component_ranks == (None, 1)
    assert setup == SingularSetup.from_dict(setup.to_dict())
    assert "char0" not in repr(setup) and "component_" not in repr(setup)
    assert set(setup.to_dict()) == {"n", "mu0", "d0", "components"}
    full = SingularSetup(n=2, mu0=4, d0=3, components=comps[:1] * 3)
    assert full.component_product == CycloProduct({1: 3})


def test_setup_builds_one_characteristic_polynomial_per_degree(monkeypatch):
    # 20 planes through lines of multiplicity 6, 5 and 3, and generic ones
    degrees = []
    build = constraints.homogeneous_char

    def counted(n, d):
        degrees.append(d)
        return build(n, d)

    monkeypatch.setattr(constraints, "homogeneous_char", counted)
    normals = ([(1, t, 0) for t in range(5)] + [(0, 1, t) for t in range(1, 5)]
               + [(t, 0, 1) for t in range(1, 4)] + [(1, -1, 0), (0, 1, -1), (1, 0, -1)]
               + [(1, t, t * t * t + 2) for t in range(2, 7)])
    arr = CentralArrangement3(normals)
    setup = to_setup(arr)
    multiplicities = [p.multiplicity for p in multiple_points(arr)]
    assert len(multiplicities) == 150 and set(multiplicities) == {2, 3, 5, 6}
    assert sorted(degrees) == sorted([*set(multiplicities), arr.d0])
    assert setup.component_product == CycloProduct(
        [f for m in multiplicities for f in homogeneous_char(2, m).factors.items()])


@pytest.mark.parametrize("later,message", [
    ({"k": 1, "mu": 4, "d": 2}, "^component 2: mu = 4 but degree d = 2 forces Milnor number 1$"),
    ({"k": 2, "mu": 1, "d": 2, "charH": "Phi_2"},
     "^component 2: explicit charH disagrees with degree d = 2$"),
], ids=["wrong-mu", "wrong-charH"])
def test_a_repeated_degree_is_checked_for_each_component(later, message):
    first = {"k": 1, "mu": 1, "d": 2}
    with pytest.raises(InputError, match=message):
        SingularSetup.from_dict({"n": 2, "mu0": 9, "components": [first, first, later]})


@pytest.mark.parametrize("verdict,mu0,lambda1,message", [
    (rank_attained_cases, 4.0, 3, "'mu0' must be an integer"),
    (rank_attained_cases, -1, -2, "mu0 and lambda1 must be nonnegative"),
    (non_splitting_verdict, True, 1, "'mu0' must be an integer"),
    (non_splitting_verdict, 1.5, 1.5, "'mu0' must be an integer"),
    (rank_attained_cases, 2, 3, "mu0 = 2 < lambda1 = 3 is impossible: inconsistent input"),
], ids=["float-rank", "negative-rank", "bool-splitting", "float-splitting", "rank-below"])
def test_mu0_and_lambda1_are_read_as_counts(verdict, mu0, lambda1, message):
    with pytest.raises(InputError, match=message):
        verdict(mu0, lambda1)
