import io
import json
import random
from contextlib import redirect_stdout
from fractions import Fraction
from itertools import combinations
from math import comb, gcd, lcm

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from lenumbers import (
    Budget,
    CentralArrangement3,
    CycloProduct,
    InputError,
    ResourceLimitError,
    analyze_poly,
    defining_polynomial,
    pick_slice_form,
)
from lenumbers.arrangements import (arrangement_report, multiple_points, to_setup,
                                    validate_slice_form)
from lenumbers.cli import main
from lenumbers.constraints import VERDICT_EXPONENTS, VERDICT_NON_SPLITTING
from lenumbers.cyclo import homogeneous_char

E1, E2, E3 = (1, 0, 0), (0, 1, 0), (0, 0, 1)
COORDINATE_PLANES = (E1, E2, E3)
PENCIL3 = (E1, E2, (1, 1, 0))
GENERIC4 = (E1, E2, E3, (1, 1, 1))


def test_arrangement_validation():
    with pytest.raises(InputError, match="two planes"):
        CentralArrangement3((E1,))
    with pytest.raises(InputError, match="nonzero"):
        CentralArrangement3((E1, (0, 0, 0)))
    with pytest.raises(InputError, match="proportional"):
        CentralArrangement3((E1, (2, 0, 0)))
    with pytest.raises(InputError, match="proportional"):
        CentralArrangement3((E1, E2, (Fraction(-1, 2), 0, 0)))


def test_arrangement_reads_floats_by_repr_and_rejects_bools():
    arr = CentralArrangement3(((0.1, 1, 0), E2, E3))
    assert arr.normals[0] == (Fraction(1, 10), 1, 0)
    with pytest.raises(InputError, match="rational"):
        CentralArrangement3(((True, 1, 0), E2, E3))
    with pytest.raises(InputError, match="rational"):
        validate_slice_form(CentralArrangement3(COORDINATE_PLANES), [True, 1, 1])
    assert validate_slice_form(CentralArrangement3(COORDINATE_PLANES), [0.5, 1, 1]) == (1, 2, 2)


def test_multiple_points_coordinate_planes():
    points = multiple_points(CentralArrangement3(COORDINATE_PLANES))
    assert [(p.line, p.multiplicity) for p in points] == [
        ((0, 0, 1), 2), ((0, 1, 0), 2), ((1, 0, 0), 2)]


def test_multiple_points_pencil():
    points = multiple_points(CentralArrangement3(PENCIL3))
    assert [(p.line, p.multiplicity) for p in points] == [((0, 0, 1), 3)]


def test_multiple_points_generic_quadruple():
    points = multiple_points(CentralArrangement3(GENERIC4))
    assert len(points) == 6
    assert all(p.multiplicity == 2 for p in points)


def test_multiple_points_input_order_independent():
    rng = random.Random(67)
    normals = list(GENERIC4)
    baseline = multiple_points(CentralArrangement3(tuple(normals)))
    for _ in range(5):
        rng.shuffle(normals)
        assert multiple_points(CentralArrangement3(tuple(normals))) == baseline


def _random_arrangement(rng) -> CentralArrangement3:
    normals = []
    while len(normals) < rng.randint(2, 8):
        candidate = tuple(Fraction(rng.randint(-3, 3)) for _ in range(3))
        if not any(candidate):
            continue
        from lenumbers.arrangements import _cross
        if any(not any(_cross(candidate, n)) for n in normals):
            continue
        normals.append(candidate)
    return CentralArrangement3(tuple(normals))


def test_pair_accounting_random():
    rng = random.Random(71)
    for _ in range(100):
        arr = _random_arrangement(rng)
        points = multiple_points(arr)
        assert sum(comb(p.multiplicity, 2) for p in points) == comb(arr.d0, 2)


def _reference_lines(normals) -> dict[tuple[int, int, int], int]:
    """Primitive directions of the pairwise cross products, each with the
    number of normals orthogonal to it, by exact Fraction dot products."""
    lines = {}
    for a, b in combinations([[Fraction(c) for c in n] for n in normals], 2):
        cross = [a[1] * b[2] - a[2] * b[1], a[2] * b[0] - a[0] * b[2],
                 a[0] * b[1] - a[1] * b[0]]
        denom = lcm(*(c.denominator for c in cross))
        ints = [int(c * denom) for c in cross]
        sign = 1 if next(c for c in ints if c) > 0 else -1
        line = tuple(sign * c // gcd(*ints) for c in ints)
        lines[line] = sum(1 for n in normals
                          if not sum(Fraction(x) * y for x, y in zip(n, line)))
    return lines


def _arrangement_with_pencil(rng) -> CentralArrangement3:
    """3-4 planes through one random line, plus random planes around them."""
    line = (0, 0, 0)
    while not any(line):
        line = tuple(rng.randint(-3, 3) for _ in range(3))
    from lenumbers.arrangements import _cross
    # u and v span the normals of the planes through the line
    u = _cross(line, (1, 0, 0) if line[1] or line[2] else (0, 1, 0))
    v = _cross(line, u)
    normals = []
    pencil_size = rng.randint(3, 4)
    total = pencil_size + rng.randint(0, 4)
    while len(normals) < total:
        if len(normals) < pencil_size:
            a, b = rng.randint(-3, 3), rng.randint(-3, 3)
            candidate = tuple(Fraction(a * x + b * y, rng.randint(1, 3)) for x, y in zip(u, v))
        else:
            candidate = tuple(Fraction(rng.randint(-3, 3)) for _ in range(3))
        if any(candidate) and all(any(_cross(candidate, n)) for n in normals):
            normals.append(candidate)
    return CentralArrangement3(tuple(normals))


def test_multiple_points_match_reference_counting():
    rng = random.Random(79)
    arrangements = [_random_arrangement(rng) for _ in range(100)]
    arrangements += [_arrangement_with_pencil(rng) for _ in range(60)]
    assert any(p.multiplicity >= 4 for arr in arrangements for p in multiple_points(arr))
    for arr in arrangements:
        reference = _reference_lines(arr.normals)
        points = multiple_points(arr)
        assert {p.line for p in points} == set(reference)
        for p in points:
            assert p.multiplicity == reference[p.line]


def test_lambda1_at_most_mu0_with_equality_iff_pencil():
    rng = random.Random(73)
    for _ in range(60):
        arr = _random_arrangement(rng)
        points = multiple_points(arr)
        lam1 = sum((p.multiplicity - 1) ** 2 for p in points)
        mu0 = (arr.d0 - 1) ** 2
        assert lam1 <= mu0
        is_pencil = len(points) == 1 and points[0].multiplicity == arr.d0
        assert (lam1 == mu0) == is_pencil


def test_to_setup_coordinate_planes():
    setup = to_setup(CentralArrangement3(COORDINATE_PLANES))
    assert setup.n == 2
    assert setup.mu0 == 4
    assert setup.char0 == homogeneous_char(2, 3)
    assert len(setup.components) == 3
    assert all(c.k == 1 and c.mu == 1 and c.d == 2 for c in setup.components)


def test_report_coordinate_planes():
    report = arrangement_report(CentralArrangement3(COORDINATE_PLANES))
    assert report.divisor_bound == CycloProduct({1: 2})
    assert report.rank_bound == 3
    ceilings = next(v for v in report.verdicts if v.tag == VERDICT_EXPONENTS)
    assert ceilings.data["ceilings"] == {"1": 2, "3": 0}
    assert ceilings.data["a0"] == 2 and ceilings.data["b0"] == 1


def test_report_pencil():
    report = arrangement_report(CentralArrangement3(PENCIL3))
    # gcd of identical characteristic polynomials: the whole slice polynomial
    assert report.divisor_bound == homogeneous_char(2, 3)
    tags = [v.tag for v in report.verdicts]
    assert VERDICT_NON_SPLITTING in tags
    ceilings = next(v for v in report.verdicts if v.tag == VERDICT_EXPONENTS)
    assert ceilings.data["ceilings"] == {"1": 2, "3": 1}


def test_report_generic_quadruple():
    report = arrangement_report(CentralArrangement3(GENERIC4))
    assert report.divisor_bound == CycloProduct({1: 3})
    assert report.rank_bound == 6
    assert report.lambda1 == 6


def test_report_two_planes_non_splitting_consistency():
    report = arrangement_report(CentralArrangement3((E1, E2)))
    assert report.lambda1 == 1
    assert report.divisor_bound == CycloProduct({1: 1})
    tags = [v.tag for v in report.verdicts]
    assert VERDICT_NON_SPLITTING in tags
    # single critical line: the non-splitting conclusion matches the input
    assert not any("contradicts" in w for w in report.warnings)


def test_slice_form_validation():
    arr = CentralArrangement3(COORDINATE_PLANES)
    form = pick_slice_form(arr)
    assert all(form)  # must be nonzero against each axis
    with pytest.raises(InputError, match="vanishes"):
        validate_slice_form(arr, (0, 0, 1))  # kills the z-axis line
    with pytest.raises(InputError, match="vanishes"):
        arrangement_report(arr, z0=(1, 1, 0))
    # the pencil's one line, the z-axis, meets both forms: the returned form
    # is primitive and its first nonzero coefficient is positive
    pencil = CentralArrangement3(PENCIL3)
    assert validate_slice_form(pencil, (-2, 4, 6)) == (1, -2, -3)
    assert validate_slice_form(pencil, (0, "-1/2", 1)) == (0, 1, -2)


def test_arrangement_report_json_roundtrip():
    from lenumbers import ConstraintReport

    report = arrangement_report(CentralArrangement3(GENERIC4))
    assert ConstraintReport.from_dict(report.to_dict()) == report


def test_defining_polynomial():
    f = defining_polynomial(CentralArrangement3(COORDINATE_PLANES))
    from lenumbers import parse_poly
    assert f == parse_poly("x*y*z", ["x", "y", "z"])


def _cross_int(a, b):
    return (a[1] * b[2] - a[2] * b[1], a[2] * b[0] - a[0] * b[2], a[0] * b[1] - a[1] * b[0])


def _pair_count_oracle(normals):
    """mu0, lambda1 and lambda0 of an arrangement from its intersection lines.

    Lines are found by crossing every pair of normals, independently of the
    package; a line shared by m planes is crossed C(m, 2) times.  Then
    mu0 = (d - 1)^2, lambda1 = sum (m - 1)^2 and, from the Euler
    characteristic of the Milnor fibre, lambda0 = lambda1 + d*chi - 1 with
    chi(P^2 minus A) = 3 - 2d + sum (m - 1).
    """
    pairs_on_line = {}
    for a, b in combinations(normals, 2):
        v = _cross_int(a, b)
        g = gcd(*v)
        v = tuple(c // g for c in v)
        if next(c for c in v if c) < 0:
            v = tuple(-c for c in v)
        pairs_on_line[v] = pairs_on_line.get(v, 0) + 1
    mults = [next(m for m in range(2, len(normals) + 1) if comb(m, 2) == count)
             for count in pairs_on_line.values()]
    d = len(normals)
    lambda1 = sum((m - 1) ** 2 for m in mults)
    chi = 3 - 2 * d + sum(m - 1 for m in mults)
    return (d - 1) ** 2, lambda1, lambda1 + d * chi - 1


def test_cross_check_degree_four_arrangements():
    # combinatorial formulas versus the analytic pipeline on degree-4 inputs,
    # including one with a triple line (lambda1 = 4 + 1 + 1 + 1)
    cases = [
        (E1, E2, E3, (1, 1, 1)),
        (E1, E2, (1, 1, 0), E3),
        ((1, 2, 0), (0, 1, 1), (1, 0, 1), (1, 1, 1)),
    ]
    for normals in cases:
        arr = CentralArrangement3(normals)
        setup = to_setup(arr)
        inv = analyze_poly(defining_polynomial(arr),
                           z0=pick_slice_form(arr)).invariants
        assert inv.genericity_ok
        assert inv.mu0 == setup.mu0
        assert inv.lambda1 == sum(c.k * c.mu for c in setup.components)
        assert (inv.mu0, inv.lambda1, inv.lambda0) == _pair_count_oracle(normals)


def _check_random_arrangement(normals):
    assume(all(any(n) for n in normals))
    assume(all(any(_cross_int(a, b)) for a, b in combinations(normals, 2)))
    arr = CentralArrangement3(normals)
    form = pick_slice_form(arr)
    t = form[1]
    # each line vanishes on at most two forms (1, t, t^2)
    assert form == (1, t, t * t) and 0 <= t <= 2 * len(multiple_points(arr))
    inv = analyze_poly(defining_polynomial(arr), z0=form).invariants
    assert inv.genericity_ok
    assert (inv.mu0, inv.lambda1, inv.lambda0) == _pair_count_oracle(normals)


@settings(max_examples=12, derandomize=True, deadline=None)
@given(st.lists(st.tuples(*[st.integers(-2, 2)] * 3), min_size=4, max_size=4))
def test_le_numbers_of_random_four_plane_arrangements(normals):
    _check_random_arrangement(normals)


@settings(max_examples=12, derandomize=True, deadline=None)
@given(st.lists(st.tuples(*[st.integers(-2, 2)] * 3), min_size=5, max_size=5))
def test_le_numbers_of_random_five_plane_arrangements(normals):
    _check_random_arrangement(normals)


def test_six_generic_planes_fit_the_default_budget():
    normals = (E1, E2, E3, (1, 1, 1), (1, 2, 3), (1, -1, 2))
    f = defining_polynomial(CentralArrangement3(normals))
    job = {"polynomial": f.to_string(["x", "y", "z"]), "variables": ["x", "y", "z"],
           "d0": 6, "components": [{"k": 1, "mu": 1, "d": 2}] * 15}
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(["analyze", "--format", "json", "--input", json.dumps(job)])
    assert code == 0
    le = json.loads(buf.getvalue())["le"]
    assert (le["mu0"], le["lambda1"], le["lambda0"]) == _pair_count_oracle(normals)


def test_seven_planes_fit_the_default_budget():
    # the polar curve is certified after one colon step, which keeps the
    # 7-plane job well inside the default Budget()
    normals = (E1, E2, E3, (1, 1, 1), (1, 2, 3), (1, -1, 2), (2, 1, -1))
    arr = CentralArrangement3(normals)
    inv = analyze_poly(defining_polynomial(arr), z0=pick_slice_form(arr),
                       budget=Budget()).invariants
    assert inv.genericity_ok
    assert (inv.mu0, inv.lambda0, inv.lambda1, inv.omega) == (36, 90, 21, 105)
    assert (inv.mu0, inv.lambda1, inv.lambda0) == _pair_count_oracle(normals)


def test_resource_limit_names_the_polar_stage():
    arr = CentralArrangement3((E1, E2, E3, (1, 1, 1), (1, 2, 3)))
    with pytest.raises(ResourceLimitError, match=r"^stage polar: S-pair budget of 20 "
                                                 r"exhausted \(pairs_used=21, "):
        analyze_poly(defining_polynomial(arr), z0=pick_slice_form(arr),
                     budget=Budget(max_pairs=20))


def test_cross_check_against_slice_pipeline():
    # coordinate planes: the analytic pipeline must agree with the formulas
    arr = CentralArrangement3(COORDINATE_PLANES)
    setup = to_setup(arr)
    result = analyze_poly(defining_polynomial(arr), z0=pick_slice_form(arr))
    inv = result.invariants
    assert inv.genericity_ok
    assert inv.mu0 == setup.mu0
    assert inv.lambda1 == sum(c.k * c.mu for c in setup.components)

    # pencil of three planes: equality mu0 == lambda1 shows up analytically
    pencil = CentralArrangement3(PENCIL3)
    result = analyze_poly(defining_polynomial(pencil), z0=pick_slice_form(pencil))
    inv = result.invariants
    assert inv.genericity_ok
    assert inv.mu0 == 4
    assert inv.lambda1 == 4
    assert inv.lambda0 == 0 and inv.omega == 0
