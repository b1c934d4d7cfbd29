import json
import random
from fractions import Fraction

import pytest

from lenumbers import (
    Budget,
    CentralArrangement3,
    GenericityError,
    InputError,
    ResourceLimitError,
    SliceSetup,
    analyze_poly,
    colength,
    compute_all,
    defining_polynomial,
    ideal,
    lambda0,
    lambda1,
    mu0,
    omega,
    parse_poly,
    pick_slice_form,
    polar_ideal,
    slice_with_form,
    MultiPoly,
)
from lenumbers import invariants
from lenumbers.localring import (ideal_quotient, ideal_sum, multiplicity, saturate,
                                 standard_basis)
from arrangement_pipeline import arrangement_pipeline
from ideal_equality import ideals_equal, is_local_standard_basis
from macaulay_oracle import macaulay_colength
from saturation_oracle import colon_saturation, multipoly_saturation
from test_cyclo import alarm_after

ZXY = ["z", "x", "y"]


def setup_from(text, names=ZXY):
    return SliceSetup(parse_poly(text, names))


def _curve_numbers(gamma, f):
    """colength(Γ + (h)) for h = z0, f and df/dz0, computed here: the pipeline
    reads lambda0 off the first two, so comparing the third with its lambda0
    checks it independently."""
    return [colength(ideal_sum(gamma, ideal([h])))
            for h in (MultiPoly.variable(0, f.nvars), f, f.partial(0))]


def test_slice_setup_validation():
    with pytest.raises(InputError, match="vanish"):
        SliceSetup(parse_poly("x^2 + 1", ZXY))
    with pytest.raises(InputError, match="critical"):
        SliceSetup(parse_poly("x + y^2", ZXY))
    with pytest.raises(InputError):
        SliceSetup(MultiPoly.zero(3))
    with pytest.raises(InputError, match=r"^need at least two variables \(slice plus one\)$"):
        SliceSetup(parse_poly("x^2", ["x"]))


def test_mu0_examples():
    assert mu0(setup_from("z^2 + x^2 + y^2")) == 1
    assert mu0(setup_from("x^2 + y^2")) == 1
    # non-generic slice: the sliced function has a line of critical points
    with pytest.raises(GenericityError, match="mu0 is infinite"):
        mu0(setup_from("x^2"))


def test_polar_ideal_examples():
    # f in the non-slice Jacobian forces an empty polar curve
    empty = polar_ideal(setup_from("x^2 + y^2"))
    assert ideals_equal(empty.ideal, ideal([MultiPoly.constant(1, 3)], 3))
    # A1 point: the polar curve is the slice axis
    axis = polar_ideal(setup_from("z^2 + x^2 + y^2"))
    x = MultiPoly.variable(1, 3)
    y = MultiPoly.variable(2, 3)
    assert ideals_equal(axis.ideal, ideal([x, y]))


def test_lambda0_omega_lambda1_on_a1_singularities():
    smooth_cylinder = setup_from("x^2 + y^2")
    polar = polar_ideal(smooth_cylinder)
    assert lambda0(polar) == 0
    assert omega(polar) == 0
    assert lambda1(polar, mu0(smooth_cylinder)) == 1

    cone = setup_from("z^2 + x^2 + y^2")
    polar = polar_ideal(cone)
    assert lambda0(polar) == 1
    assert omega(polar) == 2
    assert lambda1(polar, mu0(cone)) == 0


def test_compute_all_worked_examples():
    inv = compute_all(setup_from("x^2 + y^2"))
    assert (inv.mu0, inv.lambda0, inv.lambda1, inv.omega) == (1, 0, 1, 0)
    assert inv.genericity_ok

    inv = compute_all(setup_from("z^2 + x^2 + y^2"))
    assert (inv.mu0, inv.lambda0, inv.lambda1, inv.omega) == (1, 1, 0, 2)
    assert inv.genericity_ok

    inv = compute_all(setup_from("x^2"))
    assert inv.mu0 is None
    assert not inv.genericity_ok


def test_slice_with_form_matches_hand_substitution():
    f = parse_poly("x*y*z", ["x", "y", "z"])
    setup, names = slice_with_form(f, [1, 1, 1], ["x", "y", "z"])
    assert names == ("w", "y", "z")
    # x = w - y - z by hand
    assert setup.f == parse_poly("(w - y - z)*y*z", ["w", "y", "z"])
    assert setup.f.nvars == 3


def _slice_matrix(coeffs):
    """The matrix of the change to (w, the other variables): x_p = (w − Σ c_i·x_i)/c_p
    for x_p the first variable of nonzero coefficient, the others kept."""
    n = len(coeffs)
    pivot = next(i for i, c in enumerate(coeffs) if c)
    matrix = [[Fraction(0)] * n for _ in range(n)]
    matrix[pivot][0] = 1 / coeffs[pivot]
    for col, i in enumerate((i for i in range(n) if i != pivot), start=1):
        matrix[i][col] = Fraction(1)
        matrix[pivot][col] = -coeffs[i] / coeffs[pivot]
    return matrix


def test_slice_with_form_matches_the_linear_change():
    # f in 2-4 variables, of order at least 2, and forms with Fraction, zero
    # and negative entries, a zero first entry included
    rng = random.Random(17)
    for case in range(200):
        n = rng.randint(2, 4)
        f = MultiPoly([(mono, Fraction(rng.randint(-4, 4) or 1, rng.choice([1, 2, 3, 7])))
                       for mono in (tuple(rng.randint(0, 3) for _ in range(n))
                                    for _ in range(rng.randint(1, 6))) if sum(mono) >= 2]
                      or [((2,) + (0,) * (n - 1), 1)], n)
        form = [rng.choice([0, 0, 1, -1, Fraction(rng.randint(-5, 5), rng.randint(1, 4))])
                for _ in range(n)]
        if case % 4 == 0:
            form[0] = 0
        if not any(form):
            form[-1] = Fraction(-2, 3)
        names = rng.sample(["a", "b", "w", "w0", "x", "y"], n)
        setup, new_names = slice_with_form(f, form, names)
        coeffs = tuple(map(Fraction, form))
        assert setup.f.terms == f.linear_change(_slice_matrix(coeffs)).terms, (f, form)
        assert setup.z0_coefficients == coeffs
        if coeffs == (1,) + (0,) * (n - 1):
            assert new_names == tuple(names)
        else:
            pivot = next(i for i, c in enumerate(coeffs) if c)
            kept = tuple(name for i, name in enumerate(names) if i != pivot)
            slice_name = next(s for s in ("w", "w0", "w1", "w2") if s not in kept)
            assert new_names == (slice_name,) + kept


def test_slice_with_form_rejects_bad_forms():
    f = parse_poly("x*y*z", ["x", "y", "z"])
    with pytest.raises(InputError, match="^slice form must be nonzero$"):
        slice_with_form(f, [0, 0, Fraction(0)])
    for form in ([1, 1], [1, 1, 1, 1]):
        with pytest.raises(InputError, match="^slice form needs one coefficient per variable$"):
            slice_with_form(f, form)
    for names, message in ((["a", "b"], "need one variable name per variable: 2 names for 3"),
                           (["a", "a", "b"], "duplicate variable names"),
                           (["a", "b", "1c"], "variable names must be identifiers")):
        with pytest.raises(InputError, match=message):
            slice_with_form(f, [0, 1, 2], names)


@pytest.mark.parametrize("names,message", [
    (["a", "b"], "one variable name per variable"),
    (["a", "b", "c", "d"], "one variable name per variable"),
    (["a", "a", "b"], "duplicate"),
    (["a", "b", "1c"], "identifiers"),
], ids=["short", "long", "repeated", "not_identifier"])
@pytest.mark.parametrize("z0", [None, (1, 0, 0), (1, 1, 1)], ids=["search", "coordinate", "form"])
def test_analyze_poly_needs_one_distinct_identifier_per_variable(names, message, z0):
    with pytest.raises(InputError, match=message):
        analyze_poly(parse_poly("x*y*z", XYZ), z0=z0, names=names)


def test_slice_form_reads_floats_by_repr_and_rejects_bools():
    f = parse_poly("x*y*z", ["x", "y", "z"])
    inv = analyze_poly(f, z0=[0.1, 1, 1]).invariants
    assert inv.z0 == (Fraction(1, 10), 1, 1)
    assert inv.genericity_ok
    with pytest.raises(InputError, match="rational"):
        slice_with_form(f, [True, 1, 1])


def test_triple_planes_full_pipeline():
    f = parse_poly("x*y*z", ["x", "y", "z"])
    result = analyze_poly(f, z0=[1, 1, 1])
    inv = result.invariants
    assert (inv.mu0, inv.lambda0, inv.lambda1, inv.omega) == (4, 2, 3, 3)
    assert inv.genericity_ok
    # lambda0 - lambda1 = -1, the reduced Euler characteristic of (C*)^2
    assert inv.lambda0 - inv.lambda1 == -1


@pytest.mark.parametrize("seed", ["abc", 2.5, True], ids=["string", "float", "bool"])
@pytest.mark.parametrize("z0", [None, [1, 0, 0]], ids=["search", "z0"])
def test_analyze_poly_seed_must_be_an_integer(seed, z0):
    f = parse_poly("x*y*z", ["x", "y", "z"])
    with pytest.raises(InputError, match="^'seed' must be an integer"):
        analyze_poly(f, z0=z0, seed=seed)


def test_triple_planes_generic_search_and_seed_independence():
    f = parse_poly("x*y*z", ["x", "y", "z"])
    first = analyze_poly(f, seed=1).invariants
    second = analyze_poly(f, seed=2).invariants
    assert first.genericity_ok and second.genericity_ok
    assert first.z0 != second.z0  # genuinely different slice forms
    for field in ("mu0", "lambda0", "lambda1", "omega"):
        assert getattr(first, field) == getattr(second, field)


# hand values of (mu0, lambda0, lambda1, omega) for a generic slice form
GENERIC_LE_NUMBERS = {
    "x^2 - y^2*z": (2, 2, 1, 3),
    "x^2*y + z^2": (2, 2, 1, 3),
    "x*y*z": (4, 2, 3, 3),
    "x^2 + y^3": (2, 0, 2, 0),
    "x^2 + y^2": (1, 0, 1, 0),
    "x*y*(x + y)": (4, 0, 4, 0),
    "y^2 - 4*x*z": (1, 1, 0, 2),
}


@pytest.mark.parametrize("text", GENERIC_LE_NUMBERS)
def test_slice_form_search_finds_generic_forms(text):
    # a form the finiteness checks accept can still be special: the search
    # must not stop on one that gives other Lê numbers.  Every moment form
    # (1, t, t^2) is tangent to the cone y^2 = 4xz, so only a coordinate
    # form finds its A1.
    f = parse_poly(text, ["x", "y", "z"])
    wrong = {}
    for seed in range(40):
        inv = analyze_poly(f, seed=seed).invariants
        got = (inv.mu0, inv.lambda0, inv.lambda1, inv.omega)
        if not inv.genericity_ok or got != GENERIC_LE_NUMBERS[text]:
            wrong[seed] = (got, inv.z0)
    assert wrong == {}


def test_brieskorn_family_isolated_singularities():
    # f = x^a + y^b + z0^c has an isolated singularity; for the coordinate
    # slice the classical product formulas give mu0 and lambda0 exactly.
    for (a, b, c) in [(2, 2, 2), (2, 3, 2), (3, 3, 2), (2, 2, 3), (3, 2, 4)]:
        f = parse_poly(f"x^{a} + y^{b} + z^{c}", ZXY)
        inv = compute_all(SliceSetup(f))
        assert inv.genericity_ok
        assert inv.mu0 == (a - 1) * (b - 1)
        assert inv.lambda0 == (a - 1) * (b - 1) * (c - 1)
        assert inv.lambda1 == 0
        assert inv.omega == inv.lambda0 + inv.mu0
        # the Macaulay-matrix oracle gives the same mu of f and mu0 of its slice
        jacobian = [f.partial(i) for i in range(3)]
        assert macaulay_colength(jacobian, 3)[0] == inv.lambda0
        assert macaulay_colength([MultiPoly.variable(0, 3)] + jacobian[1:], 3)[0] == inv.mu0


def test_nontransverse_slice_counts_with_multiplicity():
    # Sigma f is the parabola {x = 0, y = z^2}; the slice form y meets it
    # doubly, so lambda1 = k * mu = 2 while the transverse type stays A1.
    # By hand: mu0 = mu(x^2 + z^4) = 3, polar curve = the y-axis, lambda0 = 1,
    # omega = 2, lambda1 = colength(x, y, z^3) - colength(x, y, z) = 3 - 1.
    f = parse_poly("x^2 + (y - z^2)^2", ["y", "x", "z"])
    result = analyze_poly(f, z0=[1, 0, 0], names=["y", "x", "z"])
    inv = result.invariants
    assert (inv.mu0, inv.lambda0, inv.lambda1, inv.omega) == (3, 1, 2, 2)
    x = MultiPoly.variable(1, 3)
    z = MultiPoly.variable(2, 3)
    assert ideals_equal(result.polar.ideal, ideal([x, z]))


def test_omega_dominates_lambda0_across_corpus():
    corpus = [
        "x^2 + y^2",
        "z^2 + x^2 + y^2",
        "x^3 + y^3 + z^2",
        "x^2*y + z^2",
        "x^3 + y^4 + z^2",
    ]
    for text in corpus:
        inv = compute_all(setup_from(text))
        if not inv.genericity_ok:
            continue
        assert inv.omega >= inv.lambda0
        if inv.omega == inv.lambda0:
            assert inv.omega == 0


def test_polar_curve_chain_rule_identity():
    # along each polar branch, ord(f) = ord(df/dz0) + ord(z0), so
    # omega = (polar . V(df/dz0)) + (polar . V(z0)) whenever everything is finite
    corpus = [
        ("x^2 + y^2", ["z", "x", "y"], [1, 0, 0]),
        ("z^2 + x^2 + y^2", ["z", "x", "y"], [1, 0, 0]),
        ("x^3 + y^3 + z^2", ["z", "x", "y"], [1, 0, 0]),
        ("x*y*z", ["x", "y", "z"], [1, 1, 1]),
        ("x^2 + (y - z^2)^2", ["y", "x", "z"], [1, 0, 0]),
    ]
    for text, names, z0 in corpus:
        result = analyze_poly(parse_poly(text, names), z0=z0, names=names)
        inv = result.invariants
        assert inv.genericity_ok
        slice_meets, f_meets, partial_meets = _curve_numbers(result.polar.ideal, result.setup.f)
        assert None not in (slice_meets, partial_meets)
        assert inv.lambda0 == partial_meets
        assert inv.omega == f_meets == partial_meets + slice_meets


def test_whitney_umbrella():
    # f = x^2 - y^2*z: critical locus the z-axis with transverse A1 points.
    # Euler oracle: the Milnor fiber double-covers C^2 branched along the
    # smooth curve y^2*z = -1 (a copy of C*), so chi(F) = 2*1 - 0 = 2 and
    # lambda0 - lambda1 = reduced chi = 1.
    f = parse_poly("x^2 - y^2*z", ["x", "y", "z"])
    inv = analyze_poly(f, seed=0).invariants
    assert inv.genericity_ok
    assert (inv.mu0, inv.lambda0, inv.lambda1, inv.omega) == (2, 2, 1, 3)
    assert inv.lambda0 - inv.lambda1 == 1


def test_whitney_umbrella_like_example():
    # f = x^2*y + z^2 over (z, x, y): slicing by z keeps a 1-dimensional
    # critical locus, so the coordinate slice is rejected; a generic one works.
    f = parse_poly("x^2*y + z^2", ["x", "y", "z"])
    result = analyze_poly(f, seed=0)
    inv = result.invariants
    assert inv.genericity_ok
    assert inv.omega >= inv.lambda0
    assert inv.lambda1 >= 1


def test_le_invariants_serialization_roundtrip():
    inv = compute_all(setup_from("x^2 + y^2"))
    data = inv.to_dict()
    assert json.loads(json.dumps(data)) == data
    assert data == {"mu0": 1, "lambda0": 0, "lambda1": 1, "omega": 0,
                    "genericity_ok": True, "warnings": list(inv.warnings), "z0": None}
    sliced = analyze_poly(parse_poly("x*y*z", ["x", "y", "z"]), z0=["1/2", 1, 1])
    assert sliced.invariants.to_dict()["z0"] == ["1/2", 1, 1]


def test_teissier_lemma_oracle():
    # Teissier's lemma along the polar curve: (G . V(f)) = (G . V(df/dz0)) +
    # (G . V(z0)), and (G . V(z0)) = mu0 - lambda1, since the non-slice
    # Jacobian scheme cut by V(z0) has colength mu0.  So omega = lambda0 +
    # (mu0 - lambda1).  The pipeline reads lambda0 off omega by this lemma,
    # so (G . V(df/dz0)) is computed here, and the law ties it to the rest.
    corpus = [
        "x^2 - y^2*z",
        "x*y*z",
        "x^2*y + z^2",
        "x^2 + y^3",
        "x*y*(x + y)",
        "x^2 + y^2",
        "x^3 + y^3 + x*y*z",
        "x^2*y^2 + z^3*x",
        "x^2 + y^2*z^2",
        "x^3 + y^2*z",
    ]
    for text in corpus:
        for seed in range(4):
            result = analyze_poly(parse_poly(text, ["x", "y", "z"]), seed=seed)
            inv = result.invariants
            assert inv.genericity_ok, (text, seed)
            numbers = _curve_numbers(result.polar.ideal, result.setup.f)
            assert numbers == [inv.mu0 - inv.lambda1, inv.omega, inv.lambda0], (text, seed)
            assert inv.omega == inv.lambda0 + (inv.mu0 - inv.lambda1), (text, seed)


# cones over plane curves, with their (mu0, lambda0, lambda1, omega)
CONES = [
    ("x^3 + y^3 + x*y*z", (4, 6, 1, 9)),
    ("x^3 + y^2*z", (4, 4, 2, 6)),
    ("x^4 + y^4 + x^2*y^2 + x*y*z^2", (9, 24, 1, 32)),
    ("(x^2 + y^2 - z^2)*x*y", (9, 12, 5, 16)),
]


@pytest.mark.parametrize("text,expected", CONES)
def test_bezout_for_cones_oracle(text, expected):
    # For f homogeneous of degree d in 3 variables, the generic slice is a
    # homogeneous plane curve singularity (mu0 = (d-1)^2) and the polar curve
    # is a cone of degree e = (G . V(z0)) = mu0 - lambda1 (Teissier's lemma
    # above).  Bezout along its e lines gives lambda0 = (G . V(df/dz0)) =
    # (d-1)*e and omega = (G . V(f)) = d*e.  None of these germs is a plane
    # arrangement: the cones over a nodal cubic, a cuspidal cubic, a nodal
    # quartic and a conic with two lines.
    f = parse_poly(text, ["x", "y", "z"])
    d = f.total_degree()
    assert {sum(m) for m in f.terms} == {d}
    inv = analyze_poly(f).invariants
    assert inv.genericity_ok
    e = inv.mu0 - inv.lambda1
    assert inv.mu0 == (d - 1) ** 2
    assert inv.lambda0 == (d - 1) * e
    assert inv.omega == d * e
    assert (inv.mu0, inv.lambda0, inv.lambda1, inv.omega) == expected


@pytest.mark.parametrize("text", [text for text, _ in CONES] + [
    "x^2 - y^2*z", "x*y*z", "x^2*y + z^2", "x*y*(x + y)"])
def test_le_iomdine_on_the_pipelines_own_slice(text):
    # Le-Iomdine: mu(f + w^N) = lambda0 + (N - 1) * lambda1 for N above the
    # polar ratio, with w the slice form.  A cone of degree d has polar ratio
    # d, and N = d + 1 and d + 2 (d the total degree) serve the other four
    # germs too.  One colength each checks the lambda0 and lambda1 that
    # analyze_poly computed, in the coordinates it chose.
    f = parse_poly(text, ["x", "y", "z"])
    d = f.total_degree()
    result = analyze_poly(f)
    inv = result.invariants
    assert inv.genericity_ok
    g = result.setup.f
    for N in (d + 1, d + 2):
        F = g + MultiPoly.variable(0, g.nvars) ** N
        jacobian = ideal([F.partial(i) for i in range(F.nvars)], F.nvars)
        assert colength(jacobian) == inv.lambda0 + (N - 1) * inv.lambda1, N


# random germs drawn with random.Random(1) (2-3 terms, coefficients in
# {-1, 1, 2, 3}, exponents 0-4, total degree at least 2) on which the slice
# search finds a generic form, with their (mu0, lambda0, lambda1, omega); the
# last germ's first form, (1, 0, 0), is tangent to its polar curve
RANDOM_GERMS = [
    ("x^3*z^3 + 3*x*y^2", (7, 5, 6, 6)),
    ("3*x^4*z + 2*y*z^4", (16, 12, 13, 15)),
    ("2*y^4*z + x*y*z^2", (11, 8, 9, 10)),
    ("-y*z^3 + x^2*y", (5, 3, 4, 4)),
    ("x*y^2*z - y*z^3", (9, 6, 7, 8)),
    ("3*x^3*y^2*z^2 - x^3*y^2 + 2*z^3", (8, 8, 6, 10)),
    ("-x^3*z + y^2*z^2 + 3*z^4", (9, 12, 5, 16)),
    ("2*x*y^2*z^2 + 3*y*z^4 + 3*x*y*z", (4, 2, 3, 3)),
    ("3*x*y^2 + x*z^2 + 3*y^3", (4, 6, 1, 9)),
    ("3*x^4*y^4 + 3*y^4*z + x*z", (1, 19, 0, 20)),
    ("2*x*y^4 + 3*z^2 - y^3*z", (4, 4, 3, 5)),
]


@pytest.mark.parametrize("text,expected", RANDOM_GERMS)
def test_le_iomdine_on_random_germs(text, expected):
    # Le-Iomdine: mu(f + w^N) = lambda0 + (N - 1) * lambda1 for N above every
    # polar ratio; a polar ratio is at most omega, so N = omega + 1 serves
    result = analyze_poly(parse_poly(text, ["x", "y", "z"]))
    inv = result.invariants
    assert inv.genericity_ok
    assert (inv.mu0, inv.lambda0, inv.lambda1, inv.omega) == expected
    g = result.setup.f
    N = inv.omega + 1
    F = g + MultiPoly.variable(0, g.nvars) ** N
    assert colength(ideal([F.partial(i) for i in range(F.nvars)])) == (
        inv.lambda0 + (N - 1) * inv.lambda1)


@pytest.mark.parametrize("j", [2, 3])
@pytest.mark.parametrize("text", [*GENERIC_LE_NUMBERS, *(text for text, _ in RANDOM_GERMS)])
def test_sebastiani_thom_on_a_fourth_variable(text, j):
    # Sebastiani-Thom: g = f + u^j has Σ(g) = Σ(f) × {0}, and at a form that
    # does not involve u every Lê number of g is (j - 1) times f's
    result = analyze_poly(parse_poly(text, XYZ))
    numbers = (result.invariants.mu0, result.invariants.lambda0, result.invariants.lambda1,
               result.invariants.omega)
    with alarm_after(10):
        inv = analyze_poly(parse_poly(f"{text} + u^{j}", [*XYZ, "u"]),
                           z0=(*result.invariants.z0, 0)).invariants
    assert inv.genericity_ok
    assert (inv.mu0, inv.lambda0, inv.lambda1, inv.omega) == tuple((j - 1) * k for k in numbers)


def test_analyze_poly_draws_on_one_default_budget(monkeypatch):
    built = []
    post_init = Budget.__post_init__

    def counted(self):
        built.append(self)
        post_init(self)

    monkeypatch.setattr(Budget, "__post_init__", counted)
    analyze_poly(parse_poly("x^2 - y^2*z", ["x", "y", "z"]))
    assert len(built) == 1


# a d-plane arrangement below takes the first d of these normals
PLANES = ((1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1), (1, 2, 3), (1, -1, 2), (2, 1, -1),
          (1, 3, -2))
XYZ = ["x", "y", "z"]


def _planes_setup(d):
    arr = CentralArrangement3(PLANES[:d])
    return slice_with_form(defining_polynomial(arr), pick_slice_form(arr))[0]


@pytest.fixture
def colon_calls(monkeypatch):
    """The pairs (I, g) that the polar stage hands to ideal_quotient and to saturate."""
    calls = {"ideal_quotient": [], "saturate": []}

    def spy(name, fn):
        def wrapper(I, g, budget=None):
            calls[name].append((I, g))
            return fn(I, g, budget)
        return wrapper

    monkeypatch.setattr(invariants, "ideal_quotient", spy("ideal_quotient", ideal_quotient))
    monkeypatch.setattr(invariants, "saturate", spy("saturate", saturate))
    return calls


def _nonslice_jacobian(setup):
    f = setup.f
    return ideal([f.partial(i) for i in range(1, f.nvars)], f.nvars)


def _saturated_polar(setup):
    """(I : f^infinity) for the non-slice Jacobian I, as saturate((I : f), f)."""
    return saturate(ideal_quotient(_nonslice_jacobian(setup), setup.f), setup.f)


def _check_certified(setup, polar, calls):
    # one colon step and no saturation, yet saturate's ideal
    assert len(calls["ideal_quotient"]) == 1 and calls["saturate"] == []
    assert not ideals_equal(polar.ideal, ideal([MultiPoly.constant(1, setup.f.nvars)]))
    gamma = _saturated_polar(setup)
    assert ideals_equal(polar.ideal, gamma)
    # the curve's two numbers are saturate's, and lambda0 is its third
    assert _curve_numbers(gamma, setup.f) == [polar.slice_colength, polar.f_colength,
                                              lambda0(polar)]


def _stage_by_stage(setup):
    """(mu0, lambda0, lambda1, omega) from the stage functions called one by one."""
    m = mu0(setup)
    polar = polar_ideal(setup)
    return m, lambda0(polar), lambda1(polar, m), omega(polar)


# homogeneous germs and the slice form each is cut at (None: the automatic
# search).  x*y*(x + y) does not depend on z, the form the search keeps, and
# its polar curve is empty at any form: its colon by df/dz0 is the unit ideal
CONE_FORMS = [("x*y*z", None), ("x*y*(x + y)", (1, 1, 1)), ("x^3 + y^3 + x*y*z", None),
              ("x*y*z + u^3", None)]


def _homogeneous_setup(text):
    if text.endswith("planes"):
        return _planes_setup(int(text.removesuffix("planes")))
    names = XYZ + ["u"] if "u" in text else XYZ
    return analyze_poly(parse_poly(text, names), z0=dict(CONE_FORMS)[text]).setup


@pytest.mark.parametrize("text", [f"{d}planes" for d in range(4, 9)]
                         + [text for text, _ in CONE_FORMS])
def test_homogeneous_polar_curve_is_the_euler_colon_certified_by_omega(colon_calls, monkeypatch,
                                                                        text):
    # by Euler's identity (I : f) = ((I : df/dz0) : z0): the one colon is by
    # df/dz0, and omega = d * e(m; O/Γ) stands in for colength(Γ + (z0))
    setup = _homogeneous_setup(text)
    f, w = setup.f, MultiPoly.variable(0, setup.f.nvars)
    colengths = []
    monkeypatch.setattr(invariants, "colength",
                        lambda I, budget=None: colengths.append(I) or colength(I, budget))
    colon_calls["ideal_quotient"].clear()
    polar = polar_ideal(setup)
    assert colon_calls == {"ideal_quotient": [(_nonslice_jacobian(setup), f.partial(0))],
                           "saturate": []}
    assert ideal_sum(polar.ideal, ideal([w])) not in colengths
    assert is_local_standard_basis(polar.ideal)
    gamma = _saturated_polar(setup)
    assert ideals_equal(polar.ideal, gamma)
    numbers = _curve_numbers(gamma, f)
    assert numbers == [polar.slice_colength, polar.f_colength, lambda0(polar)]
    assert polar.f_colength == f.total_degree() * colength(ideal_sum(gamma, ideal([w])))


def test_vanishing_slice_partial_gives_the_unit_curve(colon_calls):
    # df/dz0 = 0 at the coordinate form z of x^2 + y^2, so f lies in the
    # ideal of the other partials by Euler's identity: no colon is taken
    setup, _ = slice_with_form(parse_poly("x^2 + y^2", XYZ), (0, 0, 1))
    assert setup.f.partial(0).is_zero
    polar = polar_ideal(setup)
    assert polar == invariants.PolarCurve(ideal([MultiPoly.constant(1, 3)]), 0, 0)
    assert colon_calls == {"ideal_quotient": [], "saturate": []}


@pytest.mark.parametrize("d", [4, 5, 6, 7])
def test_polar_curve_of_planes_is_certified_in_one_colon_step(colon_calls, d):
    setup = _planes_setup(d)
    _check_certified(setup, polar_ideal(setup), colon_calls)


@pytest.mark.parametrize("text", ["x^2 - y^2*z", "x^2*y + z^2"], ids=["umbrella", "dinf"])
@pytest.mark.parametrize("seed", [0, 1, 2, 3, 7, 11])
def test_polar_curve_of_golden_germs_is_certified(colon_calls, text, seed):
    # the slice search rejects the coordinate forms before the polar stage
    result = analyze_poly(parse_poly(text, XYZ), seed=seed)
    inv = result.invariants
    assert inv.genericity_ok
    _check_certified(result.setup, result.polar, colon_calls)
    assert _stage_by_stage(result.setup) == (inv.mu0, inv.lambda0, inv.lambda1, inv.omega)


@pytest.mark.parametrize("text,numbers,e", [
    ("x^2 - y^2*z", [2, 4, 2], 1),
    ("x^2 + y^2*z + z^3*y", [3, 9, 6], 2),
], ids=["umbrella", "cubic"])
def test_tangent_slice_is_a_genericity_verdict(colon_calls, text, numbers, e):
    # omega is finite on J = (I : df/dz0), so J is the curve, and
    # z0 = (1, 0, 1) meets it with more than its multiplicity: the form is tangent
    result = analyze_poly(parse_poly(text, XYZ), z0=(1, 0, 1))
    inv = result.invariants
    assert not inv.genericity_ok and result.polar is None
    assert (inv.lambda0, inv.lambda1, inv.omega) == (None, None, None)
    assert inv.warnings[-1] == (f"the slice form is tangent to the polar curve: colength(polar "
                                f"+ (z0)) = {numbers[0]} exceeds its multiplicity {e}")
    jacobian, g = _nonslice_jacobian(result.setup), result.setup.f.partial(0)
    J = ideal_quotient(jacobian, g)
    assert colon_calls == {"ideal_quotient": [(jacobian, g)], "saturate": []}
    gamma = _saturated_polar(result.setup)
    assert ideals_equal(J, gamma)
    assert multiplicity(standard_basis(gamma).staircase, 3) == e
    # the curve meets V(z0), V(f) and V(df/dz0) finitely, and Teissier's lemma
    # holds on it: the verdict is tangency alone
    assert _curve_numbers(gamma, result.setup.f) == numbers
    assert numbers[1] == numbers[0] + numbers[2]


def test_infinite_omega_on_the_colon_falls_back(colon_calls):
    # here J = (I : df/dz0) is a curve that z0 cuts in e(m; O/J) = 4 points,
    # but f vanishes on a component of J: omega is infinite, so J is not
    # accepted and the curve is its saturation, which is (J : df/dz0) and (J : f)
    setup, _ = slice_with_form(parse_poly("y^4 - y^3*z^2 + 2*x*y*z^4", XYZ), (1, 1, -5))
    jacobian, g = _nonslice_jacobian(setup), setup.f.partial(0)
    J = ideal_quotient(jacobian, g)
    w = MultiPoly.variable(0, 3)
    assert multiplicity(standard_basis(J).staircase, 3) == colength(ideal_sum(J, ideal([w]))) == 4
    assert colength(ideal_sum(J, ideal([setup.f]))) is None
    polar = polar_ideal(setup)
    assert colon_calls == {"ideal_quotient": [(jacobian, g)], "saturate": [(J, g)]}
    # e(m; O/Γ) = colength(Γ + (z0)) = 3 and omega = 20 on Γ
    assert ideals_equal(polar.ideal, ideal_quotient(J, g))
    assert ideals_equal(polar.ideal, ideal_quotient(J, setup.f))
    assert (polar.slice_colength, polar.f_colength) == (3, 20)
    assert multiplicity(standard_basis(polar.ideal).staircase, 3) == 3
    assert _curve_numbers(polar.ideal, setup.f) == [3, 20, lambda0(polar)]
    assert lambda0(polar) == 17


@pytest.mark.parametrize("text,z0", [
    ("y^4 - y^3*z^2 + 2*x*y*z^4", (1, 1, -5)),
    ("2*x*y^4 + 3*z^2 - y^3*z", (1, 0, 0)),
    ("x^2 - y^2*z", (1, 0, 1)),
    ("x^2 + y^2*z + z^3*y", (1, 0, 1)),
], ids=["polarC", "two_round", "umbrella", "cubic"])
def test_fallback_saturation_matches_the_colon_chain(text, z0):
    # forms where (I : f) has an infinite omega or is tangent to z0:
    # saturate's one elimination basis against colon steps from I, and f is
    # a nonzerodivisor on the curve
    setup, _ = slice_with_form(parse_poly(text, XYZ), z0)
    J = ideal_quotient(_nonslice_jacobian(setup), setup.f)
    gamma = saturate(J, setup.f)
    # the integer-term lift gives the generators of the MultiPoly lift
    assert gamma.generators == multipoly_saturation(J, setup.f).generators
    assert is_local_standard_basis(gamma)
    assert ideals_equal(gamma, colon_saturation(_nonslice_jacobian(setup), setup.f))
    assert ideals_equal(ideal_quotient(gamma, setup.f), gamma)


# germs with a finite mu0 at a form: the golden germs and RANDOM_GERMS at the
# automatic form, the two tangent forms above, and polarC, whose (I : f) has
# an infinite omega.  On one germ the colon of (I : f) by z0 runs away in the
# kernel (about 120 s on the default budget, with 21 pairs): it must exit 3.
COLON_RUNAWAY = pytest.mark.xfail(raises=ResourceLimitError, strict=True,
                                  reason="the elimination basis of (J : z0) runs away")
FINITE_MU0_FORMS = (
    [(text, None) for text in GENERIC_LE_NUMBERS]
    + [(text, None) for text, _ in RANDOM_GERMS]
    + [("x^2 - y^2*z", (1, 0, 1)), ("x^2 + y^2*z + z^3*y", (1, 0, 1)),
       ("y^4 - y^3*z^2 + 2*x*y*z^4", (1, 1, -5))])


def _finite_mu0_setup(text, z0):
    f = parse_poly(text, XYZ)
    setup = analyze_poly(f).setup if z0 is None else slice_with_form(f, z0)[0]
    mu0(setup)
    return setup


@pytest.mark.parametrize("text,z0", [
    pytest.param(*job, marks=COLON_RUNAWAY) if job[0] == "2*x*y^2*z^2 + 3*y*z^4 + 3*x*y*z"
    else job for job in FINITE_MU0_FORMS])
def test_colon_by_f_is_cohen_macaulay_when_mu0_is_finite(text, z0):
    # with mu0 finite, I is a complete intersection curve and O/(I : f)
    # embeds in O/I through f, so it is Cohen-Macaulay: the parameter z0 is
    # a nonzerodivisor on it, and it meets a curve J at least e(m; O/J) times
    setup = _finite_mu0_setup(text, z0)
    J = ideal_quotient(_nonslice_jacobian(setup), setup.f)
    w = MultiPoly.variable(0, 3)
    assert ideals_equal(ideal_quotient(J, w, Budget(max_monomials=20000)), J)
    omega_J = colength(ideal_sum(J, ideal([setup.f])))
    if omega_J is None:
        # f is a nonzerodivisor of O/(I : f^infinity), a ring of dimension at
        # most 1, so omega is finite on the saturation
        assert colength(ideal_sum(saturate(J, setup.f), ideal([setup.f]))) is not None
    # omega(J) = 0 only for the unit ideal, which is no curve
    elif omega_J:
        assert colength(ideal_sum(J, ideal([w]))) >= multiplicity(standard_basis(J).staircase, 3)


@pytest.mark.parametrize("text,z0", FINITE_MU0_FORMS)
def test_colon_by_the_slice_partial_is_cohen_macaulay_when_mu0_is_finite(text, z0):
    # O/(I : df/dz0) embeds in O/I through df/dz0, so the parameter z0 is a
    # nonzerodivisor on it; f is one on the curve the pipeline returns, or on
    # J itself where the form is tangent to it, as saturating by f or by
    # df/dz0 gives the same curve.  Where f does not depend on z0, the colon
    # by df/dz0 = 0 is the unit ideal
    setup = _finite_mu0_setup(text, z0)
    g = setup.f.partial(0)
    J = ideal_quotient(_nonslice_jacobian(setup), g) if g else ideal([MultiPoly.constant(1, 3)])
    w = MultiPoly.variable(0, 3)
    assert ideals_equal(ideal_quotient(J, w, Budget(max_monomials=20000)), J)
    try:
        gamma = polar_ideal(setup).ideal
    except GenericityError as exc:
        assert "tangent" in str(exc)
        gamma = J
    assert ideals_equal(ideal_quotient(gamma, setup.f), gamma)
    # polar_ideal reads e(m; O/Γ) off these generators without completing them
    assert is_local_standard_basis(J) and is_local_standard_basis(gamma)


def test_infinite_mu0_is_omegas_verdict_in_polar_ideal():
    # the one non-slice partial 2x cuts out a surface, which V(w^2 + x^2)
    # meets along the y-axis: omega is infinite on the saturated curve too,
    # so polar_ideal raises rather than return a curve without its numbers
    setup = SliceSetup(parse_poly("w^2 + x^2", ["w", "x", "y"]))
    with pytest.raises(GenericityError, match="mu0 is infinite"):
        mu0(setup)
    with pytest.raises(GenericityError, match="omega is infinite"):
        polar_ideal(setup)


def test_unit_colon_is_the_polar_curve_at_once(colon_calls):
    # for f = (1 + z)*x^2 + y^3 and the form z, df/dz = x^2 lies in
    # (d_x f, d_y f) = (x, y^2), so (I : df/dz) = (1): the critical locus
    # is the z-axis, and the polar curve is empty
    setup, _ = slice_with_form(parse_poly("x^2 + y^3 + z*x^2", XYZ), (0, 0, 1))
    assert mu0(setup) == 2
    polar = polar_ideal(setup)
    assert polar == invariants.PolarCurve(ideal([MultiPoly.constant(1, 3)]), 0, 0)
    assert len(colon_calls["ideal_quotient"]) == 1 and colon_calls["saturate"] == []


def test_unit_colon_leaves_one_colength_to_mu0(monkeypatch):
    # the empty curve meets nothing: lambda0, omega and lambda1 read 0 without a colength
    calls = []
    monkeypatch.setattr(invariants, "colength",
                        lambda I, budget=None: calls.append(I) or colength(I, budget))
    setup, _ = slice_with_form(parse_poly("x^2 + y^3", XYZ), (0, 0, 1))
    inv = compute_all(setup)
    assert (inv.mu0, inv.lambda0, inv.lambda1, inv.omega) == (2, 0, 2, 0)
    assert len(calls) == 1


@pytest.mark.parametrize("d", [4, 5, 6])
def test_stage_functions_give_compute_alls_numbers_on_planes(d):
    inv = arrangement_pipeline(PLANES[:d])[0]
    assert inv.genericity_ok
    assert _stage_by_stage(_planes_setup(d)) == (inv.mu0, inv.lambda0, inv.lambda1, inv.omega)


# homogeneous germs with chi(F) = 1 + lambda0 - lambda1 of their Milnor fiber
EULER_CHARACTERISTICS = [
    ("x*y*z", 0), ("x*y*(x + y)", -3), ("x^2 + y^2", 0), ("y^2 - 4*x*z", 2),
    *zip((text for text, _ in CONES), (6, 3, 24, 8)),
    ("4planes", 4), ("5planes", 15), ("6planes", 36), ("7planes", 70), ("8planes", 120),
]


@pytest.mark.parametrize("text,chi", EULER_CHARACTERISTICS)
def test_degree_divides_the_euler_characteristic_of_a_cone(text, chi):
    # for f homogeneous of degree d in three variables, the monodromy
    # x -> e^(2 pi i/d) x acts freely on the Milnor fiber F, so d | chi(F)
    if text.endswith("planes"):
        d = int(text.removesuffix("planes"))
        inv = arrangement_pipeline(PLANES[:d])[0]
    else:
        f = parse_poly(text, XYZ)
        d = f.total_degree()
        assert {sum(m) for m in f.terms} == {d}
        inv = analyze_poly(f).invariants
    assert inv.genericity_ok
    assert 1 + inv.lambda0 - inv.lambda1 == chi
    assert chi % d == 0
