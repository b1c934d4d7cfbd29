import itertools
import json
import os
import random
import subprocess
import sys
from math import gcd, prod
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lenumbers import CentralArrangement3, ConstraintReport, cyclo, parse_poly
from lenumbers.arrangements import validate_slice_form
from lenumbers.cli import _json, main
from lenumbers.intlinalg import as_matrix
from matrix_oracle import identity, mat_sub, rank_gauss
from test_cyclo import alarm_after

XYZ_JOB = json.dumps({
    "polynomial": "x*y*z",
    "variables": ["x", "y", "z"],
    "components": [{"k": 1, "mu": 1, "d": 2}] * 3,
    "d0": 3,
})


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_cyclo_phi(capsys):
    code, out, _ = run(capsys, "cyclo", "phi", "6")
    assert code == 0
    assert out == "t^2 - t + 1\n"


@pytest.mark.parametrize("argv,code,out", [
    (["cyclo", "phi", "6"], 0, "t^2 - t + 1\n"),
    (["cyclo", "phi", "x"], 1, ""),
], ids=["ok", "input-error"])
def test_module_entry_point_exits_with_mains_code(argv, code, out):
    # `python3 -m lenumbers.cli`, as the README documents it, in a fresh process
    src = Path(__file__).resolve().parent.parent / "src"
    proc = subprocess.run([sys.executable, "-m", "lenumbers.cli", *argv],
                          capture_output=True, text=True, timeout=60,
                          env={**os.environ, "PYTHONPATH": str(src)})
    assert (proc.returncode, proc.stdout) == (code, out)


# keys and strings drawn often from the characters JSON escapes
_TEXT = st.text(st.sampled_from('"\\/\b\f\n\r\t\x00\x1f\x7f aé€\U0001f600') | st.characters())
_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.integers(-2**200, 2**200) | _TEXT,
    lambda inner: (st.lists(inner) | st.lists(inner).map(tuple)
                   | st.dictionaries(_TEXT, inner)),
    max_leaves=20)


def _stdlib_json(value) -> str:
    return json.dumps(value, indent=2, sort_keys=True)


@settings(max_examples=100, derandomize=True, deadline=None)
@given(_JSON_VALUES)
def test_json_writer_matches_the_stdlib(value):
    assert _json(value) == _stdlib_json(value)


@pytest.mark.parametrize("path", sorted((Path(__file__).resolve().parent / "data").glob("*.json")),
                         ids=lambda path: path.name)
def test_json_writer_matches_the_stdlib_on_the_recordings(path):
    value = json.loads(path.read_text(encoding="utf-8"))
    assert _json(value) == _stdlib_json(value)


def test_cyclo_homchar(capsys):
    code, out, _ = run(capsys, "cyclo", "homchar", "2", "3")
    assert code == 0
    assert out == "Phi_1^2 * Phi_3 ; degree 4 ; trace 1\n"


def test_cyclo_homchar_rejects_degree_one(capsys):
    code, _, err = run(capsys, "cyclo", "homchar", "2", "1")
    assert code == 1
    assert "degree" in err


def test_cyclo_unity_and_gcd(capsys):
    code, out, _ = run(capsys, "cyclo", "unity", "4")
    assert code == 0
    assert out == "Phi_1 * Phi_2 * Phi_4 ; expands to t^4 - 1\n"
    code, out, _ = run(capsys, "cyclo", "gcd", "Phi_1^2 * Phi_3", "Phi_1^3")
    assert code == 0
    assert out == "Phi_1^2 ; degree 2 ; trace 2\n"


def test_analyze_simple_cone(capsys):
    job = json.dumps({"polynomial": "x^2+y^2", "variables": ["z", "x", "y"],
                      "z0": [1, 0, 0]})
    code, out, _ = run(capsys, "analyze", "--input", job)
    assert code == 0
    assert "mu0 = 1" in out
    assert "lambda1 = 1" in out
    assert "NON_SPLITTING" in out


def test_analyze_full_pipeline_json(capsys):
    code, out, _ = run(capsys, "analyze", "--format", "json", "--input", XYZ_JOB)
    assert code == 0
    payload = json.loads(out)
    assert payload["le"]["mu0"] == 4
    assert payload["le"]["lambda1"] == 3
    report = ConstraintReport.from_dict(payload["constraints"])
    assert str(report.divisor_bound) == "Phi_1^2"
    assert report.rank_bound == 3
    # round trip: the parsed report re-serializes identically
    assert report.to_dict() == payload["constraints"]
    # the polar curve serializes as polynomial strings in slice coordinates
    assert isinstance(payload["polar_ideal"], list)
    assert all(isinstance(g, str) and g for g in payload["polar_ideal"])


def test_analyze_deterministic_output(capsys):
    _, first, _ = run(capsys, "analyze", "--format", "json", "--seed", "0",
                      "--input", XYZ_JOB)
    _, second, _ = run(capsys, "analyze", "--format", "json", "--seed", "0",
                       "--input", XYZ_JOB)
    assert first == second


def test_slice_variable_is_not_named_like_a_kept_variable(capsys):
    # the umbrella over (x, y, w) is the umbrella over (x, y, z) with z
    # renamed: the same polar curve, its slice variable called w0
    def analyze(text, names):
        job = json.dumps({"polynomial": text, "variables": names})
        code, out, _ = run(capsys, "analyze", "--format", "json", "--input", job)
        assert code == 0
        payload = json.loads(out)
        slice_names = payload["slice_variables"]
        return slice_names, [parse_poly(g, slice_names) for g in payload["polar_ideal"]]

    names, polar = analyze("x^2 - y^2*w", ["x", "y", "w"])
    assert names == ["w0", "y", "w"]
    assert (["w", "y", "z"], polar) == analyze("x^2 - y^2*z", ["x", "y", "z"])


def test_analyze_malformed_polynomial(capsys):
    job = json.dumps({"polynomial": "x +* y", "variables": ["x", "y", "z"]})
    code, _, err = run(capsys, "analyze", "--input", job)
    assert code == 1
    assert "error" in err


def test_analyze_genericity_failure_exit_code(capsys):
    job = json.dumps({"polynomial": "x^2", "variables": ["z", "x", "y"],
                      "z0": [1, 0, 0]})
    code, out, _ = run(capsys, "analyze", "--input", job)
    assert code == 2
    assert "genericity_ok = false" in out


def test_analyze_resource_limit_exit_code(capsys):
    code, _, err = run(capsys, "analyze", "--max-monomials", "3",
                       "--input", XYZ_JOB)
    assert code == 3
    assert "resource limit" in err


def test_resource_limit_message_names_the_stage(capsys):
    # five planes x, y, z, x+y+z, x+2y+3z: mu0 needs fewer than 20 S-pairs,
    # the polar curve's saturation more
    job = json.dumps({"polynomial": "x*y*z*(x + y + z)*(x + 2*y + 3*z)",
                      "variables": ["x", "y", "z"], "z0": [2, 1, -1]})
    code, out, err = run(capsys, "analyze", "--max-pairs", "20", "--input", job)
    assert code == 3
    assert out == ""
    assert err.startswith("resource limit: stage polar: S-pair budget of 20 exhausted")
    assert "pairs_used=21" in err


@pytest.mark.parametrize("operation, value", [
    ("unity", "1000000000000"), ("phi", "1000000000039")])
def test_cyclo_expansion_past_the_monomial_budget_exits_3(capsys, operation, value):
    with alarm_after(2):
        code, out, err = run(capsys, "cyclo", operation, value)
    assert code == 3
    assert out == ""
    assert err.startswith("resource limit: expanding a cyclotomic product needs ")


def test_analyze_deep_nesting_is_an_input_error(capsys):
    job = json.dumps({"polynomial": "(" * 10_000 + "x" + ")" * 10_000,
                      "variables": ["x", "y", "z"]})
    code, out, err = run(capsys, "analyze", "--input", job)
    assert code == 1
    assert out == ""
    assert err.startswith("error: parentheses nested too deeply (at position ")


def test_deeply_nested_json_input_is_an_input_error(capsys, tmp_path):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000 + "]" * 100_000)
    code, out, err = run(capsys, "constraints", "--input", str(path))
    assert code == 1
    assert out == ""
    assert err.startswith("error: invalid JSON input: maximum recursion depth exceeded")


def test_analyze_expansion_past_the_monomial_cap_exits_3(capsys):
    job = json.dumps({"polynomial": "(x+y+z)^400", "variables": ["x", "y", "z"]})
    with alarm_after(2):
        code, out, err = run(capsys, "analyze", "--input", job)
    assert code == 3
    assert out == ""
    assert err.startswith("resource limit: a product of ")


# 1000036000099 = 1000003 * 1000033: trial division passes 10^6 before a factor turns up
@pytest.mark.parametrize("argv", [
    ["cyclo", "unity", "1000036000099"],
    ["cyclo", "gcd", "Phi_1000000000000000003", "Phi_1000000000000000003"],
    ["cyclo", "homchar", "2", "1000036000099"],
    ["constraints", "--input", json.dumps({"n": 2, "mu0": 4, "d0": 3, "components": [
        {"k": 1, "mu": 1, "charH": "Phi_1000000000000000003"}]})],
], ids=["unity", "gcd", "homchar", "constraints-charH"])
def test_factoring_past_the_monomial_cap_exits_3(capsys, argv):
    with alarm_after(2):
        code, out, err = run(capsys, *argv)
    assert code == 3
    assert out == ""
    assert err.startswith("resource limit: trial division of ")


@pytest.mark.parametrize("d", [2**50, 10**18])
def test_homchar_of_a_degree_with_small_prime_factors(capsys, d):
    # both degrees factor at once, though their square roots pass the cap
    with alarm_after(2):
        code, out, _ = run(capsys, "cyclo", "--format", "json", "homchar", "2", str(d))
    assert code == 0
    summary = json.loads(out)
    assert (summary["degree"], summary["trace"]) == ((d - 1) ** 2, 1)


# the product of the first 30 primes factors at once and has 2^30 divisors
PRIMORIAL_30 = prod(p for p in range(2, 114) if all(p % q for q in range(2, p)))
# the products of the first 16 and 17 primes have 2^16 and 2^17 divisors
PRIMORIAL_16 = prod(p for p in range(2, 54) if all(p % q for q in range(2, p)))
PRIMORIAL_17 = PRIMORIAL_16 * 59


def test_homchar_lists_at_most_2_to_the_16_divisors(capsys, monkeypatch):
    # every divisor is listed, factored once and printed, so the cap bounds the time
    factored = []
    factorize = cyclo._factorize

    def counted(k):
        factored.append(k)
        return factorize(k)

    monkeypatch.setattr(cyclo, "_factorize", counted)
    with alarm_after(1):
        code, out, err = run(capsys, "cyclo", "homchar", "2", str(PRIMORIAL_17))
    assert code == 3
    assert out == ""
    assert err.startswith(f"resource limit: {PRIMORIAL_17} has 131072 divisors, "
                          "over the cap of 65536")
    factored.clear()
    with alarm_after(10):
        code, out, _ = run(capsys, "cyclo", "--format", "json", "homchar", "2", str(PRIMORIAL_16))
    assert code == 0
    summary = json.loads(out)
    assert (summary["degree"], summary["trace"]) == ((PRIMORIAL_16 - 1) ** 2, 1)
    # N itself, then each divisor once for both the degree and the trace
    assert len(factored) <= 2**16 + 1


@pytest.mark.parametrize("argv,message", [
    (["cyclo", "homchar", "1000000000", "1000000"], "coefficient bits, over the cap of 1000000"),
    (["constraints", "--input", json.dumps({"n": 10**9, "mu0": 4, "d0": 10**6})],
     "coefficient bits, over the cap of 1000000"),
    (["constraints", "--input", json.dumps({"n": 2, "mu0": 100000, "components": [
        {"k": 100000, "mu": 1, "tau": [[1]]}]})],
     "a block-cycle matrix of size 100000 has 10000000000 entries"),
    (["cyclo", "unity", str(PRIMORIAL_30)], "has 1073741824 divisors, over the cap of 65536"),
    (["cyclo", "homchar", "2", str(PRIMORIAL_30)],
     "has 1073741824 divisors, over the cap of 65536"),
    (["constraints", "--input", json.dumps({"n": 2, "mu0": 4, "d0": PRIMORIAL_30})],
     "has 1073741824 divisors, over the cap of 65536"),
], ids=["homchar", "constraints-d0", "constraints-block-cycle",
        "unity-primorial", "homchar-primorial", "constraints-d0-primorial"])
def test_sizes_past_the_monomial_cap_exit_3(capsys, argv, message):
    with alarm_after(2):
        code, out, err = run(capsys, *argv)
    assert code == 3
    assert out == ""
    assert err.startswith("resource limit: ") and message in err


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_cyclo_past_the_printable_integer_cap_exits_3(capsys, fmt):
    # (3 - 1)^20000 has 6,021 decimal digits, past Python's default
    # 4,300-digit int-to-str limit; the cap fires before any conversion
    code, out, err = run(capsys, "cyclo", "--format", fmt, "homchar", "20000", "3")
    assert code == 3
    assert out == ""
    assert err.startswith("resource limit: the Milnor number (d-1)^n has 20001 bits, "
                          "over the cap of 14000 bits on printed integers")
    # so does a constraints job whose degree d0 forces that Milnor number
    job = json.dumps({"n": 20000, "mu0": 4, "d0": 3})
    code, out, err = run(capsys, "constraints", "--format", fmt, "--input", job)
    assert code == 3
    assert out == ""
    assert err.startswith("resource limit: the Milnor number (d-1)^n has 20001 bits")
    # a gcd of products read from text is capped by its degree alike
    factor = "Phi_1000003^" + "9" * 4299
    code, out, err = run(capsys, "cyclo", "--format", fmt, "gcd", factor, factor)
    assert code == 3
    assert out == ""
    assert err.startswith("resource limit: the degree has 14301 bits, over the cap of 14000 ")
    # the largest Milnor number under the cap, 2^13999, is printed in full
    code, out, _ = run(capsys, "cyclo", "--format", "json", "homchar", "13999", "3")
    assert code == 0
    assert json.loads(out)["degree"] == 2 ** 13999


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize("job", [
    {"n": 2, "mu0": 4, "charH0": "Phi_1000003^" + "9" * 4299},
    {"n": 2, "mu0": 4, "components": [{"k": 1, "mu": 1, "charH": "Phi_1000003^" + "9" * 4299}]},
], ids=["charH0", "component-charH"])
def test_constraints_charh_past_the_printable_integer_cap_exits_3(capsys, fmt, job):
    # the degree-mismatch message would print a degree of 4,306 decimal digits
    code, out, err = run(capsys, "constraints", "--format", fmt, "--input", json.dumps(job))
    assert code == 3
    assert out == ""
    assert err.startswith("resource limit: the degree has 14301 bits, over the cap of 14000 ")


def test_dense_tau_constraints_job_finishes(capsys):
    # a dense 56 x 56 tau with entries in {-1, 0, 1}; the fixed-space rank
    # is the rank bound, since it is below mu0 = 64 and mu = 56
    rng = random.Random(1)
    tau = [[rng.randint(-1, 1) for _ in range(56)] for _ in range(56)]
    job = json.dumps({"n": 2, "mu0": 64, "components": [{"k": 1, "mu": 56, "tau": tau}]})
    with alarm_after(5):
        code, out, _ = run(capsys, "constraints", "--format", "json", "--input", job)
    assert code == 0
    expected = 56 - rank_gauss(mat_sub(identity(56), as_matrix(tau)))
    assert json.loads(out)["report"]["rank_bound"] == expected


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize("size,component", [
    (150, {"k": 1, "mu": 150, "tau": [[random.Random(1).randint(-1, 1) for _ in range(150)]
                                      for _ in range(150)]}),
    (1000, {"k": 1000, "mu": 1, "tau": [[1]]}),
], ids=["dense-tau", "block-cycle"])
def test_smith_forms_past_the_size_cap_exit_3(capsys, fmt, size, component):
    # a dense 150 x 150 Smith form took 8.6 s, and the 1000 x 1000 block-cycle
    # matrix (within the entry cap) ran for more than 30 s
    job = json.dumps({"n": 2, "mu0": size, "components": [component]})
    with alarm_after(1):
        code, out, err = run(capsys, "constraints", "--format", fmt, "--input", job)
    assert code == 3
    assert out == ""
    assert err.startswith(f"resource limit: the rank of a {size} x {size} matrix "
                          "is over the size cap of 96 rows and columns")


def test_arrangement_of_many_planes_finds_its_slice_form(capsys):
    # the 145 planes with primitive normals in {-3..3}^3 meet in 3,217 lines;
    # (1, 7, 49) is the first form (1, t, t^2) that vanishes on none of them
    normals = [v for v in itertools.product(range(-3, 4), repeat=3)
               if gcd(*v) == 1 and next(c for c in v if c) > 0]
    assert len(normals) == 145
    with alarm_after(5):
        code, out, _ = run(capsys, "arrangement", "--format", "json",
                           "--input", json.dumps({"normals": normals}))
    assert code == 0
    ceilings = next(v for v in json.loads(out)["report"]["verdicts"]
                    if v["tag"] == "EXPONENT_CEILINGS")
    assert len(ceilings["data"]["lines"]) == 3217
    assert ceilings["data"]["slice_form"] == [1, 7, 49]
    assert validate_slice_form(CentralArrangement3(normals), [1, 7, 49]) == (1, 7, 49)


def test_constraints_command(capsys):
    job = json.dumps({"n": 2, "mu0": 4, "d0": 3,
                      "components": [{"k": 1, "mu": 1, "d": 2}] * 3})
    code, out, _ = run(capsys, "constraints", "--input", job)
    assert code == 0
    assert "divisor bound = Phi_1^2" in out


def test_constraints_empty_components_warning(capsys):
    job = json.dumps({"n": 2, "mu0": 4, "d0": 3, "components": []})
    code, out, _ = run(capsys, "constraints", "--input", job)
    assert code == 0
    assert "divisor bound = 1" in out
    assert "no components" in out


def test_constraints_bad_degree_exit(capsys):
    job = json.dumps({"n": 2, "mu0": 4, "d0": 3,
                      "components": [{"k": 1, "mu": 2, "charH": "Phi_1"}]})
    code, _, err = run(capsys, "constraints", "--input", job)
    assert code == 1
    assert "degree" in err


def test_arrangement_command(capsys):
    job = json.dumps({"normals": [[1, 0, 0], [0, 1, 0], [0, 0, 1]]})
    code, out, _ = run(capsys, "arrangement", "--input", job)
    assert code == 0
    assert "divisor bound = Phi_1^2" in out
    assert "EXPONENT_CEILINGS" in out


def test_arrangement_repeated_normal_exit(capsys):
    job = json.dumps({"normals": [[1, 0, 0], [2, 0, 0]]})
    code, _, err = run(capsys, "arrangement", "--input", job)
    assert code == 1
    assert "proportional" in err


def test_missing_input_flag(capsys):
    code, _, err = run(capsys, "analyze")
    assert code == 1
    assert "--input" in err


def test_input_from_file(tmp_path, capsys):
    path = tmp_path / "job.json"
    path.write_text(XYZ_JOB)
    code, out, _ = run(capsys, "analyze", "--input", str(path))
    assert code == 0
    assert "mu0 = 4" in out


def test_input_from_stdin(monkeypatch, capsys):
    import io

    monkeypatch.setattr("sys.stdin", io.StringIO(XYZ_JOB))
    code, out, _ = run(capsys, "analyze", "--input", "-")
    assert code == 0
    assert "mu0 = 4" in out


def test_analyze_unreadable_char_h0_is_an_input_error(capsys):
    job = json.dumps({"polynomial": "x*y*z", "variables": ["x", "y", "z"],
                      "charH0": 5})
    code, _, err = run(capsys, "analyze", "--input", job)
    assert code == 1
    assert err.startswith("error:")


def test_constraints_empty_tau_is_an_input_error(capsys):
    job = json.dumps({"n": 2, "mu0": 4, "d0": 3,
                      "components": [{"k": 1, "mu": 1, "tau": []}]})
    code, _, err = run(capsys, "constraints", "--input", job)
    assert code == 1
    assert err.startswith("error:")


@pytest.mark.parametrize("job,key", [
    ({"n": 2.7, "mu0": 4, "d0": 3, "components": []}, "n"),
    ({"n": 2, "mu0": True, "d0": 3, "components": []}, "mu0"),
    ({"n": 2, "mu0": 4, "d0": 3, "components": [{"k": "1", "mu": 1}]}, "k"),
    ({"n": 2, "mu0": 4, "d0": 3,
      "components": [{"k": 1, "mu": 2, "tau": [[0, 1], [1.0, 0]]}]}, "tau"),
], ids=["float-n", "bool-mu0", "string-k", "float-tau"])
def test_constraints_counts_must_be_integers(capsys, job, key):
    code, out, err = run(capsys, "constraints", "--input", json.dumps(job))
    assert code == 1
    assert out == ""
    assert err.startswith(f"error: '{key}' must be an integer")


def test_analyze_rejects_components_that_disagree_with_the_computed_lambda1(capsys):
    # x*y*z has lambda1 = 3; one transverse A1 line gives sum k*mu = 1
    job = json.dumps({"polynomial": "x*y*z", "variables": ["x", "y", "z"],
                      "components": [{"k": 1, "mu": 1}]})
    code, out, err = run(capsys, "analyze", "--input", job)
    assert code == 1
    assert out == ""
    assert err.startswith("error: lambda1 = 3 disagrees")


@pytest.mark.parametrize("seed", [2.7, True], ids=["float", "bool"])
def test_analyze_seed_must_be_an_integer(capsys, seed):
    job = json.dumps({"polynomial": "x*y", "variables": ["x", "y"], "seed": seed})
    code, out, err = run(capsys, "analyze", "--input", job)
    assert code == 1
    assert out == ""
    assert err.strip() == f"error: 'seed' must be an integer, not {seed!r}"


@pytest.mark.parametrize("option", ["--max-pairs", "--max-monomials"])
def test_budget_caps_must_be_positive(capsys, option):
    code, out, err = run(capsys, "analyze", option, "0", "--input", XYZ_JOB)
    assert code == 1
    assert out == ""
    name = option[2:].replace("-", "_")
    assert err.strip() == f"error: '{name}' must be positive, not 0"


def test_usage_error_exit_code(capsys):
    code, out, err = run(capsys, "analyze", "--format", "xml", "--input", "{}")
    assert code == 1
    assert err.startswith("error:")
    assert out == ""


CONSTRAINTS_JOB = json.dumps({"n": 2, "mu0": 4, "d0": 3, "components": []})


@pytest.mark.parametrize("argv", [
    ("constraints", "--seed", "1", "--input", CONSTRAINTS_JOB),
    ("constraints", "--seed", "5", "--max-pairs", "1", "--input", CONSTRAINTS_JOB),
    ("arrangement", "--max-pairs", "5", "--input", '{"normals": [[1, 0, 0], [0, 1, 0]]}'),
    ("cyclo", "--input", "x", "phi", "6"),
    ("cyclo", "--input", "missing.json", "--seed", "3", "phi", "6"),
], ids=["constraints-seed", "constraints-budget", "arrangement-max-pairs",
        "cyclo-input", "cyclo-input-seed"])
def test_options_a_command_does_not_read_are_usage_errors(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert out == ""
    assert err.startswith("error:")


def test_parser_is_reused_without_leaking_options(capsys):
    code, _, err = run(capsys, "analyze", "--max-monomials", "3", "--input", XYZ_JOB)
    assert code == 3
    assert "resource limit" in err
    code, out, _ = run(capsys, "analyze", "--input", XYZ_JOB)
    assert code == 0
    assert "mu0 = 4" in out


def test_arrangement_z0_entries_read_like_normals(capsys):
    job = json.dumps({"normals": [[1, 0, 0], [0, 1, 0], [0, 0, 1]], "z0": [0.1, 1, 1]})
    code, out, _ = run(capsys, "arrangement", "--format", "json", "--input", job)
    assert code == 0
    ceilings = next(v for v in json.loads(out)["report"]["verdicts"]
                    if v["tag"] == "EXPONENT_CEILINGS")
    assert ceilings["data"]["slice_form"] == [1, 10, 10]


@pytest.mark.parametrize("command,job", [
    ("arrangement", {"normals": [[1, 0, 0], [0, 1, 0], [0, 0, 1]], "z0": [True, 1, 1]}),
    ("arrangement", {"normals": [[1, 0, 0], [0, 1, 0], [0, 0, 1]], "z0": "111"}),
    ("analyze", {"polynomial": "x*y*z", "variables": ["x", "y", "z"], "z0": [True, 1, 1]}),
    ("analyze", {"polynomial": "x*y*z", "variables": ["x", "y", "z"], "z0": "111"}),
    ("analyze", {"polynomial": "x*y*z", "variables": "zxy"}),
    ("analyze", {"polynomial": "x^2", "variables": ["x", 2, "z"]}),
], ids=["arrangement-bool-z0", "arrangement-string-z0", "analyze-bool-z0",
        "analyze-string-z0", "analyze-string-variables", "analyze-number-variable"])
def test_z0_and_variables_must_be_json_lists_of_values(capsys, command, job):
    code, out, err = run(capsys, command, "--input", json.dumps(job))
    assert code == 1
    assert out == ""
    assert err.startswith("error:")


@pytest.mark.parametrize("command,job,key", [
    ("constraints", {"n": 2, "mu0": 4, "components": {"k": 1, "mu": 1}}, "components"),
    ("constraints", {"n": 2, "mu0": 4, "components": "kmu"}, "components"),
    ("constraints", {"n": 2, "mu0": 4, "components": ["kmu"]}, "components"),
    ("constraints", {"n": 2, "mu0": 4, "components": [{"k": 1, "mu": 1, "tau": 5}]}, "tau"),
    ("constraints", {"n": 2, "mu0": 4, "components": [{"k": 1, "mu": 1, "tau": [5]}]}, "tau"),
    ("arrangement", {"normals": 5}, "normals"),
    ("arrangement", {"normals": [5, 6]}, "normals"),
], ids=["components-object", "components-string", "component-string", "tau-int",
        "tau-row-int", "normals-int", "normal-int"])
def test_json_shape_errors_name_the_key(capsys, command, job, key):
    code, out, err = run(capsys, command, "--input", json.dumps(job))
    assert code == 1
    assert out == ""
    assert f"'{key}' must be a list" in err
    assert "malformed input" not in err
