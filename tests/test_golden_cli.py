"""Recorded ``--format json`` outputs of CLI jobs, compared byte for byte.

The jobs cover paths the other CLI tests do not pin down: an arrangement with
triple and quadruple lines and an explicit rational ``z0``, a constraints job
whose components carry ``d``, ``charH``, ``tau`` and ``fixedRank``, and three
``analyze`` jobs that end in a genericity failure (exit code 2): one with an
explicit ``z0`` on which mu0 is infinite, one with an explicit ``z0`` tangent
to the polar curve, and one where every searched slice form is rejected and
the last is reported.  The ``cyclo`` jobs pin the expanded polynomials:
Phi_1, Phi_105 (the first cyclotomic polynomial with a coefficient -2) and
Phi_2310, t^12 - 1 and t^30 - 1 with their factors, the homogeneous
characteristic polynomial for n = 2, d = 3, and one gcd.

Running this module as a script rewrites the recorded outputs under
``tests/data/``; do that only when an output change is intended.
"""

import io
import json
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from lenumbers.cli import main

DATA = Path(__file__).resolve().parent / "data"

THREE_LINES = [{"k": 1, "mu": 1, "d": 2}] * 3


def input_job(command: str, job: dict, expected_code: int) -> tuple[list[str], int]:
    return [command, "--format", "json", "--input", json.dumps(job)], expected_code


def cyclo_job(operation: str, *values) -> tuple[list[str], int]:
    return ["cyclo", "--format", "json", operation, *map(str, values)], 0


# name -> (argv, expected exit code)
JOBS = {
    "readme_analyze": input_job("analyze", {
        "polynomial": "x*y*z",
        "variables": ["x", "y", "z"],
        "d0": 3,
        "components": THREE_LINES,
    }, 0),
    "readme_constraints": input_job("constraints", {
        "n": 2, "mu0": 4, "d0": 3, "components": THREE_LINES,
    }, 0),
    "arrangement_12_planes_z0": input_job("arrangement", {
        "normals": [[1, 0, 0], [0, 1, 0], [1, 1, 0], [0, 0, 1], [1, 0, 1], [0, 1, 2],
                    [1, 2, 3], [2, -1, 1], [3, 1, -2], [1, -3, 2], [2, 3, 5], [-1, 4, 1]],
        "z0": ["1/2", 7, 31],
    }, 0),
    "constraints_all_component_fields": input_job("constraints", {
        "n": 2, "mu0": 16, "d0": 5,
        "components": [
            {"k": 1, "mu": 4, "d": 3, "charH": "Phi_1^2 * Phi_3", "fixedRank": 1},
            {"k": 2, "mu": 1, "d": 2, "fixedRank": 1},
            {"k": 2, "mu": 2, "tau": [[0, 1], [1, 0]], "fixedRank": 2,
             "charH": "Phi_1 * Phi_2"},
            {"k": 1, "mu": 3, "tau": [[1, 1, 0], [0, 1, 0], [0, 0, -1]],
             "charH": "Phi_1^2 * Phi_2"},
        ],
        "lambda0": 3, "omega": 5,
    }, 0),
    "analyze_mu0_infinite_z0": input_job("analyze", {
        "polynomial": "x^2 - y^2*z",
        "variables": ["x", "y", "z"],
        "z0": [-1, -1, 0],
    }, 2),
    "analyze_tangent_z0": input_job("analyze", {
        "polynomial": "x^2 - y^2*z",
        "variables": ["x", "y", "z"],
        "z0": [1, 0, 1],
    }, 2),
    "analyze_no_generic_form": input_job("analyze", {
        "polynomial": "x^2",
        "variables": ["x", "y", "z"],
    }, 2),
    **{f"cyclo_phi_{k}": cyclo_job("phi", k) for k in (1, 105, 2310)},
    **{f"cyclo_unity_{d}": cyclo_job("unity", d) for d in (12, 30)},
    "cyclo_homchar_2_3": cyclo_job("homchar", 2, 3),
    "cyclo_gcd": cyclo_job("gcd", "Phi_1^2 * Phi_3", "Phi_1^3"),
}


def run_job(name: str) -> bytes:
    argv, expected_code = JOBS[name]
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(argv)
    assert code == expected_code
    return buf.getvalue().encode()


@pytest.mark.parametrize("name", sorted(JOBS))
def test_cli_json_output_matches_recording(name):
    assert run_job(name) == (DATA / f"{name}.json").read_bytes()


if __name__ == "__main__":
    DATA.mkdir(exist_ok=True)
    for job_name in sorted(JOBS):
        (DATA / f"{job_name}.json").write_bytes(run_job(job_name))
        print(f"wrote {job_name}.json", file=sys.stderr)
