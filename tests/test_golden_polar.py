"""Recorded polar ideals of ``analyze`` jobs, compared as ideals.

``cli analyze`` prints the generators of the relative polar curve's ideal.
They come from the standard bases under the elimination order, so a change
of the completion (a pair criterion, say) may print other generators of the
same ideal.  The recording keeps the printed generators of the umbrella,
D∞, ``x*y*z`` and 3-line pencil jobs at a few seeds of the slice-form
search; the test asserts the same slice variables and equality of the ideals
in the local ring by mutual membership, not equality of the strings.  The
two homogeneous germs were recorded when the curve was the colon by f
itself, so they pin the colon by ∂f/∂z0 (Euler's identity) against it.

Running this module as a script rewrites ``tests/data/polar_ideals.json``;
do that only when a change of the polar ideals themselves is intended.
"""

import io
import json
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from lenumbers import ideal, parse_poly
from lenumbers.cli import main
from ideal_equality import ideals_equal, is_local_standard_basis

DATA = Path(__file__).resolve().parent / "data" / "polar_ideals.json"

ONE_LINE = [{"k": 1, "mu": 1, "d": 2}]
# name -> (polynomial, components of its critical locus)
GERMS = {"umbrella": ("x^2 - y^2*z", ONE_LINE), "dinf": ("x^2*y + z^2", ONE_LINE),
         "xyz": ("x*y*z", ONE_LINE * 3), "pencil": ("x*y*(x + y)", [{"k": 1, "mu": 4, "d": 3}])}
SEEDS = (0, 1, 2, 3, 7, 11)
JOBS = [(germ, seed) for germ in GERMS for seed in SEEDS]


def run_job(germ: str, seed: int) -> dict:
    polynomial, components = GERMS[germ]
    job = {"polynomial": polynomial, "variables": ["x", "y", "z"], "components": components}
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(["analyze", "--format", "json", "--seed", str(seed),
                     "--input", json.dumps(job)])
    assert code == 0
    out = json.loads(buf.getvalue())
    return {"slice_variables": out["slice_variables"], "polar_ideal": out["polar_ideal"]}


def _polar(record: dict):
    names = record["slice_variables"]
    return ideal([parse_poly(g, names) for g in record["polar_ideal"]], len(names))


@pytest.fixture(scope="module")
def recorded():
    return json.loads(DATA.read_text())


@pytest.mark.parametrize("germ,seed", JOBS, ids=[f"{g}-seed{s}" for g, s in JOBS])
def test_polar_ideal_equals_recording(recorded, germ, seed):
    got, want = run_job(germ, seed), recorded[f"{germ}-seed{seed}"]
    assert got["slice_variables"] == want["slice_variables"]
    assert ideals_equal(_polar(got), _polar(want))
    # the printed generators are a local standard basis, off which
    # polar_ideal reads the curve's multiplicity
    assert is_local_standard_basis(_polar(got))


if __name__ == "__main__":
    DATA.parent.mkdir(exist_ok=True)
    out = {f"{germ}-seed{seed}": run_job(germ, seed) for germ, seed in JOBS}
    DATA.write_text(json.dumps(out, indent=1) + "\n")
    print(f"wrote {DATA.name} ({len(out)} jobs)", file=sys.stderr)
