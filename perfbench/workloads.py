"""Seeded jobs for the three workloads, each with an oracle that does not use
the code under test.

A job is a call into the package's public API plus a check of its answer.
Everything a job needs is built here, at set-up time, from the workload seed;
the oracles are closed formulas or hand-known values, never a second run of
the package.  Jobs call the package through module attributes (``le.colength``
rather than a name imported here) so that the tracer's wrappers see them.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from dataclasses import dataclass
from itertools import combinations
from math import gcd, prod
from typing import Callable

import lenumbers as le
from lenumbers import cli


class JobFailed(Exception):
    """A job ended without an answer: the CLI returned a nonzero exit code."""


@dataclass(frozen=True)
class Job:
    name: str
    run: Callable[[], object]
    check: Callable[[object], str | None]  # None when the answer matches the oracle


def make_jobs(workload: str, seed: int) -> list[Job]:
    """The jobs of one pass; the same seed always gives the same jobs in the same order."""
    rng = random.Random(f"{workload}:{seed}")
    jobs = {"arr_polar": _arr_polar, "iomdine": _iomdine, "cli_sweep": _cli_sweep}[workload](rng)
    rng.shuffle(jobs)
    return jobs


def _mismatch(got: dict, want: dict) -> str | None:
    bad = {k: (got.get(k), v) for k, v in want.items() if got.get(k) != v}
    return None if not bad else ", ".join(f"{k}={g} (oracle {w})" for k, (g, w) in bad.items())


# ---------------------------------------------------------------------------
# arrangement oracle: pair counting over the planes, no Mora at all
# ---------------------------------------------------------------------------


def _scaled(v, c) -> tuple[int, ...]:
    return tuple(c * x for x in v)


def _cross(a, b) -> tuple[int, int, int]:
    return (a[1] * b[2] - a[2] * b[1], a[2] * b[0] - a[0] * b[2], a[0] * b[1] - a[1] * b[0])


def _primitive_line(v) -> tuple[int, int, int]:
    g = gcd(*v)
    v = tuple(c // g for c in v)
    return v if next(c for c in v if c) > 0 else tuple(-c for c in v)


def line_multiplicities(normals) -> list[int]:
    """Sorted plane counts m >= 2 of the lines where planes meet.

    Each pair of planes meets in the line spanned by the cross product of
    their normals; a line's multiplicity is the number of planes in the pairs
    that produce it.
    """
    planes_on: dict[tuple[int, int, int], set[int]] = {}
    for (i, a), (j, b) in combinations(enumerate(normals), 2):
        planes_on.setdefault(_primitive_line(_cross(a, b)), set()).update((i, j))
    return sorted(len(p) for p in planes_on.values())


def arrangement_oracle(normals) -> dict:
    """Le numbers of a central arrangement of d planes in C^3.

    mu0 = (d-1)^2 (d generic lines in the slice); lambda1 = sum (m-1)^2 over
    the lines; the Euler characteristic of the Milnor fiber is d * chi(P^2 - A)
    with chi(P^2 - A) = 3 - 2d + sum (m-1), and lambda0 - lambda1 is its
    reduced value.
    """
    d = len(normals)
    mults = line_multiplicities(normals)
    l1 = sum((m - 1) ** 2 for m in mults)
    chi = 3 - 2 * d + sum(m - 1 for m in mults)
    return {"mu0": (d - 1) ** 2, "lambda1": l1, "lambda0": l1 + d * chi - 1,
            "multiplicities": mults}


# ---------------------------------------------------------------------------
# arr_polar: the whole slice pipeline on 4- and 5-plane arrangements
# ---------------------------------------------------------------------------

ARRANGEMENTS = {
    "generic4": ((1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1)),
    "two_triple5": ((1, 0, 0), (0, 1, 0), (1, 1, 0), (0, 0, 1), (1, 0, 1)),
    "one_triple5": ((1, 0, 0), (0, 1, 0), (1, 1, 0), (0, 0, 1), (1, 2, 3)),
    "generic5": ((1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1), (1, 2, 3)),
}


def _arr_polar(rng: random.Random) -> list[Job]:
    # The seed reorders the planes and rescales each normal.  The defining
    # polynomial changes only by a constant factor, which the package's
    # primitive generators remove, so every seed measures the same Mora work.
    jobs = []
    for name, base in ARRANGEMENTS.items():
        normals = [_scaled(n, rng.choice((-3, -2, -1, 1, 2, 3))) for n in base]
        rng.shuffle(normals)
        arr = le.CentralArrangement3(tuple(normals))
        jobs.append(_analyze_job(name, le.defining_polynomial(arr), le.pick_slice_form(arr),
                                 arrangement_oracle(normals)))
    return jobs


def _analyze_job(name, f, form, oracle) -> Job:
    def run():
        inv = le.analyze_poly(f, z0=form).invariants
        return {"mu0": inv.mu0, "lambda0": inv.lambda0, "lambda1": inv.lambda1,
                "omega": inv.omega, "genericity_ok": inv.genericity_ok}

    def check(got):
        want = {k: oracle[k] for k in ("mu0", "lambda0", "lambda1")}
        want["genericity_ok"] = True
        problem = _mismatch(got, want)
        if problem is None and not (got["omega"] or 0) > got["lambda0"]:
            problem = f"omega={got['omega']} is not above lambda0={got['lambda0']}"
        return problem

    return Job(f"analyze:{name}", run, check)


# ---------------------------------------------------------------------------
# iomdine: isolated-singularity colengths under the local order
# ---------------------------------------------------------------------------

# Germs with a line of critical points, as (text, (lambda0, lambda1)) for a
# generic slice form.  By the Le-Iomdine formula mu(g + w^N) = lambda0 +
# (N - 1) * lambda1 for N large enough; N >= 4 is enough for all of these.
SLICED_GERMS = {
    "umbrella": ("x^2 - y^2*z", (2, 1)),
    "xyz": ("x*y*z", (2, 3)),
    "dinf": ("x^2*y + z^2", (2, 1)),
    "cusp_line": ("x^2 + y^3", (0, 2)),
    "pencil": ("x*y*(x + y)", (0, 4)),
}
# The first non-coordinate form of the package's seed-0 slice search; it is
# generic for every germ above (it contains none of their critical lines).
GERM_SLICE_FORM = (1, 1, -5)
IOMDINE_POWERS = range(4, 9)
# T_pqr = x^p + y^q + z^r + xyz is an isolated singularity with
# mu = p + q + r - 1 when 1/p + 1/q + 1/r < 1.
TPQR = [(p, q, r) for p in range(2, 8) for q in range(p, 8) for r in range(q, 8)
        if q * r + p * r + p * q < p * q * r]
XYZ = ["x", "y", "z"]


def _jacobian_colength(F):
    return le.colength(le.ideal([F.partial(i) for i in range(F.nvars)]))


def _colength_job(name, F, mu) -> Job:
    return Job(f"colength:{name}", lambda: _jacobian_colength(F),
               lambda got: None if got == mu else f"mu={got} (oracle {mu})")


def _iomdine(rng: random.Random) -> list[Job]:
    jobs = []
    for name, (text, (l0, l1)) in SLICED_GERMS.items():
        g = le.slice_with_form(le.parse_poly(text, XYZ), GERM_SLICE_FORM)[0].f
        for N in IOMDINE_POWERS:
            F = g + le.MultiPoly.variable(0, g.nvars) ** N
            jobs.append(_colength_job(f"{name}+w^{N}", F, l0 + (N - 1) * l1))
    for _ in range(3):
        a = [rng.randint(2, 7) for _ in range(3)]
        f = le.parse_poly(" + ".join(f"{v}^{e}" for v, e in zip(XYZ, a)), XYZ)
        jobs.append(_colength_job(f"brieskorn{a[0]}{a[1]}{a[2]}", f, prod(e - 1 for e in a)))
    for p, q, r in rng.sample(TPQR, 3):
        f = le.parse_poly(f"x^{p} + y^{q} + z^{r} + x*y*z", XYZ)
        jobs.append(_colength_job(f"T{p}{q}{r}", f, p + q + r - 1))
    return jobs


# ---------------------------------------------------------------------------
# cli_sweep: many small in-process CLI jobs with JSON output
# ---------------------------------------------------------------------------

# (text, components, d0) of small germs.  Their first coordinate slice forms
# are rejected, so the seeded slice-form search runs.
CLI_GERMS = {
    "umbrella": ("x^2 - y^2*z", [{"k": 1, "mu": 1, "d": 2}], None),
    "xyz": ("x*y*z", [{"k": 1, "mu": 1, "d": 2}] * 3, 3),
    "dinf": ("x^2*y + z^2", [{"k": 1, "mu": 1, "d": 2}], None),
    "cusp_line": ("x^2 + y^3", [{"k": 1, "mu": 2}], None),
    "cylinder": ("x^2 + y^2", [{"k": 1, "mu": 1, "d": 2}], None),
    "pencil": ("x*y*(x + y)", [{"k": 1, "mu": 4, "d": 3}], 3),
}
# (mu, k) of the components of each constraints job; the block-cycle matrix
# whose Smith normal form is taken has size k * mu, at most 32.
TAU_SHAPES = ([(8, 4)], [(16, 2)], [(4, 1), (6, 2)], [(8, 2), (4, 3)], [(12, 2)], [(5, 3), (3, 2)])
ARRANGEMENT_SIZES = range(6, 21, 2)
HOMCHAR_JOBS = 8
# Each kind of job appears this many times per size or germ, so that the work
# of a pass, and its slowest job, vary little from seed to seed.
REPEATS = 2


def _cli_job(name, argv, check) -> Job:
    def run():
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
        if code != 0:
            raise JobFailed(f"exit {code}: {err.getvalue().strip()}")
        return out.getvalue()

    return Job(f"cli:{name}", run, lambda text: check(json.loads(text)))


def _cli_analyze(rng, germ) -> Job:
    text, comps, d0 = CLI_GERMS[germ]
    job = {"polynomial": text, "variables": XYZ, "components": comps}
    if d0 is not None:
        job["d0"] = d0
    seed = rng.randrange(1000)
    l1 = sum(c["k"] * c["mu"] for c in comps)

    def check(out):
        return _mismatch({"le": out["le"]["lambda1"], "report": out["constraints"]["lambda1"]},
                         {"le": l1, "report": l1})

    argv = ["analyze", "--format", "json", "--seed", str(seed), "--input", json.dumps(job)]
    return _cli_job(f"analyze:{germ}:seed{seed}", argv, check)


def _unimodular_conjugate(rng, perm_cycles) -> list[list[int]]:
    """U P U^-1 for a block of cyclic permutations P and a random unimodular U."""
    mu = sum(perm_cycles)
    P = [[0] * mu for _ in range(mu)]
    start = 0
    for length in perm_cycles:
        for i in range(length):
            P[start + (i + 1) % length][start + i] = 1
        start += length
    M = P
    for _ in range(mu):
        i, j = rng.sample(range(mu), 2)
        c = rng.choice((-1, 1))
        # M -> E M E^-1 with E = I + c e_ij: add c * row j to row i, then
        # subtract c * column i from column j.
        M[i] = [a + c * b for a, b in zip(M[i], M[j])]
        for row in M:
            row[j] -= c * row[i]
    return M


def _cycle_type(rng, mu) -> list[int]:
    cycles = []
    while sum(cycles) < mu:
        cycles.append(rng.randint(1, min(6, mu - sum(cycles))))
    return cycles


def _cli_constraints(rng, shape) -> Job:
    comps = [{"k": k, "mu": mu, "tau": _unimodular_conjugate(rng, _cycle_type(rng, mu))}
             for mu, k in shape]
    l1 = sum(k * mu for mu, k in shape)
    d0 = next(d for d in range(2, 64) if (d - 1) ** 2 >= l1) + rng.randint(0, 2)
    job = {"n": 2, "mu0": (d0 - 1) ** 2, "d0": d0, "components": comps}
    size = max(k * mu for mu, k in shape)

    def check(out):
        return _mismatch({"lambda1": out["report"]["lambda1"]}, {"lambda1": l1})

    argv = ["constraints", "--format", "json", "--input", json.dumps(job)]
    return _cli_job(f"constraints:snf{size}:l1={l1}", argv, check)


def _random_normals(rng, d) -> list[tuple[int, int, int]]:
    # A third of the planes contain one seeded line, the rest are drawn from
    # a wide box and are almost surely generic: every seed then gives about
    # the same number of lines, hence about the same work.
    def draw(bound):
        while True:
            v = tuple(rng.randint(-bound, bound) for _ in range(3))
            if any(v):
                return v

    line = draw(3)
    pencil = set()
    while len(pencil) < d // 3:
        n = _cross(line, draw(4))  # the normal of a plane containing the line
        if any(n):
            pencil.add(_primitive_line(n))
    lines = set(pencil)
    while len(lines) < d:
        lines.add(_primitive_line(draw(9)))
    return [_scaled(v, rng.choice((-1, 1))) for v in rng.sample(sorted(lines), d)]


def _cli_arrangement(rng, d) -> Job:
    normals = _random_normals(rng, d)
    oracle = arrangement_oracle(normals)

    def check(out):
        verdicts = {v["tag"]: v["data"] for v in out["report"]["verdicts"]}
        ceilings = verdicts["EXPONENT_CEILINGS"]
        mu0 = (verdicts["NON_SPLITTING"]["h_middle_rank"] if "NON_SPLITTING" in verdicts
               else verdicts["NOT_APPLICABLE"]["mu0"])
        got = {"lambda1": out["report"]["lambda1"], "mu0": mu0,
               "multiplicities": sorted(ceilings["line_multiplicities"])}
        return _mismatch(got, {k: oracle[k] for k in ("lambda1", "mu0", "multiplicities")})

    argv = ["arrangement", "--format", "json", "--input", json.dumps({"normals": normals})]
    return _cli_job(f"arrangement:d{d}:lines{len(oracle['multiplicities'])}", argv, check)


def _cli_homchar(rng) -> Job:
    n, d = rng.randint(1, 4), rng.randint(2, 12)

    def check(out):
        # A'Campo: the monodromy of an isolated singularity has trace (-1)^n
        return _mismatch({"trace": out["trace"], "degree": out["degree"]},
                         {"trace": (-1) ** n, "degree": (d - 1) ** n})

    argv = ["cyclo", "--format", "json", "homchar", str(n), str(d)]
    return _cli_job(f"cyclo:homchar{n},{d}", argv, check)


def _cli_sweep(rng: random.Random) -> list[Job]:
    jobs = [_cli_analyze(rng, germ) for germ in CLI_GERMS for _ in range(REPEATS + 1)]
    jobs += [_cli_constraints(rng, shape) for shape in TAU_SHAPES for _ in range(REPEATS)]
    jobs += [_cli_arrangement(rng, d) for d in ARRANGEMENT_SIZES for _ in range(REPEATS)]
    jobs += [_cli_homchar(rng) for _ in range(HOMCHAR_JOBS)]
    return jobs
