"""A random-germ census of the slice pipeline.

``random_germs(seed)`` draws germs in x, y, z with ``random.Random(seed)``:
2–3 distinct terms, coefficients in {-1, 1, 2, 3}, exponents 0–4 and total
degree at least 2 per term.  ``census_job`` runs ``analyze_poly`` on one germ
and one slice form and says how it ended.

Run as a script, it prints one JSON line per job, so that two versions of the
package can be compared by diffing their outputs, and ends with one line per
outcome class on stderr (generic, verdict, or the error's class name) that
counts its jobs:

    PYTHONPATH=src python tests/census.py --seed 1 --count 120 \\
        --forms auto 1,1,-5 1,0,1 1,2,3 --max-monomials 200000 --alarm 3
"""

import argparse
import json
import random
import signal
import sys
from collections import Counter
from itertools import islice

from lenumbers import Budget, LeNumbersError, analyze_poly, parse_poly

VARIABLES = ("x", "y", "z")
COEFFICIENTS = (-1, 1, 2, 3)


def random_germ(rng: random.Random) -> str:
    """One germ as text, e.g. ``3*x^4*z + 2*y*z^4``."""
    size = rng.randint(2, 3)
    monomials = []
    while len(monomials) < size:
        mono = tuple(rng.randint(0, 4) for _ in VARIABLES)
        if sum(mono) >= 2 and mono not in monomials:
            monomials.append(mono)
    text = ""
    for mono in monomials:
        c = rng.choice(COEFFICIENTS)
        if text:
            text += " - " if c < 0 else " + "
        elif c < 0:
            text = "-"
        factors = [v if e == 1 else f"{v}^{e}" for v, e in zip(VARIABLES, mono) if e]
        text += "*".join(([str(abs(c))] if abs(c) != 1 else []) + factors)
    return text


def random_germs(seed: int):
    """The endless stream of germs drawn with ``random.Random(seed)``."""
    rng = random.Random(seed)
    while True:
        yield random_germ(rng)


def census_job(text: str, z0=None, max_monomials: int = 100000):
    """("generic", (mu0, lambda0, lambda1, omega)), ("verdict", its text) or
    ("error", the exception's class name) for ``analyze_poly`` of the germ."""
    try:
        result = analyze_poly(parse_poly(text, VARIABLES), z0=z0,
                              budget=Budget(max_monomials=max_monomials))
    except LeNumbersError as exc:
        return "error", type(exc).__name__
    inv = result.invariants
    if inv.genericity_ok:
        return "generic", (inv.mu0, inv.lambda0, inv.lambda1, inv.omega)
    return "verdict", inv.warnings[-1]


def _timeout(signum, frame):
    raise TimeoutError


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--count", type=int, default=60)
    parser.add_argument("--forms", nargs="+", default=["auto"],
                        help="'auto' for the automatic search, or comma-separated coefficients")
    parser.add_argument("--max-monomials", type=int, default=100000)
    parser.add_argument("--alarm", type=int, default=3, help="seconds per job")
    args = parser.parse_args(argv)
    forms = [None if form == "auto" else tuple(int(c) for c in form.split(","))
             for form in args.forms]
    signal.signal(signal.SIGALRM, _timeout)
    tally = Counter()
    for text in islice(random_germs(args.seed), args.count):
        for z0 in forms:
            signal.alarm(args.alarm)
            try:
                outcome = census_job(text, z0, args.max_monomials)
            except TimeoutError:
                outcome = "error", "TimeoutError"
            finally:
                signal.alarm(0)
            tally[outcome[1] if outcome[0] == "error" else outcome[0]] += 1
            print(json.dumps([text, z0, *outcome]), flush=True)
    for outcome, jobs in tally.most_common():
        print(f"{outcome}: {jobs}", file=sys.stderr)


if __name__ == "__main__":
    main()
