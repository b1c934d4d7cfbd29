"""A small random-germ census, pinned by its outcomes.

The germs come from ``census.random_germs(1)``.  Each job's outcome (the
Le numbers, the verdict text or the error class) is compared with
``tests/data/census_50.json``, so a changed number or verdict fails here as
well as a changed count of generic answers, genericity verdicts (exit 2) or
resource-limit errors (exit 3).

Running this module as a script rewrites ``tests/data/census_50.json``; do
that only when a change of the outcomes is intended.
"""

import json
import sys
from collections import Counter
from itertools import islice
from pathlib import Path

from lenumbers import parse_poly
from census import COEFFICIENTS, VARIABLES, census_job, random_germs
from test_cyclo import alarm_after

DATA = Path(__file__).resolve().parent / "data" / "census_50.json"


def _census_of_fifty():
    """[germ, kind, detail] for the first 50 germs at the automatic form under
    Budget(max_monomials=100000), as JSON would give them back."""
    return [json.loads(json.dumps([text, *census_job(text)]))
            for text in islice(random_germs(1), 50)]


def test_random_germs_follow_their_description():
    for text in islice(random_germs(1), 200):
        f = parse_poly(text, VARIABLES)
        assert 2 <= len(f.terms) <= 3
        assert all(c in COEFFICIENTS for c in f.terms.values())
        assert all(max(mono) <= 4 and sum(mono) >= 2 for mono in f.terms)


def test_census_of_fifty_germs_is_pinned():
    with alarm_after(10):
        jobs = _census_of_fifty()
    counts = Counter(detail if kind == "error" else kind for _, kind, detail in jobs)
    assert counts == {"generic": 7, "verdict": 35, "ResourceLimitError": 8}
    assert jobs == json.loads(DATA.read_text())


if __name__ == "__main__":
    jobs = _census_of_fifty()
    DATA.write_text("[\n" + ",\n".join(json.dumps(job) for job in jobs) + "\n]\n")
    print(f"wrote {DATA.name} ({len(jobs)} jobs)", file=sys.stderr)
