"""A small random-germ census, pinned by its counts.

The germs come from ``census.random_germs(1)``.  A change in how many of
them get generic answers, genericity verdicts (exit 2) or a resource-limit
error (exit 3) fails here, whichever way it goes.
"""

from collections import Counter
from itertools import islice

from lenumbers import parse_poly
from census import COEFFICIENTS, VARIABLES, census_job, random_germs
from test_cyclo import alarm_after


def test_random_germs_follow_their_description():
    for text in islice(random_germs(1), 200):
        f = parse_poly(text, VARIABLES)
        assert 2 <= len(f.terms) <= 3
        assert all(c in COEFFICIENTS for c in f.terms.values())
        assert all(max(mono) <= 4 and sum(mono) >= 2 for mono in f.terms)


def test_census_of_fifty_germs_is_pinned():
    # the automatic form under Budget(max_monomials=100000)
    with alarm_after(10):
        outcomes = [census_job(text) for text in islice(random_germs(1), 50)]
    counts = Counter(detail if kind == "error" else kind for kind, detail in outcomes)
    assert counts == {"generic": 5, "verdict": 35, "ResourceLimitError": 10}
