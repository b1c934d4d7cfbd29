"""Integer matrices by the textbook rules, a reference for ``intlinalg``.

``intlinalg`` takes ranks by Bareiss's fraction-free elimination and never
forms a product or a power.  These helpers build the matrices the tests
compare against, and ``rank_gauss`` ranks them by elimination over Q.
"""

from fractions import Fraction
from functools import reduce


def identity(n):
    return tuple(tuple(int(i == j) for j in range(n)) for i in range(n))


def mat_sub(a, b):
    return tuple(tuple(x - y for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


def mat_mul(a, b):
    cols = list(zip(*b))
    return tuple(tuple(sum(x * y for x, y in zip(row, col)) for col in cols) for row in a)


def mat_pow(a, k):
    """a ** k for k >= 0, by k products."""
    return reduce(mat_mul, [a] * k, identity(len(a)))


def rank_gauss(mat):
    """The rank of an integer matrix, by Gauss–Jordan elimination over Q."""
    rows = [[Fraction(v) for v in r] for r in mat]
    rank = 0
    for col in range(len(rows[0])):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for i in range(len(rows)):
            if i != rank and rows[i][col]:
                f = rows[i][col] / rows[rank][col]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[rank])]
        rank += 1
    return rank
