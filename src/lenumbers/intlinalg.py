"""Exact integer matrix utilities: ranks, fixed-space ranks and the Smith normal form."""

from __future__ import annotations

from .errors import InputError, ResourceLimitError
from .polynomials import MAX_MONOMIALS, integer

IntMatrix = tuple[tuple[int, ...], ...]


def as_matrix(rows, name: str = "matrix") -> IntMatrix:
    """Validate and freeze a rectangular integer matrix; errors name it ``name``."""
    if not isinstance(rows, (list, tuple)) or not all(isinstance(r, (list, tuple)) for r in rows):
        raise InputError(f"{name!r} must be a list of rows, each a list of integers")
    mat = tuple(tuple(integer(v, name) for v in row) for row in rows)
    if not mat or not mat[0]:
        raise InputError("matrix must have positive dimensions")
    width = len(mat[0])
    if any(len(r) != width for r in mat):
        raise InputError("matrix rows must have equal length")
    return mat


# The most rows or columns a rank or a Smith normal form takes.  The rank of
# a dense matrix of this size takes about 0.11 s with entries in {-1, 0, 1},
# 0.7 s with 16-bit entries and 5 s with 64-bit ones; its Smith form takes
# about 0.7 s and 14 s for the first two (Python 3.11, one core of a shared VM).
MAX_RANK_SIZE = 96


def _check_size(rows: int, cols: int, what: str = "the rank") -> None:
    if max(rows, cols) > MAX_RANK_SIZE:
        raise ResourceLimitError(f"{what} of a {rows} x {cols} matrix is over "
                                 f"the size cap of {MAX_RANK_SIZE} rows and columns")


def smith_normal_form(mat) -> list[int]:
    """Diagonal of the Smith normal form: d_1 | d_2 | ..., padded with zeros.

    Unimodular row and column operations only, so the nonzero count is the
    rank and the nontrivial entries describe the torsion of the cokernel.
    Each pass moves an entry of least absolute value p to the corner (ties
    to the smallest (row, column), so a corner p stays) and reduces its row
    and column modulo p.  A nonzero remainder is the next pass's pivot; a row
    that p does not divide is added to the first.  Once p divides everything
    left, |p| is a diagonal entry and its row and column are dropped.
    Re-picking the least entry every pass keeps the entries of a dense
    matrix from growing.  A matrix with more than ``MAX_RANK_SIZE`` rows or
    columns raises ``ResourceLimitError`` before any pass.
    """
    A = [list(row) for row in as_matrix(mat)]
    _check_size(len(A), len(A[0]), "a Smith normal form")
    size = min(len(A), len(A[0]))
    diag: list[int] = []
    while A and A[0]:
        pivots = [(abs(v), i, j) for i, row in enumerate(A) for j, v in enumerate(row) if v]
        if not pivots:
            break
        _, i, j = min(pivots)
        A[0], A[i] = A[i], A[0]
        for row in A:
            row[0], row[j] = row[j], row[0]
        top = A[0]
        p = top[0]
        for row in A[1:]:
            if q := row[0] // p:
                row[:] = [x - q * y for x, y in zip(row, top)]
        for j in range(1, len(top)):
            if q := top[j] // p:
                for row in A:
                    row[j] -= q * row[0]
        if any(top[1:]) or any(row[0] for row in A[1:]):
            continue
        offender = next((row for row in A[1:] if any(x % p for x in row)), None)
        if offender is not None:
            A[0] = [x + y for x, y in zip(top, offender)]
            continue
        diag.append(abs(p))
        A = [row[1:] for row in A[1:]]
    return diag + [0] * (size - len(diag))


def bareiss_rank(rows) -> int:
    """Rank of an integer matrix, given as equal-length rows of ints, by
    Bareiss's fraction-free elimination; the rows are read, not changed.

    Each pass takes the first row with a nonzero leading entry p as pivot,
    drops it and the leading column, and replaces every other entry x by
    (p*x - q*y) / prev, where q leads x's row, y is the pivot row's entry in
    x's column and prev is the previous pivot (1 at first).  After r passes
    every entry left is an (r+1) x (r+1) minor of the input (Bareiss, Math.
    Comp. 22, 1968), so the division is exact and Hadamard's bound limits
    the entries' growth.  The rows are not checked: callers read them
    through ``as_matrix`` or build them, and check the size cap.
    """
    rank, prev = 0, 1
    while rows and rows[0]:
        i = next((i for i, row in enumerate(rows) if row[0]), None)
        if i is None:
            rows = [row[1:] for row in rows]
            continue
        p, rest = rows[i][0], rows[i][1:]
        rows = [row[1:] if p == prev and not row[0]
                else [(p * x - row[0] * y) // prev for x, y in zip(row[1:], rest)]
                for j, row in enumerate(rows) if j != i]
        rank, prev = rank + 1, p
    return rank


def fixed_rank(A: IntMatrix) -> int:
    """Rank of ker(id - A) for a square ``IntMatrix`` A, which is not read
    again: its size minus the rank of id - A, after the size cap."""
    n = len(A)
    _check_size(n, n)
    return n - bareiss_rank([[(i == j) - v for j, v in enumerate(row)]
                             for i, row in enumerate(A)])


def block_cycle_matrix(tau, k: int) -> IntMatrix:
    """The k-fold cyclic block matrix sending (v_1,..,v_k) to (T v_k, T v_1, ..).

    T is tau read through ``as_matrix``, so its errors name ``'tau'``.  A
    matrix of more than ``MAX_MONOMIALS`` entries, and then one of more than
    ``MAX_RANK_SIZE`` rows, raises ``ResourceLimitError`` before it is
    allocated: the block cycle is built only for its fixed rank.
    """
    T = as_matrix(tau, "tau")
    m = len(T)
    if len(T[0]) != m:
        raise InputError("block must be square")
    if integer(k, "cycle length") < 1:
        raise InputError("cycle length must be positive")
    size = k * m
    if size * size > MAX_MONOMIALS:
        raise ResourceLimitError(f"a block-cycle matrix of size {size} has {size * size} "
                                 f"entries, over the cap of {MAX_MONOMIALS}")
    _check_size(size, size)
    # block row b holds T in block column b - 1 (mod k), zeros elsewhere
    zeros = (0,) * m
    return tuple(zeros * ((b - 1) % k) + row + zeros * (-b % k) for b in range(k) for row in T)
