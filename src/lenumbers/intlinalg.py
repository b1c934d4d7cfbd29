"""Exact integer matrix utilities: Smith normal form and fixed-space ranks."""

from __future__ import annotations

from .errors import InputError
from .polynomials import integer

IntMatrix = tuple[tuple[int, ...], ...]


def as_matrix(rows, name: str = "matrix") -> IntMatrix:
    """Validate and freeze a rectangular integer matrix; errors name it ``name``."""
    mat = tuple(tuple(integer(v, name) for v in row) for row in rows)
    if not mat or not mat[0]:
        raise InputError("matrix must have positive dimensions")
    width = len(mat[0])
    if any(len(r) != width for r in mat):
        raise InputError("matrix rows must have equal length")
    return mat


def identity(n: int) -> IntMatrix:
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def mat_sub(a: IntMatrix, b: IntMatrix) -> IntMatrix:
    return tuple(tuple(x - y for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


def mat_mul(a: IntMatrix, b: IntMatrix) -> IntMatrix:
    cols = list(zip(*b))
    return tuple(tuple(sum(x * y for x, y in zip(row, col)) for col in cols) for row in a)


def mat_pow(a: IntMatrix, k: int) -> IntMatrix:
    if integer(k, "power") < 0:
        raise InputError("negative matrix power")
    result = identity(len(a))
    base = a
    while k:
        if k & 1:
            result = mat_mul(result, base)
        k >>= 1
        if k:
            base = mat_mul(base, base)
    return result


def smith_normal_form(mat) -> list[int]:
    """Diagonal of the Smith normal form: d_1 | d_2 | ..., padded with zeros.

    Unimodular row and column operations only, so the nonzero count is the
    rank and the nontrivial entries describe the torsion of the cokernel.
    """
    A = [[integer(v, "matrix") for v in row] for row in mat]
    m = len(A)
    n = len(A[0]) if m else 0
    size = min(m, n)
    diag: list[int] = []
    t = 0
    while t < size:
        best = None
        for i in range(t, m):
            for j in range(t, n):
                if A[i][j] and (best is None or abs(A[i][j]) < abs(A[best[0]][best[1]])):
                    best = (i, j)
        if best is None:
            break
        bi, bj = best
        A[t], A[bi] = A[bi], A[t]
        if bj != t:
            for row in A:
                row[t], row[bj] = row[bj], row[t]
        while True:
            restart = False
            for i in range(t + 1, m):
                if A[i][t]:
                    q = A[i][t] // A[t][t]
                    A[i] = [x - q * y for x, y in zip(A[i], A[t])]
                    if A[i][t]:
                        # the remainder is strictly smaller: promote it to pivot
                        A[t], A[i] = A[i], A[t]
                        restart = True
                        break
            if restart:
                continue
            for j in range(t + 1, n):
                if A[t][j]:
                    q = A[t][j] // A[t][t]
                    for row in A:
                        row[j] -= q * row[t]
                    if A[t][j]:
                        for row in A:
                            row[t], row[j] = row[j], row[t]
                        restart = True
                        break
            if restart:
                continue
            offender = None
            for i in range(t + 1, m):
                if any(A[i][j] % A[t][t] for j in range(t + 1, n)):
                    offender = i
                    break
            if offender is None:
                break
            A[t] = [x + y for x, y in zip(A[t], A[offender])]
        diag.append(abs(A[t][t]))
        t += 1
    diag.extend(0 for _ in range(size - len(diag)))
    return diag


def fixed_space_rank(mat) -> int:
    """Rank of ker(id - A) for a square integer matrix A: its size minus the
    number of nonzero Smith invariants of id - A."""
    A = as_matrix(mat)
    n = len(A)
    if n != len(A[0]):
        raise InputError("matrix must be square")
    return n - sum(1 for d in smith_normal_form(mat_sub(identity(n), A)) if d)


def block_cycle_matrix(tau, k: int) -> IntMatrix:
    """The k-fold cyclic block matrix sending (v_1,..,v_k) to (T v_k, T v_1, ..)."""
    T = as_matrix(tau)
    m = len(T)
    if len(T[0]) != m:
        raise InputError("block must be square")
    if integer(k, "cycle length") < 1:
        raise InputError("cycle length must be positive")
    size = k * m
    rows = [[0] * size for _ in range(size)]
    for block in range(k):
        src = (block - 1) % k
        for r in range(m):
            for c in range(m):
                rows[block * m + r][src * m + c] = T[r][c]
    return tuple(tuple(r) for r in rows)
