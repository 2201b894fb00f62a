"""Exact rational linear algebra on small dense matrices.

Everything here is arbitrary precision.  Matrices are tuples of row tuples
and ``QQ``, the rational type used throughout, is ``fractions.Fraction``.
"""

from __future__ import annotations

from fractions import Fraction as QQ
from math import gcd, lcm

ZERO = QQ(0)
ONE = QQ(1)


def vec_dot(a, b):
    """Dot product; integer vectors give an int, rational ones a rational."""
    return sum(x * y for x, y in zip(a, b))


def mat_mul(a, b):
    cols = list(zip(*b))
    return tuple(tuple(vec_dot(row, col) for col in cols) for row in a)


def identity(n):
    return tuple(tuple(ONE if i == j else ZERO for j in range(n)) for i in range(n))


def rref(rows):
    """Reduced row echelon form.

    Returns (reduced_nonzero_rows, pivot_columns).  Rows are tuples of QQ.
    """
    if not rows:
        return (), ()
    work = [list(map(QQ, r)) for r in rows]
    n = len(work[0])
    pivots = []
    r = 0
    for c in range(n):
        pivot_row = None
        for i in range(r, len(work)):
            if work[i][c] != 0:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        work[r], work[pivot_row] = work[pivot_row], work[r]
        inv = ONE / work[r][c]
        work[r] = [inv * x for x in work[r]]
        for i in range(len(work)):
            if i != r and work[i][c] != 0:
                f = work[i][c]
                work[i] = [x - f * y for x, y in zip(work[i], work[r])]
        pivots.append(c)
        r += 1
        if r == len(work):
            break
    return tuple(tuple(row) for row in work[:r]), tuple(pivots)


def rank(rows):
    return len(rref(rows)[0])


def nullspace(rows, n):
    """Basis of {x : rows @ x = 0} as a tuple of QQ vectors."""
    reduced, pivots = rref(rows)
    pivot_set = set(pivots)
    free = [c for c in range(n) if c not in pivot_set]
    basis = []
    for f in free:
        v = [ZERO] * n
        v[f] = ONE
        for row, p in zip(reduced, pivots):
            v[p] = -row[f]
        basis.append(tuple(v))
    return tuple(basis)


def det(matrix):
    """Exact determinant by fraction-free-ish Gaussian elimination."""
    n = len(matrix)
    work = [list(map(QQ, row)) for row in matrix]
    result = ONE
    for c in range(n):
        pivot_row = None
        for i in range(c, n):
            if work[i][c] != 0:
                pivot_row = i
                break
        if pivot_row is None:
            return ZERO
        if pivot_row != c:
            work[c], work[pivot_row] = work[pivot_row], work[c]
            result = -result
        result *= work[c][c]
        inv = ONE / work[c][c]
        for i in range(c + 1, n):
            if work[i][c] != 0:
                f = work[i][c] * inv
                work[i] = [x - f * y for x, y in zip(work[i], work[c])]
    return result


def mat_inverse(matrix):
    n = len(matrix)
    work = [list(map(QQ, row)) + list(identity(n)[i]) for i, row in enumerate(matrix)]
    reduced, pivots = rref(work)
    if pivots[:n] != tuple(range(n)):
        raise ValueError("matrix is singular")
    return tuple(row[n:] for row in reduced)


def primitive(vec):
    """Scale a rational vector to a coprime integer vector (direction kept).

    Entries may be ints or exact rationals (anything with a denominator).
    Returns a tuple of ints; the zero vector maps to itself.
    """
    denom = lcm(*(x.denominator for x in vec))
    ints = [int(x * denom) for x in vec]
    g = gcd(*ints) or 1
    return tuple(x // g for x in ints)


def primitive_signed(vec):
    """Like primitive(), but with the first nonzero entry made positive."""
    p = primitive(vec)
    for x in p:
        if x != 0:
            return p if x > 0 else tuple(-y for y in p)
    return p


def kernel_basis_primitive(rows, n):
    """Primitive integer basis of the kernel, canonically ordered."""
    basis = nullspace(rows, n)
    if not basis:
        return ()
    reduced, _ = rref(basis)
    return tuple(sorted(primitive_signed(v) for v in reduced))
