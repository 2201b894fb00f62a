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


def clear_column(row, erow, c):
    """Clear coordinate c of an integer row with erow (erow[c] > 0).

    The row is scaled by a positive factor only, so its sign survives; the
    result is primitive."""
    b = row[c]
    if not b:
        return row
    a = erow[c]
    out = [a * x - b * y for x, y in zip(row, erow)]
    g = gcd(*out) or 1
    return tuple(x // g for x in out)


def echelon(rows, n):
    """Fraction-free Gauss-Jordan elimination of rational rows.

    Returns (rows, pivots): primitive integer rows with positive pivots and
    every other pivot coordinate cleared, which are the nonzero RREF rows
    scaled, and their pivot columns in increasing order."""
    work = [r for r in map(primitive, rows) if any(r)]
    out, pivots = [], []
    for c in range(n):
        i = next((i for i, r in enumerate(work) if r[c]), None)
        if i is None:
            continue
        erow = work.pop(i)
        if erow[c] < 0:
            erow = tuple(-x for x in erow)
        work = [r for r in (clear_column(r, erow, c) for r in work) if any(r)]
        out = [clear_column(r, erow, c) for r in out]
        out.append(erow)
        pivots.append(c)
    return tuple(out), tuple(pivots)


def nullspace(rows, n):
    """Primitive integer basis of {x : rows . x = 0}, one vector per free
    column of echelon(rows, n): the rational basis with a 1 at its free
    column, scaled."""
    rows, pivots = echelon(rows, n)
    scale = lcm(*(r[c] for r, c in zip(rows, pivots)))
    basis = []
    for f in sorted(set(range(n)) - set(pivots)):
        v = [0] * n
        v[f] = scale
        for r, c in zip(rows, pivots):
            v[c] = -r[f] * (scale // r[c])
        g = gcd(*v)
        basis.append(tuple(x // g for x in v))
    return tuple(basis)


def kernel_basis_primitive(rows, n):
    """Primitive integer basis of the kernel, canonically ordered."""
    basis = nullspace(rows, n)
    if not basis:
        return ()
    reduced, _ = rref(basis)
    return tuple(sorted(primitive_signed(v) for v in reduced))
