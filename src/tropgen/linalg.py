"""Exact linear algebra on small dense matrices.

Everything here is arbitrary precision.  Matrices are tuples of row tuples
of ints or ``QQ`` (``fractions.Fraction``).  The one elimination is the
fraction-free ``echelon``; rank, RREF and kernels are read off it, and a
square matrix is invertible when it has full rank, so no determinant.
"""

from __future__ import annotations

from fractions import Fraction as QQ
from math import gcd, lcm
from operator import mul

ZERO = QQ(0)
ONE = QQ(1)


def vec_dot(a, b):
    """Dot product; integer vectors give an int, rational ones a rational
    (exact either way: sum adds the products in order, as a loop would)."""
    return sum(map(mul, a, b))


def mat_mul(a, b):
    cols = list(zip(*b))
    return tuple(tuple(vec_dot(row, col) for col in cols) for row in a)


def rref(rows):
    """Reduced row echelon form: (nonzero rows as tuples of QQ, pivot
    columns), the rows of echelon() divided by their pivots."""
    if not rows:
        return (), ()
    reduced, pivots = echelon(rows, len(rows[0]))
    return tuple(tuple(QQ(x, r[c]) for x in r)
                 for r, c in zip(reduced, pivots)), pivots


def rank(rows):
    return len(echelon(rows, len(rows[0]))[0]) if rows else 0


def primitive(vec):
    """Scale a rational vector to a coprime integer vector (direction kept).

    Entries may be ints or exact rationals (anything with a denominator).
    Returns a tuple of ints; the zero vector maps to itself.
    """
    denom = lcm(*(x.denominator for x in vec))
    ints = [int(x * denom) for x in vec]
    g = gcd(*ints) or 1
    return tuple(x // g for x in ints)


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
    """Primitive integer basis of the kernel, canonically ordered: its
    reduced row echelon basis with each row scaled to primitive integers
    (the rows of echelon()), sorted."""
    return tuple(sorted(echelon(nullspace(rows, n), n)[0]))
