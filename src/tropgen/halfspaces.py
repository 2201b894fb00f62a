"""Feasibility of small homogeneous halfspace systems via Fourier-Motzkin.

A constraint is a primitive integer row q with a strict flag: q.z <= 0,
or q.z < 0 when the flag is set.  Eliminating a variable combines every
row p whose coefficient is a > 0 with every row q whose coefficient is
-b < 0 into b*p + a*q, divided by the gcd of its entries; the result is
strict when p or q is.  Rows are deduplicated on the row alone, the
strict flag winning, so equal rows merge at every level.  The system is
infeasible exactly when an all-zero strict row (0 < 0) appears.

Equalities are removed first by projecting onto a primitive integer basis
of their kernel.  Fractions appear only in the back-substitution that
builds a witness, which is returned scaled to a primitive integer point
(the systems are homogeneous, so positive scaling keeps it a solution).
All cones in this project are tiny (ambient dimension <= 8, a few dozen
constraint rows), so exact elimination is both simple and fast enough.
No floating point is ever involved.
"""

from __future__ import annotations

from math import gcd

from .linalg import QQ, nullspace, primitive, vec_dot


def _add(system, row, strict) -> bool:
    """Add a constraint to the {row: strict} system, made primitive.

    Returns False when the row is the infeasible 0 < 0; 0 <= 0 is dropped."""
    g = gcd(*row)
    if not g:
        return not strict
    if g != 1:
        row = tuple(x // g for x in row)
    system[row] = strict or system.get(row, False)
    return True


def _eliminate(system, var):
    """Project the system onto the coordinates below var (its last one);
    None when the projection is infeasible."""
    pos, neg, out = [], [], {}
    for row, strict in system.items():
        c = row[var]
        if c > 0:
            pos.append((row, strict))
        elif c < 0:
            neg.append((row, strict))
        else:
            out[row[:var]] = strict
    for p, p_strict in pos:
        a = p[var]
        for q, q_strict in neg:
            b = -q[var]
            row = tuple(b * x + a * y for x, y in zip(p[:var], q))
            if not _add(out, row, p_strict or q_strict):
                return None
    return out


def find_point(n, equalities=(), nonstrict=(), strict=()):
    """Primitive integer point of the homogeneous system, or None.

    Solves  e.x = 0 for e in equalities,  q.x <= 0 for q in nonstrict and
    q.x < 0 for q in strict, all rows integer vectors of length n.
    """
    basis = nullspace(equalities, n)
    k = len(basis)
    system = {}
    for rows, flag in ((nonstrict, False), (strict, True)):
        for q in rows:
            if not _add(system, tuple(vec_dot(q, b) for b in basis), flag):
                return None

    # Eliminate z_{k-1}, ..., z_0, keeping the system at each level.
    levels = []
    for var in range(k - 1, -1, -1):
        levels.append(system)
        system = _eliminate(system, var)
        if system is None:
            return None

    z = []
    for system in reversed(levels):
        var = len(z)
        lo = hi = None
        for row in system:
            c = row[var]
            if not c:
                continue
            bound = QQ(-vec_dot(row, z), c)
            if c > 0:
                hi = bound if hi is None else min(hi, bound)
            else:
                lo = bound if lo is None else max(lo, bound)
        if lo is None:
            z.append(0 if hi is None else hi - 1)
        elif hi is None:
            z.append(lo + 1)
        else:
            z.append((lo + hi) / 2)
    return primitive([sum(zi * b[j] for zi, b in zip(z, basis))
                      for j in range(n)])


def feasible(n, equalities=(), nonstrict=(), strict=()):
    return find_point(n, equalities, nonstrict, strict) is not None
