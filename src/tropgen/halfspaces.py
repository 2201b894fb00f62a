"""Feasibility of small homogeneous halfspace systems via Fourier-Motzkin,
and the facets of a full-dimensional cone by ray shooting.

A constraint is a primitive integer row q with a strict flag: q.z <= 0,
or q.z < 0 when the flag is set.  Eliminating a variable combines every
row p whose coefficient is a > 0 with every row q whose coefficient is
-b < 0 into b*p + a*q, divided by the gcd of its entries; the result is
strict when p or q is.  Rows are deduplicated on the row alone, the
strict flag winning, so equal rows merge at every level.  The system is
infeasible exactly when an all-zero strict row (0 < 0) appears.

Equalities, if any, are removed first by projecting onto a primitive
integer basis of their kernel.  The back-substitution that builds a
witness keeps it as an integer vector over one common denominator and
compares bounds by cross-multiplying; the witness is returned scaled to a
primitive integer point (the systems are homogeneous, so positive scaling
keeps it a solution).  facets() finds the irredundant rows of a cone by
Clarkson's output-sensitive ray shooting (cddlib's
RedundantRowsViaShooting) from an interior point its caller supplies: the
fan walk takes it from the cone's term order.

All cones in this project are tiny (ambient dimension <= 8, a few dozen
constraint rows), so exact elimination is both simple and fast enough.
No Fraction and no floating point is ever involved.
"""

from __future__ import annotations

from math import gcd

from .linalg import nullspace, primitive, vec_dot


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
    basis = nullspace(equalities, n) if equalities else None
    system = {}
    for rows, flag in ((nonstrict, False), (strict, True)):
        for q in rows:
            if basis is not None:
                q = [vec_dot(q, b) for b in basis]
            if not _add(system, tuple(q), flag):
                return None

    # Eliminate z_{k-1}, ..., z_0, keeping the system at each level.
    levels = []
    k = n if basis is None else len(basis)
    for var in range(k - 1, -1, -1):
        levels.append(system)
        system = _eliminate(system, var)
        if system is None:
            return None

    # Back-substitute the point z / d, kept as integers z and d > 0.  At
    # the level of z_var each row with c = row[var] != 0 bounds z_var by
    # -row.z / (c d): above when c > 0, below when c < 0.  Bounds are
    # compared in units of 1 / d as fractions num / den with den > 0, by
    # cross-multiplying; z_var is then hi - 1, lo + 1, (lo + hi) / 2 or 0.
    z, d = [], 1
    for system in reversed(levels):
        var = len(z)
        lo = hi = None
        for row in system:
            c = row[var]
            if not c:
                continue
            num = -vec_dot(row, z)
            if c > 0:
                if hi is None or num * hi[1] < hi[0] * c:
                    hi = num, c
            elif lo is None or -num * lo[1] > lo[0] * -c:
                lo = -num, -c
        if lo is None:
            num, den = (0, 1) if hi is None else (hi[0] - hi[1] * d, hi[1])
        elif hi is None:
            num, den = lo[0] + lo[1] * d, lo[1]
        else:
            num, den = lo[0] * hi[1] + hi[0] * lo[1], 2 * lo[1] * hi[1]
        z = [x * den for x in z]
        z.append(num)
        d *= den
        g = gcd(d, *z)
        if g != 1:
            z = [x // g for x in z]
            d //= g
    if basis is not None:
        z = [sum(zi * b[j] for zi, b in zip(z, basis)) for j in range(n)]
    return primitive(z)


def facets(n, rows, c):
    """{facet row: primitive integer point in its relative interior} for
    the full-dimensional cone {x : q.x <= 0 for q in rows}, in the order
    of rows (distinct, nonzero, primitive), given an integer point c with
    q.c < 0 for every row q.  With F the facets found so far, an
    undecided row q is tested by x = find_point(F <= 0, q.x > 0), of size
    |F| + 1:

    * No x: q is implied by the rows F, so it is no facet.
    * Else the ray (1 - t) c + t x meets r.x = 0 at t = a / (a + b) < 1
      for each row r with a = -r.c > 0 and b = r.x > 0 (q is one; rows
      of F and rows implied by them have b <= 0 and stay negative for
      t < 1).  At the least t, compared as a1 b2 < a2 b1, the point is
      in the cone with exactly the tied rows T tight.
    * If T = {r}, then b c + a x makes r zero and every other row
      negative: r is a facet (so undecided: rows failing a probe below
      are no facets), and the point is in its relative interior.
    * Else the point is in the relative interior of a proper face, which
      is the intersection of the facets containing it; their rows are
      tight there, so T holds a facet not in F.  Each undecided row r of
      T gets the full probe find_point(r.x = 0, every other row < 0),
      which has a point exactly when r is a facet.

    Each step decides q, r or a facet of T, so there are at most
    len(rows) steps, and only tie probes hold every row.
    """
    found = {}
    todo = dict.fromkeys(rows)  # undecided rows, an insertion-ordered set
    while todo:
        q = next(reversed(todo))
        x = find_point(n, nonstrict=found, strict=[tuple(-v for v in q)])
        if x is None:
            del todo[q]
            continue
        tied, a, b = [], 1, 0  # the rows at the least crossing a / (a + b)
        for r in rows:
            rb = vec_dot(r, x)
            if rb > 0:
                ra = -vec_dot(r, c)
                if ra * b < a * rb:
                    tied, a, b = [r], ra, rb
                elif ra * b == a * rb:
                    tied.append(r)
        if len(tied) == 1:
            found[tied[0]] = primitive([b * ci + a * xi
                                        for ci, xi in zip(c, x)])
            del todo[tied[0]]
        for r in (r for r in tied if r in todo):
            del todo[r]
            p = find_point(n, equalities=[r], strict=[s for s in rows if s != r])
            if p is not None:
                found[r] = p
    return {r: found[r] for r in rows if r in found}


def feasible(n, equalities=(), nonstrict=(), strict=()):
    return find_point(n, equalities, nonstrict, strict) is not None
