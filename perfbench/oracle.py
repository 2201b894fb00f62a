"""Exact answers for the transformed corpus ideals, generic g or not.

The closed forms of the paper hold for a generic coordinate change g:
T(g(I)) is the m-skeleton of W(n), a linear ideal of rank r has C(n, r)
Groebner cones, a principal ideal has n.  The sampler can return a g that
is not generic (a zero entry, a vanishing minor; ROADMAP item 4), and
then the closed form is not the right answer for the ideal the program
was given.  These oracles give the right answer for the given J = g(I),
computed with stdlib Fractions and nothing from tropgen:

- linear ideals, and squarefree monomial ideals through their minimal
  primes (unions of coordinate subspaces): T is decided by ranks of
  column sets, the cone count is the number of bases of the column
  matroid;
- principal ideals: T is where the minimum of w over the support is
  attained twice, the cone count is the number of vertices of the Newton
  polytope;
- two quadrics in four variables (a curve in P^3): T is the 2-skeleton of
  W(4) whenever the curve misses every coordinate line, which is decided
  by resultants.  Otherwise no exact answer is computed here and the
  skeleton stays the expectation, so a mismatch still counts.

``IdealOracle.generic`` tells whether the closed form holds for J, so
that a non-generic g is reported, not hidden.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from math import comb


def _q(c):
    """A tropgen rational (Fraction, or gmpy2 mpq) as a Fraction."""
    return Fraction(c) if isinstance(c, (int, Fraction)) else Fraction(str(c))


def rref(rows):
    """Reduced row echelon form of equal-length rows of rationals: the
    nonzero rows and their pivot columns."""
    rows = [[_q(c) for c in row] for row in rows]
    pivots = []
    for col in range(len(rows[0]) if rows else 0):
        r = len(pivots)
        pivot = next((i for i in range(r, len(rows)) if rows[i][col]), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        rows[r] = [x / rows[r][col] for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][col]:
                f = rows[i][col]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivots.append(col)
    return rows[:len(pivots)], pivots


def rank(rows):
    return len(rref(rows)[1])


def _columns(rows, cols):
    return [[row[j] for j in cols] for row in rows]


def linear_rows(polys, n):
    """Coefficient rows of linear forms."""
    rows = []
    for p in polys:
        row = [Fraction(0)] * n
        for e, c in p.terms:
            if sum(e) != 1:
                raise ValueError("not a linear form")
            row[e.index(1)] = _q(c)
        rows.append(row)
    return rows


def linear_member(rows, w):
    """w in T(L) for the linear ideal L spanned by ``rows``.

    in_w(L) is generated by linear forms, so it is prime and holds a
    monomial iff it holds a variable x_i, that is iff some form of L has
    x_i as its only term of least weight: iff column i is outside the span
    of the columns j != i with w_j <= w_i."""
    n = len(w)
    for i in range(n):
        low = [j for j in range(n) if j != i and w[j] <= w[i]]
        if rank(_columns(rows, low + [i])) > rank(_columns(rows, low)):
            return False
    return True


def basis_count(rows):
    """Maximal Groebner cones of a linear ideal: one per initial ideal
    (x_i : i in B), B a basis of the column matroid of ``rows``."""
    r = rank(rows)
    return sum(1 for cols in combinations(range(len(rows[0])), r)
               if rank(_columns(rows, cols)) == r)


def minimal_primes(supports, n):
    """Minimal primes (x_i : i in C) of a squarefree monomial ideal, as the
    minimal sets C that meet every generator's support."""
    covers = []
    for k in range(n + 1):
        for c in combinations(range(n), k):
            s = set(c)
            if all(s & sup for sup in supports) and not any(p <= s for p in covers):
                covers.append(s)
    return [sorted(c) for c in covers]


def union_member(components, w):
    """w in T of an intersection of linear ideals: T(I cap J) is
    T(I) union T(J)."""
    return any(linear_member(rows, w) for rows in components)


def principal_member(exponents, w):
    """w in T((f)): in_w(f) is not a monomial."""
    values = sorted(sum(a * b for a, b in zip(e, w)) for e in exponents)
    return len(values) > 1 and values[0] == values[1]


def _in_hull(p, points):
    """Whether p is a convex combination of ``points`` (Caratheodory: of
    some affinely independent subset)."""
    dim = len(p)
    for k in range(1, min(len(points), dim + 1) + 1):
        for sub in combinations(points, k):
            lam = _barycentric(p, sub)
            if lam is not None and all(x >= 0 for x in lam):
                return True
    return False


def _barycentric(p, sub):
    """The affine coefficients of p on the points ``sub``, or None if
    there are none or they are not unique."""
    k = len(sub)
    rows = [[q[d] for q in sub] + [p[d]] for d in range(len(p))]
    rows.append([1] * (k + 1))
    reduced, pivots = rref(rows)
    if pivots != list(range(k)):
        return None
    return [row[k] for row in reduced]


def vertex_count(exponents):
    """Vertices of the Newton polytope of a polynomial with these
    exponents.  For a form of degree d whose support holds every pure
    power x_i^d, the polytope is d times the simplex and has n vertices."""
    pts = [tuple(e) for e in exponents]
    n, d = len(pts[0]), sum(pts[0])
    powers = {tuple(d if j == i else 0 for j in range(n)) for i in range(n)}
    if powers <= set(pts):
        return n
    return sum(1 for p in pts if not _in_hull(p, [q for q in pts if q != p]))


def uniform(rows):
    """Whether every maximal minor is nonzero (the column matroid is
    uniform), as for a generic linear space."""
    return basis_count(rows) == comb(len(rows[0]), rank(rows))


def skeleton_member(n, m, w):
    """w in the m-skeleton of W(n): its minimum is attained at least
    n - m + 1 times."""
    return m > 0 and sum(1 for x in w if x == min(w)) >= n - m + 1


def _binary_quadric(p, a, b):
    """Coefficients of x_a^2, x_a x_b, x_b^2 in p restricted to the
    coordinate line where every other variable is 0."""
    coeffs = dict(p.terms)
    n = p.n

    def mono(ka, kb):
        return tuple(ka if i == a else kb if i == b else 0 for i in range(n))

    return [_q(coeffs.get(mono(*k), 0)) for k in ((2, 0), (1, 1), (0, 2))]


def quadric_curve_generic(polys):
    """Two quadrics in four variables cut out a curve that misses every
    coordinate line iff, on each line, their restrictions have no common
    zero: iff the resultant (AF - CD)^2 - (AE - BD)(BF - CE) is nonzero.
    Then every boundary point of the curve lies on one coordinate
    hyperplane, and T of the curve is the 2-skeleton of W(4)."""
    f1, f2 = polys
    for a, b in combinations(range(4), 2):
        A, B, C = _binary_quadric(f1, a, b)
        D, E, F = _binary_quadric(f2, a, b)
        if (A * F - C * D) ** 2 - (A * E - B * D) * (B * F - C * E) == 0:
            return False
    return True


class IdealOracle:
    """Exact membership, cone count and genericity of J = g(I), the
    transform g applied to the corpus ideal I."""

    def __init__(self, family, dim, base, g, transformed):
        n = transformed.n
        self.family, self.n, self.dim = family, n, dim
        if family == "linear":
            self.components = [linear_rows(transformed.generators, n)]
            self.generic = uniform(self.components[0])
        elif family == "monomial":
            supports = []
            for p in base.generators:
                (e, _), = p.terms
                if any(k > 1 for k in e):
                    raise ValueError("not squarefree")
                supports.append({i for i, k in enumerate(e) if k})
            # g maps the prime (x_i : i in C) to the span of the rows g[i].
            self.components = [[[_q(c) for c in g[i]] for i in cover]
                               for cover in minimal_primes(supports, n)]
            self.generic = all(uniform(rows) for rows in self.components)
        elif family == "principal":
            (f,) = transformed.generators
            self.exponents = [e for e, _ in f.terms]
            d = sum(self.exponents[0])
            self.generic = all(tuple(d if j == i else 0 for j in range(n))
                               in self.exponents for i in range(n))
        elif (family == "complete-intersection" and n == 4 and dim == 2
              and all(p.homogeneous_degree() == 2 for p in transformed.generators)
              and len(transformed.generators) == 2):
            self.generic = quadric_curve_generic(transformed.generators)
        else:
            raise ValueError(f"no oracle for the {family} ideal")

    def member(self, w):
        if self.family == "principal":
            return principal_member(self.exponents, w)
        if self.family in ("linear", "monomial"):
            return union_member(self.components, w)
        return skeleton_member(self.n, self.dim, w)

    def cone_count(self):
        """Maximal cones of the Groebner fan, where they are known:
        linear and principal ideals."""
        if self.family == "principal":
            return vertex_count(self.exponents)
        if self.family == "linear":
            return basis_count(self.components[0])
        return None
