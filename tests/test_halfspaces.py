"""Fourier-Motzkin feasibility against an exact brute-force oracle and
against a Fraction back-substitution, and ray-shooting facets against one
full probe per row."""

from fractions import Fraction
from itertools import product

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from tropgen import halfspaces
from tropgen.halfspaces import facets, feasible, find_point
from tropgen.linalg import nullspace, primitive, vec_dot

BOX = 4


@st.composite
def systems(draw):
    n = draw(st.integers(1, 3))
    row = st.tuples(*[st.integers(-1, 1)] * n)
    return (n, draw(st.lists(row, max_size=1)), draw(st.lists(row, max_size=4)),
            draw(st.lists(row, max_size=4)))


@st.composite
def wide_systems(draw):
    """Systems in up to 4 variables with entries in -3..3: deeper
    eliminations and denominators other than 1 and 2."""
    n = draw(st.integers(1, 4))
    row = st.tuples(*[st.integers(-3, 3)] * n)
    return (n, draw(st.lists(row, max_size=2)), draw(st.lists(row, max_size=6)),
            draw(st.lists(row, max_size=6)))


def satisfies(x, equalities, nonstrict, strict):
    return (all(vec_dot(e, x) == 0 for e in equalities)
            and all(vec_dot(q, x) <= 0 for q in nonstrict)
            and all(vec_dot(q, x) < 0 for q in strict))


def brute_force_feasible(n, equalities, nonstrict, strict):
    """Search the integer box [-4, 4]^n.

    This decides feasibility exactly.  A feasible homogeneous system stays
    feasible with every strict row q.x < 0 written as q.x <= -1, and that
    polyhedron has a minimal face given by a nonsingular square subsystem
    of at most 3 rows on at most 3 coordinates (the others set to 0).  By
    Cramer's rule its solution is det(M_j) / det(M); scaled by |det(M)|
    it is an integer solution of the homogeneous system whose entries are
    determinants of matrices of size <= 3 with entries in {-1, 0, 1}, and
    such a determinant is at most 4 in absolute value."""
    return any(satisfies(x, equalities, nonstrict, strict)
               for x in product(range(-BOX, BOX + 1), repeat=n))


class TestFindPoint:
    @given(systems())
    @settings(max_examples=300, deadline=None)
    def test_agrees_with_brute_force(self, case):
        n, equalities, nonstrict, strict = case
        p = find_point(n, equalities, nonstrict, strict)
        assert (p is not None) == brute_force_feasible(*case)
        if p is not None:
            assert len(p) == n
            assert all(isinstance(x, int) for x in p)
            assert satisfies(p, equalities, nonstrict, strict)

    def test_strict_row_and_its_negation_are_infeasible(self):
        assert find_point(2, strict=[(1, -1), (-1, 1)]) is None
        assert find_point(2, nonstrict=[(1, -1), (-1, 1)]) is not None

    def test_strict_flag_wins_on_duplicate_rows(self):
        # (2, -2) is (1, -1) after scaling: the system is x1 < x2 and x1 >= x2
        assert not feasible(2, nonstrict=[(-1, 1), (2, -2)], strict=[(1, -1)])
        assert feasible(2, nonstrict=[(-1, 1), (2, -2)])

    def test_equalities_with_trivial_kernel(self):
        eqs = [(1, 0), (0, 1)]
        assert find_point(2, equalities=eqs) == (0, 0)
        assert find_point(2, equalities=eqs, strict=[(1, 1)]) is None

    @given(wide_systems())
    @settings(max_examples=500, deadline=None)
    def test_point_is_the_fraction_back_substitution(self, case):
        assert find_point(*case) == fraction_find_point(*case)


def fraction_find_point(n, equalities=(), nonstrict=(), strict=()):
    """The reference: find_point with its back-substitution in Fractions,
    each bound a Fraction and each coordinate the least, the greatest or
    the middle bound, moved by 1 past a missing one."""
    basis = nullspace(equalities, n) if equalities else None
    system = {}
    for rows, flag in ((nonstrict, False), (strict, True)):
        for q in rows:
            if basis is not None:
                q = [vec_dot(q, b) for b in basis]
            if not halfspaces._add(system, tuple(q), flag):
                return None
    levels = []
    k = n if basis is None else len(basis)
    for var in range(k - 1, -1, -1):
        levels.append(system)
        system = halfspaces._eliminate(system, var)
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
            bound = Fraction(-vec_dot(row, z), c)
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
    if basis is not None:
        z = [sum(zi * b[j] for zi, b in zip(z, basis)) for j in range(n)]
    return primitive(z)


@st.composite
def cones(draw):
    """Distinct nonzero rows in {-1, 0, 1}^n, n <= 4: many rows meet in
    low-dimensional faces, so rays often hit several rows at once."""
    n = draw(st.integers(1, 4))
    row = st.tuples(*[st.integers(-1, 1)] * n).filter(any)
    return n, draw(st.lists(row, min_size=1, max_size=8, unique=True))


def probe(n, rows, r):
    """The full facet probe: r tight, every other row strict."""
    return find_point(n, equalities=[r], strict=[q for q in rows if q != r])


def assert_relative_interior_points(rows, got):
    for r, p in got.items():
        assert all(isinstance(x, int) for x in p)
        assert vec_dot(r, p) == 0
        assert all(vec_dot(q, p) < 0 for q in rows if q != r)


class TestFacets:
    @given(cones())
    @settings(max_examples=400, deadline=None)
    def test_facets_are_the_rows_the_full_probe_accepts(self, case):
        n, rows = case
        c = find_point(n, strict=rows)
        assume(c is not None)
        got = facets(n, rows, c)
        assert list(got) == [r for r in rows if probe(n, rows, r) is not None]
        assert_relative_interior_points(rows, got)

    def test_ray_through_an_edge(self):
        # the ray from the interior point towards the first probe's point
        # leaves through the edge where both rows vanish
        rows = [(0, 0, 1), (0, 1, 1)]
        got = facets(3, rows, find_point(3, strict=rows))
        assert list(got) == rows
        assert_relative_interior_points(rows, got)
