"""Fourier-Motzkin feasibility against an exact brute-force oracle, and
ray-shooting facets against one full probe per row."""

from itertools import product

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from tropgen.halfspaces import facets, feasible, find_point
from tropgen.linalg import vec_dot

BOX = 4


@st.composite
def systems(draw):
    n = draw(st.integers(1, 3))
    row = st.tuples(*[st.integers(-1, 1)] * n)
    return (n, draw(st.lists(row, max_size=1)), draw(st.lists(row, max_size=4)),
            draw(st.lists(row, max_size=4)))


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
        assume(find_point(n, strict=rows) is not None)
        got = facets(n, rows)
        assert list(got) == [r for r in rows if probe(n, rows, r) is not None]
        assert_relative_interior_points(rows, got)

    def test_ray_through_an_edge(self):
        # the ray from the interior point towards the first probe's point
        # leaves through the edge where both rows vanish
        rows = [(0, 0, 1), (0, 1, 1)]
        got = facets(3, rows)
        assert list(got) == rows
        assert_relative_interior_points(rows, got)

    def test_cone_without_interior_raises(self):
        with pytest.raises(ValueError):
            facets(2, [(1, 0), (-1, 0)])
