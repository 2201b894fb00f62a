"""Fourier-Motzkin feasibility against an exact brute-force oracle."""

from itertools import product

from hypothesis import given, settings
from hypothesis import strategies as st

from tropgen.halfspaces import feasible, find_point
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
