"""Cones, the reference fan W(n) and its skeletons, and the exact linear
algebra under them."""

from itertools import permutations
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tropgen.fans import (
    Cone,
    build_W,
    cone_contains,
    cone_dim,
    dumps_canonical,
    fan_to_jsonable,
    lineality_space,
    make_cone,
    member,
    relative_interior_contains,
    same_cone,
    skeleton_membership,
    w_skeleton,
)
from tropgen.halfspaces import find_point
from tropgen.linalg import (QQ, kernel_basis_primitive, primitive, rank,
                            vec_dot)
from tropgen.linalg import rref as echelon_rref


class TestBuildW:
    @pytest.mark.parametrize("n", range(1, 9))
    def test_cone_counts(self, n):
        fan = build_W(n)
        assert len(fan.cones) == 2 ** n - 1
        counts = {}
        for c in fan.cones:
            d = n - len(c.label) + 1
            counts[d] = counts.get(d, 0) + 1
        for k in range(1, n + 1):
            assert counts.get(k, 0) == comb(n, k - 1)

    @pytest.mark.parametrize("n", range(2, 6))
    def test_dimension_matches_label(self, n):
        for c in build_W(n).cones:
            assert cone_dim(c) == n - len(c.label) + 1

    def test_lineality(self):
        for n in range(2, 6):
            assert lineality_space(build_W(n)) == (tuple([1] * n),)

    def test_membership_examples(self):
        fan = build_W(3)
        c23 = next(c for c in fan.cones if c.label == (1, 2))
        # C_{2,3}: w2 = w3 = min
        assert member(c23, (5, 0, 0))
        assert member(c23, (0, 0, 0))
        assert not member(c23, (0, 0, 1))
        assert not member(c23, (-1, 0, 0))

    def test_cones_cover_every_weight(self):
        fan = build_W(3)
        for w in [(0, 1, 2), (2, 2, 2), (-1, 0, -1), (3, 1, 2)]:
            assert any(member(c, w) for c in fan.cones)


class TestSkeleton:
    def test_skeleton_subfan(self):
        assert len(w_skeleton(4, 2).cones) == 5

    @pytest.mark.parametrize("n,m,w,expected", [
        (3, 2, (0, 0, 1), True),
        (3, 2, (0, 1, 2), False),
        (3, 3, (0, 1, 2), True),
        (3, 1, (0, 0, 1), False),
        (3, 1, (1, 1, 1), True),
        (3, 0, (0, 0, 0), False),
        (4, 2, (0, 0, 0, 5), True),
        (4, 2, (0, 0, 1, 5), False),
    ])
    def test_membership_predicate(self, n, m, w, expected):
        assert skeleton_membership(n, m, w) == expected

    def test_predicate_matches_cone_membership(self):
        from itertools import product

        n, m = 3, 2
        cones = w_skeleton(n, m).cones
        for w in product(range(-2, 3), repeat=n):
            assert skeleton_membership(n, m, w) == any(
                member(c, w) for c in cones)


@st.composite
def cone_rows(draw):
    n = draw(st.integers(1, 5))
    row = st.tuples(*[st.integers(-4, 4)] * n)
    return n, draw(st.lists(row, max_size=4)), draw(st.lists(row, max_size=6))


def rref(rows):
    """Reference reduced row echelon form over the rationals:
    (nonzero rows, pivot columns)."""
    work = [list(map(QQ, r)) for r in rows]
    reduced, pivots = [], []
    for c in range(len(work[0]) if work else 0):
        i = next((i for i, r in enumerate(work) if r[c] != 0), None)
        if i is None:
            continue
        row = work.pop(i)
        prow = [x / row[c] for x in row]
        work = [[x - r[c] * y for x, y in zip(r, prow)] for r in work]
        reduced = [[x - r[c] * y for x, y in zip(r, prow)] for r in reduced]
        reduced.append(prow)
        pivots.append(c)
    return tuple(map(tuple, reduced)), tuple(pivots)


def primitive_signed(vec):
    """primitive() with the first nonzero entry made positive."""
    p = primitive(vec)
    lead = next((x for x in p if x), 1)
    return p if lead > 0 else tuple(-x for x in p)


def rational_canonical_form(eqs, ineqs):
    """make_cone's rows computed through the rational RREF: equalities are
    the RREF rows made primitive, inequalities are reduced modulo them,
    made primitive, deduplicated and sorted."""
    reduced, pivots = rref(eqs)
    ineq_rows = set()
    for q in ineqs:
        r = tuple(QQ(x) for x in q)
        for erow, p in zip(reduced, pivots):
            r = tuple(x - r[p] * y for x, y in zip(r, erow))
        if any(r):
            ineq_rows.add(primitive(r))
    return (tuple(primitive_signed(r) for r in reduced),
            tuple(sorted(ineq_rows)))


class TestConeOps:
    @given(cone_rows())
    @settings(max_examples=300, deadline=None)
    def test_canonical_form_matches_rational_rref(self, case):
        n, eqs, ineqs = case
        cone = make_cone(n, eqs, ineqs)
        assert ((cone.equalities, cone.inequalities)
                == rational_canonical_form(eqs, ineqs))

    def test_same_cone_across_representations(self):
        c1 = make_cone(3, [(1, -1, 0)], [(1, 0, -1)])
        c2 = make_cone(3, [(2, -2, 0)], [(0, 1, -1), (3, 0, -3)])
        assert same_cone(c1, c2)

    def test_same_cone_detects_forced_equality(self):
        c1 = make_cone(3, [(1, -1, 0)], [(1, 0, -1)])
        c3 = make_cone(3, [], [(1, -1, 0), (-1, 1, 0), (1, 0, -1)])
        assert same_cone(c1, c3)

    def test_different_cones(self):
        c1 = make_cone(2, [], [(1, -1)])
        c2 = make_cone(2, [], [(-1, 1)])
        assert not same_cone(c1, c2)
        assert cone_contains(c1, make_cone(2, [(1, -1)], []))

    def test_primitive_normalization(self):
        c = make_cone(2, [], [(4, -6)])
        assert c.inequalities == ((2, -3),)

    def test_cone_dim_with_forced_tight_rows(self):
        c = make_cone(2, [], [(1, -1), (-1, 1), (1, 0)])
        assert cone_dim(c) == 1

    def test_relative_interior(self):
        c = make_cone(3, [(1, -1, 0)], [(1, 0, -1)])
        p = find_point(3, equalities=c.equalities, strict=c.inequalities)
        assert relative_interior_contains(c, p)
        assert not relative_interior_contains(c, (0, 0, 0))

    def test_full_space_cone(self):
        c = make_cone(2)
        assert cone_dim(c) == 2
        assert member(c, (5, -7))


@st.composite
def rational_matrices(draw, square=False):
    r = draw(st.integers(0, 4))
    n = r if square else draw(st.integers(1, 4))
    entry = st.fractions(min_value=-3, max_value=3, max_denominator=3)
    return [tuple(draw(entry) for _ in range(n)) for _ in range(r)], n


def leibniz_det(m):
    n = len(m)
    total = QQ(0)
    for perm in permutations(range(n)):
        inversions = sum(perm[i] > perm[j]
                         for i in range(n) for j in range(i + 1, n))
        term = QQ((-1) ** inversions)
        for i, j in enumerate(perm):
            term *= m[i][j]
        total += term
    return total


class TestLinalg:
    # The Bareiss det is gone: a square matrix is invertible exactly when
    # echelon gives it full rank, which these two tests check against the
    # Leibniz determinant.
    @given(rational_matrices(square=True))
    @settings(max_examples=100, deadline=None)
    def test_bareiss_det_matches_leibniz(self, case):
        m, _ = case
        assert (rank(m) == len(m)) == (leibniz_det(m) != 0)

    def test_det_with_row_swaps(self):
        for m, d in [([(0, 1, 0), (1, 0, 0), (0, 0, 1)], -1),
                     ([(0, 0, 2), (0, 3, 0), (QQ(1, 2), 0, 0)], QQ(-3)),
                     ([(1, 2), (2, 4)], 0)]:
            assert leibniz_det(m) == d
            assert (rank(m) == len(m)) == (d != 0)

    @given(rational_matrices())
    @settings(max_examples=100, deadline=None)
    def test_rref_rank_and_kernel_match_rational_reference(self, case):
        rows, n = case
        reduced, pivots = rref(rows)
        assert echelon_rref(rows) == (reduced, pivots)
        assert rank(rows) == len(reduced)
        free = [c for c in range(n) if c not in pivots]
        kernel = []
        for f in free:  # the RREF kernel basis: 1 at f, -row[f] at pivots
            v = [QQ(int(c == f)) for c in range(n)]
            for row, c in zip(reduced, pivots):
                v[c] = -row[f]
            kernel.append(v)
        want = sorted(primitive_signed(r) for r in rref(kernel)[0])
        assert kernel_basis_primitive(rows, n) == tuple(want)


def generator_dot(a, b):
    """vec_dot's former definition."""
    return sum(x * y for x, y in zip(a, b))


def generator_relative_interior_contains(cone, w):
    """relative_interior_contains's former definition."""
    return (all(generator_dot(e, w) == 0 for e in cone.equalities)
            and all(generator_dot(q, w) < 0 for q in cone.inequalities))


@st.composite
def int_or_fraction_cones(draw):
    """A cone of int or Fraction rows (built directly, not canonicalized),
    with a point of ints or Fractions; small entries, so that rows tie."""
    n = draw(st.integers(0, 5))
    entry = draw(st.sampled_from([
        st.integers(-2, 2),
        st.fractions(min_value=-2, max_value=2, max_denominator=3)]))
    row = st.tuples(*[entry] * n)
    return (Cone(n, tuple(draw(st.lists(row, max_size=3))),
                 tuple(draw(st.lists(row, max_size=5)))), draw(row))


class TestDotKernel:
    """vec_dot and relative_interior_contains agree with their former
    generator definitions, value and type, on int and Fraction rows."""

    @given(int_or_fraction_cones())
    @settings(max_examples=150, deadline=None)
    def test_matches_generator_definitions(self, case):
        cone, w = case
        for row in cone.equalities + cone.inequalities:
            got, want = vec_dot(row, w), generator_dot(row, w)
            assert (got, type(got)) == (want, type(want))
        assert relative_interior_contains(cone, w) == \
            generator_relative_interior_contains(cone, w)

    def test_exact_on_fractions_and_big_integers(self):
        a = (QQ(1, 3), QQ(1, 3), QQ(1, 3))
        assert vec_dot(a, (1, 1, 1)) == 1
        assert vec_dot((10 ** 30, 1), (10 ** 30, -1)) == 10 ** 60 - 1


class TestJson:
    def test_canonical_and_sorted(self):
        fan = build_W(2)
        a = dumps_canonical(fan_to_jsonable(fan))
        b = dumps_canonical(fan_to_jsonable(fan))
        assert a == b
        assert '"lineality"' in a

    def test_labels_are_one_based(self):
        fan = build_W(2)
        labels = sorted(tuple(c["label"]) for c in fan_to_jsonable(fan)["cones"])
        assert labels == [(1,), (1, 2), (2,)]
