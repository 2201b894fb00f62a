"""Initial forms, tropical membership, Groebner cones, fan traversal."""

import json
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tropgen import generic, groebner, halfspaces, weights
from tropgen.fans import cone_dim, member, same_cone, skeleton_membership
from tropgen.generic import (
    generic_membership_map,
    normalized_grid,
    random_transform,
    transform_ideal,
    trial_seed,
)
from tropgen.groebner import LiftError, buchberger
from tropgen.halfspaces import find_point
from tropgen.linalg import QQ, vec_dot
from tropgen.poly import (GREVLEX, Ideal, TermOrder, parse_ideal_file,
                          parse_polynomial, weight_order)
from tropgen.weights import (
    MAX_GRID_POINTS,
    BudgetExceededError,
    GridSizeError,
    IncompleteFanError,
    MembershipMap,
    _flip,
    _generic_start,
    _order_point,
    enumerate_groebner_fan,
    groebner_cone,
    in_tropical_variety,
    initial_form,
    initial_forms,
    normalize_grid_point,
    weight_gb,
)


def P(text, n):
    return parse_polynomial(text, n)


def I(n, *texts):
    return Ideal.of(n, tuple(P(t, n) for t in texts))


CORPUS = Path(__file__).resolve().parent.parent / "corpus"
CORPUS_IDEALS = sorted(p.name for p in CORPUS.iterdir() if not p.suffix)
WALKED_IDEALS = [name for name in CORPUS_IDEALS
                 if parse_ideal_file((CORPUS / name).read_text()).n >= 3]


def halving_flip(ideal, cone, row, p):
    """Reference search for the cone across a facet: the Groebner cone at
    p + eps*row for eps = 1, 1/2, 1/4, ... until it is full-dimensional,
    differs from cone and holds p."""
    eps = Fraction(1)
    for _ in range(64):
        w = tuple(pi + eps * ri for pi, ri in zip(p, row))
        other = groebner_cone(weight_gb(ideal, w))
        if not other.equalities and other != cone and member(other, p):
            return other
        eps /= 2
    raise AssertionError(f"no cone found across the facet with row {row}")


def facets_with_bases(ideal):
    """(cone, basis, row, facet point) at every facet of every maximal
    cone of the fan of ideal; the basis is a fresh one from an interior
    point of the cone."""
    for cone in enumerate_groebner_fan(ideal).cones:
        w = find_point(ideal.n, strict=cone.inequalities)
        gb = weight_gb(ideal, w)
        assert groebner_cone(gb) == cone
        for row in cone.inequalities:
            others = [q for q in cone.inequalities if q != row]
            p = find_point(ideal.n, equalities=[row], strict=others)
            if p is not None:
                yield cone, gb, row, p


class TestInitialForm:
    def test_examples(self):
        f = P("x1 + x2 + x3", 3)
        assert initial_form(f, (0, 0, 1)) == P("x1 + x2", 3)
        assert initial_form(f, (0, 1, 1)) == P("x1", 3)
        assert initial_form(f, (2, 2, 2)) == f

    def test_quadratic(self):
        f = P("x1^2 + x1*x2 + x2^2", 2)
        assert initial_form(f, (0, 1)) == P("x1^2", 2)

    def test_idempotent(self):
        f = P("x1^2 + x1*x2 + 5*x2^2", 2)
        for w in [(0, 0), (0, 1), (3, -2)]:
            inw = initial_form(f, w)
            assert initial_form(inw, w) == inw


class TestInitialIdeal:
    def test_identity_weight(self):
        gens = initial_forms(weight_gb(I(2, "x1 + x2"), (0, 0)), (0, 0))
        assert gens == (P("x1 + x2", 2),)

    def test_unbalanced_weight(self):
        gens = initial_forms(weight_gb(I(2, "x1 + x2"), (0, 1)), (0, 1))
        assert gens == (P("x1", 2),)

    def test_monomial_ideal_is_its_own_initial(self):
        for w in [(0, 0), (1, 5), (-2, 3)]:
            gens = initial_forms(weight_gb(I(2, "x1*x2"), w), w)
            assert gens == (P("x1*x2", 2),)

    def test_nontrivial_initial_needs_gb(self):
        # at a tie between the generators' head candidates, a GB element's
        # initial form reveals a monomial that no single generator shows
        ideal = I(3, "x1 + x2 + x3", "x1 + 2*x2")
        assert not in_tropical_variety(ideal, (0, 0, 1))


class TestMembership:
    def test_linear_form(self):
        ideal = I(3, "x1 + x2 + x3")
        assert in_tropical_variety(ideal, (0, 0, 0))
        assert in_tropical_variety(ideal, (0, 0, 1))
        assert not in_tropical_variety(ideal, (-1, 0, 0))

    def test_monomial_ideal_empty_variety(self):
        ideal = I(2, "x1*x2")
        for w in [(0, 0), (0, 1), (-3, 2), (5, 5)]:
            assert not in_tropical_variety(ideal, w)

    def test_lineality_invariance(self):
        ideal = I(3, "x1^2 + x2*x3")
        for w in [(0, 1, 2), (1, 0, 0), (-1, -1, 2)]:
            base = in_tropical_variety(ideal, w)
            for c in range(-2, 3):
                shifted = tuple(x + c for x in w)
                assert in_tropical_variety(ideal, shifted) == base

    def test_scaling_invariance(self):
        ideal = I(3, "x1^2 + x2*x3")
        for w in [(0, 1, 2), (0, 0, 1)]:
            assert (in_tropical_variety(ideal, w)
                    == in_tropical_variety(ideal, tuple(3 * x for x in w)))

    def test_generic_n5_is_the_skeleton(self):
        # a generic complete intersection of dimension 3 in 5 variables:
        # its tropical variety is the 3-skeleton of W(5)
        ideal = I(5, "x1^2 + x2*x3", "x4^2 + x3*x5")
        J = transform_ideal(ideal, random_transform(5, 50, trial_seed(1, 0)))
        assert in_tropical_variety(J, (0,) * 5)
        for w, inside in [((1, 0, 0, 0, 2), True), ((0, 1, 1, 1, 1), False)]:
            assert skeleton_membership(5, 3, w) == inside
            assert in_tropical_variety(J, w) == inside


class TestGroebnerCone:
    def test_single_binomial_halfspace(self):
        cone = groebner_cone(weight_gb(I(2, "x1 + x2"), (0, 1)))
        assert cone.equalities == ()
        assert cone.inequalities == ((1, -1),)

    def test_tie_gives_equality(self):
        cone = groebner_cone(weight_gb(I(2, "x1 + x2"), (0, 0)))
        assert cone.equalities == ((1, -1),)
        assert cone.inequalities == ()

    def test_cone_contains_its_weight(self):
        for w in [(0, 1, 2), (0, 0, 0), (2, 1, 1), (-1, 3, 0)]:
            ideal = I(3, "x1*x3 - x2^2", "x1^2 - x2*x3")
            cone = groebner_cone(weight_gb(ideal, w))
            assert member(cone, w)

    def test_contains_lineality_line(self):
        w = (0, 1, 2)
        cone = groebner_cone(weight_gb(I(3, "x1^2 + x2*x3"), w))
        assert member(cone, (1, 1, 1))
        assert member(cone, (-1, -1, -1))

    def test_interior_points_share_initial_ideal(self):
        ideal = I(3, "x1*x3 - x2^2", "x1^2 - x2*x3")
        w = (0, 1, 2)
        cone = groebner_cone(weight_gb(ideal, w))
        p = find_point(3, equalities=cone.equalities, strict=cone.inequalities)
        assert (initial_forms(weight_gb(ideal, w), w)
                == initial_forms(weight_gb(ideal, p), p))


class TestFanEnumeration:
    def test_binomial_two_cones(self):
        fan = enumerate_groebner_fan(I(2, "x1 + x2"))
        assert len(fan.cones) == 2
        ineqs = sorted(c.inequalities for c in fan.cones)
        assert ineqs == [(((-1, 1)),), (((1, -1)),)]

    def test_monomial_single_cone(self):
        fan = enumerate_groebner_fan(I(2, "x1", "x2"))
        assert len(fan.cones) == 1
        assert cone_dim(fan.cones[0]) == 2

    def test_budget(self, monkeypatch):
        monkeypatch.setenv("TROPGEN_BUDGET", "1")
        ideal = I(3, "x1*x2 + x2*x3 + x1*x3")
        with pytest.raises(BudgetExceededError):
            enumerate_groebner_fan(ideal)

    def test_flip_that_stays_in_the_cone_raises(self):
        ideal = I(2, "x1 + x2")
        cone, gb = _generic_start(ideal)
        assert cone == enumerate_groebner_fan(ideal).cones[0]
        row = cone.inequalities[0]
        p = find_point(2, equalities=[row])
        with pytest.raises(IncompleteFanError):
            _flip(cone, gb, tuple(-x for x in row), p)

    def test_cone_without_interior_raises(self, monkeypatch):
        # at the weight (0, 0) the one row of x1 + x2 is tied: a start cone
        # with an equality, whose order point leaves that row at zero
        ideal = I(2, "x1 + x2")
        gb = weight_gb(ideal, (0, 0))
        cone = groebner_cone(gb)
        assert cone.equalities
        monkeypatch.setattr(weights, "_generic_start", lambda _: (cone, gb))
        with pytest.raises(IncompleteFanError):
            enumerate_groebner_fan(ideal)

    @pytest.mark.parametrize("name", WALKED_IDEALS)
    def test_order_point_makes_every_row_negative(self, name, monkeypatch):
        # the point facets shoots its rays from, one per walked cone
        J = transformed_corpus_ideal(name)
        points, facets = [], weights.facets

        def recording(n, rows, c):
            points.append((rows, c))
            return facets(n, rows, c)

        monkeypatch.setattr(weights, "facets", recording)
        fan = enumerate_groebner_fan(J)
        assert sorted(rows for rows, _ in points) == \
            sorted(c.inequalities for c in fan.cones)
        for rows, c in points:
            assert all(type(x) is int for x in c)
            assert all(vec_dot(r, c) < 0 for r in rows), (rows, c)

    def test_order_point_of_unit_weights(self):
        # rows of x1 + x2 + x3 for the heads x3: -e1 + e3 and -e2 + e3;
        # e1 leaves the second row at 0 and e2 makes it negative, so
        # M = 1 + floor(0 / 1) and x = e1 + e2, then e3 needs M = 2
        cone, gb = _generic_start(I(3, "x1 + x2 + x3"))
        assert cone.inequalities == ((-1, 0, 1), (0, -1, 1))
        assert _order_point(cone, gb.order.weights) == (2, 2, 1)

    @pytest.mark.parametrize("name", CORPUS_IDEALS)
    def test_flip_matches_halving_search(self, name):
        ideal = parse_ideal_file((CORPUS / name).read_text())
        assert ideal.n <= 4
        for cone, gb, row, p in facets_with_bases(ideal):
            assert (_flip(cone, gb, row, p)[0]
                    == halving_flip(ideal, cone, row, p))

    @pytest.mark.parametrize("name", CORPUS_IDEALS)
    def test_lifted_flip_is_the_fresh_basis(self, name):
        J = transformed_corpus_ideal(name)
        for cone, gb, row, p in facets_with_bases(J):
            other, lifted = _flip(cone, gb, row, p)
            fresh = weight_gb(J, p, row)
            assert lifted.heads == fresh.heads, row
            assert lifted.elements == fresh.elements, row
            # the lifted basis is monic on its heads, as reduction assumes
            assert all(g.head_monomial(lifted.order) == h
                       and dict(g.terms)[h] == 1
                       for g, h in zip(lifted.elements, lifted.heads)), row
            assert other == groebner_cone(fresh)

    def test_flips_need_no_fraction_arithmetic(self, monkeypatch):
        """The flips of a fan walk lift their bases in the engine's
        integers: no Fraction +, - or * inside _flip, though the bases
        it lifts have proper fractions."""
        J = transformed_corpus_ideal("ci_n4_dim2")
        calls, bases, inside = [], [], [False]
        for name in ("__add__", "__radd__", "__sub__", "__rsub__",
                     "__mul__", "__rmul__"):
            def counted(self, other, _op=getattr(QQ, name), _name=name):
                if inside[0]:
                    calls.append(_name)
                return _op(self, other)
            monkeypatch.setattr(QQ, name, counted)
        flip = weights._flip

        def watched(*args):
            inside[0] = True
            try:
                cone, gb = flip(*args)
            finally:
                inside[0] = False
            bases.append(gb)
            return cone, gb
        monkeypatch.setattr(weights, "_flip", watched)
        fan = enumerate_groebner_fan(J)
        monkeypatch.undo()
        assert len(bases) == len(fan.cones) - 1 == 35
        assert calls == []
        assert any(c.denominator != 1 for gb in bases for g in gb.elements
                   for _, c in g.terms)

    def test_facets_need_no_fraction_arithmetic(self, monkeypatch):
        """The facets of a fan walk's cones come from Fourier-Motzkin
        probes back-substituted in integers: no Fraction arithmetic or
        comparison inside facets."""
        J = transformed_corpus_ideal("ci_n4_dim2")
        calls, cones, inside = [], [], [False]
        for name in ("__add__", "__radd__", "__sub__", "__rsub__",
                     "__mul__", "__rmul__", "__truediv__", "__rtruediv__",
                     "__lt__", "__gt__", "__le__", "__ge__"):
            def counted(self, other, _op=getattr(QQ, name), _name=name):
                if inside[0]:
                    calls.append(_name)
                return _op(self, other)
            monkeypatch.setattr(QQ, name, counted)
        facets = weights.facets

        def watched(n, rows, c):
            cones.append(rows)
            inside[0] = True
            try:
                return facets(n, rows, c)
            finally:
                inside[0] = False
        monkeypatch.setattr(weights, "facets", watched)
        fan = enumerate_groebner_fan(J)
        monkeypatch.undo()
        assert len(cones) == len(fan.cones) == 36
        assert calls == []

    def test_interiors_are_disjoint(self):
        fan = enumerate_groebner_fan(I(3, "x1 + x2 + x3"))
        for w in [(0, 1, 2), (1, 0, 2), (2, 1, 0), (1, 1, 5)]:
            hits = [c for c in fan.cones if member(c, w)]
            assert hits, w
            interiors = [c for c in fan.cones
                         if all(sum(q * x for q, x in zip(row, w)) < 0
                                for row in c.inequalities)]
            assert len(interiors) <= 1

    def test_membership_constant_on_cones(self):
        ideal = I(3, "x1 + x2 + x3")
        fan = enumerate_groebner_fan(ideal)
        for c in fan.cones:
            p = find_point(3, equalities=c.equalities, strict=c.inequalities)
            q = tuple(2 * x for x in p)
            assert in_tropical_variety(ideal, p) == in_tropical_variety(ideal, q)


class TestLift:
    """groebner.lift's precondition: p = initial.order.weights[0] lies in
    the closed cone of gb, and initial is a basis of in_p(I)."""

    def test_weight_outside_the_closed_cone_raises(self):
        # x1^2 is a tail term of the unit-weight basis whose head is x3*x4:
        # at p = e4 it weighs 0 against the head's 1
        J = transformed_corpus_ideal("ci_n4_dim2")
        _, gb = _generic_start(J)
        p, row = (0, 0, 0, 1), (1, -1, 0, 0)
        initial = buchberger(initial_forms(gb, p), weight_order(p, row))
        with pytest.raises(LiftError, match=r"p = \(0, 0, 0, 1\).*"
                           r"x\^\(2, 0, 0, 0\)"):
            groebner.lift(initial, gb)

    def test_initial_basis_of_another_ideal_raises(self):
        # x1 is not in in_p(I), whose generators have degree 2
        J = transformed_corpus_ideal("ci_n4_dim2")
        cone, gb = _generic_start(J)
        p = _order_point(cone, gb.order.weights)
        initial = buchberger([P("x1", 4)], weight_order(p))
        with pytest.raises(LiftError, match=r"x\^\(1, 0, 0, 0\), "
                           r"p = \(4, 4, 2, 1\)"):
            groebner.lift(initial, gb)


# (corpus ideal, facets of the maximal cones of its seed-1 g(I)'s fan),
# each ideal's flips with their sympy checks within SYMPY_FLIP_BUDGET
# seconds
SYMPY_FLIP_IDEALS = [("ci_n4_dim2", 108), ("coordinate_lines_n3", 18),
                    ("hypersurface_n3", 6)]
SYMPY_FLIP_BUDGET = 10.0


class TestLiftedFlipsMatchSympy:
    """The flip across every facet of every cone a fan walk finds lifts
    sympy.groebner's reduced basis for the flip's order: an oracle outside
    the engine, where test_lifted_flip_is_the_fresh_basis compares with
    weight_gb.  The walk's own flips are among these, since the reduced
    basis of a cone does not depend on the order that reaches it."""

    @pytest.mark.parametrize("name,count", SYMPY_FLIP_IDEALS)
    def test_every_lifted_flip_is_sympys_basis(self, sympy_basis, name,
                                               count):
        t0 = time.perf_counter()
        J = transformed_corpus_ideal(name)
        flips = 0
        for cone, gb, row, p in facets_with_bases(J):
            _, lifted = _flip(cone, gb, row, p)
            order = lifted.order
            assert set(lifted.elements) == sympy_basis(J.n, J.generators,
                                                       order), row
            assert lifted.heads == tuple(g.head_monomial(order)
                                         for g in lifted.elements), row
            flips += 1
        assert flips == count
        elapsed = time.perf_counter() - t0
        assert elapsed < SYMPY_FLIP_BUDGET, \
            f"exceeded {SYMPY_FLIP_BUDGET}s budget: {elapsed:.1f}s"


# (generators of I, cones of g(I)'s fan, stride of the flips checked
# against fresh bases: every flip of the small walk, a sample of one large
# walk's flips, none of the other's)
FIVE_VARIABLE_WALKS = [
    (("x1^2 + x2*x3", "x4^2 + x3*x5"), 80, 8),
    (("x1*x2", "x3*x4"), 80, 0),
    (("x1 + x2 + x3", "x2*x4 + x5^2"), 20, 1),
]
FIVE_VARIABLE_BUDGET = 10.0


class TestFiveVariableWalks:
    """Fan walks of g(I) for n = 5, past the corpus's n <= 4: the cone
    counts, and lifted flips against fresh bases, within a time budget."""

    @pytest.mark.parametrize("texts,cones,stride", FIVE_VARIABLE_WALKS)
    def test_cone_count_and_lifted_flips(self, texts, cones, stride,
                                         monkeypatch):
        t0 = time.perf_counter()
        J = transform_ideal(I(5, *texts),
                            random_transform(5, 50, trial_seed(1, 0)))
        flips, flip = [], weights._flip

        def recorded(cone, gb, row, p):
            other, other_gb = flip(cone, gb, row, p)
            flips.append((row, p, other, other_gb))
            return other, other_gb
        monkeypatch.setattr(weights, "_flip", recorded)
        fan = enumerate_groebner_fan(J)
        monkeypatch.undo()
        assert len(fan.cones) == len(flips) + 1 == cones
        for row, p, other, lifted in flips[::stride] if stride else ():
            fresh = weight_gb(J, p, row)
            assert lifted.heads == fresh.heads, row
            assert lifted.elements == fresh.elements, row
            assert other == groebner_cone(fresh)
        elapsed = time.perf_counter() - t0
        assert elapsed < FIVE_VARIABLE_BUDGET, \
            f"exceeded {FIVE_VARIABLE_BUDGET}s budget: {elapsed:.1f}s"


class TestNormalization:
    def test_normalize(self):
        assert normalize_grid_point((2, 3, 4)) == (0, 1, 2)
        assert normalize_grid_point((2, 4, 6)) == (0, 1, 2)
        assert normalize_grid_point((-1, -1, -1)) == (0, 0, 0)

    def test_membership_map_matches_direct(self):
        ideal = I(3, "x1 + x2 + x3")
        mm = MembershipMap(ideal)
        from itertools import product

        for w in product(range(-2, 3), repeat=3):
            assert mm.query(w) == in_tropical_variety(ideal, w)

    def test_grid_cap_counts_before_building(self):
        # (2r + 1)^n points are counted first: 7^10 would not fit in memory
        with pytest.raises(GridSizeError, match=f" {7 ** 10} points, "):
            normalized_grid(10, 3)
        # the largest grid of tier-1 and the benchmark, n = 4 at radius 3,
        # stays legal
        assert (2 * 3 + 1) ** 4 <= MAX_GRID_POINTS
        assert len(normalized_grid(4, 3)) == 867

    def test_integer_weights_stay_integer(self):
        key = normalize_grid_point((3, 5, 7))
        assert key == (0, 1, 2)
        assert all(type(x) is int for x in key)

    def test_rational_weight_is_rejected_not_truncated(self):
        # (1/2, 0, 0) lies outside T(x1 + x2); truncating it to (0, 0, 0)
        # would wrongly answer True
        ideal = I(3, "x1 + x2")
        w = (Fraction(1, 2), 0, 0)
        assert not in_tropical_variety(ideal, w)
        with pytest.raises(TypeError):
            normalize_grid_point(w)
        with pytest.raises(TypeError):
            MembershipMap(ideal).query(w)


def transformed_corpus_ideal(name):
    ideal = parse_ideal_file((CORPUS / name).read_text())
    return transform_ideal(ideal, random_transform(ideal.n, 50, trial_seed(1, 0)))


def initial_basis(gb, key):
    """The GREVLEX reduced basis of the initial forms in_key(g), g in gb, as
    a set of (head, element) pairs."""
    reduced = buchberger([initial_form(g, key) for g in gb.elements], GREVLEX)
    return set(zip(reduced.heads, reduced.elements))


class TestBasisReuse:
    """A stored marked basis is reused only where it is the reduced basis."""

    @pytest.mark.parametrize("name", CORPUS_IDEALS)
    def test_reused_basis_is_the_fresh_basis(self, name):
        # the basis that answers a key no witness rules out, moved to the
        # front, holds the key in its closed cone, and its initial forms
        # generate in_key(J): the reduced basis of those forms is the fresh
        # basis's
        J = transformed_corpus_ideal(name)
        mm = MembershipMap(J)
        for w in normalized_grid(J.n, 2):
            ruled_out = mm.counts["witness"]
            assert mm.query(w) == in_tropical_variety(J, w), w
            if mm.counts["witness"] > ruled_out:
                continue
            gb, key = mm._bases[0][0], normalize_grid_point(w)
            assert all(vec_dot(key, h) <= vec_dot(key, e)
                       for g, h in zip(gb.elements, gb.heads)
                       for e, _ in g.terms), key
            assert initial_basis(gb, key) == \
                initial_basis(weight_gb(J, key), key), key

    def test_other_heads_need_another_basis(self, monkeypatch):
        calls = []

        def counting(ideal, *ws):
            calls.append(ws)
            return weight_gb(ideal, *ws)

        monkeypatch.setattr(weights, "weight_gb", counting)
        mm = MembershipMap(I(3, "x1 + x2 + x3"))
        # x1 + x2 + x3 is marked on x1 at (0, 0, 1) and on x2 at (1, 0, 0),
        # and its two minimal terms keep either key from its witness
        assert mm.query((0, 0, 1))
        assert mm.query((1, 0, 0))
        assert calls == [((0, 0, 1),), ((1, 0, 0),)]
        assert mm.counts == {"new basis": 2}


class TestWitnesses:
    """Known elements of the ideal rule keys out before any basis work."""

    @settings(max_examples=100, deadline=None)
    @given(name=st.sampled_from(CORPUS_IDEALS), seed=st.integers(0, 10**6),
           data=st.data())
    def test_query_is_the_direct_verdict(self, name, seed, data):
        # random integer keys, some with their minimum attained on a drawn
        # set of coordinates so that they can lie in T; each query's
        # outcome is the work it did, and a key ruled out by a witness
        # runs no weight_gb and no saturation
        ideal = parse_ideal_file((CORPUS / name).read_text())
        n = ideal.n
        J = transform_ideal(ideal, random_transform(n, 20, seed))
        draws = data.draw(st.lists(st.tuples(
            st.tuples(*[st.integers(-30, 30)] * n),
            st.sets(st.integers(0, n - 1))), min_size=1, max_size=8))
        keys = [tuple(min(w) if i in ties else x for i, x in enumerate(w))
                for w, ties in draws]
        wanted = [in_tropical_variety(J, w) for w in keys]
        mm = MembershipMap(J)
        calls = {"weight_gb": 0, "contains_monomial": 0}
        work = {"witness": (0, 0), "stored face": (0, 0),
                "new face": (0, 1), "new basis": (1, 1)}
        with pytest.MonkeyPatch.context() as patch:
            for fn in calls:
                def counting(*args, _fn=fn, _real=getattr(weights, fn)):
                    calls[_fn] += 1
                    return _real(*args)
                patch.setattr(weights, fn, counting)
            for w, want in zip(keys, wanted):
                counts, before = mm.counts.copy(), dict(calls)
                assert mm.query(w) == want, (w, keys)
                (outcome, k), = (mm.counts - counts).items()
                assert k == 1
                assert (calls["weight_gb"] - before["weight_gb"],
                        calls["contains_monomial"]
                        - before["contains_monomial"]) == work[outcome], w
                if outcome == "witness":
                    assert not want, w


def campaign_ideals():
    manifest = json.loads((CORPUS / "manifest.json").read_text())["ideals"]
    return sorted(name for name, entry in manifest.items()
                  if {"skeleton", "emptiness"} & set(entry["campaigns"]))


class TestOriginAndPurePowers:
    """A campaign puts the origin in T once any other key is, and witnesses
    with every pure power rule keys out by counting minimal coordinates."""

    @pytest.mark.parametrize("name", campaign_ideals())
    def test_origin_rule_keeps_every_verdict(self, name, monkeypatch):
        # the campaign's seed-1, trial-0 map of g(I) against the map asked
        # in plain grid order and against the direct verdict at the origin
        # and at every key in T
        J = transformed_corpus_ideal(name)
        points = normalized_grid(J.n, 3)
        assert not any(points[0])
        plain = MembershipMap(J)
        want = [plain.query(w) for w in points]
        asked, origin_work, at_origin = [], [], [False]
        for fn in ("weight_gb", "contains_monomial"):
            def counting(*args, _fn=fn, _real=getattr(weights, fn)):
                if at_origin[0]:
                    origin_work.append(_fn)
                return _real(*args)
            monkeypatch.setattr(weights, fn, counting)
        query = MembershipMap.query

        def recording(self, w):
            asked.append(w)
            at_origin[0] = not any(w)
            try:
                return query(self, w)
            finally:
                at_origin[0] = False

        monkeypatch.setattr(MembershipMap, "query", recording)
        report = generic_membership_map(
            parse_ideal_file((CORPUS / name).read_text()), trials=1, seed=1)
        assert report.transforms[0] == random_transform(J.n, 50,
                                                        trial_seed(1, 0))
        assert [report.membership[w] for w in points] == want
        assert want[0] == in_tropical_variety(J, points[0])
        assert all(in_tropical_variety(J, w)
                   for w, v in zip(points, want) if v)
        # the map is asked for every key with more than one 0 but the
        # origin (a pure-power witness rules out the rest), and for the
        # origin, last, exactly when no other key is in T; otherwise the
        # origin costs no basis and no saturation
        origin_asked = not any(want[1:])
        assert asked == ([w for w in points[1:] if w.count(0) > 1]
                         + [points[0]] * origin_asked)
        if name == "coordinate_lines_n3":
            assert origin_asked and "contains_monomial" in origin_work
        if name == "point_n3":
            # its stored basis x1, x2, x3 holds one-term witnesses
            assert origin_asked and origin_work == []

    def test_pure_power_witness_needs_no_dot_product(self, monkeypatch):
        # x1 + x2 + x3 + x4 has every pure power: a key with one minimal
        # coordinate is ruled out without one product of key and exponent
        products = []

        def counting(a, b):
            products.append((a, b))
            return a * b

        monkeypatch.setattr(weights, "mul", counting)
        mm = MembershipMap(I(4, *TestWorkCounts.HYPERPLANE))
        assert not mm.query((3, 1, 4, 2))
        assert mm.counts == {"witness": 1} and products == []

    def test_missing_pure_power_takes_the_dot_test(self):
        # x1^2 + x2^2 lacks x3^2: at (1, 1, 0) the minimal coordinate is
        # unique, but its two terms tie, so the key is in T
        ideal = I(3, "x1^2 + x2^2")
        mm = MembershipMap(ideal)
        assert mm.query((1, 1, 0)) and in_tropical_variety(ideal, (1, 1, 0))
        assert not mm.query((0, 1, 2))
        assert mm.counts["witness"] == 1

    def test_normalized_key_is_returned_as_it_is(self):
        key = (0, 2, 3)
        assert normalize_grid_point(key) is key
        assert normalize_grid_point((0, 0, 0)) == (0, 0, 0)
        assert normalize_grid_point((0, 2, 4)) == (0, 1, 2)
        assert normalize_grid_point([0, 1, 2]) == (0, 1, 2)


def has_every_pure_power(p):
    d = p.homogeneous_degree()
    exps = {e for e, _ in p.terms}
    return all(tuple(d * (i == j) for j in range(p.n)) in exps
               for i in range(p.n))


class TestBulkRuleOut:
    """A campaign sets the grid keys with one 0 to False, with no query,
    when a generator of the trial's g(I) has every pure power."""

    @pytest.mark.parametrize("name", campaign_ideals())
    def test_report_is_the_plain_map(self, name, monkeypatch):
        # the seed-1 campaign against a map asked every key, for each agreed
        # transform; each map's counts total the keys it answered: every
        # key but the origin, and the origin exactly when no other key is
        # in T
        maps = []

        class Recording(MembershipMap):
            def __init__(self, ideal):
                super().__init__(ideal)
                maps.append(self)

        monkeypatch.setattr(generic, "MembershipMap", Recording)
        ideal = parse_ideal_file((CORPUS / name).read_text())
        report = generic_membership_map(ideal, seed=1)
        points = normalized_grid(ideal.n, 3)
        for g in report.transforms:
            plain = MembershipMap(transform_ideal(ideal, g))
            assert dict(report.membership) == {w: plain.query(w)
                                               for w in points}
        origin_asked = not any(report.membership[w] for w in points[1:])
        agreed = maps[-len(report.transforms):]
        assert [sum(mm.counts.values()) for mm in agreed] == \
            [len(points) - 1 + origin_asked] * len(agreed)
        # the bulk rule-out ran: for a generic g some generator of g(I)
        # has every pure power
        one_zero = sum(w.count(0) == 1 for w in points)
        assert all(any(map(has_every_pure_power, mm.ideal.generators))
                   and mm.counts["witness"] >= one_zero for mm in agreed)

    @pytest.mark.parametrize("name", campaign_ideals())
    def test_grid_is_the_plain_map(self, name):
        # MembershipMap.grid against query at every key of the grid, on a
        # fresh map each
        J = transformed_corpus_ideal(name)
        points = normalized_grid(J.n, 2)
        plain = MembershipMap(J)
        assert MembershipMap(J).grid(2) == bytes(plain.query(w)
                                                 for w in points)

    def test_no_pure_power_asks_every_key(self, monkeypatch):
        # the identity keeps x1*x2 + x3^2, which lacks x1^2 and x2^2: every
        # key but the origin is asked, and (0, 2, 1), with one 0, is in T
        asked = []
        query = MembershipMap.query

        def recording(self, w):
            asked.append(w)
            return query(self, w)

        identity = ((1, 0, 0), (0, 1, 0), (0, 0, 1))
        monkeypatch.setattr(MembershipMap, "query", recording)
        monkeypatch.setattr(generic, "random_transform",
                            lambda n, bound, seed, accept=None: identity)
        report = generic_membership_map(I(3, "x1*x2 + x3^2"), grid_radius=1,
                                        trials=1, bound=10, seed=1)
        points = normalized_grid(3, 1)
        assert asked == list(points[1:])
        assert report.membership[(0, 2, 1)] and report.membership[(0, 0, 0)]


class TestReuseRows:
    """A stored basis answers a key from its integer rows alone."""

    def test_reuse_evaluates_no_term_order_key(self, monkeypatch):
        # a witness test or a lookup on a stored basis, on a stored face or
        # on a new one, costs no TermOrder.key; the saturation test, which
        # runs Buchberger, is not counted
        key_calls, saturations, counting = [], [], [True]
        original_key = TermOrder.key
        saturation = weights.contains_monomial

        def key(self, exp):
            if counting[0]:
                key_calls.append(exp)
            return original_key(self, exp)

        def uncounted(generators):
            saturations.append(generators)
            counting[0] = False
            try:
                return saturation(generators)
            finally:
                counting[0] = True

        gb_calls = []

        def recording_gb(ideal, *ws):
            gb_calls.append(ws)
            return weight_gb(ideal, *ws)

        monkeypatch.setattr(TermOrder, "key", key)
        monkeypatch.setattr(weights, "contains_monomial", uncounted)
        monkeypatch.setattr(weights, "weight_gb", recording_gb)
        mm = MembershipMap(I(4, *TestWorkCounts.HYPERPLANE))
        new_faces = stored_faces = ruled_out = 0
        for w in normalized_grid(4, 2):
            before = len(key_calls), len(gb_calls), len(saturations)
            mm.query(w)
            after = len(key_calls), len(gb_calls), len(saturations)
            if after[1] == before[1]:  # a witness or a stored basis answered
                assert after[0] == before[0], w
                if after[2] > before[2]:
                    new_faces += 1
                elif normalize_grid_point(w).count(0) == 1:
                    ruled_out += 1
                else:
                    stored_faces += 1
        # 291 keys: 220 with one minimal coordinate, ruled out by the
        # generator; 3 bases, 9 more faces on them, 59 faces met again
        assert (ruled_out, len(gb_calls), new_faces, stored_faces) == \
            (220, 3, 9, 59)


class TestWorkCounts:
    """One weight Groebner basis per maximal Groebner cone met and per
    weight walked."""

    TWISTED_CUBIC = ("x1*x3 - x2^2", "x1^2 - x2*x3")
    # T is the keys whose minimum is attained at least twice; the
    # generator is the witness of every other key
    HYPERPLANE = ("x1 + x2 + x3 + x4",)

    @pytest.fixture
    def weight_gb_calls(self, monkeypatch):
        calls = []

        def counting(ideal, *weights):
            calls.append(weights)
            return weight_gb(ideal, *weights)

        monkeypatch.setattr(weights, "weight_gb", counting)
        return calls

    @pytest.fixture
    def buchberger_calls(self, monkeypatch):
        calls = []

        def counting(generators, order):
            calls.append(order)
            return buchberger(generators, order)

        monkeypatch.setattr(groebner, "buchberger", counting)
        monkeypatch.setattr(weights, "buchberger", counting)
        return calls

    @pytest.fixture
    def saturations(self, monkeypatch):
        calls = []
        saturation = weights.contains_monomial

        def counting(generators):
            calls.append(generators)
            return saturation(generators)

        monkeypatch.setattr(weights, "contains_monomial", counting)
        return calls

    @staticmethod
    def grid_outcomes(n, texts, saturations):
        """The outcomes of the radius-2 grid's keys: each key the witnesses
        leave meets a stored face, a new face of a stored basis, or a new
        basis, and each face is saturated once."""
        mm = MembershipMap(I(n, *texts))
        for w in normalized_grid(n, 2):
            mm.query(w)
        assert len(mm._bases) == mm.counts["new basis"]
        faces = sum(len(faces) for _, _, faces in mm._bases)
        assert faces == len(saturations) == \
            mm.counts["new basis"] + mm.counts["new face"]
        return mm.counts

    def test_membership_map_one_basis_per_miss(self, saturations):
        # the generators are a tropical basis: every one of the 37 keys off
        # the lineality space has a single minimal term in one of them
        assert self.grid_outcomes(3, self.TWISTED_CUBIC, saturations) == \
            {"witness": 36, "new basis": 1}

    def test_membership_map_meets_every_outcome(self, saturations):
        # 291 keys: 220 with one minimal coordinate; the 71 in T meet 3
        # maximal cones and 9 more of their faces
        assert self.grid_outcomes(4, self.HYPERPLANE, saturations) == \
            {"witness": 220, "new basis": 3, "new face": 9, "stored face": 59}

    def test_repeated_key_is_answered_by_its_cone(self, saturations):
        # w, w + c*(1,..,1) and 2w share one normalized key, which a
        # witness rules out or whose face of the stored basis's closed cone
        # keeps the verdict
        mm = MembershipMap(I(4, *self.HYPERPLANE))
        for w in [(0, 1, 3, 0), (1, 1, 2, 1), (0, 0, 0, 0), (2, 0, 1, 5),
                  (0, 0, 1, 2)]:
            verdict = mm.query(w)
            before = len(saturations), mm.counts["new basis"]
            for again in (tuple(x - 2 for x in w), tuple(x + 5 for x in w),
                          tuple(2 * x for x in w)):
                assert mm.query(again) == verdict, (w, again)
            assert (len(saturations), mm.counts["new basis"]) == before
        # (2, 0, 1, 5) has one minimal coordinate; the other keys lie on
        # faces of the first basis's closed cone
        assert mm.counts == {"witness": 4, "new basis": 1, "new face": 3,
                             "stored face": 12}

    @pytest.mark.parametrize("name", CORPUS_IDEALS)
    def test_membership_map_at_most_one_basis_per_cone(self, name):
        J = transformed_corpus_ideal(name)
        assert J.n <= 4
        mm = MembershipMap(J)
        for w in normalized_grid(J.n, 3):
            mm.query(w)
        bases = mm.counts["new basis"]
        assert bases <= len(enumerate_groebner_fan(J).cones)

    def test_fan_walk_probes_few_rows_with_an_equality(self, monkeypatch):
        # facets come from ray shooting, whose tests hold no equality; only
        # a ray that hits several rows at once probes one row as an
        # equality with every other row strict (780 probes when every row
        # was probed that way)
        probes = []

        def counting(n, equalities=(), nonstrict=(), strict=()):
            probes.append(bool(equalities))
            return find_point(n, equalities, nonstrict, strict)

        monkeypatch.setattr(halfspaces, "find_point", counting)
        fan = enumerate_groebner_fan(transformed_corpus_ideal("ci_n4_dim2"))
        assert len(fan.cones) == 36
        assert sum(probes) == 6

    def test_fan_walk_searches_no_interior_point(self, monkeypatch):
        # each cone's interior point comes from its order, so no probe
        # holds every row of a cone strict (one per cone, 36, when
        # facets searched for that point)
        probes = []

        def counting(n, equalities=(), nonstrict=(), strict=()):
            probes.append(tuple(strict))
            return find_point(n, equalities, nonstrict, strict)

        monkeypatch.setattr(halfspaces, "find_point", counting)
        fan = enumerate_groebner_fan(transformed_corpus_ideal("ci_n4_dim2"))
        assert len(fan.cones) == 36
        rows = {c.inequalities for c in fan.cones}
        assert sum(strict in rows for strict in probes) == 0

    def test_n6_walk_cone_count(self):
        # g(x1x2, x3x4) at n = 6, seed 1: the walk past n = 5 finishes
        ideal = I(6, "x1*x2", "x3*x4")
        J = transform_ideal(ideal, random_transform(6, 50, trial_seed(1, 0)))
        assert len(enumerate_groebner_fan(J).cones) == 156

    def test_fan_walk_solves_each_weight_once(self, weight_gb_calls,
                                              buchberger_calls):
        # one fresh basis for the start cone; each flip, across an interior
        # facet not yet crossed, lifts its basis with one Buchberger run on
        # initial forms: one run per cone
        fan = enumerate_groebner_fan(I(3, *self.TWISTED_CUBIC))
        assert len(fan.cones) == 9
        assert len(weight_gb_calls) == 1
        assert len(buchberger_calls) == len(fan.cones)
