"""Initial forms, tropical membership, Groebner cones, fan traversal."""

from fractions import Fraction
from functools import cache
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tropgen import groebner, halfspaces, weights
from tropgen.fans import cone_dim, member, same_cone, skeleton_membership
from tropgen.generic import (
    normalized_grid,
    random_transform,
    transform_ideal,
    trial_seed,
)
from tropgen.groebner import buchberger
from tropgen.halfspaces import find_point
from tropgen.poly import (Ideal, TermOrder, parse_ideal_file,
                          parse_polynomial, weight_order)
from tropgen.weights import (
    BudgetExceededError,
    IncompleteFanError,
    MembershipMap,
    _flip,
    _generic_start,
    enumerate_groebner_fan,
    groebner_cone,
    head_rows,
    in_tropical_variety,
    initial_form,
    initial_ideal_generators,
    marks_heads,
    normalize_grid_point,
    weight_gb,
)


def P(text, n):
    return parse_polynomial(text, n)


def I(n, *texts):
    return Ideal.of(n, tuple(P(t, n) for t in texts))


CORPUS = Path(__file__).resolve().parent.parent / "corpus"
CORPUS_IDEALS = sorted(p.name for p in CORPUS.iterdir() if not p.suffix)


def halving_flip(ideal, cone, row, p):
    """Reference search for the cone across a facet: the Groebner cone at
    p + eps*row for eps = 1, 1/2, 1/4, ... until it is full-dimensional,
    differs from cone and holds p."""
    eps = Fraction(1)
    for _ in range(64):
        w = tuple(pi + eps * ri for pi, ri in zip(p, row))
        other = groebner_cone(weight_gb(ideal, w), w)
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
        assert groebner_cone(gb, w) == cone
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
        gens = initial_ideal_generators(I(2, "x1 + x2"), (0, 0))
        assert gens == (P("x1 + x2", 2),)

    def test_unbalanced_weight(self):
        gens = initial_ideal_generators(I(2, "x1 + x2"), (0, 1))
        assert gens == (P("x1", 2),)

    def test_monomial_ideal_is_its_own_initial(self):
        for w in [(0, 0), (1, 5), (-2, 3)]:
            gens = initial_ideal_generators(I(2, "x1*x2"), w)
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
        cone = groebner_cone(weight_gb(I(2, "x1 + x2"), (0, 1)), (0, 1))
        assert cone.equalities == ()
        assert cone.inequalities == ((1, -1),)

    def test_tie_gives_equality(self):
        cone = groebner_cone(weight_gb(I(2, "x1 + x2"), (0, 0)), (0, 0))
        assert cone.equalities == ((1, -1),)
        assert cone.inequalities == ()

    def test_cone_contains_its_weight(self):
        for w in [(0, 1, 2), (0, 0, 0), (2, 1, 1), (-1, 3, 0)]:
            ideal = I(3, "x1*x3 - x2^2", "x1^2 - x2*x3")
            cone = groebner_cone(weight_gb(ideal, w), w)
            assert member(cone, w)

    def test_contains_lineality_line(self):
        w = (0, 1, 2)
        cone = groebner_cone(weight_gb(I(3, "x1^2 + x2*x3"), w), w)
        assert member(cone, (1, 1, 1))
        assert member(cone, (-1, -1, -1))

    def test_interior_points_share_initial_ideal(self):
        ideal = I(3, "x1*x3 - x2^2", "x1^2 - x2*x3")
        w = (0, 1, 2)
        cone = groebner_cone(weight_gb(ideal, w), w)
        p = find_point(3, equalities=cone.equalities, strict=cone.inequalities)
        assert (initial_ideal_generators(ideal, w)
                == initial_ideal_generators(ideal, p))


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
            assert other == groebner_cone(fresh, p, row)

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


class TestBasisReuse:
    """A stored marked basis is reused only where it is the reduced basis."""

    @pytest.mark.parametrize("name", CORPUS_IDEALS)
    def test_reused_basis_is_the_fresh_basis(self, name, monkeypatch):
        J = transformed_corpus_ideal(name)
        used = []

        def recording(gb, *ws):
            used.append((gb, ws))
            return groebner_cone(gb, *ws)

        monkeypatch.setattr(weights, "groebner_cone", recording)
        mm = MembershipMap(J)
        for w in normalized_grid(J.n, 2):
            assert mm.query(w) == in_tropical_variety(J, w), w
        assert len(used) == len(mm._cones)
        for gb, (key,) in used:
            fresh = weight_gb(J, key)
            assert set(zip(gb.heads, gb.elements)) == \
                set(zip(fresh.heads, fresh.elements)), key

    def test_other_heads_need_another_basis(self, monkeypatch):
        calls = []

        def counting(ideal, *ws):
            calls.append(ws)
            return weight_gb(ideal, *ws)

        monkeypatch.setattr(weights, "weight_gb", counting)
        mm = MembershipMap(I(2, "x1 + x2"))
        # x1 + x2 is marked on x1 at (0, 1) and on x2 at (1, 0)
        assert not mm.query((0, 1))
        assert not mm.query((1, 0))
        assert calls == [((0, 1),), ((1, 0),)]


@cache
def reuse_cases():
    """(weight, basis) for every transformed corpus ideal at every point of
    its radius-1 normalized grid."""
    cases = []
    for name in CORPUS_IDEALS:
        J = transformed_corpus_ideal(name)
        cases += [(w, weight_gb(J, w)) for w in normalized_grid(J.n, 1)]
    return cases


def marks_heads_by_key(gb, key):
    """The reuse test as TermOrder.key decides it."""
    order = weight_order(key)
    return all(g.head_monomial(order) == h
               for g, h in zip(gb.elements, gb.heads))


class TestReuseRows:
    """The row test marks_heads(head_rows(gb), key) is the head test."""

    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_rows_decide_as_the_term_order(self, data):
        # keys near a multiple of a basis's own weight tie many rows; the
        # scale and noise may both be zero
        w, gb = data.draw(st.sampled_from(reuse_cases()))
        scale = data.draw(st.integers(0, 3))
        noise = data.draw(st.lists(st.integers(-2, 2), min_size=gb.n,
                                   max_size=gb.n))
        key = tuple(scale * x + y for x, y in zip(w, noise))
        assert marks_heads(head_rows(gb), key) == marks_heads_by_key(gb, key)

    def test_zero_and_own_keys(self):
        # at the zero key every row ties and lex decides; at its own weight
        # a basis is always reused
        for w, gb in reuse_cases():
            rows = head_rows(gb)
            zero = (0,) * gb.n
            assert marks_heads(rows, zero) == marks_heads_by_key(gb, zero)
            assert marks_heads(rows, w) and marks_heads_by_key(gb, w)

    def test_reuse_evaluates_no_term_order_key(self, monkeypatch):
        # a reused basis costs no TermOrder.key; the saturation test, which
        # runs Buchberger, is not counted
        key_calls, counting = [], [True]
        original_key = TermOrder.key
        saturation = weights.contains_monomial

        def key(self, exp):
            if counting[0]:
                key_calls.append(exp)
            return original_key(self, exp)

        def uncounted(generators, n):
            counting[0] = False
            try:
                return saturation(generators, n)
            finally:
                counting[0] = True

        gb_calls = []

        def recording_gb(ideal, *ws):
            gb_calls.append(ws)
            return weight_gb(ideal, *ws)

        monkeypatch.setattr(TermOrder, "key", key)
        monkeypatch.setattr(weights, "contains_monomial", uncounted)
        monkeypatch.setattr(weights, "weight_gb", recording_gb)
        mm = MembershipMap(I(3, *TestWorkCounts.TWISTED_CUBIC))
        reuses = 0
        for w in normalized_grid(3, 2):
            before = len(key_calls), len(gb_calls), len(mm._cones)
            mm.query(w)
            after = len(key_calls), len(gb_calls), len(mm._cones)
            if after[1:] == (before[1], before[2] + 1):  # a basis reused
                reuses += 1
                assert after[0] == before[0], w
        assert reuses == 10  # 19 misses, 9 bases


class TestWorkCounts:
    """One weight Groebner basis per maximal Groebner cone met and per
    weight walked."""

    TWISTED_CUBIC = ("x1*x3 - x2^2", "x1^2 - x2*x3")

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

    def test_membership_map_one_basis_per_miss(self, weight_gb_calls):
        # 19 misses share the bases of the 9 maximal cones of the fan
        mm = MembershipMap(I(3, *self.TWISTED_CUBIC))
        for w in normalized_grid(3, 2):
            mm.query(w)
        misses = len(mm._cones)
        assert misses == 19
        assert len(weight_gb_calls) == 9

    def test_repeated_key_is_answered_by_its_cone(self, weight_gb_calls):
        # w, w + c*(1,..,1) and 2w share one normalized key, which lies in
        # the relative interior of the cone stored for it
        mm = MembershipMap(I(3, *self.TWISTED_CUBIC))
        for w in [(0, 1, 3), (1, 1, 2), (0, 0, 0), (2, 0, 1), (0, 0, 1)]:
            verdict = mm.query(w)
            cones, calls = len(mm._cones), len(weight_gb_calls)
            for again in (tuple(x - 2 for x in w), tuple(x + 5 for x in w),
                          tuple(2 * x for x in w)):
                assert mm.query(again) == verdict, (w, again)
            assert (len(mm._cones), len(weight_gb_calls)) == (cones, calls)

    @pytest.mark.parametrize("name", CORPUS_IDEALS)
    def test_membership_map_at_most_one_basis_per_cone(self, name,
                                                       weight_gb_calls):
        J = transformed_corpus_ideal(name)
        assert J.n <= 4
        mm = MembershipMap(J)
        for w in normalized_grid(J.n, 3):
            mm.query(w)
        bases = len(weight_gb_calls)
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
        assert sum(probes) == 14

    def test_fan_walk_solves_each_weight_once(self, weight_gb_calls,
                                              buchberger_calls):
        # one fresh basis for the start cone; each flip, across an interior
        # facet not yet crossed, lifts its basis with one Buchberger run on
        # initial forms: one run per cone
        fan = enumerate_groebner_fan(I(3, *self.TWISTED_CUBIC))
        assert len(fan.cones) == 9
        assert len(weight_gb_calls) == 1
        assert len(buchberger_calls) == len(fan.cones)
