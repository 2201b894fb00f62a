"""Random transforms and genericity campaigns."""

from itertools import permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tropgen import generic
from tropgen.fans import skeleton_membership
from tropgen.generic import (
    GenericityReport,
    TransformSearchError,
    apply_transform,
    check_lineality,
    check_skeleton_equality,
    check_symmetry,
    gb_support_stability,
    generic_membership_map,
    normalized_grid,
    random_transform,
    transform_ideal,
    trial_seed,
)
from tropgen.groebner import buchberger, krull_dimension
from tropgen.linalg import QQ
from tropgen.poly import GREVLEX, Ideal, Polynomial, parse_polynomial
from tropgen.weights import MembershipMap

from test_fans import leibniz_det


def P(text, n):
    return parse_polynomial(text, n)


def mat_inverse(g):
    """Inverse by cofactors: entry (i, j) is (-1)^(i+j) times the
    determinant of g without row j and column i, over det(g)."""
    n = len(g)
    d = leibniz_det(g)
    return tuple(tuple((-1) ** (i + j) * leibniz_det([
        [g[r][c] for c in range(n) if c != i] for r in range(n) if r != j])
        / d for j in range(n)) for i in range(n))


def substitute(p, g):
    """Reference substitution x_i -> sum_j g[i][j] x_j by Polynomial
    arithmetic."""
    n = p.n
    images = [Polynomial.from_dict(
        n, {tuple(int(k == j) for k in range(n)): QQ(g[i][j])
            for j in range(n) if g[i][j]}) for i in range(n)]
    result = Polynomial.zero(n)
    for e, c in p.terms:
        term = Polynomial.constant(n, c)
        for i, k in enumerate(e):
            term = term * images[i] ** k
        result = result + term
    return result


def exponents(n, low, high):
    """Exponent tuples in n variables of degree low..high, drawn as the
    variables of their factors."""
    return st.lists(st.integers(0, n - 1), min_size=low, max_size=high).map(
        lambda factors: tuple(factors.count(i) for i in range(n)))


def I(n, *texts):
    return Ideal.of(n, tuple(P(t, n) for t in texts))


def permute_columns(g, perm):
    """sigma(g): entry (i, j) of the result is g[i][sigma^{-1}(j)], so that
    applying sigma(g) equals applying g then permuting variables by sigma."""
    n = len(g)
    inv = perm_inverse(perm)
    return tuple(tuple(g[i][inv[j]] for j in range(n)) for i in range(n))


def perm_inverse(perm):
    inv = [0] * len(perm)
    for i, p in enumerate(perm):
        inv[p] = i
    return tuple(inv)


class TestRandomTransform:
    def test_deterministic(self):
        assert random_transform(3, 10, 42) == random_transform(3, 10, 42)
        assert random_transform(3, 10, 42) != random_transform(3, 10, 43)

    def test_invertible_and_bounded(self):
        for seed in range(5):
            g = random_transform(3, 7, seed)
            assert leibniz_det(g) != 0
            assert all(abs(x) <= 7 for row in g for x in row)

    def test_entries_are_ints(self):
        for n, seed in [(1, 0), (3, 42), (4, 1)]:
            g = random_transform(n, 50, seed)
            assert all(type(x) is int for row in g for x in row)

    def test_no_invertible_sample_raises_a_named_error(self):
        # with bound 0 every sample is the zero matrix
        with pytest.raises(TransformSearchError):
            random_transform(2, 0, 1)

    def test_n1(self):
        g = random_transform(1, 3, 0)
        assert g[0][0] != 0

    def test_gate_that_rejects_everything_raises(self):
        with pytest.raises(TransformSearchError, match="passing the gate"):
            random_transform(3, 50, 1, accept=lambda g: False)

    def test_gate_takes_the_first_accepted_draw_of_the_stream(self):
        # without a gate the draws are as before; a gate that rejects the
        # first draw takes a later one, which is still invertible
        first = random_transform(3, 5, 7)
        gated = random_transform(3, 5, 7, accept=lambda g: g != first)
        assert gated != first and leibniz_det(gated) != 0
        assert random_transform(3, 5, 7, accept=lambda g: True) == first

    def test_campaign_draws_through_the_gate(self):
        def no_zero_entry(g):
            return all(x for row in g for x in row)

        report = generic_membership_map(I(3, "x1 + x2 + x3"), grid_radius=1,
                                        trials=3, bound=1, seed=1,
                                        accept=no_zero_entry)
        assert all(no_zero_entry(g) for g in report.transforms)
        with pytest.raises(TransformSearchError):
            generic_membership_map(I(3, "x1 + x2 + x3"), grid_radius=1,
                                   trials=2, bound=10, seed=1,
                                   accept=lambda g: False)


class TestApplyTransform:
    def test_identity(self):
        f = P("x1^2 + x2*x3", 3)
        assert apply_transform(f, ((1, 0, 0), (0, 1, 0), (0, 0, 1))) == f

    def test_swap(self):
        g = ((QQ(0), QQ(1)), (QQ(1), QQ(0)))
        assert apply_transform(P("x1", 2), g) == P("x2", 2)

    def test_round_trip_through_inverse(self):
        ideal = I(3, "x1*x3 - x2^2", "x1^2 - x2*x3")
        g = random_transform(3, 5, 11)
        back = transform_ideal(transform_ideal(ideal, g), mat_inverse(g))
        # same ideal: identical reduced bases
        assert buchberger(back.generators, GREVLEX).elements == \
            buchberger(ideal.generators, GREVLEX).elements

    def test_dimension_invariance(self):
        for seed, ideal in enumerate([
                I(2, "x1*x2"),
                I(3, "x1 + x2 + x3"),
                I(3, "x1^2 + x2*x3"),
                I(4, "x1*x3", "x1*x4", "x2*x3", "x2*x4")]):
            g = random_transform(ideal.n, 5, seed * 3 + 1)
            assert krull_dimension(transform_ideal(ideal, g)) == \
                krull_dimension(ideal)

    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_integer_substitution_is_the_polynomial_one(self, data):
        # rational coefficients, terms of degrees 1-4 in up to 4 variables,
        # and matrices with zero, negative and rational entries
        n = data.draw(st.integers(1, 4))
        exps = exponents(n, 1, 4)
        coeffs = st.fractions(-20, 20, max_denominator=12).filter(bool)
        p = Polynomial.from_dict(n, data.draw(st.dictionaries(
            exps, coeffs, min_size=1, max_size=6)))
        entry = st.integers(-6, 6) | st.fractions(-6, 6, max_denominator=5)
        g = data.draw(st.lists(st.lists(entry, min_size=n, max_size=n)
                               .map(tuple), min_size=n, max_size=n).map(tuple))
        assert apply_transform(p, g) == substitute(p, g)

    @settings(max_examples=50, deadline=None)
    @given(n=st.integers(2, 4), seed=st.integers(0, 10**6),
           data=st.data())
    def test_inverse_undoes_the_transform(self, n, seed, data):
        exps = exponents(n, 3, 3)
        coeffs = st.fractions(-9, 9, max_denominator=4).filter(bool)
        ideal = Ideal.of(n, [Polynomial.from_dict(n, d) for d in data.draw(
            st.lists(st.dictionaries(exps, coeffs, min_size=1, max_size=4),
                     min_size=1, max_size=3))])
        g = random_transform(n, 5, seed)
        assert transform_ideal(transform_ideal(ideal, g), mat_inverse(g)) \
            == ideal

    def test_homogeneity_preserved(self):
        f = P("x1^2*x2 + x2^2*x3", 3)
        g = random_transform(3, 5, 2)
        assert apply_transform(f, g).homogeneous_degree() == 3


class TestPermuteColumns:
    def test_identity_permutation(self):
        g = random_transform(3, 5, 1)
        assert permute_columns(g, (0, 1, 2)) == g

    def test_transform_then_rename_factorization(self):
        # applying sigma(g) equals applying g, then renaming variables:
        # sigma(g(I)) = sigma(g)(I)
        ideal = I(3, "x1^2 + x2*x3")
        g = random_transform(3, 4, 9)
        for sigma in permutations(range(3)):
            sg = permute_columns(g, sigma)
            direct = transform_ideal(ideal, sg)
            inv = perm_inverse(sigma)
            renamed_gens = []
            for p in transform_ideal(ideal, g).generators:
                # the exponent at i moves to position sigma[i]
                moved = {tuple(e[inv[j]] for j in range(3)): c
                         for e, c in p.terms}
                renamed_gens.append(
                    parse_polynomial("0", 3).from_dict(3, moved))
            renamed = Ideal.of(3, tuple(renamed_gens))
            assert buchberger(direct.generators, GREVLEX).elements == \
                buchberger(renamed.generators, GREVLEX).elements

    def test_composition(self):
        g = random_transform(4, 4, 5)
        for s in [(1, 0, 2, 3), (3, 2, 1, 0)]:
            for t in [(0, 2, 1, 3), (1, 2, 3, 0)]:
                st = tuple(t[s[i]] for i in range(4))
                assert permute_columns(permute_columns(g, s), t) == \
                    permute_columns(g, st)

    def test_perm_inverse(self):
        assert perm_inverse((1, 2, 0)) == (2, 0, 1)


class TestCampaigns:
    def test_monomial_map_is_diagonal(self):
        report = generic_membership_map(I(2, "x1*x2"), grid_radius=3,
                                        trials=2, bound=10, seed=1)
        assert report.escalations == [10]
        for w, verdict in report.membership.items():
            assert verdict == (w[0] == w[1])

    def test_skeleton_equality(self):
        report = generic_membership_map(I(3, "x1*x2", "x1*x3", "x2*x3"),
                                        grid_radius=2, trials=2, bound=10,
                                        seed=1)
        ok, mismatches = check_skeleton_equality(report, 1)
        assert ok, mismatches

    def test_zero_dimensional_empty(self):
        report = generic_membership_map(I(2, "x1", "x2"), grid_radius=2,
                                        trials=2, bound=10, seed=1)
        assert not any(report.membership.values())

    def test_symmetry_and_lineality(self):
        report = generic_membership_map(I(3, "x1^2 + x2*x3"), grid_radius=2,
                                        trials=2, bound=10, seed=1)
        assert check_symmetry(report)[0]
        assert check_lineality(report)[0]

    def test_asymmetric_non_generic_snapshot(self):
        # untransformed T((x2+x3)) = {w2 = w3} is not permutation closed
        ideal = I(3, "x2 + x3")
        mm = MembershipMap(ideal)
        identity = ((1, 0, 0), (0, 1, 0), (0, 0, 1))
        report = GenericityReport(
            ideal, seed=1, grid_radius=2,
            transforms=(identity,), escalations=[1],
            membership={w: mm.query(w) for w in normalized_grid(3, 2)})
        ok, (w, rep) = check_symmetry(report)
        assert ok is False
        assert rep == tuple(sorted(w))
        assert report.membership[w] != report.membership[rep]

    @pytest.mark.parametrize("texts, origin_asked", [
        (("x1 + x2 + x3",), False), (("x1", "x2", "x3"), True)])
    def test_origin_is_asked_last_if_at_all(self, texts, origin_asked,
                                             monkeypatch):
        # each trial's map is asked for every other grid key with more than
        # one 0 (a pure-power witness rules out the rest), and for the origin
        # only when none of them is in T; the report keeps grid order
        asked = []
        query = MembershipMap.query

        def recording(self, w):
            asked.append(w)
            return query(self, w)

        monkeypatch.setattr(MembershipMap, "query", recording)
        report = generic_membership_map(I(3, *texts), grid_radius=1,
                                        trials=2, bound=10, seed=1)
        points = normalized_grid(3, 1)
        assert asked == 2 * ([w for w in points[1:] if w.count(0) > 1]
                             + [points[0]] * origin_asked)
        assert list(report.membership) == list(points)
        assert report.membership[(0, 0, 0)] != origin_asked

    @pytest.mark.parametrize("kwargs", [dict(grid_radius=-1),
                                        dict(trials=0), dict(bound=0)])
    def test_bad_parameters_raise(self, kwargs):
        with pytest.raises(ValueError):
            generic_membership_map(I(2, "x1*x2"), **kwargs)

    def test_escalation_is_reported(self, monkeypatch):
        # the identity as the first transform of round 0 keeps T((x2 + x3))
        # = {w2 = w3}, which no generic trial agrees with: one retry
        real = generic.random_transform

        def first_is_identity(n, bound, seed, accept=None):
            if seed == trial_seed(1, 0):
                return tuple(tuple(int(i == j) for j in range(n))
                             for i in range(n))
            return real(n, bound, seed, accept)

        monkeypatch.setattr(generic, "random_transform", first_is_identity)
        report = generic_membership_map(I(3, "x2 + x3"), grid_radius=2,
                                        trials=2, bound=10, seed=1)
        data = report.to_jsonable()
        assert (data["bounds_used"], data["retries"], data["agreed"]) == (
            [10, 20], 1, True)
        assert check_skeleton_equality(report, 2)[0]

    def test_grid_is_shared(self):
        assert normalized_grid(4, 3) is normalized_grid(4, 3)

    def test_membership_is_the_dict_of_its_queries(self):
        # the report's map holds one verdict per grid point, in grid order,
        # and reads like the dict of the trial's queries
        ideal = I(3, "x1^2 + x2*x3")
        report = generic_membership_map(ideal, grid_radius=2, trials=1,
                                        bound=10, seed=1)
        mm = MembershipMap(transform_ideal(ideal, report.transforms[0]))
        points = normalized_grid(3, 2)
        want = {w: mm.query(w) for w in points}
        assert list(report.membership) == list(points)
        assert report.membership == want and len(report.membership) == len(want)
        # packed one byte per point, read back as the bools JSON prints
        assert report.membership._verdicts == bytes(want.values())
        assert {type(v) for v in report.membership.values()} == {bool}
        assert (9, 9, 9) not in report.membership
        with pytest.raises(KeyError):
            report.membership[(9, 9, 9)]

    def test_report_json_is_stable(self):
        a = generic_membership_map(I(2, "x1*x2"), grid_radius=2, trials=2,
                                   bound=10, seed=3).to_jsonable()
        b = generic_membership_map(I(2, "x1*x2"), grid_radius=2, trials=2,
                                   bound=10, seed=3).to_jsonable()
        assert a == b

    def test_adding_a_trial_keeps_the_map(self):
        base = generic_membership_map(I(3, "x1 + x2 + x3"), grid_radius=2,
                                      trials=2, bound=10, seed=1)
        more = generic_membership_map(I(3, "x1 + x2 + x3"), grid_radius=2,
                                      trials=3, bound=10, seed=1)
        assert base.membership == more.membership


class TestSupportStability:
    def test_monomial_ideal(self):
        assert gb_support_stability(I(2, "x1*x2"), GREVLEX, trials=3,
                                    bound=50, seed=1)

    def test_principal_full_support(self):
        from math import comb

        ideal = I(3, "x1^2 + x2*x3")
        assert gb_support_stability(ideal, GREVLEX, trials=3, bound=50, seed=1)
        # the generic support is every degree-2 monomial
        g = random_transform(3, 50, 123)
        transformed = transform_ideal(ideal, g)
        gb = buchberger(transformed.generators, GREVLEX)
        assert len(gb.elements) == 1
        assert len(gb.elements[0].terms) == comb(3 + 2 - 1, 2)

    def test_single_trial_vacuous(self):
        assert gb_support_stability(I(2, "x1 + x2"), GREVLEX, trials=1,
                                    bound=10, seed=1)
