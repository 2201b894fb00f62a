"""Closed forms for principal and linear ideals."""

import random
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from tropgen import special
from tropgen.fans import same_cone
from tropgen.generic import apply_transform, random_transform, trial_seed
from tropgen.linalg import QQ, mat_mul, rank, rref
from tropgen.poly import ParseError, parse_polynomial
from tropgen.special import (
    check_linear_theorem,
    check_minors,
    check_principal_theorem,
    linear_fan_census,
    linear_groebner_cone,
    linear_ideal,
    parse_matrix_file,
    pure_power_coefficients,
    right_block_nonzero,
)
from tropgen.weights import groebner_cone, weight_gb


def P(text, n):
    return parse_polynomial(text, n)


class TestPurePowers:
    def test_identity(self):
        assert pure_power_coefficients(P("x1", 2), ((1, 0), (0, 1))) == (QQ(1), QQ(0))

    def test_hand_expansion(self):
        g = ((QQ(1), QQ(1)), (QQ(1), QQ(-1)))
        # (x1+x2)(x1-x2) = x1^2 - x2^2
        assert pure_power_coefficients(P("x1*x2", 2), g) == (QQ(1), QQ(-1))

    def test_random_nonvanishing(self):
        rng = random.Random(4)
        f = P("x1^3 + 2*x1*x2*x3 - x2^2*x3", 3)
        for seed in range(5):
            g = random_transform(3, 50, seed + 100)
            assert all(p != 0 for p in pure_power_coefficients(f, g))

    def test_rejects_inhomogeneous(self):
        with pytest.raises(ValueError):
            pure_power_coefficients(P("x1 + x1^2", 2), ((1, 0), (0, 1)))

    def test_matches_full_expansion(self):
        f = P("x1^2*x2 + x2^2*x3", 3)
        g = random_transform(3, 5, 77)
        gf = apply_transform(f, g)
        coeffs = dict(gf.terms)
        expected = pure_power_coefficients(f, g)
        for k in range(3):
            e = tuple(3 if i == k else 0 for i in range(3))
            assert coeffs.get(e, QQ(0)) == expected[k]


class TestPrincipal:
    def test_monomial_needs_transform(self):
        # untransformed (x1x2) has empty variety; the theorem applies to
        # the generic transform, whose variety is the diagonal
        report = check_principal_theorem(P("x1*x2", 2), trials=2, seed=1,
                                         bound=10, radius=3)
        assert report.ok

    def test_multiplicities_do_not_matter(self):
        report = check_principal_theorem(P("x1^2*x2 + x2^2*x3", 3), trials=2,
                                         seed=1, bound=10, radius=2)
        assert report.ok

    def test_linear_form_trivial_case(self):
        report = check_principal_theorem(P("x1 + x2 + x3", 3), trials=2,
                                         seed=1, bound=10, radius=2)
        assert report.ok


class TestOneCampaign:
    """Each closed-form check runs one grid campaign, and every transform
    of that campaign passes the family's gate.  The bounds are small
    enough that plain draws at these seeds fail the gate."""

    @pytest.fixture
    def campaigns(self, monkeypatch):
        reports = []
        real = special.generic_membership_map

        def recording(*args, **kwargs):
            reports.append(real(*args, **kwargs))
            return reports[-1]

        monkeypatch.setattr(special, "generic_membership_map", recording)
        return reports

    @staticmethod
    def plain_draws(n, bound, seed):
        return [random_transform(n, bound, trial_seed(seed, t))
                for t in range(3)]

    def test_principal_pure_powers(self, campaigns):
        f = P("x1*x2", 2)

        def pure_powers(g):  # x1^2 and x2^2
            return all(pure_power_coefficients(f, g))

        assert not any(map(pure_powers, self.plain_draws(2, 2, 1)))
        report = check_principal_theorem(f, trials=3, seed=1, bound=2,
                                         radius=2)
        assert report.ok, report.mismatches
        [campaign] = campaigns
        assert len(campaign.transforms) == 3
        assert all(map(pure_powers, campaign.transforms))

    def test_linear_minors(self, campaigns):
        rows = ((1, 2, -1, 0), (0, 1, 1, 1))

        def minors(g):
            return check_minors(mat_mul(rows, g), 4)

        assert not all(map(minors, self.plain_draws(4, 2, 3)))
        report = check_linear_theorem(rows, trials=3, seed=3, bound=2,
                                      radius=1)
        assert report.ok, report.mismatches
        [campaign] = campaigns
        assert len(campaign.transforms) == 3
        assert all(map(minors, campaign.transforms))


class TestGaussReduce:
    """The reduced form [I_r | *] comes from linalg.rref: nonzero rows of
    the RREF and their pivot columns."""

    def test_one_step(self):
        assert rref(((1, 1, 1), (0, 1, 1))) == (((1, 0, 0), (0, 1, 1)), (0, 1))

    def test_identity_block_unchanged(self):
        rows = ((1, 0, 2), (0, 1, 3))
        assert rref(rows) == (rows, (0, 1))

    def test_column_pivoting_reported(self):
        # the leading 1 x 1 minor vanishes: the pivot is column 1, not 0
        assert rref(((0, 1, 1),)) == (((0, 1, 1),), (1,))

    def test_zero_rows_dropped(self):
        assert rref(((1, 0, 1), (2, 0, 2))) == (((1, 0, 1),), (0,))


class TestMinors:
    def test_identity_cases(self):
        assert check_minors(((1, 0), (0, 1)), 2)
        assert not check_minors(((1, 0),), 2)

    def test_dependent_rows_have_no_nonzero_maximal_minor(self):
        assert not check_minors(((1, 1, 1), (2, 2, 2)), 3)

    def test_random_generic(self):
        A = ((1, 1, 1, 1), (1, 2, 3, 4))
        hits = sum(check_minors(mat_mul(A, random_transform(4, 50, s)), 4)
                   for s in range(5))
        assert hits >= 4  # non-generic draws are rare

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_minors_imply_right_block(self, data):
        # by Cramer's rule each * entry of the reduced form [I_r | *] is,
        # up to sign, a ratio of two maximal minors
        n = data.draw(st.integers(2, 5))
        r = data.draw(st.integers(1, n - 1))
        row = st.tuples(*[st.integers(-9, 9)] * n)
        rows = data.draw(st.lists(row, min_size=r, max_size=r))
        assume(check_minors(rows, n))
        reduced, pivots = rref(rows)
        assert pivots == tuple(range(r))
        assert right_block_nonzero(reduced, n)

    def test_rank_invariance(self):
        A = ((1, 1, 1), (1, 2, 3))
        g = random_transform(3, 10, 3)
        assert rank(mat_mul(A, g)) == rank(A) == 2


class TestMatrixFile:
    def test_parse(self):
        rows = parse_matrix_file("# c\nmatrix: 2 3\n1 2 -1\n0 1/2 1\n")
        # scaled to primitive integer rows: same ideal, same RREF
        assert rows == ((1, 2, -1), (0, 1, 2))
        assert all(type(x) is int for row in rows for x in row)
        assert len(rows[0]) == 3 and rank(rows) == 2
        assert rref(rows) == rref(((QQ(1), QQ(2), QQ(-1)),
                                   (QQ(0), QQ(1, 2), QQ(1))))

    @pytest.mark.parametrize("bad", [
        "", "1 2 3\n", "matrix: 2 3\n1 2 3\n", "matrix: 1 2\n1 x\n",
        # rows must be 1 <= r <= n - 1 linearly independent ones
        "matrix: 0 3\n", "matrix: 2 3\n1 2 3\n0 0 0\n",
        "matrix: 2 3\n1 1 1\n2 2 2\n", "matrix: 3 3\n1 0 0\n0 1 0\n0 0 1\n"])
    def test_rejects(self, bad):
        with pytest.raises(ParseError):
            parse_matrix_file(bad)


class TestLinearCone:
    def generic_rows(self, r, n, seed=5):
        """Reduced form [I_r | *] of a random generic rank-r matrix: the
        closed form's precondition holds for its ideal."""
        rng = random.Random(seed)
        while True:
            rows = tuple(tuple(rng.randint(-5, 5) for _ in range(n))
                         for _ in range(r))
            reduced, pivots = rref(rows)
            if (pivots == tuple(range(r)) and right_block_nonzero(reduced, n)
                    and check_minors(reduced, n)):
                return reduced

    def closed_form(self, rows, w):
        """The closed-form cone at w, checked against the engine's."""
        n = len(w)
        cone = linear_groebner_cone(len(rows), n, w)
        engine = groebner_cone(weight_gb(linear_ideal(rows), w))
        assert same_cone(cone, engine), w
        return cone

    def test_strict_cut_full_dimensional(self):
        rows = self.generic_rows(1, 3)
        cone = self.closed_form(rows, (0, 1, 2))
        # rank 1: the single smallest coordinate stays smallest
        assert cone.equalities == ()
        assert sorted(cone.inequalities) == [(1, -1, 0), (1, 0, -1)]

    def test_all_equal_plateau(self):
        rows = self.generic_rows(1, 3)
        cone = self.closed_form(rows, (0, 0, 0))
        assert len(cone.equalities) == 2
        assert cone.inequalities == ()

    def test_plateau_with_below_block(self):
        rows = self.generic_rows(2, 4, seed=9)
        # sorted pattern: w1 < w2 = w3 < w4 crosses position r = 2
        cone = self.closed_form(rows, (0, 1, 1, 2))
        assert len(cone.equalities) == 1
        # dim = n - |E| + 1 = 3
        from tropgen.fans import cone_dim

        assert cone_dim(cone) == 3

    def test_cross_check_with_engine(self):
        rng = random.Random(21)
        for r, n, seed in [(1, 3, 1), (2, 3, 2), (1, 4, 3), (2, 4, 4),
                           (3, 4, 6)]:
            rows = self.generic_rows(r, n, seed)
            ideal = linear_ideal(rows)
            for _ in range(20):
                w = tuple(rng.randint(-3, 3) for _ in range(n))
                closed = linear_groebner_cone(r, n, w)
                engine = groebner_cone(weight_gb(ideal, w))
                assert same_cone(closed, engine), (r, n, w)


class TestCensus:
    def test_n4_r2(self):
        census = linear_fan_census(4, 2)
        assert census == {4: 6, 3: 12, 2: 8, 1: 1}

    def test_full_dim_count_is_binomial(self):
        from math import comb

        for n in range(3, 6):
            for r in range(1, n):
                assert linear_fan_census(n, r)[n] == comb(n, r)

    def test_lineality_line_always_present(self):
        assert linear_fan_census(5, 2)[1] == 1

    def test_census_matches_enumeration_for_small_case(self):
        # count distinct closed-form cones over a fine grid, n=3, r=1
        from itertools import product

        seen = {}
        for w in product(range(-2, 3), repeat=3):
            c = linear_groebner_cone(1, 3, w)
            seen[(c.equalities, c.inequalities)] = c
        census = linear_fan_census(3, 1)
        from tropgen.fans import cone_dim

        counts = {}
        for c in seen.values():
            d = cone_dim(c)
            counts[d] = counts.get(d, 0) + 1
        assert counts == census


class TestLinearTheorem:
    def test_r2_n3(self):
        report = check_linear_theorem(((1, -1, 0), (1, 0, -1)), trials=2,
                                      seed=1, bound=10, radius=2)
        assert report.ok, report.mismatches

    def test_r1_n4(self):
        report = check_linear_theorem(((1, 1, 1, 1),), trials=2, seed=1,
                                      bound=10, radius=1)
        assert report.ok, report.mismatches

    def test_genericity_checked_once_per_transform(self, monkeypatch):
        calls = []

        def counting(rows, n):
            calls.append(rows)
            return check_minors(rows, n)

        monkeypatch.setattr(special, "check_minors", counting)
        text = (Path(__file__).resolve().parent.parent / "corpus"
                / "linear_r2_n4.matrix").read_text()
        report = check_linear_theorem(parse_matrix_file(text), trials=3,
                                      seed=1, radius=1)
        assert report.ok, report.mismatches
        # one test per transform drawn, none per weight or skeleton cone
        assert len(calls) == 3
