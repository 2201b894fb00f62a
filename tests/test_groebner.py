"""Groebner engine: normal forms, reduced bases, dimension, containment."""

import random
import time
from itertools import product
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tropgen import groebner
from tropgen.generic import random_transform, transform_ideal, trial_seed
from tropgen.linalg import QQ, ZERO, ONE
from tropgen.groebner import (
    MarkedGB,
    buchberger,
    contains_monomial,
    krull_dimension,
    monomial_ideal_dimension,
    normal_form,
)
from tropgen.poly import (
    GREVLEX,
    Ideal,
    ImproperIdealError,
    Polynomial,
    monomial_div,
    monomial_divides,
    monomial_lcm,
    monomial_mul,
    parse_ideal_file,
    parse_polynomial,
    weight_order,
)
from tropgen.weights import in_tropical_variety, initial_forms, weight_gb

CORPUS = Path(__file__).resolve().parent.parent / "corpus"


def P(text, n):
    return parse_polynomial(text, n)


def I(n, *texts):
    return Ideal.of(n, tuple(P(t, n) for t in texts))


def contains_one(generators, order=GREVLEX):
    """Reference: True iff the (possibly inhomogeneous) ideal is the whole
    ring."""
    gb = buchberger(list(generators), order)
    return any(h == (0,) * gb.n for h in gb.heads)


def rabinowitsch_contains_monomial(generators, n):
    """Reference: the ideal contains a monomial iff, together with
    t*x1*...*xn - 1 in one extra variable t, it contains 1."""
    lifted = [Polynomial(n + 1, tuple((e + (0,), c) for e, c in g.terms))
              for g in generators]
    lifted.append(Polynomial.from_dict(
        n + 1, {(1,) * (n + 1): QQ(1), (0,) * (n + 1): QQ(-1)}))
    return contains_one(lifted)


def head_coefficient_normal_form(p, basis, heads, order):
    """Reference: full reduction modulo a basis marked on heads, dividing
    by each head coefficient."""
    remainder = {}
    work = dict(p.terms)
    while work:
        exp = min(work, key=order.key)
        coeff = work.pop(exp)
        if coeff == 0:
            continue
        for g, h in zip(basis, heads):
            if monomial_divides(h, exp):
                shift = monomial_div(exp, h)
                factor = coeff / dict(g.terms)[h]
                for e, c in g.terms:
                    if e != h:
                        key = monomial_mul(e, shift)
                        work[key] = work.get(key, ZERO) - factor * c
                        if work[key] == 0:
                            del work[key]
                break
        else:
            remainder[exp] = remainder.get(exp, ZERO) + coeff
    return Polynomial.from_dict(p.n, remainder)


def product_s_polynomial(f, g, hf, hg):
    """The S-polynomial as a difference of products, each with the
    monomial multiplier scaled by its head coefficient."""
    l = monomial_lcm(hf, hg)
    mf = Polynomial(f.n, ((monomial_div(l, hf), ONE / dict(f.terms)[hf]),))
    mg = Polynomial(g.n, ((monomial_div(l, hg), ONE / dict(g.terms)[hg]),))
    return mf * f - mg * g


def monic_on_heads(gb):
    """Each element's head is its term of least key under gb.order, with
    coefficient 1."""
    return all(g.head_monomial(gb.order) == h and dict(g.terms)[h] == 1
               for g, h in zip(gb.elements, gb.heads))


def mask_dimension(n, generators):
    """Reference: the largest S, over all 2^n subsets, such that every
    generator involves a variable outside S."""
    var_sets = [frozenset(i for i, k in enumerate(e) if k > 0)
                for e in generators]
    best = 0
    for mask in range(1 << n):
        s = {i for i in range(n) if mask >> i & 1}
        if len(s) > best and all(vs - s for vs in var_sets):
            best = len(s)
    return best


@st.composite
def monomial_ideals(draw):
    n = draw(st.integers(1, 8))
    exps = st.tuples(*[st.integers(0, 2)] * n).filter(any)
    return n, draw(st.lists(exps, min_size=1, max_size=8))


RATIONALS = st.builds(QQ, st.integers(-5, 5), st.integers(1, 4))
NONZERO_RATIONALS = RATIONALS.filter(bool)


def forms(n, d, coefficients):
    """Strategy: the form of degree d in x1..xn whose coefficient on each
    monomial is drawn from the coefficients strategy."""
    monos = [e for e in product(range(d + 1), repeat=n) if sum(e) == d]
    return st.lists(coefficients, min_size=len(monos),
                    max_size=len(monos)).map(lambda cs: Polynomial.from_dict(
                        n, {e: QQ(c) for e, c in zip(monos, cs)}))


@st.composite
def homogeneous_ideals(draw, coefficients=st.integers(-3, 3)):
    """Up to 3 nonzero homogeneous generators in n <= 3 variables, of
    degree <= 3, with coefficients drawn from coefficients (by default
    integers in [-3, 3])."""
    n = draw(st.integers(1, 3))
    gens = []
    for _ in range(draw(st.integers(1, 3))):
        d = draw(st.integers(1, 3))
        gens.append(draw(forms(n, d, coefficients)
                         .filter(lambda f: not f.is_zero)))
    return n, gens


@st.composite
def graded_ideals(draw):
    """Generators x_i^a*h, a <= 2, h a nonzero form of degree <= 2 free of
    x_i, for one drawn i, in n = 2 or 3 variables, so that their ideal is
    graded by x_i-degree; then up to 2 further nonzero forms of degree 1
    or 2, after which only some generators may be x_i-homogeneous."""
    n = draw(st.integers(2, 3))
    i = draw(st.integers(0, n - 1))
    gens = []
    for _ in range(draw(st.integers(1, 3))):
        a = draw(st.integers(0, 2))
        h = draw(forms(n - 1, draw(st.integers(0, 2)), st.integers(-3, 3))
                 .filter(lambda f: not f.is_zero))
        gens.append(Polynomial.from_dict(
            n, {e[:i] + (a,) + e[i:]: c for e, c in h.terms}))
    for _ in range(draw(st.integers(0, 2))):
        gens.append(draw(forms(n, draw(st.integers(1, 2)), st.integers(-3, 3))
                         .filter(lambda f: not f.is_zero)))
    return n, gens


@st.composite
def hidden_monomial_ideals(draw):
    """Linear forms l_1, .., l_r (r <= 2) in n = 3 or 4 variables, with
    coefficients in [-3, 3] but not 0, and c*m + q_1*l_1 + .. + q_r*l_r for
    a monomial m of degree 2 or 3, c in [-3, 3] but not 0, and forms q_j
    with coefficients in [-3, 3].  The ideal contains m, but often no
    reduced basis has it as an element, so only saturation shows it."""
    nonzero = st.sampled_from([-3, -2, -1, 1, 2, 3])
    n = draw(st.integers(3, 4))
    lins = draw(st.lists(forms(n, 1, nonzero), min_size=1, max_size=2))
    d = draw(st.integers(2, 3))
    m = draw(st.sampled_from([e for e in product(range(d + 1), repeat=n)
                              if sum(e) == d]))
    g = Polynomial(n, ((m, QQ(draw(nonzero))),))
    for lin in lins:
        g = g + draw(forms(n, d - 1, st.integers(-3, 3))) * lin
    return n, (lins + [g] if not g.is_zero else lins)


class TestNormalForm:
    def test_single_relation(self):
        gb = buchberger([P("x1 - x2", 2)], GREVLEX)
        nf = normal_form(P("x1^2", 2), gb)
        assert nf == P("x2^2", 2)

    def test_full_tail_reduction(self):
        gb = buchberger([P("x1^2", 2)], GREVLEX)
        nf = normal_form(P("x1^3 + x1*x2 + x2", 2), gb)
        assert nf == P("x1*x2 + x2", 2)

    def test_zero_for_members(self):
        gb = buchberger([P("x1 + x2", 2), P("x1*x2", 2)], GREVLEX)
        member = P("x1 + x2", 2) * P("x1^2 - x2", 2) + P("x1*x2", 2)
        assert normal_form(member, gb).is_zero


class TestMarkedReduction:
    """The fraction-free normal_form agrees with the reference that
    divides by head coefficients, on bases whose heads carry p/q,
    negative and non-unit coefficients."""

    @settings(max_examples=150, deadline=None)
    @given(case=homogeneous_ideals(), data=st.data())
    def test_matches_head_coefficient_references(self, case, data):
        n, gens = case
        vec = st.tuples(*[st.integers(-3, 3)] * n)
        order = weight_order(*data.draw(st.lists(vec, min_size=1,
                                                 max_size=2)))
        gb = buchberger(gens, order)
        assert monic_on_heads(gb)
        heads = gb.heads
        scales = data.draw(st.lists(NONZERO_RATIONALS, min_size=len(heads),
                                    max_size=len(heads)))
        els = [Polynomial(n, tuple((e, k * c) for e, c in g.terms))
               for g, k in zip(gb.elements, scales)]
        polys = [data.draw(forms(n, data.draw(st.integers(1, 4)),
                                 RATIONALS))]
        q = data.draw(forms(n, data.draw(st.integers(0, 2)), RATIONALS))
        polys.append(polys[0] + q * gens[0])
        polys.extend(product_s_polynomial(els[i], els[j], heads[i], heads[j])
                     for i in range(len(els)) for j in range(i))
        rescaled = MarkedGB(n, order, tuple(els), heads)
        for p in polys:
            assert normal_form(p, rescaled) == \
                head_coefficient_normal_form(p, els, heads, order)


class TestBuchberger:
    def test_classic_pair(self):
        gb = buchberger(I(3, "x1*x3 - x2^2", "x1^2 - x2*x3").generators,
                        GREVLEX)
        # under graded reverse lex the generators are already a basis
        assert len(gb.elements) == 2
        assert sorted(gb.heads) == [(0, 2, 0), (2, 0, 0)]

    def test_reduced_gb_is_deterministic_and_idempotent(self):
        gens = [P("x1*x3 - x2^2", 3), P("x1^2 - x2*x3", 3)]
        gb1 = buchberger(gens, GREVLEX)
        gb2 = buchberger(list(gb1.elements), GREVLEX)
        assert gb1.elements == gb2.elements
        assert gb1.heads == gb2.heads

    def test_membership_soundness(self):
        gb = buchberger(I(3, "x1*x3 - x2^2", "x1^2 - x2*x3").generators,
                        GREVLEX)
        f = P("x1*x3 - x2^2", 3) * P("x1 + 7*x3", 3)
        assert normal_form(f, gb).is_zero
        assert not normal_form(P("x1^2", 3), gb).is_zero

    def test_monomial_ideal_gb_is_generators(self):
        gb = buchberger(I(3, "x1*x2", "x1*x3", "x2*x3").generators, GREVLEX)
        assert sorted(gb.heads) == [(0, 1, 1), (1, 0, 1), (1, 1, 0)]

    def test_integer_input_needs_no_fraction_arithmetic(self, monkeypatch):
        """On integer coefficients the engine stays in integers: no
        Fraction +, - or * from the generators to the monic basis."""
        cases = [I(3, "x1*x3 - x2^2", "x1^2 - x2*x3"),
                 I(3, "2*x1 - 3*x2 + 5*x3", "6*x1*x2 - 4*x3^2"),
                 I(4, "-3*x1^2 + 2*x2*x3", "5*x2^2 - 7*x3*x4")]
        calls = []
        for name in ("__add__", "__radd__", "__sub__", "__rsub__",
                     "__mul__", "__rmul__"):
            def counted(self, other, _op=getattr(QQ, name), _name=name):
                calls.append(_name)
                return _op(self, other)
            monkeypatch.setattr(QQ, name, counted)
        assert QQ(1, 2) + 1 == QQ(3, 2) and calls == ["__add__"]
        calls.clear()
        bases = [buchberger(ideal.generators,
                            weight_order((1, 2, 0, 3)[:ideal.n]))
                 for ideal in cases]
        assert calls == []
        monkeypatch.undo()
        # the monic bases do have proper fractions, made at the end
        assert all(monic_on_heads(gb) for gb in bases)
        assert any(c.denominator != 1 for gb in bases for g in gb.elements
                   for _, c in g.terms)

    def test_weight_order_marks_minimal_weight_terms(self):
        gb = buchberger(I(2, "x1 + x2").generators, weight_order((0, 1)))
        assert gb.heads == ((1, 0),)
        gb = buchberger(I(2, "x1 + x2").generators, weight_order((1, 0)))
        assert gb.heads == ((0, 1),)


class TestContainment:
    def test_contains_one(self):
        assert contains_one([P("1 + x1 - x1", 2)])
        assert not contains_one([P("x1", 2), P("x2", 2)])
        assert contains_one([P("x1 - 1", 1), P("x1", 1)])

    def test_contains_monomial_basics(self):
        assert contains_monomial([P("x1*x2", 2)])
        assert contains_monomial([P("x1", 2)])
        assert not contains_monomial([P("x1 + x2", 2)])
        assert not contains_monomial([P("x1 + x2 + x3", 3)])

    def test_contains_monomial_needs_saturation(self):
        # neither generator is a monomial, but x2^2*x3 = x2*(x2*x3) is
        gens = [P("x1 + x2", 3), P("x2*x3 + x1*x3", 3)]
        # x2*x3 + x1*x3 = x3*(x1 + x2), so the ideal is (x1 + x2): no monomial
        assert not contains_monomial(gens)
        gens = [P("x1 + x2", 2), P("x1 - x2", 2)]
        # together they give x1 and x2
        assert contains_monomial(gens)

    # x1*x2*(x2 + x3) and x1*x2*(x1 - x2) are x1^2*x2 and x1*x2*x3 modulo
    # x2 + x3 - x1, but no reduced basis under the orders the saturation
    # uses has a single-term element: a monomial shows only in a quotient
    @example((3, [P("-x1 + x2 + x3", 3), P("x1*x2^2 + x1*x2*x3", 3)]))
    @example((3, [P("-x1 + x2 + x3", 3), P("x1^2*x2 - x1*x2^2", 3)]))
    @settings(max_examples=200, deadline=None)
    @given(st.one_of(homogeneous_ideals(), hidden_monomial_ideals()))
    def test_contains_monomial_matches_rabinowitsch(self, case):
        n, gens = case
        assert contains_monomial(gens) == rabinowitsch_contains_monomial(
            gens, n)


def count_buchberger(monkeypatch):
    """The list that gets one entry per buchberger run of contains_monomial."""
    runs = []

    def counting(*args, _real=buchberger):
        runs.append(args)
        return _real(*args)

    monkeypatch.setattr(groebner, "buchberger", counting)
    return runs


class TestSaturationShortcuts:
    """contains_monomial answers a principal ideal at once and divides an
    x_i-graded round with no Buchberger run."""

    # x3*(x1 + x2) and x3^2*(x1 - x2) are x3-graded and saturate to
    # (x1 + x2, x1 - x2), which holds x1.  x1 + x2 is x3-homogeneous but
    # x1 + x3 and x2 + x3 are not: a round that skipped Buchberger there
    # (or in the x2 or x1 round, likewise) would keep all three and miss
    # the x1 of their ideal
    @example((3, [P("x1*x3 + x2*x3", 3), P("x1*x3^2 - x2*x3^2", 3)]))
    @example((3, [P("x1 + x3", 3), P("x1 + x2", 3), P("x2 + x3", 3)]))
    @example((2, [P("x1^2 + x2^2", 2)]))
    @settings(max_examples=200, deadline=None)
    @given(st.one_of(graded_ideals(), homogeneous_ideals(),
                     homogeneous_ideals().map(lambda c: (c[0], c[1][:1]))))
    def test_shortcuts_match_rabinowitsch(self, case):
        n, gens = case
        assert contains_monomial(gens) == rabinowitsch_contains_monomial(
            gens, n)

    @pytest.mark.parametrize("text, monomial", [
        ("x1^2 + x2*x3", False), ("x1*x2^2*x3", True), ("x1 - x1 + 2", True)])
    def test_principal_ideal_runs_no_buchberger(self, monkeypatch, text,
                                                 monomial):
        runs = count_buchberger(monkeypatch)
        assert contains_monomial([P(text, 3)]) is monomial
        assert runs == []

    @pytest.mark.parametrize("texts, monomial, rounds", [
        # x3-graded: divided to x1 + x2 and x1 - x2, then the x2 round's
        # basis holds x1
        (("x1*x3 + x2*x3", "x1*x3^2 - x2*x3^2"), True, [(0, 1, 0)]),
        (("x1*x3 + x2*x3", "x1*x3^2 + 2*x2*x3^2", "x1^2 + x2^2"), True,
         [(0, 1, 0)]),
        # x1*x2 + x3^2 is not x3-homogeneous: every round runs Buchberger
        (("x1*x3 + x2*x3", "x1*x2 + x3^2"), False,
         [(0, 0, 1), (0, 1, 0), (1, 0, 0)]),
    ])
    def test_graded_round_runs_no_buchberger(self, monkeypatch, texts,
                                             monomial, rounds):
        runs = count_buchberger(monkeypatch)
        assert contains_monomial([P(t, 3) for t in texts]) is monomial
        assert [order for _, order in runs] == [weight_order(w)
                                                for w in rounds]

    @pytest.mark.parametrize("name", ["ci_n4_dim2", "two_planes_nonprime",
                                      "linear_r2_n4", "principal_n4_generic"])
    def test_ray_key_skips_the_first_round(self, monkeypatch, name):
        # in_e4(g(I)) is x4-graded: of the n rounds that each ran Buchberger,
        # the first runs none
        ideal = parse_ideal_file((CORPUS / name).read_text())
        J = transform_ideal(ideal, random_transform(4, 50, trial_seed(1, 0)))
        key = (0, 0, 0, 1)
        forms = initial_forms(weight_gb(J, key), key)
        runs = count_buchberger(monkeypatch)
        assert not contains_monomial(forms)
        assert len(runs) < J.n
        assert in_tropical_variety(J, key)


class TestDimension:
    def test_monomial_dimension(self):
        assert monomial_ideal_dimension(3, [(1, 1, 0), (1, 0, 1), (0, 1, 1)]) == 1
        assert monomial_ideal_dimension(2, [(1, 0), (0, 1)]) == 0
        assert monomial_ideal_dimension(2, [(1, 1)]) == 1
        # not minimal: (x1) is generated by x1 alone
        assert monomial_ideal_dimension(2, [(2, 0), (1, 0), (1, 1)]) == 1

    @settings(max_examples=300, deadline=None)
    @given(monomial_ideals())
    def test_monomial_dimension_matches_mask_loop(self, case):
        n, gens = case
        assert monomial_ideal_dimension(n, gens) == mask_dimension(n, gens)

    def test_corpus_dimensions(self):
        assert krull_dimension(I(2, "x1", "x2")) == 0
        assert krull_dimension(I(2, "x1*x2")) == 1
        assert krull_dimension(I(3, "x1 + x2 + x3")) == 2
        assert krull_dimension(I(3, "x1 - x2", "x1 - x3")) == 1
        assert krull_dimension(I(4, "x1*x3", "x1*x4", "x2*x3", "x2*x4")) == 2
        assert krull_dimension(I(4, "x1^2 + x2*x3", "x2^2 + x3*x4")) == 2

    def test_improper_ideal(self):
        with pytest.raises(ImproperIdealError):
            krull_dimension(Ideal.of(2, (Polynomial.constant(2, 1),)))

    def test_dimension_is_order_independent(self):
        rng = random.Random(7)
        ideal = I(3, "x1*x3 - x2^2", "x1^2 - x2*x3")
        base = krull_dimension(ideal)
        for _ in range(5):
            w = tuple(rng.randint(-4, 4) for _ in range(3))
            gb = buchberger(ideal.generators, weight_order(w))
            assert monomial_ideal_dimension(3, gb.heads) == base


class TestSympyOracle:
    """buchberger agrees with sympy.groebner, an independent engine, on
    the reduced basis: elements and heads."""

    def test_sympy_honours_weight_orders(self, sympy_basis):
        order = weight_order((2, 1, 0))
        gens = [P("x1*x2 - x3^2", 3), P("x1^2 - x2*x3", 3)]
        theirs = sympy_basis(3, gens, order)
        # under lex the heads would be x1*x2 and x1^2; x1*x2^2 ties
        # x1^2*x3 in weight and heads by reverse lex, having fewer x3
        assert {g.head_monomial(order) for g in theirs} == {
            (0, 0, 2), (0, 1, 1), (1, 2, 0)}
        assert theirs == set(buchberger(gens, order).elements)

    @pytest.mark.parametrize("kind", ["grevlex", "weight"])
    @settings(max_examples=100, deadline=None)
    @given(case=homogeneous_ideals(), data=st.data())
    def test_reduced_basis_matches_sympy(self, sympy_basis, kind, case,
                                         data):
        n, gens = case
        if kind == "weight":
            vec = st.tuples(*[st.integers(-3, 3)] * n)
            order = weight_order(*data.draw(st.lists(vec, min_size=1,
                                                     max_size=2)))
        else:
            order = GREVLEX
        gb = buchberger(gens, order)
        assert set(gb.elements) == sympy_basis(n, gens, order)
        assert gb.heads == tuple(g.head_monomial(order) for g in gb.elements)
        assert monic_on_heads(gb)

    @settings(max_examples=100, deadline=None)
    @given(case=homogeneous_ideals(RATIONALS), data=st.data())
    def test_rational_generators_match_sympy(self, sympy_basis, case, data):
        # generators with p/q coefficients, whose denominators the engine
        # clears on entry
        n, gens = case
        vec = st.tuples(*[st.integers(-3, 3)] * n)
        order = weight_order(*data.draw(st.lists(vec, max_size=2)))
        gb = buchberger(gens, order)
        assert set(gb.elements) == sympy_basis(n, gens, order)
        assert monic_on_heads(gb)


class TestSevenVariables:
    """n = 7 in generic coordinates: g(x1x2, x3x4, x5x6) for the first
    trial transform of a seed-1 campaign.  Reverse-lex ties keep the
    basis at W in low degree (Bayer and Stillman): 6 elements of degree
    up to 4, where lex ties give 12 of degree up to 8 in seconds."""

    W = (0, 0, 0, 0, 1, 2, 3)

    @pytest.fixture(scope="class")
    def ideal(self):
        g = random_transform(7, 50, trial_seed(1, 0))
        return transform_ideal(I(7, "x1*x2", "x3*x4", "x5*x6"), g)

    def test_dimension_basis_and_membership_within_budget(self, ideal):
        t0 = time.perf_counter()
        dimension = krull_dimension(ideal)
        gb = weight_gb(ideal, self.W)
        member = in_tropical_variety(ideal, self.W)
        elapsed = time.perf_counter() - t0
        assert dimension == 4
        assert len(gb.elements) == 6
        assert max(map(sum, gb.heads)) <= 4
        assert member
        assert elapsed < 10.0, f"exceeded 10.0s budget: {elapsed:.1f}s"

    def test_basis_matches_sympy(self, sympy_basis, ideal):
        order = weight_order(self.W)
        gb = weight_gb(ideal, self.W)
        assert set(gb.elements) == sympy_basis(7, ideal.generators, order)
