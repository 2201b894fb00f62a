"""Polynomial arithmetic, parsing and term orders."""

from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tropgen.cli import _parse_weight
from tropgen.linalg import QQ
from tropgen.poly import (
    GRLEX,
    Ideal,
    MAX_VARS,
    ParseError,
    Polynomial,
    format_polynomial,
    parse_ideal_file,
    parse_polynomial,
    weight_order,
)
from tropgen.special import parse_matrix_file


def P(text, n):
    return parse_polynomial(text, n)


# the grammars' characters; no fuzzed text holds ':', so only FUZZ_HEADERS,
# whose sizes are small, make a header
FUZZ_ALPHABET = "x0123456789^*+-/,# \n"
FUZZ_HEADERS = ["vars: 0", "vars: 2", "vars: 3", "matrix: 0 2",
                "matrix: 1 3", "matrix: 2 3"]


class TestParsing:
    def test_simple_terms(self):
        p = P("x1^2 + 2*x1*x2 - 3/2*x2^2", 2)
        assert dict(p.terms) == {(2, 0): QQ(1), (1, 1): QQ(2), (0, 2): QQ(-3, 2)}

    def test_leading_minus(self):
        assert dict(P("-x1 + x2", 2).terms) == {(1, 0): QQ(-1), (0, 1): QQ(1)}

    def test_repeated_variable_factors(self):
        assert dict(P("x1*x1^2", 2).terms) == {(3, 0): QQ(1)}

    def test_coefficient_only_term(self):
        assert dict(P("3", 1).terms) == {(0,): QQ(3)}

    def test_cancellation_to_zero(self):
        assert P("x1 - x1", 2).is_zero

    def test_whitespace_insensitive(self):
        assert P(" x1 +  x2 ", 2) == P("x1+x2", 2)

    @pytest.mark.parametrize("bad", ["", "x1 +", "x3", "x1^", "1/0", "x0",
                                     "x1 * ", "+ x1", "x1 @ x2"])
    def test_rejects(self, bad):
        with pytest.raises(ParseError):
            P(bad, 2)

    @pytest.mark.parametrize("text, position", [
        ("x1x2", 2), ("2 3", 2), ("0x1", 1), ("x1^2 x2", 5),
        ("x1 + 3/2 x2", 9), ("x1 ^ 2 3", 7)])
    def test_rejects_juxtaposed_terms(self, text, position):
        # summing juxtaposed terms would read x1x2 as x1 + x2, 2 3 as 5 and
        # 0x1 as x1: a different ideal from the one written
        with pytest.raises(ParseError, match="expected '\\+' or '-'") as err:
            P(text, 2)
        assert err.value.position == position

    def test_parse_error_position(self):
        with pytest.raises(ParseError) as err:
            P("x1 + @", 2)
        assert err.value.position == 5

    # the parsers read text from outside the program: whatever it holds,
    # they return or raise ParseError, which the CLI turns into exit 2
    @settings(max_examples=300, deadline=None)
    @given(text=st.one_of(
        st.text().filter(lambda t: ":" not in t),
        st.text(alphabet=FUZZ_ALPHABET),
        st.builds("{}\n{}".format, st.sampled_from(FUZZ_HEADERS),
                  st.text(alphabet=FUZZ_ALPHABET))),
        n=st.integers(1, 4))
    def test_only_parse_errors_escape(self, text, n):
        for parse in (lambda: parse_polynomial(text, n),
                      lambda: parse_ideal_file(text),
                      lambda: parse_matrix_file(text),
                      lambda: _parse_weight(text, n)):
            try:
                parse()
            except ParseError:
                pass

    def test_roundtrip_examples(self):
        for text in ["x1^2 + 2*x1*x2 - 3/2*x2^2", "x1 - x2", "0",
                     "x1*x2*x3 - x3^3"]:
            p = P(text, 3)
            assert parse_polynomial(format_polynomial(p), 3) == p


@st.composite
def polynomials(draw, n=2, max_degree=3):
    terms = draw(st.dictionaries(
        st.tuples(*[st.integers(0, max_degree)] * n),
        st.builds(Fraction, st.integers(-9, 9),
                  st.integers(1, 9)),
        max_size=5))
    return Polynomial.from_dict(
        n, {e: QQ(c.numerator, c.denominator) for e, c in terms.items() if c})


class TestArithmetic:
    @given(polynomials(), polynomials())
    def test_addition_commutes(self, p, q):
        assert p + q == q + p

    @given(polynomials(), polynomials())
    def test_multiplication_commutes(self, p, q):
        assert p * q == q * p

    @given(polynomials(), polynomials(), polynomials())
    @settings(max_examples=50)
    def test_distributive(self, p, q, r):
        assert p * (q + r) == p * q + p * r

    @given(polynomials())
    def test_subtraction_cancels(self, p):
        assert (p - p).is_zero

    @given(polynomials())
    def test_roundtrip_print_parse(self, p):
        assert parse_polynomial(format_polynomial(p), 2) == p

    def test_power(self):
        assert P("x1 + x2", 2) ** 2 == P("x1^2 + 2*x1*x2 + x2^2", 2)


LT, EQ, GT = -1, 0, 1


def compare_monomials(a, b, order):
    """GT iff a is preferred over b (marked first), EQ iff a == b."""
    ka, kb = order.key(a), order.key(b)
    return GT if ka > kb else LT if ka < kb else EQ


class TestTermOrders:
    def exhaustive_monomials(self, n, d):
        return [e for e in product(range(d + 1), repeat=n) if sum(e) <= d]

    @pytest.mark.parametrize("order", [
        GRLEX, weight_order((0, 1, 2)), weight_order((-1, 2, 0))])
    def test_totality_and_antisymmetry(self, order):
        monos = self.exhaustive_monomials(3, 3)
        for a in monos:
            for b in monos:
                c = compare_monomials(a, b, order)
                assert c in (LT, EQ, GT)
                assert (c == EQ) == (a == b)
                assert compare_monomials(b, a, order) == -c

    @pytest.mark.parametrize("order", [
        GRLEX, weight_order((0, 1, 2)), weight_order((3, 1, 2))])
    def test_multiplicative(self, order):
        monos = self.exhaustive_monomials(3, 2)
        shift = (1, 0, 2)
        for a in monos:
            for b in monos:
                shifted = (tuple(x + s for x, s in zip(a, shift)),
                           tuple(x + s for x, s in zip(b, shift)))
                assert (compare_monomials(a, b, order)
                        == compare_monomials(*shifted, order))

    def test_weight_order_prefers_minimal_weight_on_same_degree(self):
        order = weight_order((0, 1))
        # same degree: lighter monomial is marked (preferred)
        assert compare_monomials((2, 0), (0, 2), order) == GT

    def test_weight_shift_invariance_on_homogeneous_degrees(self):
        # adding c*(1,..,1) to the weight does not change comparisons of
        # equal-degree monomials
        base = weight_order((0, 2, 1))
        shifted = weight_order((3, 5, 4))
        monos = [e for e in self.exhaustive_monomials(3, 3) if sum(e) == 3]
        for a in monos:
            for b in monos:
                assert (compare_monomials(a, b, base)
                        == compare_monomials(a, b, shifted))

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_refined_order_is_a_perturbed_weight(self, data):
        # every u.(a - b) != 0 has size at least 1, and |v.(a - b)| is at
        # most 2*d*max|v|, so a larger K lets u decide wherever it can
        n = data.draw(st.integers(1, 4))
        d = data.draw(st.integers(0, 4))
        vec = st.tuples(*[st.integers(-5, 5)] * n)
        u, v = data.draw(vec), data.draw(vec)
        # a monomial of degree d, drawn as the list of its d variables
        factors = st.lists(st.integers(0, n - 1), min_size=d, max_size=d)
        a, b = [tuple(map(data.draw(factors).count, range(n)))
                for _ in range(2)]
        K = 2 * d * max(map(abs, v)) + data.draw(st.integers(1, 3))
        perturbed = tuple(K * ui + vi for ui, vi in zip(u, v))
        assert (compare_monomials(a, b, weight_order(u, v))
                == compare_monomials(a, b, weight_order(perturbed)))

    def test_one_is_least(self):
        for order in (GRLEX, weight_order((0, 1))):
            for e in self.exhaustive_monomials(2, 3):
                if e != (0, 0):
                    assert compare_monomials(e, (0, 0), order) == GT


class TestIdeal:
    def test_requires_homogeneous(self):
        with pytest.raises(ValueError):
            Ideal.of(2, (P("x1 + x1^2", 2),))

    def test_rejects_zero_generator(self):
        with pytest.raises(ValueError):
            Ideal.of(2, (P("x1 - x1", 2),))

    def test_ideal_file(self):
        text = "# comment\nvars: 2\nx1 + x2\nx1*x2\n"
        ideal = parse_ideal_file(text)
        assert ideal.n == 2
        assert len(ideal.generators) == 2

    def test_ideal_file_requires_header(self):
        with pytest.raises(ParseError):
            parse_ideal_file("x1 + x2\n")

    @pytest.mark.parametrize("n", [0, MAX_VARS + 1, 1_000_000])
    def test_variable_count_is_capped(self, n):
        # the count is checked before any term allocates n exponents
        with pytest.raises(ParseError, match=rf"line 1: need 1\.\.64 "
                                             rf"variables, not {n} "):
            parse_ideal_file(f"vars: {n}\nx1 + x2\n")

    def test_variable_count_at_the_cap(self):
        ideal = parse_ideal_file(f"vars: {MAX_VARS}\nx1 + x{MAX_VARS}\n")
        assert ideal.n == MAX_VARS == 64

    def test_homogeneous_degree(self):
        assert P("x1*x2 + x2^2", 2).homogeneous_degree() == 2
        assert P("x1 + x2^2", 2).homogeneous_degree() is None
