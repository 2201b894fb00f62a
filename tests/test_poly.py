"""Polynomial arithmetic, parsing and term orders."""

import re
from fractions import Fraction
from itertools import product
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tropgen.cli import _parse_weight
from tropgen.linalg import QQ, primitive, rank
from tropgen.poly import (
    GRLEX,
    Ideal,
    MAX_VARS,
    ParseError,
    Polynomial,
    format_polynomial,
    integer_literal,
    parse_ideal_file,
    parse_polynomial,
    weight_order,
)
from tropgen.special import parse_matrix_file

CORPUS = Path(__file__).resolve().parent.parent / "corpus"


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


# -- the parsers before every integer of outside text went through
# integer_literal: kept as the reference that the readers now match on
# every input the new rule does not reject

PARENT_TOKEN = re.compile(r"\s*(\d+|x\d+|\^|\*|\+|-|/)")


def parent_tokenize(text):
    tokens = []
    pos = 0
    while pos < len(text):
        m = PARENT_TOKEN.match(text, pos)
        if m is None:
            rest = text[pos:]
            if rest.strip() == "":
                break
            bad = pos + len(rest) - len(rest.lstrip())
            raise ParseError(f"unexpected character {text[bad]!r}", bad)
        tokens.append((m.group(1), m.start(1)))
        pos = m.end()
    return tokens


def parent_integer(digits, position):
    try:
        return int(digits)
    except ValueError:
        raise ParseError(f"integer literal of {len(digits)} digits is too "
                         f"long", position) from None


def parent_parse_polynomial(text, n):
    tokens = parent_tokenize(text)
    if not tokens:
        raise ParseError("empty polynomial", 0)
    coeffs = {}
    i = 0
    sign = QQ(1)
    expect_term = True
    while i < len(tokens):
        tok, pos = tokens[i]
        if tok == "+" or tok == "-":
            if expect_term and tok == "+":
                raise ParseError("unexpected '+'", pos)
            sign = (sign * (-1 if tok == "-" else 1) if expect_term
                    else QQ(-1 if tok == "-" else 1))
            expect_term = True
            i += 1
            continue
        coeff = sign
        sign = QQ(1)
        exp = [0] * n
        saw_factor = False
        while i < len(tokens):
            tok, pos = tokens[i]
            if tok.isdigit():
                value = QQ(parent_integer(tok, pos))
                i += 1
                if i < len(tokens) and tokens[i][0] == "/":
                    i += 1
                    if i >= len(tokens) or not tokens[i][0].isdigit():
                        raise ParseError("expected denominator", pos)
                    d = parent_integer(*tokens[i])
                    if d == 0:
                        raise ParseError("zero denominator", tokens[i][1])
                    value = value / d
                    i += 1
                coeff *= value
            elif tok.startswith("x"):
                idx = parent_integer(tok[1:], pos + 1)
                if not 1 <= idx <= n:
                    raise ParseError(f"variable index {idx} out of range "
                                     f"1..{n}", pos)
                power = 1
                i += 1
                if i < len(tokens) and tokens[i][0] == "^":
                    i += 1
                    if i >= len(tokens) or not tokens[i][0].isdigit():
                        raise ParseError("expected exponent", pos)
                    power = parent_integer(*tokens[i])
                    i += 1
                exp[idx - 1] += power
            else:
                raise ParseError(f"unexpected token {tok!r}", pos)
            saw_factor = True
            if i < len(tokens) and tokens[i][0] == "*":
                i += 1
                if i >= len(tokens):
                    raise ParseError("dangling '*'", tokens[i - 1][1])
                continue
            break
        if not saw_factor:
            raise ParseError("expected a term", tokens[i][1]
                             if i < len(tokens) else len(text))
        e = tuple(exp)
        coeffs[e] = coeffs.get(e, QQ(0)) + coeff
        expect_term = False
        if i < len(tokens) and tokens[i][0] not in ("+", "-"):
            raise ParseError("expected '+' or '-'", tokens[i][1])
    if expect_term:
        raise ParseError("dangling sign", len(text))
    return Polynomial.from_dict(n, coeffs)


def parent_parse_ideal_file(text):
    n = None
    gens = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if n is None:
            m = re.fullmatch(r"vars:\s*(\d+)", line)
            if m is None:
                raise ParseError(f"line {lineno}: expected 'vars: n' header",
                                 0)
            n = parent_integer(m.group(1), m.start(1))
            if not 1 <= n <= MAX_VARS:
                raise ParseError(f"line {lineno}: need 1..{MAX_VARS} "
                                 f"variables, not {n}", 0)
            continue
        p = parent_parse_polynomial(line, n)
        if p.is_zero:
            raise ParseError(f"line {lineno}: generator is the zero "
                             f"polynomial", 0)
        if not p.is_homogeneous:
            raise ParseError(f"line {lineno}: generator is not homogeneous",
                             0)
        gens.append(p)
    if n is None:
        raise ParseError("missing 'vars: n' header", 0)
    if not gens:
        raise ParseError("no generators", 0)
    return Ideal.of(n, gens)


def parent_parse_matrix_file(text):
    header = None
    rows = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if header is None:
            m = re.fullmatch(r"matrix:\s*(\d+)\s+(\d+)", line)
            if m is None:
                raise ParseError(f"line {lineno}: expected 'matrix: r n' "
                                 f"header", 0)
            try:
                header = (int(m.group(1)), int(m.group(2)))
            except ValueError as exc:
                raise ParseError(f"line {lineno}: bad header: {exc}",
                                 0) from None
            continue
        entries = line.split()
        if len(entries) != header[1]:
            raise ParseError(f"line {lineno}: expected {header[1]} entries",
                             0)
        row = []
        for ent in entries:
            try:
                if "/" in ent:
                    p, q = ent.split("/")
                    row.append(QQ(int(p), int(q)))
                else:
                    row.append(QQ(int(ent)))
            except (ValueError, ZeroDivisionError) as exc:
                raise ParseError(f"line {lineno}: bad entry {ent!r}",
                                 0) from exc
        rows.append(tuple(row))
    if header is None:
        raise ParseError("missing 'matrix: r n' header", 0)
    if len(rows) != header[0]:
        raise ParseError(f"expected {header[0]} rows, got {len(rows)}", 0)
    if not 0 < rank(rows) == len(rows) < header[1]:
        raise ParseError(f"need 1 <= r <= n - 1 linearly independent rows, "
                         f"got {len(rows)} of rank {rank(rows)}", 0)
    return tuple(map(primitive, rows))


def parent_parse_weight(text, n):
    parts = [s.strip() for s in text.split(",")]
    if len(parts) != n:
        raise ParseError(f"weight has {len(parts)} entries, ideal has {n} "
                         f"variables", 0)
    try:
        return tuple(int(s) for s in parts)
    except ValueError as exc:
        raise ParseError(f"bad weight entry: {exc}", 0)


def outcome(parse, *args):
    """("value", what parse returns) or ("error", message, position)."""
    try:
        return ("value", parse(*args))
    except ParseError as exc:
        return ("error", str(exc), exc.position)


# a digit that int() reads but the rule does not: ARABIC-INDIC DIGIT THREE
NON_ASCII_DIGIT = "٣"
RULE_ALPHABET = FUZZ_ALPHABET + "_" + NON_ASCII_DIGIT
RULE_HEADERS = FUZZ_HEADERS + [
    "vars: 1_0", f"vars: {NON_ASCII_DIGIT}", "matrix: 1_0 3",
    f"matrix: 1 {NON_ASCII_DIGIT}", "matrix: 1 0", "matrix: 1 65"]


def new_rule_rejects(text, new, old):
    """Whether the new reader's outcome is an error that the one integer
    rule makes: one that quotes a literal with '_', a non-ASCII digit or a
    signed denominator, the variable-count error, a token or header that
    stops at a non-ASCII digit, or the rule's literal error where the
    parent's int() also failed, in its own words."""
    if new[0] != "error":
        return False
    message = new[1]
    return (any(s in message for s in (
        "_", NON_ASCII_DIGIT, "/-", "/+", "variables, not"))
        or "x" + NON_ASCII_DIGIT in text
        and message.startswith("unexpected character 'x'")
        or NON_ASCII_DIGIT in text and "header" in message
        or old[0] == "error" and "is not an integer literal" in message)


PAIRS = [(parse_polynomial, parent_parse_polynomial, True),
         (parse_ideal_file, parent_parse_ideal_file, False),
         (parse_matrix_file, parent_parse_matrix_file, False),
         (_parse_weight, parent_parse_weight, True)]


# literals of outside text: nine in the grammar, each drawn three times as
# often as each of the others, two of which int() reads but the rule does not
RULE_LITERALS = ["0", "1", "2", "-1", "-2", "+3", "12", "1/2", "-3/4"] * 3 + [
    "3/-4", "2/0", "1_0", NON_ASCII_DIGIT, "x1", ""]


@st.composite
def rule_inputs(draw):
    """(text, n): an ideal file, matrix file, weight or polynomial written
    mostly in its grammar, which random text seldom spells."""
    n = draw(st.integers(1, 3))
    literal = st.sampled_from(RULE_LITERALS)
    size = st.sampled_from([str(n)] * 3 + ["0", "65", "1_0", NON_ASCII_DIGIT])
    index = st.sampled_from([str(i) for i in range(1, n + 1)] * 2
                            + ["1_0", NON_ASCII_DIGIT])
    degree = draw(st.integers(1, 2))
    term = st.builds(
        lambda c, ix: "*".join([c] * bool(c) + [f"x{i}" for i in ix]),
        st.sampled_from(["", "", "2", "1/2", "12", "1_0", NON_ASCII_DIGIT]),
        st.lists(index, min_size=degree, max_size=degree))
    polynomial = st.lists(term, min_size=1, max_size=3).map(" - ".join)
    kind = draw(st.sampled_from(["ideal", "matrix", "weight", "polynomial"]))
    if kind == "ideal":
        lines = [f"vars: {draw(size)}",
                 *draw(st.lists(polynomial, min_size=1, max_size=2))]
    elif kind == "matrix":
        r = draw(st.integers(1, max(1, n - 1)))
        row = st.lists(literal, min_size=n, max_size=n).map(" ".join)
        lines = [f"matrix: {r} {draw(size)}",
                 *draw(st.lists(row, min_size=r, max_size=r))]
    elif kind == "weight":
        lines = [draw(st.sampled_from([",", " , "])).join(
            draw(st.lists(literal, min_size=n, max_size=n)))]
    else:
        lines = [draw(polynomial)]
    if draw(st.booleans()):
        lines.insert(draw(st.integers(0, len(lines))), "# comment")
    return "\n".join(lines), n


class TestOneIntegerRule:
    @settings(max_examples=300, deadline=None)
    @given(text=st.one_of(
        st.text(alphabet=RULE_ALPHABET),
        st.builds("{}\n{}".format, st.sampled_from(RULE_HEADERS),
                  st.text(alphabet=RULE_ALPHABET))),
        n=st.integers(1, 4))
    def test_readers_match_the_parents_on_any_text(self, text, n):
        self.check_readers(text, n)

    @settings(max_examples=300, deadline=None)
    @given(rule_inputs())
    def test_readers_match_the_parents_on_the_grammar(self, text_n):
        self.check_readers(*text_n)

    @staticmethod
    def check_readers(text, n):
        for new_parse, old_parse, takes_n in PAIRS:
            args = (text, n) if takes_n else (text,)
            new, old = outcome(new_parse, *args), outcome(old_parse, *args)
            # the rule only rejects: whatever the new reader accepts, the
            # parent accepted with the same value
            assert new == old or new_rule_rejects(text, new, old), (
                new_parse.__name__, text, new, old)

    @pytest.mark.parametrize("name", sorted(
        p.name for p in CORPUS.iterdir() if p.name != "manifest.json"))
    def test_corpus_files_read_as_before(self, name):
        text = (CORPUS / name).read_text()
        if name.endswith(".matrix"):
            assert parse_matrix_file(text) == parent_parse_matrix_file(text)
        else:
            assert parse_ideal_file(text) == parent_parse_ideal_file(text)

    @pytest.mark.parametrize("text, value", [
        ("0", 0), ("007", 7), ("-12", -12), ("+3", 3), ("9" * 40, 10**40 - 1)])
    def test_integer_literal_reads(self, text, value):
        assert integer_literal(text) == value

    @pytest.mark.parametrize("text", [
        "", "1_0", NON_ASCII_DIGIT, "x1", " 1", "1 ", "1.0", "--1", "+", "1e3",
        "１"])
    def test_integer_literal_rejects(self, text):
        with pytest.raises(ParseError, match="is not an integer literal "
                                             r"\(at position 4\)"):
            integer_literal(text, 4)

    def test_overlong_literal(self):
        with pytest.raises(ParseError, match="integer literal of 5000 digits "
                                             "is too long"):
            integer_literal("-" + "1" * 5000)

    @pytest.mark.parametrize("text, position", [
        (f"x{NON_ASCII_DIGIT} + x2", 0), (f"{NON_ASCII_DIGIT}*x1", 0),
        (f"x1^{NON_ASCII_DIGIT}", 3)])
    def test_polynomial_tokens_take_ascii_digits(self, text, position):
        with pytest.raises(ParseError, match="unexpected character") as err:
            parse_polynomial(text, 2)
        assert err.value.position == position

    def test_comments_are_whole_lines(self):
        text = "# a quadric\nvars: 3\n  # indented\nx1^2 + x2*x3\n"
        assert parse_ideal_file(text) == parse_ideal_file("vars: 3\n"
                                                          "x1^2 + x2*x3\n")
        with pytest.raises(ParseError, match="unexpected character '#'"):
            parse_ideal_file("vars: 3\nx1^2 + x2*x3  # a quadric\n")

    @pytest.mark.parametrize("text, message", [
        ("matrix: 1 65\n" + " ".join(["1"] * 65) + "\n",
         "line 1: need 1..64 variables, not 65"),
        ("matrix: 1 0\n", "line 1: need 1..64 variables, not 0"),
        ("matrix: 1 3\n1 2 3/-4\n", "line 2: bad entry '3/-4'"),
        ("matrix: 1 3\n1 2 1_0\n", "line 2: bad entry '1_0'"),
        (f"matrix: 1 3\n1 2 {NON_ASCII_DIGIT}\n",
         f"line 2: bad entry '{NON_ASCII_DIGIT}'")])
    def test_matrix_rule(self, text, message):
        with pytest.raises(ParseError, match=re.escape(message)):
            parse_matrix_file(text)

    def test_matrix_at_the_variable_cap(self):
        rows = parse_matrix_file("matrix: 1 64\n" + " ".join(["-2/3"] * 64))
        assert rows == ((-1,) * 64,)

    def test_weight_positions(self):
        assert _parse_weight(" -1 , +2,3", 3) == (-1, 2, 3)
        with pytest.raises(ParseError) as err:
            _parse_weight("0, 1_0,2", 3)
        assert err.value.position == 3
