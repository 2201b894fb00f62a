"""Exact multivariate polynomials over the rationals.

Monomials are exponent tuples of fixed length n.  A Polynomial stores its
terms sorted by graded-lex with x1 > x2 > ... > xn, leading term first; this
canonical form makes equality structural and hashing cheap.  All arithmetic
is exact.

Every term order is a weight order: it compares total degree first, then
the weights in turn, then lex.  A monomial's "preference" key is (total
degree, -weights, lex); the most preferred monomial of a polynomial is its
head (the marked term of a Groebner basis element).  So on homogeneous
input the head is the term of minimal weight under the first weight, ties
going to the next weight and finally towards x1; with no weights the order
is graded lex.  On a graded ideal, weights and this tie-break fix every
initial ideal the engine uses (Sturmfels, Groebner Bases and Convex
Polytopes, ch. 1), and the degree-first component keeps the comparison a
genuine global term order (1 is the least monomial), so Buchberger's
algorithm terminates on inhomogeneous input as well.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from operator import mul
from typing import Iterable, Optional

from .linalg import QQ, ZERO, ONE, primitive


class ParseError(ValueError):
    """Syntax error in the polynomial / ideal grammar, with a position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class ImproperIdealError(ValueError):
    """Raised for operations requiring a proper ideal when 1 is contained."""


# ---------------------------------------------------------------------------
# monomial helpers

def monomial_degree(exp) -> int:
    return sum(exp)


def monomial_mul(a, b):
    return tuple(x + y for x, y in zip(a, b))


def monomial_divides(a, b) -> bool:
    """True iff x^a divides x^b."""
    return all(x <= y for x, y in zip(a, b))


def monomial_div(b, a):
    return tuple(y - x for x, y in zip(a, b))


def monomial_lcm(a, b):
    return tuple(max(x, y) for x, y in zip(a, b))


def _canonical_key(exp):
    # graded-lex with x1 > ... > xn; larger key = earlier in canonical form
    return (sum(exp), exp)


# ---------------------------------------------------------------------------
# term orders

@dataclass(frozen=True)
class TermOrder:
    """Total order on monomials used for marking Groebner basis heads.

    It refines a list of weight vectors, possibly empty, in turn: total
    degree is compared first, so the order is global even for negative
    weights; then heads have minimal weight under the first vector, ties
    go to the next and remaining ties to lex.  Weights are stored as
    primitive integer vectors, so equal orders compare equal.
    """

    weights: tuple

    def __post_init__(self):
        object.__setattr__(self, "weights",
                           tuple(primitive(w) for w in self.weights))

    def key(self, exp):
        """Preference key; the head of a polynomial maximizes it."""
        return (sum(exp), tuple([-sum(map(mul, w, exp)) for w in self.weights]),
                exp)


def weight_order(*weights) -> TermOrder:
    """The order refining the weights in turn, then lex: on monomials of
    one degree it is the order of w1 + eps*w2 + eps^2*w3 + ... for every
    small enough eps > 0 (ties broken by lex)."""
    return TermOrder(weights)


GRLEX = weight_order()


# ---------------------------------------------------------------------------
# polynomials

@dataclass(frozen=True)
class Polynomial:
    """Immutable polynomial in canonical form (sorted terms, no zeros)."""

    n: int
    terms: tuple  # tuple of (exponent tuple, QQ coefficient), canonical order

    @staticmethod
    def from_dict(n: int, coeffs: dict) -> "Polynomial":
        items = [(e, c) for e, c in coeffs.items() if c != 0]
        items.sort(key=lambda t: _canonical_key(t[0]), reverse=True)
        return Polynomial(n, tuple(items))

    @staticmethod
    def zero(n: int) -> "Polynomial":
        return Polynomial(n, ())

    @staticmethod
    def constant(n: int, c) -> "Polynomial":
        c = QQ(c)
        if c == 0:
            return Polynomial.zero(n)
        return Polynomial(n, (((0,) * n, c),))

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def homogeneous_degree(self) -> Optional[int]:
        """Common degree of all terms, or None if not homogeneous."""
        if not self.terms:
            raise ValueError("zero polynomial")
        degrees = {monomial_degree(e) for e, _ in self.terms}
        return degrees.pop() if len(degrees) == 1 else None

    @property
    def is_homogeneous(self) -> bool:
        return self.homogeneous_degree() is not None

    def support(self) -> frozenset:
        return frozenset(e for e, _ in self.terms)

    def monic(self, order: TermOrder = GRLEX) -> "Polynomial":
        """Scale so the head coefficient (w.r.t. order) is 1."""
        if not self.terms:
            return self
        c = dict(self.terms)[self.head_monomial(order)]
        return Polynomial(self.n, tuple((e, co / c) for e, co in self.terms))

    def head_monomial(self, order: TermOrder) -> tuple:
        if not self.terms:
            raise ValueError("zero polynomial has no head")
        return max((e for e, _ in self.terms), key=order.key)

    # -- arithmetic ---------------------------------------------------------

    def _check(self, other: "Polynomial"):
        if self.n != other.n:
            raise ValueError("ambient variable counts differ")

    def __add__(self, other: "Polynomial") -> "Polynomial":
        self._check(other)
        out = dict(self.terms)
        for e, c in other.terms:
            out[e] = out.get(e, ZERO) + c
        return Polynomial.from_dict(self.n, out)

    def __neg__(self) -> "Polynomial":
        return Polynomial(self.n, tuple((e, -c) for e, c in self.terms))

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self + (-other)

    def __mul__(self, other: "Polynomial") -> "Polynomial":
        self._check(other)
        out: dict = {}
        for e1, c1 in self.terms:
            for e2, c2 in other.terms:
                e = monomial_mul(e1, e2)
                out[e] = out.get(e, ZERO) + c1 * c2
        return Polynomial.from_dict(self.n, out)

    def __pow__(self, k: int) -> "Polynomial":
        if k < 0:
            raise ValueError("negative power")
        result = Polynomial.constant(self.n, 1)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base if k > 1 else base
            k >>= 1
        return result

    def __str__(self) -> str:
        return format_polynomial(self)

    __repr__ = __str__


# ---------------------------------------------------------------------------
# ideals

@dataclass(frozen=True)
class Ideal:
    """Graded ideal given by nonzero homogeneous generators."""

    n: int
    generators: tuple

    def __post_init__(self):
        if not self.generators:
            raise ValueError("ideal needs at least one generator")
        for g in self.generators:
            if g.n != self.n:
                raise ValueError("generator has wrong ambient variable count")
            if g.is_zero:
                raise ValueError("zero polynomial is not a valid generator")
            if not g.is_homogeneous:
                raise ValueError(f"generator {g} is not homogeneous")

    @staticmethod
    def of(n: int, generators: Iterable[Polynomial]) -> "Ideal":
        return Ideal(n, tuple(generators))


# ---------------------------------------------------------------------------
# parsing and printing

_TOKEN = re.compile(r"\s*(\d+|x\d+|\^|\*|\+|-|/)")


def _tokenize(text: str):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None:
            rest = text[pos:]
            if rest.strip() == "":
                break
            bad = pos + len(rest) - len(rest.lstrip())
            raise ParseError(f"unexpected character {text[bad]!r}", bad)
        tokens.append((m.group(1), m.start(1)))
        pos = m.end()
    return tokens


def _integer(digits: str, position: int) -> int:
    """The value of a decimal literal; ParseError where it is longer than
    Python converts (sys.get_int_max_str_digits)."""
    try:
        return int(digits)
    except ValueError:
        raise ParseError(f"integer literal of {len(digits)} digits is too "
                         f"long", position) from None


def parse_polynomial(text: str, n: int) -> Polynomial:
    """Parse the grammar: terms joined by +/-, each an optional rational
    coefficient and '*'-separated variable powers xi^k."""
    tokens = _tokenize(text)
    if not tokens:
        raise ParseError("empty polynomial", 0)
    coeffs: dict = {}
    i = 0
    sign = ONE
    expect_term = True
    while i < len(tokens):
        tok, pos = tokens[i]
        if tok == "+" or tok == "-":
            if expect_term and tok == "+":
                raise ParseError("unexpected '+'", pos)
            sign = sign * (-1 if tok == "-" else 1) if expect_term else QQ(-1 if tok == "-" else 1)
            expect_term = True
            i += 1
            continue
        # parse one term
        coeff = sign
        sign = ONE
        exp = [0] * n
        saw_factor = False
        while i < len(tokens):
            tok, pos = tokens[i]
            if tok.isdigit():
                value = QQ(_integer(tok, pos))
                i += 1
                if i < len(tokens) and tokens[i][0] == "/":
                    i += 1
                    if i >= len(tokens) or not tokens[i][0].isdigit():
                        raise ParseError("expected denominator", pos)
                    d = _integer(*tokens[i])
                    if d == 0:
                        raise ParseError("zero denominator", tokens[i][1])
                    value = value / d
                    i += 1
                coeff *= value
            elif tok.startswith("x"):
                idx = _integer(tok[1:], pos + 1)
                if not 1 <= idx <= n:
                    raise ParseError(f"variable index {idx} out of range 1..{n}", pos)
                power = 1
                i += 1
                if i < len(tokens) and tokens[i][0] == "^":
                    i += 1
                    if i >= len(tokens) or not tokens[i][0].isdigit():
                        raise ParseError("expected exponent", pos)
                    power = _integer(*tokens[i])
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
            raise ParseError("expected a term", tokens[i][1] if i < len(tokens) else len(text))
        e = tuple(exp)
        coeffs[e] = coeffs.get(e, ZERO) + coeff
        expect_term = False
        if i < len(tokens) and tokens[i][0] not in ("+", "-"):
            raise ParseError("expected '+' or '-'", tokens[i][1])
    if expect_term:
        raise ParseError("dangling sign", len(text))
    return Polynomial.from_dict(n, coeffs)


def format_polynomial(p: Polynomial) -> str:
    if p.is_zero:
        return "0"
    parts = []
    for e, c in p.terms:
        factors = []
        for i, k in enumerate(e):
            if k == 1:
                factors.append(f"x{i + 1}")
            elif k > 1:
                factors.append(f"x{i + 1}^{k}")
        mag = abs(c)
        if not factors:
            body = str(mag)
        elif mag == 1:
            body = "*".join(factors)
        else:
            body = "*".join([str(mag)] + factors)
        if not parts:
            parts.append(body if c > 0 else f"-{body}")
        else:
            parts.append(f" + {body}" if c > 0 else f" - {body}")
    return "".join(parts)


def read_input(path) -> str:
    """The text of an input file, which must be UTF-8; ParseError if it
    cannot be read or decoded."""
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise ParseError(str(exc), 0) from None
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not UTF-8 text ({exc.reason})",
                         exc.start) from None


# the most variables an ideal file may declare: far above every input the
# engine decides, and it keeps parsing's memory bounded by the file's size
MAX_VARS = 64


def parse_ideal_file(text: str) -> Ideal:
    """Ideal file: first non-comment line 'vars: n' with 1 <= n <= MAX_VARS,
    then one generator per line; '#' lines are comments."""
    n = None
    gens = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if n is None:
            m = re.fullmatch(r"vars:\s*(\d+)", line)
            if m is None:
                raise ParseError(f"line {lineno}: expected 'vars: n' header", 0)
            n = _integer(m.group(1), m.start(1))
            if not 1 <= n <= MAX_VARS:
                raise ParseError(f"line {lineno}: need 1..{MAX_VARS} "
                                 f"variables, not {n}", 0)
            continue
        p = parse_polynomial(line, n)
        if p.is_zero:
            raise ParseError(f"line {lineno}: generator is the zero polynomial", 0)
        if not p.is_homogeneous:
            raise ParseError(f"line {lineno}: generator is not homogeneous", 0)
        gens.append(p)
    if n is None:
        raise ParseError("missing 'vars: n' header", 0)
    if not gens:
        raise ParseError("no generators", 0)
    return Ideal.of(n, gens)
