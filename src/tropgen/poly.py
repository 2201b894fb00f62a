"""Exact multivariate polynomials over the rationals.

Monomials are exponent tuples of fixed length n.  A Polynomial stores its
terms sorted by graded-lex with x1 > x2 > ... > xn, leading term first; this
canonical form makes equality structural and hashing cheap.  All arithmetic
is exact.

Every term order is a weight order: it compares total degree first, then
the weights in turn, then reverse lex.  The head of a polynomial (the
marked term of a Groebner basis element) minimizes the key (-total
degree, weights, reversed exponent): on homogeneous input it is the term
of minimal weight under the first weight, ties going to the next weight
and finally to the fewest xn, then the fewest x(n-1), and so on; with no
weights the order is graded reverse lex.  In generic coordinates, where
the engine works, the reverse-lex initial ideal has the regularity of I
and the lex one far higher degrees (Bayer and Stillman, "A criterion for
detecting m-regularity", 1987).  On a graded ideal, weights and this
tie-break fix every initial ideal the engine uses (Sturmfels, Groebner
Bases and Convex Polytopes, ch. 1), and the degree-first component keeps
the comparison a genuine global term order (1 is the least monomial), so
Buchberger's algorithm terminates on inhomogeneous input as well.
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
    go to the next and remaining ties to reverse lex.  Weights are stored
    as primitive integer vectors, so equal orders compare equal.
    """

    weights: tuple

    def __post_init__(self):
        object.__setattr__(self, "weights",
                           tuple(primitive(w) for w in self.weights))

    def key(self, exp):
        """Sort key; the head of a polynomial minimizes it."""
        return (-sum(exp), tuple([sum(map(mul, w, exp)) for w in self.weights]),
                exp[::-1])


def weight_order(*weights) -> TermOrder:
    """The order refining the weights in turn, then reverse lex: on
    monomials of one degree it is the order of w1 + eps*w2 + eps^2*w3 + ...
    for every small enough eps > 0 (ties broken by reverse lex)."""
    return TermOrder(weights)


GREVLEX = weight_order()


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

    def monic(self, order: TermOrder = GREVLEX) -> "Polynomial":
        """Scale so the head coefficient (w.r.t. order) is 1."""
        if not self.terms:
            return self
        c = dict(self.terms)[self.head_monomial(order)]
        return Polynomial(self.n, tuple((e, co / c) for e, co in self.terms))

    def head_monomial(self, order: TermOrder) -> tuple:
        if not self.terms:
            raise ValueError("zero polynomial has no head")
        return min((e for e, _ in self.terms), key=order.key)

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

_TOKEN = re.compile(r"\s*([0-9]+|x[0-9]+|\^|\*|\+|-|/)")
INTEGER = re.compile(r"[+-]?[0-9]+")


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


def integer_literal(text: str, position: int = 0) -> int:
    """The value of an integer of outside text at `position`: ASCII digits,
    signed only where it stands alone (callers match digits first where it
    does not).  ParseError for 1_0, a non-ASCII digit or too many digits."""
    if not INTEGER.fullmatch(text):
        raise ParseError(f"{text!r} is not an integer literal", position)
    try:
        return int(text)
    except ValueError:
        raise ParseError(f"integer literal of {len(text.lstrip('+-'))} "
                         f"digits is too long", position) from None


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
        while i < len(tokens):
            tok, pos = tokens[i]
            if tok.isdigit():
                value = QQ(integer_literal(tok, pos))
                i += 1
                if i < len(tokens) and tokens[i][0] == "/":
                    i += 1
                    if i >= len(tokens) or not tokens[i][0].isdigit():
                        raise ParseError("expected denominator", pos)
                    d = integer_literal(*tokens[i])
                    if d == 0:
                        raise ParseError("zero denominator", tokens[i][1])
                    value = value / d
                    i += 1
                coeff *= value
            elif tok.startswith("x"):
                idx = integer_literal(tok[1:], pos + 1)
                if not 1 <= idx <= n:
                    raise ParseError(f"variable index {idx} out of range 1..{n}", pos)
                power = 1
                i += 1
                if i < len(tokens) and tokens[i][0] == "^":
                    i += 1
                    if i >= len(tokens) or not tokens[i][0].isdigit():
                        raise ParseError("expected exponent", pos)
                    power = integer_literal(*tokens[i])
                    i += 1
                exp[idx - 1] += power
            else:
                raise ParseError(f"unexpected token {tok!r}", pos)
            if i < len(tokens) and tokens[i][0] == "*":
                i += 1
                if i >= len(tokens):
                    raise ParseError("dangling '*'", tokens[i - 1][1])
                continue
            break
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


# the most variables a file may declare: far above every input the engine
# decides, and it keeps parsing's memory bounded by the file's size
MAX_VARS = 64


def header_lines(text: str, header: str):
    """The header values of a file, and the (line number, stripped text) of
    each later line.  Blank lines and lines starting with '#' are skipped;
    the first other line is the header, of the form `header` ('vars: n',
    'matrix: r n') with digits for the values, the last of them a variable
    count in 1..MAX_VARS."""
    lines = [(lineno, line) for lineno, line
             in enumerate(map(str.strip, text.splitlines()), start=1)
             if line and not line.startswith("#")]
    if not lines:
        raise ParseError(f"missing '{header}' header", 0)
    (lineno, line), *lines = lines
    name, *names = header.split()
    m = re.fullmatch(re.escape(name) + r"\s*([0-9]+)"
                     + r"\s+([0-9]+)" * (len(names) - 1), line)
    if m is None:
        raise ParseError(f"line {lineno}: expected '{header}' header", 0)
    values = tuple(integer_literal(v, m.start(k))
                   for k, v in enumerate(m.groups(), start=1))
    if not 1 <= values[-1] <= MAX_VARS:
        raise ParseError(f"line {lineno}: need 1..{MAX_VARS} variables, "
                         f"not {values[-1]}", 0)
    return values, lines


def parse_ideal_file(text: str) -> Ideal:
    """Ideal file: a 'vars: n' header (header_lines), then one generator
    per line."""
    (n,), lines = header_lines(text, "vars: n")
    gens = []
    for lineno, line in lines:
        p = parse_polynomial(line, n)
        if p.is_zero:
            raise ParseError(f"line {lineno}: generator is the zero polynomial", 0)
        if not p.is_homogeneous:
            raise ParseError(f"line {lineno}: generator is not homogeneous", 0)
        gens.append(p)
    if not gens:
        raise ParseError("no generators", 0)
    return Ideal.of(n, gens)
