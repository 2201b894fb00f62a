"""Buchberger's algorithm with marked heads, plus ideal-theoretic queries:
dimension, and a monomial of a homogeneous ideal, or None, found by
saturation in the ideal's own ring.

A reduced marked Groebner basis is unique for a given ideal and term order,
so downstream computations (dimensions, cones, initial ideals) are
deterministic.  Heads are the terms of least key under the order (see
poly); for weight-refined orders on homogeneous input this marks the terms
of minimal weight.

The engine is fraction-free, with one division routine, _reduce, which
serves buchberger, _interreduce, normal_form and lift.  There an element
is a primitive integer polynomial, kept as its head
x^h, a positive head coefficient a and an integer tail (its exponents and
its coefficients as two tuples, so that converting a basis makes no tuple
per term for Python's free lists to keep).  Reducing a term c*x^e by it
scales the working polynomial and the remainder by a/gcd(a, c) and
subtracts (c/gcd(a, c))*x^(e - h) times the tail, so every intermediate
value is an integer; a new basis element is made primitive once, when its
reduction ends.  Fractions appear only where polynomials enter (their
denominators are cleared with numerator and denominator, no arithmetic)
and where they leave: each element of a reduced basis is divided by its
head coefficient once, so every MarkedGB is monic on its heads (Cox,
Little and O'Shea, Ideals, Varieties, and Algorithms, ch. 2 section 7),
with Fraction coefficients.  normal_form and lift read a MarkedGB's
integer elements, converted once per basis; lift splits them by a weight
p, once per call, into the p-initial part that _reduce divides and a
pass-through part it carries to the remainder (see lift).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from heapq import heappop, heappush
from math import gcd, lcm
from operator import mul

from .linalg import QQ, ONE
from .poly import (
    GREVLEX,
    Ideal,
    ImproperIdealError,
    Polynomial,
    TermOrder,
    monomial_degree,
    monomial_div,
    monomial_divides,
    monomial_lcm,
    monomial_mul,
    weight_order,
)


@dataclass(frozen=True)
class MarkedGB:
    """Reduced Groebner basis with the head monomial of each element: its
    term of least key under order, on which the element is monic."""

    n: int
    order: TermOrder
    elements: tuple  # Polynomial, monic on heads, deterministically ordered
    heads: tuple  # head exponent of each element

    def supports(self) -> frozenset:
        return frozenset(g.support() for g in self.elements)

    @cached_property
    def integer_elements(self) -> tuple:
        """The primitive integer elements (see _elements), converted once
        per basis for normal_form and lift."""
        return tuple(_elements(self.elements, self.heads))


def integral_coefficients(p: Polynomial) -> tuple:
    """(coefficients, d): the integer coefficients of d*p by exponent, for
    the least d > 0 that makes them integers."""
    d = 1
    for _, c in p.terms:
        d = lcm(d, c.denominator)
    return {e: c.numerator * (d // c.denominator) for e, c in p.terms}, d


def _primitive(coeffs: dict, h) -> tuple:
    """(a, exps, cs, (), ()) of the primitive integer multiple of the
    polynomial with these integer coefficients (consumed) whose coefficient
    a on its head x^h is positive; its tail has the terms cs[i]*x^exps[i],
    and its pass-through part (see _reduce) is empty."""
    g = 0
    for c in coeffs.values():
        g = gcd(g, c)
    if coeffs[h] < 0:
        g = -g
    a = coeffs.pop(h)
    return a // g, tuple(coeffs), tuple([c // g for c in coeffs.values()]), (), ()


def _elements(polys, heads) -> list:
    """The primitive integer elements of nonzero polynomials marked on
    heads."""
    return [_primitive(integral_coefficients(g)[0], h) for g, h in zip(polys, heads)]


def _add_shifted_tail(work: dict, exps, cs, shift, factor) -> None:
    """work += factor * x^shift * sum of cs[i]*x^exps[i], in place,
    deleting each entry as it becomes zero."""
    for e, c in zip(exps, cs):
        key = monomial_mul(e, shift)
        c = work.get(key, 0) + factor * c
        if c:
            work[key] = c
        else:
            del work[key]


def _reduce(work: dict, basis, heads, order: TermOrder) -> tuple:
    """(r, s): the remainder r of s*p on full reduction (tail reduction
    included) modulo the primitive integer elements basis, marked on heads,
    for the integer polynomial p whose coefficients work holds, and an
    integer s > 0.  work is consumed.

    Each basis element is a*x^h + tail + pass with a > 0, every tail term
    smaller than x^h under order and a pass-through part pass, empty but in
    lift.  A term c*x^e that x^h divides is removed by scaling everything by
    a/gcd(a, c) and subtracting (c/gcd(a, c))*x^(e - h) times a*x^h + tail
    from work, which leaves only terms smaller than x^e, and that multiple
    of pass from r, which is never reduced.  Terms are taken largest first
    (least key first), so each monomial leaves work once, to be reduced or
    to enter the remainder."""
    remainder = {}
    scale = 1
    while work:
        exp = min(work, key=order.key)
        c = work.pop(exp)
        for g, h in zip(basis, heads):
            if monomial_divides(h, exp):
                a, exps, cs, pass_exps, pass_cs = g
                k = gcd(a, c)
                if k != a:
                    s = a // k
                    scale *= s
                    work = {e: s * v for e, v in work.items()}
                    remainder = {e: s * v for e, v in remainder.items()}
                shift = monomial_div(exp, h)
                _add_shifted_tail(work, exps, cs, shift, -(c // k))
                _add_shifted_tail(remainder, pass_exps, pass_cs, shift,
                                  -(c // k))
                break
        else:
            remainder[exp] = c
    return remainder, scale


def normal_form(p: Polynomial, gb: MarkedGB) -> Polynomial:
    """Fully reduce p modulo the marked basis gb (tail reduction included).
    The coefficients stay integers until the remainder is divided by the
    scale that clearing denominators and reduction introduced."""
    work, d = integral_coefficients(p)
    r, s = _reduce(work, gb.integer_elements, gb.heads, gb.order)
    return Polynomial.from_dict(p.n, {e: QQ(c, d * s) for e, c in r.items()})


def buchberger(generators, order: TermOrder) -> MarkedGB:
    """Reduced marked Groebner basis of the ideal the generators span."""
    n = generators[0].n
    generators = [g for g in generators if not g.is_zero]
    heads = [g.head_monomial(order) for g in generators]
    basis = _elements(generators, heads)

    # normal strategy: smallest lcm degree first, then oldest pair; each
    # pending pair (i, j), i > j, waits in the heap as (degree, i, j, lcm)
    pairs, queue = set(), []

    def add_pairs(i):
        for j in range(i):
            l = monomial_lcm(heads[i], heads[j])
            pairs.add((i, j))
            heappush(queue, (monomial_degree(l), i, j, l))

    for i in range(len(basis)):
        add_pairs(i)
    while queue:
        _, i, j, l = heappop(queue)
        pairs.remove((i, j))
        hi, hj = heads[i], heads[j]
        # product criterion
        if l == monomial_mul(hi, hj):
            continue
        # chain criterion
        if any(k != i and k != j and monomial_divides(heads[k], l)
               and (max(i, k), min(i, k)) not in pairs
               and (max(j, k), min(j, k)) not in pairs
               for k in range(len(basis))):
            continue
        # the S-pair: a_j*x^(l - hi)*f_i - a_i*x^(l - hj)*f_j over
        # gcd(a_i, a_j), whose heads cancel, leaving the shifted tails
        (ai, ei, ci, _, _), (aj, ej, cj, _, _) = basis[i], basis[j]
        c = gcd(ai, aj)
        work = {}
        _add_shifted_tail(work, ei, ci, monomial_div(l, hi), aj // c)
        _add_shifted_tail(work, ej, cj, monomial_div(l, hj), -(ai // c))
        r, _ = _reduce(work, basis, heads, order)
        if r:
            h = min(r, key=order.key)
            basis.append(_primitive(r, h))
            heads.append(h)
            add_pairs(len(basis) - 1)

    return _interreduce(n, basis, heads, order)


class LiftError(ValueError):
    """lift's precondition fails: its weight p is outside the closed cone
    of gb, or initial is not a basis of in_p(I)."""


def lift(initial: MarkedGB, gb: MarkedGB) -> MarkedGB:
    """The reduced basis of the graded ideal I for initial's order from
    the reduced bases gb of I and initial of in_p(I), for the weight p
    that initial's order refines first, in the closure of gb's cone: the
    lifting step of the Groebner walk (Collart, Kalkbrener and Mall,
    "Converting bases with the Groebner walk", 1997; Fukuda, Jensen and
    Thomas, "Computing Groebner fans", 2007, section 3).

    Each element g of gb splits into its head, the tail terms of the
    head's p-weight, which complete in_p(g), and a pass-through part, the
    terms of larger p-weight.  The in_p(g) are a Groebner basis of in_p(I)
    for gb's order, so _reduce divides a p-homogeneous h in initial by them
    to 0, and its remainder, rest, holds the multiples of the pass-through
    parts.  With d clearing h's denominators and s the scale of the
    division, f = s*(d*h) - rest = sum of q_g*g lies in I, and every term
    of the rest has larger p-weight than h, so in_p(f) = s*d*h.  The f are
    a minimal Groebner basis of I for initial's order, and inter-reducing
    them gives the reduced basis, which is unique.

    LiftError names p and a term when a tail term of gb weighs less under
    p than its head (p is outside the closed cone) or no head of gb
    divides a p-initial term (initial is not a basis of in_p(I))."""
    p = initial.order.weights[0]
    # per element of gb: a, the tail of in_p(g) and the pass-through part,
    # each as exponents and coefficients
    split = []
    for (a, exps, cs, _, _), h in zip(gb.integer_elements, gb.heads):
        ph = sum(map(mul, p, h))
        tail, higher = {}, {}
        for e, c in zip(exps, cs):
            d = sum(map(mul, p, e)) - ph
            if d < 0:
                raise LiftError(
                    f"p = {p} is outside the closed Groebner cone: the tail "
                    f"term x^{e} weighs less than its head x^{h}")
            (higher if d else tail)[e] = c
        split.append((a, tuple(tail), tuple(tail.values()),
                      tuple(higher), tuple(higher.values())))
    lifted = []
    for h, head in zip(initial.elements, initial.heads):
        f, _ = integral_coefficients(h)
        rest, scale = _reduce(dict(f), split, gb.heads, gb.order)
        ph = sum(map(mul, p, head))
        for e in rest:
            if sum(map(mul, p, e)) == ph:
                raise LiftError(
                    f"no head of the basis divides the p-initial term "
                    f"x^{e}, p = {p}: the initial basis is not a basis "
                    f"of in_p(I)")
        f = {e: scale * c for e, c in f.items()}
        f.update((e, -c) for e, c in rest.items())
        lifted.append(_primitive(f, head))
    return _interreduce(gb.n, lifted, initial.heads, initial.order)


def _interreduce(n: int, basis, heads, order: TermOrder) -> MarkedGB:
    """The reduced basis from primitive integer elements of a Groebner basis
    marked on heads: drop each whose head another head divides, then reduce
    each tail by the others and divide by the head coefficient.  No kept head
    divides another, and reduction only adds terms smaller than the one it
    removes, so each head stays unreduced, with coefficient a*s for the scale s
    of its tail's reduction: the results are monic on the same heads."""
    keep = [i for i, h in enumerate(heads)
            if not any(j != i and monomial_divides(heads[j], h)
                       and (heads[j] != h or j < i) for j in range(len(heads)))]
    basis = [basis[i] for i in keep]
    heads = [heads[i] for i in keep]
    combined = []
    for i, ((a, exps, cs, _, _), h) in enumerate(zip(basis, heads)):
        r, s = _reduce(dict(zip(exps, cs)), basis[:i] + basis[i + 1:],
                       heads[:i] + heads[i + 1:], order)
        r = {e: QQ(c, a * s) for e, c in r.items()}
        r[h] = ONE
        combined.append((h, Polynomial.from_dict(n, r)))
    combined.sort(key=lambda t: order.key(t[0]), reverse=True)
    heads = tuple(h for h, _ in combined)
    elements = tuple(g for _, g in combined)
    return MarkedGB(n, order, elements, heads)


def contains_monomial(generators) -> Polynomial | None:
    """A monomial, coefficient 1, of the homogeneous ideal J the generators
    span, or None if J has none, which holds iff its saturation by xn, ...,
    x1 in turn is not 1.  A round divides each element f of its ideal by
    some x_i^k with k <= K, the largest power it divides out, and
    x_i^K (f / x_i^k) = x_i^(K - k) f is back in that ideal; so, for shift
    the product of the rounds' x_i^K, shift times any element of any round
    lies in J, and the first single-term element times shift is returned.
    So a round may answer early: a principal ideal (g) contains a monomial
    iff g is one, since k[x] is a UFD.  A round whose generators are x_i-homogeneous, each x_i^a_j h_j
    with h_j free of x_i, runs no Buchberger: their ideal K is graded by
    x_i-degree, and for x_i-homogeneous f = x_i^d p with x_i^k f = sum of
    c_j x_i^a_j h_j, setting x_i = 1 puts p, so f, in (h_j); hence
    K : x_i^inf = (h_j).  Other rounds are Bayer and Stillman's: the reduced
    basis G of K under weight_order(e_i) is homogeneous, and each head has
    the fewest x_i of its terms, so x_i^k divides the head iff it divides
    the element.  Dividing out these largest powers gives a Groebner basis
    of K : x_i^inf: for homogeneous f with x_i^k f in K, a head of G
    divides x_i^k head(f), and its quotient's head is free of x_i, so it
    divides head(f).  The generators stay homogeneous, so the last
    saturation is 1 iff one of them is a constant."""
    n = generators[0].n
    basis = [g for g in generators if not g.is_zero]
    shift = [0] * n
    for i in reversed(range(n)):
        if len(basis) < 2 or any(len(g.terms) == 1 for g in basis):
            break
        if any(len({e[i] for e, _ in g.terms}) > 1 for g in basis):
            order = weight_order(tuple(int(j == i) for j in range(n)))
            basis = buchberger(basis, order).elements
        divided = []
        for g in basis:
            k = min(e[i] for e, _ in g.terms)
            shift[i] = max(shift[i], k)
            divided.append(Polynomial.from_dict(
                n, {e[:i] + (e[i] - k,) + e[i + 1:]: c for e, c in g.terms}))
        basis = divided
    for g in basis:
        if len(g.terms) == 1:
            return Polynomial(n, ((monomial_mul(g.terms[0][0], shift), ONE),))
    return None


def monomial_ideal_dimension(n: int, generators) -> int:
    """Krull dimension of R/(monomial ideal): the largest coordinate
    subspace {x_i : i in S} meeting the variety, i.e. n minus the fewest
    variables that meet every generator support.  A variable set that
    meets a support meets every larger one, so any generators, minimal or
    not (the heads of a reduced basis are minimal), give the same answer."""
    supports = {frozenset(i for i, k in enumerate(e) if k) for e in generators}
    if frozenset() in supports:
        raise ImproperIdealError("ideal is the whole ring")
    return n - _fewest_meeting_variables(supports)


def _fewest_meeting_variables(supports) -> int:
    """Size of a smallest variable set meeting every support: one of the
    variables of the smallest support is in it, so branch on those."""
    if not supports:
        return 0
    smallest = min(supports, key=len)
    return 1 + min(_fewest_meeting_variables([s for s in supports if i not in s])
                   for i in sorted(smallest))


def krull_dimension(ideal: Ideal) -> int:
    """Krull dimension of R/I via the heads of a graded reverse-lex basis."""
    return monomial_ideal_dimension(ideal.n,
                                    buchberger(ideal.generators, GREVLEX).heads)
