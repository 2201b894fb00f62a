"""Buchberger's algorithm with marked heads, plus ideal-theoretic queries:
dimension, and monomial containment by saturation in the homogeneous
ideal's own ring.

A reduced marked Groebner basis is unique for a given ideal and term order,
so downstream computations (dimensions, cones, initial ideals) are
deterministic.  Heads are the order-maximal terms under the preference key
of the order; for weight-refined orders on homogeneous input this marks the
terms of minimal weight.

Every marked basis is monic on its heads (Cox, Little and O'Shea, Ideals,
Varieties, and Algorithms, ch. 2 section 7); the reduction code relies on
it and reads no head coefficient.
"""

from __future__ import annotations

from dataclasses import dataclass

from .linalg import ZERO, ONE
from .poly import (
    GRLEX,
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
    order-maximal term, on which the element is monic."""

    n: int
    order: TermOrder
    elements: tuple  # Polynomial, monic on heads, deterministically ordered
    heads: tuple  # head exponent of each element

    def supports(self) -> frozenset:
        return frozenset(g.support() for g in self.elements)


def _add_shifted_tail(work: dict, g: Polynomial, h, shift, factor) -> None:
    """work += factor * x^shift * (g - its head term h), in place, deleting
    each entry as it becomes zero."""
    for e, c in g.terms:
        if e != h:
            key = monomial_mul(e, shift)
            c = work.get(key, ZERO) + factor * c
            if c:
                work[key] = c
            else:
                del work[key]


def normal_form(p: Polynomial, basis, heads, order: TermOrder) -> Polynomial:
    """Fully reduce p modulo the marked basis (tail reduction included).

    Precondition: each basis element is monic on its head, its term that
    is maximal under order.  A term c*x^a that heads[i] divides is then
    replaced by -c*x^(a - heads[i]) times the tail of basis[i], whose terms
    are all smaller than x^a.  Terms are taken largest first, so each
    monomial leaves work once, to be reduced or to enter the remainder."""
    remainder = {}
    work = dict(p.terms)
    while work:
        exp = max(work, key=order.key)
        coeff = work.pop(exp)
        for g, h in zip(basis, heads):
            if monomial_divides(h, exp):
                _add_shifted_tail(work, g, h, monomial_div(exp, h), -coeff)
                break
        else:
            remainder[exp] = coeff
    return Polynomial.from_dict(p.n, remainder)


def s_polynomial(f: Polynomial, g: Polynomial, hf, hg) -> Polynomial:
    """x^(l - hf)*f - x^(l - hg)*g for l = lcm(hf, hg), with f and g monic
    on their heads hf and hg: the two heads cancel, leaving the shifted
    tails."""
    l = monomial_lcm(hf, hg)
    shift = monomial_div(l, hf)
    work = {monomial_mul(e, shift): c for e, c in f.terms if e != hf}
    _add_shifted_tail(work, g, hg, monomial_div(l, hg), -ONE)
    return Polynomial.from_dict(f.n, work)


def buchberger(generators, order: TermOrder) -> MarkedGB:
    """Reduced marked Groebner basis of the ideal the generators span."""
    n = generators[0].n
    basis = [g.monic(order) for g in generators if not g.is_zero]
    heads = [g.head_monomial(order) for g in basis]

    pairs = {(i, j) for i in range(len(basis)) for j in range(i)}
    while pairs:
        # normal strategy: smallest lcm degree first, then oldest pair
        i, j = min(pairs, key=lambda p: (
            monomial_degree(monomial_lcm(heads[p[0]], heads[p[1]])), p))
        pairs.remove((i, j))
        hi, hj = heads[i], heads[j]
        l = monomial_lcm(hi, hj)
        # product criterion
        if l == monomial_mul(hi, hj):
            continue
        # chain criterion
        if any(k != i and k != j and monomial_divides(heads[k], l)
               and (max(i, k), min(i, k)) not in pairs
               and (max(j, k), min(j, k)) not in pairs
               for k in range(len(basis))):
            continue
        r = normal_form(s_polynomial(basis[i], basis[j], hi, hj), basis, heads, order)
        if not r.is_zero:
            r = r.monic(order)
            basis.append(r)
            heads.append(r.head_monomial(order))
            new = len(basis) - 1
            pairs.update((new, k) for k in range(new))

    return interreduce(n, basis, heads, order)


def interreduce(n: int, basis, heads, order: TermOrder) -> MarkedGB:
    """The reduced marked basis from a Groebner basis whose element i is
    monic on its head heads[i] under order: drop elements whose head
    another head divides, then reduce each tail by the others.  No kept
    head divides another, and reduction only adds terms smaller than the
    one it removes, so each head leaves normal_form first, unreduced, with
    its coefficient 1: the results are monic on the same heads."""
    keep = [i for i, h in enumerate(heads)
            if not any(j != i and monomial_divides(heads[j], h)
                       and (heads[j] != h or j < i) for j in range(len(heads)))]
    basis = [basis[i] for i in keep]
    heads = [heads[i] for i in keep]
    reduced = [normal_form(g, basis[:i] + basis[i + 1:],
                           heads[:i] + heads[i + 1:], order)
               for i, g in enumerate(basis)]
    combined = sorted(zip(heads, reduced), key=lambda t: order.key(t[0]))
    heads = tuple(h for h, _ in combined)
    elements = tuple(g for _, g in combined)
    return MarkedGB(n, order, elements, heads)


def contains_monomial(generators, n: int) -> bool:
    """True iff the homogeneous ideal J the generators span contains a
    monomial, which holds iff its saturation by xn, ..., x1 in turn is 1.
    Each step is Bayer and Stillman's: the reduced basis G of a homogeneous
    K under weight_order(e_i) is homogeneous, and each head has the fewest
    x_i of its terms, so x_i^k divides the head iff it divides the element.
    Dividing out these largest powers gives a Groebner basis of K : x_i^inf:
    for homogeneous f with x_i^k f in K, a head of G divides x_i^k head(f),
    and its quotient's head is free of x_i, so it divides head(f).  A
    single-term element of a saturation has a multiple in J, and a unit
    last saturation has a homogeneous element with head 1."""
    basis = list(generators)
    for i in reversed(range(n)):
        if any(len(g.terms) == 1 for g in basis):
            return True
        gb = buchberger(basis, weight_order(tuple(int(j == i) for j in range(n))))
        basis = []
        for g in gb.elements:
            k = min(e[i] for e, _ in g.terms)
            basis.append(Polynomial.from_dict(
                n, {e[:i] + (e[i] - k,) + e[i + 1:]: c for e, c in g.terms}))
    return any(len(g.terms) == 1 for g in basis)


def minimal_monomial_generators(exponents) -> tuple:
    """Minimal generating set of the monomial ideal the exponents generate."""
    uniq = sorted(set(exponents), key=lambda e: (monomial_degree(e), e))
    out = []
    for e in uniq:
        if not any(monomial_divides(m, e) for m in out):
            out.append(e)
    return tuple(out)


def monomial_ideal_dimension(n: int, generators) -> int:
    """Krull dimension of R/(monomial ideal): the largest coordinate
    subspace {x_i : i in S} meeting the variety, i.e. n minus the fewest
    variables that meet every generator support."""
    gens = minimal_monomial_generators(generators)
    if any(e == (0,) * n for e in gens):
        raise ImproperIdealError("ideal is the whole ring")
    supports = [frozenset(i for i, k in enumerate(e) if k > 0) for e in gens]
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
    """Krull dimension of R/I via the head ideal of a graded-lex basis."""
    gb = buchberger(ideal.generators, GRLEX)
    if any(h == (0,) * gb.n for h in gb.heads):
        raise ImproperIdealError("ideal is the whole ring")
    return monomial_ideal_dimension(ideal.n, gb.heads)
