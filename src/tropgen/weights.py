"""Weight vectors acting on ideals: initial forms, tropical membership,
Groebner cones and the Groebner fan.

Conventions are min-first throughout: the initial form in_w(f) keeps the
terms of minimal w-weight, and w lies in the tropical variety of a graded
ideal I iff in_w(f) is not a monomial for any f in I, which happens iff the
initial ideal in_w(I) contains no monomial.

The Groebner cone of I at w collects the weights sharing the same marked
reduced Groebner basis; the tropical variety is a union of relatively open
Groebner cones, so membership is constant on each of them.
"""

from __future__ import annotations

import os
from dataclasses import replace
from math import gcd
from operator import sub

from .fans import Cone, Fan, make_cone, member
from .groebner import (MarkedGB, buchberger, contains_monomial, interreduce,
                       normal_form)
from .halfspaces import facets
from .linalg import vec_dot
from .poly import Ideal, Polynomial, weight_order


class BudgetExceededError(RuntimeError):
    """Groebner fan traversal hit its cone budget."""


class BudgetSettingError(ValueError):
    """TROPGEN_BUDGET is set to something other than an integer >= 1."""


def fan_budget() -> int:
    """The cone budget of a fan walk: TROPGEN_BUDGET if set, else 200."""
    raw = os.environ.get("TROPGEN_BUDGET")
    if not raw:
        return 200
    try:
        budget = int(raw)
    except ValueError:
        budget = 0
    if budget < 1:
        raise BudgetSettingError(
            f"TROPGEN_BUDGET must be an integer >= 1, not {raw!r}")
    return budget


def initial_form(p: Polynomial, w) -> Polynomial:
    """Terms of p of minimal w-weight."""
    if p.is_zero:
        return p
    weights = [vec_dot(w, e) for e, _ in p.terms]
    lo = min(weights)
    return Polynomial(p.n, tuple(t for t, wt in zip(p.terms, weights) if wt == lo))


def weight_gb(ideal: Ideal, *weights) -> MarkedGB:
    """Reduced Groebner basis for the order refining the weights in turn;
    on graded ideals the marked head of each element is its minimal-weight
    term under the first weight, ties going to the next (lex-max last)."""
    return buchberger(ideal.generators, weight_order(*weights))


def initial_ideal_generators(ideal: Ideal, w) -> tuple:
    """Generators of in_w(I): initial forms of a w-refined Groebner basis."""
    gb = weight_gb(ideal, w)
    return tuple(initial_form(g, w) for g in gb.elements)


def in_tropical_variety(ideal: Ideal, w) -> bool:
    """w lies in T(I) iff in_w(I) contains no monomial."""
    return not contains_monomial(initial_ideal_generators(ideal, w), ideal.n)


def head_rows(gb: MarkedGB) -> tuple:
    """The distinct rows h - e for each element's head exponent h and each
    other exponent e of its terms: the rows of the closed Groebner cone."""
    return tuple(dict.fromkeys(tuple(map(sub, h, e))
                               for g, h in zip(gb.elements, gb.heads)
                               for e, _ in g.terms if e != h))


def groebner_cone(gb: MarkedGB, *weights) -> Cone:
    """Closure of the set of weights with the marked basis gb, which is
    the refined basis weight_gb(ideal, *weights).

    Rows are head_exponent - other_exponent per Groebner basis element and
    term (head_rows): nonpositive on the cone (heads have minimal weight).
    Rows tied under every weight are equalities of the cone.  Every other
    row is strictly negative at w1 + eps*w2 + ... for small eps > 0, which
    witnesses that all of them can be strict at once, so the
    representation needs no further tightness analysis.
    """
    eqs, ineqs = set(), set()
    for row in head_rows(gb):
        if any(vec_dot(w, row) for w in weights):
            ineqs.add(row)
        else:
            eqs.add(row)
    return make_cone(gb.n, sorted(eqs), sorted(ineqs))


class IncompleteFanError(RuntimeError):
    """A facet flip found no neighbouring cone, so the fan walk would be
    incomplete."""


def enumerate_groebner_fan(ideal: Ideal) -> Fan:
    """All full-dimensional Groebner cones, by depth-first facet flipping.

    Starting from the cone of a fixed term order, halfspaces.facets gives
    each facet row of a cone with a point p in the facet's relative
    interior; the neighbouring cone is the cone of the order refining p by
    the row, and its reduced basis is lifted from the current cone's basis
    (see _flip), so each cone after the first costs one Buchberger run on
    initial forms and one division by the current basis.  A cone's basis
    is kept only while the cone is on the stack.  The traversal stops with
    BudgetExceededError when more than fan_budget() cones appear, and with
    IncompleteFanError when a flip fails.

    A facet F of the current cone C is flipped only when no found cone
    with -row among its rows contains p.  The Groebner fan of a graded
    ideal is a complete fan, so a found cone D != C containing p meets C
    in a common face holding p, hence all of F; the face is not C, so it
    is F, a facet of D too, whose outer normal in D is -row: D's rows,
    primitive and deduplicated, include -row.  C's rows never do.  And p
    lies in exactly two maximal cones, so such a D is the neighbour.
    """
    n = ideal.n
    budget = fan_budget()
    start = _generic_start(ideal)
    found = {}  # insertion-ordered set: walked or on the stack
    by_row = {}  # row -> the found cones having it among their rows

    def add(cone):
        found[cone] = None
        for q in cone.inequalities:
            by_row.setdefault(q, []).append(cone)
    add(start[0])
    stack = [start]  # (cone, basis) pairs
    while stack:
        cone, gb = stack.pop()
        for row, p in facets(n, cone.inequalities).items():
            neg = tuple(-x for x in row)
            if any(member(c, p) for c in by_row.get(neg, ())):
                continue
            other, other_gb = _flip(cone, gb, row, p)
            add(other)
            if len(found) > budget:
                raise BudgetExceededError(
                    f"more than {budget} full-dimensional Groebner cones")
            stack.append((other, other_gb))
    # the cones of a fan share most of their rows: keep one copy of each
    rows = {}
    return Fan(n, tuple(
        replace(c, inequalities=tuple(rows.setdefault(q, q)
                                      for q in c.inequalities))
        for c in found))


def _generic_start(ideal: Ideal):
    """(cone, basis) of the order refining the unit weights e1, ..., en in
    turn: heads have the fewest x1, then the fewest x2, and so on.

    No nonzero row is orthogonal to every unit weight, so the cone has no
    equalities and is full-dimensional (see groebner_cone)."""
    units = [tuple(int(i == j) for j in range(ideal.n))
             for i in range(ideal.n)]
    gb = weight_gb(ideal, *units)
    return groebner_cone(gb, *units), gb


def _flip(cone: Cone, gb: MarkedGB, row, p):
    """(cone, basis) across the facet {row . x = 0} of cone, whose closure
    holds the facet point p; gb is the reduced basis of cone.

    The neighbour is the cone of the order < refining p by the facet's
    outer normal row, which is the order of p + eps*row for every small
    enough eps > 0 (Fukuda, Jensen and Thomas, "Computing Groebner fans",
    2007, section 3).  Its basis is lifted from gb.  p lies in the closure
    of gb's cone, so the initial forms in_p(g), g in gb, are a Groebner
    basis of in_p(I) for gb's order, and Buchberger on them under < gives
    the reduced basis H of in_p(I).  Each h in H lies in in_p(I); dividing
    it by gb leaves a remainder of larger p-weight only, so
    f = h - nf_gb(h) lies in I with in_p(f) = h.  As < refines p, the f
    are a minimal Groebner basis of the graded ideal I for <, monic on the
    heads of H, and inter-reducing them gives the reduced basis, which is
    unique: the same basis, and the same cone, as a fresh Buchberger run.
    """
    order = weight_order(p, row)
    initial = buchberger([initial_form(g, p) for g in gb.elements], order)
    lifted = [h - normal_form(h, gb.elements, gb.heads, gb.order)
              for h in initial.elements]
    other_gb = interreduce(gb.n, lifted, initial.heads, order)
    other = groebner_cone(other_gb, p, row)
    if other == cone or not member(other, p):
        raise IncompleteFanError(
            f"no Groebner cone found across the facet with row {row}")
    return other, other_gb


# ---------------------------------------------------------------------------
# membership maps over integer grids

def normalize_grid_point(w):
    """Canonical representative of an integer weight w modulo the lineality
    direction (1,..,1) and positive scaling: subtract the minimum, divide
    by the gcd.  Tropical membership of a graded ideal is invariant under
    both.  Rational entries raise TypeError rather than being truncated."""
    lo = min(w)
    shifted = tuple(x - lo for x in w)
    g = gcd(*shifted) or 1
    return tuple(x // g for x in shifted)


class MembershipMap:
    """Lazy tropical membership over integer weights, kept per stored
    reduced basis and per face of its closed Groebner cone, so weight_gb
    runs at most once per maximal Groebner cone.  Rational weights raise
    TypeError (see normalize_grid_point); use in_tropical_variety for them.

    A stored basis G, reduced for an order <, answers every normalized key
    in its closed cone, where each row of G has (h - e).key <= 0
    (head_rows).  There each head h is the <-head of in_key(g), so the
    heads, which generate in_<(I), lie in in_<(in_key(I)).  Both ideals
    have the Hilbert function of the graded ideal I, so they are equal and
    in_key(G) is a Groebner basis of in_key(I) (Mora and Robbiano, 1988;
    Sturmfels, Groebner Bases and Convex Polytopes, ch. 1-2): the key lies
    in T(I) iff it contains no monomial.  in_key(g) is h plus the terms
    whose row is tight, (h - e).key = 0, so G keeps one verdict per set of
    tight rows.  Bases are scanned most recently used first; any that
    holds the key gives the exact verdict.  A key in no stored closed cone
    runs weight_gb, whose basis is new and holds the key.
    """

    def __init__(self, ideal: Ideal):
        self.ideal = ideal
        self._bases: list = []  # (MarkedGB, rows, {tight set: verdict})

    def query(self, w) -> bool:
        key = normalize_grid_point(w)
        for i, entry in enumerate(self._bases):
            tight = _tight_rows(entry[1], key)
            if tight is not None:
                self._bases.insert(0, self._bases.pop(i))
                break
        else:
            gb = weight_gb(self.ideal, key)
            entry = (gb, head_rows(gb), {})
            self._bases.insert(0, entry)
            tight = _tight_rows(entry[1], key)
        gb, _, faces = entry
        verdict = faces.get(tight)
        if verdict is None:
            verdict = faces[tight] = not contains_monomial(
                [initial_form(g, key) for g in gb.elements], gb.n)
        return verdict


def _tight_rows(rows, key):
    """Indices of the rows tight at key, or None at a row with row.key > 0."""
    tight = []
    for i, row in enumerate(rows):
        d = vec_dot(row, key)
        if d > 0:
            return None
        if not d:
            tight.append(i)
    return tuple(tight)
