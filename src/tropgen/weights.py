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
from collections import Counter
from dataclasses import replace
from functools import cache
from itertools import product
from math import gcd
from operator import mul, sub

from .fans import Cone, Fan, make_cone, member
from .groebner import MarkedGB, buchberger, contains_monomial, lift
from .halfspaces import facets
from .linalg import vec_dot
from .poly import (INTEGER, Ideal, Polynomial, integer_literal,
                   weight_order)


class BudgetExceededError(RuntimeError):
    """Groebner fan traversal hit its cone budget."""


class BudgetSettingError(ValueError):
    """TROPGEN_BUDGET is set to something other than an integer >= 1."""


def fan_budget() -> int:
    """The cone budget of a fan walk: TROPGEN_BUDGET if set, else 200."""
    raw = os.environ.get("TROPGEN_BUDGET")
    if not raw:
        return 200
    budget = integer_literal(raw) if INTEGER.fullmatch(raw) else 0
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
    term under the first weight, ties going to the next, then reverse lex."""
    return buchberger(ideal.generators, weight_order(*weights))


def initial_forms(gb: MarkedGB, w) -> tuple:
    """The initial forms in_w(g) of the elements of gb: generators of
    in_w(I) when w lies in the closure of gb's cone (see MembershipMap)."""
    return tuple(initial_form(g, w) for g in gb.elements)


def in_tropical_variety(ideal: Ideal, w) -> bool:
    """w lies in T(I) iff in_w(I) contains no monomial."""
    return contains_monomial(initial_forms(weight_gb(ideal, w), w)) is None


def head_rows(gb: MarkedGB) -> tuple:
    """The distinct rows h - e for each element's head exponent h and each
    other exponent e of its terms: the rows of the closed Groebner cone."""
    return tuple(dict.fromkeys(tuple(map(sub, h, e))
                               for g, h in zip(gb.elements, gb.heads)
                               for e, _ in g.terms if e != h))


def groebner_cone(gb: MarkedGB) -> Cone:
    """Closure of the set of weights with the marked basis gb, which is
    the refined basis weight_gb(ideal, *gb.order.weights).

    Rows are head_exponent - other_exponent per Groebner basis element and
    term (head_rows): nonpositive on the cone (heads have minimal weight).
    Rows tied under every weight are equalities of the cone.  Every other
    row is strictly negative at w1 + eps*w2 + ... for small eps > 0, which
    witnesses that all of them can be strict at once, so the
    representation needs no further tightness analysis.
    """
    eqs, ineqs = set(), set()
    for row in head_rows(gb):
        if any(vec_dot(w, row) for w in gb.order.weights):
            ineqs.add(row)
        else:
            eqs.add(row)
    return make_cone(gb.n, sorted(eqs), sorted(ineqs))


class IncompleteFanError(RuntimeError):
    """A facet flip found no neighbouring cone, or a walked cone has an
    equality, so the fan walk would be incomplete."""


def enumerate_groebner_fan(ideal: Ideal) -> Fan:
    """All full-dimensional Groebner cones, by depth-first facet flipping.

    Starting from the cone of a fixed term order, halfspaces.facets gives
    each facet row of a cone with a point p in the facet's relative
    interior, by rays from an interior point read off the cone's order
    (_order_point); the neighbouring cone is the cone of the order refining
    p by the row, and its reduced basis is lifted from the current cone's basis
    (see groebner.lift), so each cone after the first costs one Buchberger
    run on initial forms and one division of the p-initial part by in_p(G)
    for the current basis G.  A cone's
    basis is kept only while the cone is on the stack.  The traversal stops
    with BudgetExceededError when more than fan_budget() cones appear, and
    with IncompleteFanError when a flip fails or a cone has an equality.

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
        interior = _order_point(cone, gb.order.weights)
        for row, p in facets(n, cone.inequalities, interior).items():
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


def _order_point(cone: Cone, weights):
    """An integer point where every row of the cone is negative, read off
    the weights w1, w2, ... of its order (see groebner_cone): its rows are
    negative at w1 + eps*w2 + ... for every small enough eps > 0.

    From x = w1, each further weight w makes x = M*x + w, where M >= 1
    exceeds r.w / -r.x for every row r with r.x < 0: those rows stay
    negative, and a row with r.x = 0, orthogonal to the weights so far,
    takes the sign of r.w, negative at the first weight not orthogonal to
    it.  A row that is not negative at the end is orthogonal to every
    weight, an equality of the cone, which a walk of full-dimensional
    cones never meets: IncompleteFanError.
    """
    rows = cone.equalities + cone.inequalities
    x = weights[0]
    for w in weights[1:]:
        m = 1
        for r in rows:
            d = vec_dot(r, x)
            if d < 0:
                m = max(m, vec_dot(r, w) // -d + 1)
        x = tuple(m * a + b for a, b in zip(x, w))
    if any(vec_dot(r, x) >= 0 for r in rows):
        raise IncompleteFanError(
            f"the Groebner cone of the weights {weights} has an equality")
    return x


def _generic_start(ideal: Ideal):
    """(cone, basis) of the order refining the unit weights e1, ..., en in
    turn: heads have the fewest x1, then the fewest x2, and so on.

    No nonzero row is orthogonal to every unit weight, so the cone has no
    equalities and is full-dimensional (see groebner_cone)."""
    units = [tuple(int(i == j) for j in range(ideal.n))
             for i in range(ideal.n)]
    gb = weight_gb(ideal, *units)
    return groebner_cone(gb), gb


def _flip(cone: Cone, gb: MarkedGB, row, p):
    """(cone, basis) across the facet {row . x = 0} of cone, whose closure
    holds the facet point p; gb is the reduced basis of cone.

    The neighbour is the cone of the order refining p by the facet's
    outer normal row, which is the order of p + eps*row for every small
    enough eps > 0 (Fukuda, Jensen and Thomas, "Computing Groebner fans",
    2007, section 3); its basis is lifted from gb and the reduced basis
    of in_p(I) for that order by one division of the p-initial part by
    in_p(G), G = gb (see groebner.lift).
    """
    other_gb = lift(buchberger(initial_forms(gb, p), weight_order(p, row)), gb)
    other = groebner_cone(other_gb)
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
    both.  Rational entries raise TypeError rather than being truncated.
    A tuple that is already normalized is returned as it is."""
    lo = min(w)
    if not lo and gcd(*w) <= 1 and isinstance(w, tuple):
        return w
    shifted = tuple(x - lo for x in w)
    g = gcd(*shifted) or 1
    return tuple(x // g for x in shifted)


# the most points a grid [-radius, radius]^n may have, counted before any is
# built: 45 times the largest campaign timed (n = 7 at radius 1)
MAX_GRID_POINTS = 10 ** 5


class GridSizeError(ValueError):
    """A grid [-radius, radius]^n has more than MAX_GRID_POINTS points."""


@cache
def normalized_grid(n: int, radius: int) -> tuple:
    """Sorted normalized representatives of the grid [-radius, radius]^n,
    the origin first, computed once per (n, radius), so maps over one grid
    share their keys.  GridSizeError when the grid has more than
    MAX_GRID_POINTS points, counted before any is built."""
    points = (2 * radius + 1) ** n
    if points > MAX_GRID_POINTS:
        raise GridSizeError(
            f"the radius-{radius} grid in {n} variables has {points} "
            f"points, more than {MAX_GRID_POINTS}")
    return tuple(sorted({normalize_grid_point(w)
                         for w in product(range(-radius, radius + 1),
                                          repeat=n)}))


@cache
def _several_zeros(n: int, radius: int) -> tuple:
    """Indices of the keys of normalized_grid(n, radius) but the origin
    with more than one 0: those a pure-power witness leaves open."""
    points = normalized_grid(n, radius)
    return tuple(i for i in range(1, len(points)) if points[i].count(0) > 1)


class MembershipMap:
    """Lazy tropical membership over integer weights, kept per stored
    reduced basis and per face of its closed Groebner cone, so weight_gb
    runs at most once per maximal Groebner cone.  Rational weights raise
    TypeError (see normalize_grid_point); use in_tropical_variety for them.

    Keys are first ruled out by witnesses: the exponents of known elements
    f of I, one per generator and one per element of every basis computed.
    If key.e is minimal at exactly one exponent e of f, then in_key(f) is
    a monomial of in_key(I), and the key is not in T(I) (T(I) is the
    intersection of the T(f), f in I: Maclagan and Sturmfels, Introduction
    to Tropical Geometry, Thm 3.2.3).  Every f is homogeneous, so shifting
    and scaling the weight, as normalizing does, keeps its minimal terms.
    An f of degree d >= 1 with every pure power d*e_i has Newton polytope
    d*Simplex, where key.e is minimal on the face spanned by the d*e_i with
    key_i minimal: f has one minimal term iff the key has one minimal
    coordinate, one 0 once normalized: an O(n) test per key, and grid rules
    out every such key of its grid at once.  Other witnesses take one dot
    product per term.  counts records each key's outcome: "witness",
    "stored face" (no work), "new face" (one saturation) or "new basis"
    (one weight_gb and one saturation); it is deterministic and in no JSON
    output.  The origin is in T(I) once any other key is: a monomial of I
    would lie in every in_w(I), and in_0(I) = I; so grid asks for it last,
    and only when no other key of its grid is in T(I).

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
        self.counts = Counter()
        self._simplex = False  # some witness has every pure power
        self._witnesses = {}  # exponents of the other witnesses, as a set
        self._add_witnesses(ideal.generators)
        self._bases: list = []  # (MarkedGB, rows, {tight set: verdict})

    def _add_witnesses(self, polys):
        for p in polys:
            exps = tuple(e for e, _ in p.terms)
            d = sum(exps[0])  # p is homogeneous: x^e is a pure power iff d in e
            if d and sum(d in e for e in exps) == len(exps[0]):
                self._simplex = True
            else:
                self._witnesses[exps] = None

    def query(self, w) -> bool:
        key = normalize_grid_point(w)
        if self._simplex and key.count(0) == 1:
            self.counts["witness"] += 1
            return False
        for exps in self._witnesses:
            dots = [sum(map(mul, key, e)) for e in exps]
            if dots.count(min(dots)) == 1:
                self.counts["witness"] += 1
                return False
        for i, entry in enumerate(self._bases):
            tight = _tight_rows(entry[1], key)
            if tight is not None:
                self._bases.insert(0, self._bases.pop(i))
                outcome = "new face"
                break
        else:
            gb = weight_gb(self.ideal, key)
            self._add_witnesses(gb.elements)
            entry = (gb, head_rows(gb), {})
            self._bases.insert(0, entry)
            tight = _tight_rows(entry[1], key)
            outcome = "new basis"
        gb, _, faces = entry
        verdict = faces.get(tight)
        if verdict is None:
            verdict = faces[tight] = contains_monomial(
                initial_forms(gb, key)) is None
        else:
            outcome = "stored face"
        self.counts[outcome] += 1
        return verdict

    def grid(self, radius: int) -> bytes:
        """One byte per point of normalized_grid(n, radius), 1 for a key in
        T(I): query answers, in grid order, the keys the rules above leave
        open."""
        points = normalized_grid(self.ideal.n, radius)
        asked = range(1, len(points))
        if self._simplex:
            asked = _several_zeros(self.ideal.n, radius)
            self.counts["witness"] += len(points) - 1 - len(asked)
        verdicts = bytearray(len(points))
        for i in asked:
            verdicts[i] = self.query(points[i])
        verdicts[0] = any(verdicts) or self.query(points[0])
        return bytes(verdicts)


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
