"""Polyhedral cones and fans in H-representation, all arithmetic exact.

A cone is stored as integer equality rows (e.x = 0) and inequality rows
(q.x <= 0).  Canonicalization makes structural equality meaningful for the
cones produced by one construction route; cross-route comparisons go
through same_cone(), which checks mutual containment and therefore does not
depend on the representation at all.

The reference fan W(n) consists of the cones

    C_A = { w : w_i = min_k w_k for all i in A },   {} != A <= {1..n}

of dimension n - |A| + 1; its t-skeleton collects the C_A with |A| >= n-t+1.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from itertools import combinations
from typing import Optional

from .halfspaces import feasible
from .linalg import (
    clear_column,
    echelon,
    kernel_basis_primitive,
    primitive,
    vec_dot,
)


@dataclass(frozen=True, slots=True)
class Cone:
    """Canonicalized polyhedral cone {x : E x = 0, Q x <= 0}; slotted, as
    a fan walk returns every cone it finds."""

    n: int
    equalities: tuple  # RREF rows scaled to primitive integers, in pivot order
    inequalities: tuple  # primitive integer rows reduced modulo E, sorted
    label: Optional[tuple] = None  # for W(n) cones: the sorted index set A


def make_cone(n, equalities=(), inequalities=()) -> Cone:
    """Canonicalize the H-representation with integer arithmetic only.

    Fraction-free Gauss-Jordan elimination (linalg.echelon) turns the
    equalities into primitive rows with positive pivots, which are the RREF
    rows scaled.  Inequalities are reduced modulo them (every pivot
    coordinate cleared), made primitive, deduplicated and sorted; zero rows
    drop out.  Rational input rows are scaled to primitive integer rows
    first.
    """
    eq_rows, pivots = echelon(equalities, n)
    ineq_rows = set()
    for q in inequalities:
        q = primitive(q)
        for erow, c in zip(eq_rows, pivots):
            q = clear_column(q, erow, c)
        if any(q):
            ineq_rows.add(q)
    return Cone(n, eq_rows, tuple(sorted(ineq_rows)))


def member(cone: Cone, w) -> bool:
    return (all(vec_dot(e, w) == 0 for e in cone.equalities)
            and all(vec_dot(q, w) <= 0 for q in cone.inequalities))


def relative_interior_contains(cone: Cone, w) -> bool:
    """w satisfies every equality and every inequality strictly; the
    loops stop at the first row that fails."""
    for e in cone.equalities:
        if vec_dot(e, w):
            return False
    for q in cone.inequalities:
        if vec_dot(q, w) >= 0:
            return False
    return True


def cone_dim(cone: Cone) -> int:
    """Dimension of the cone as a polyhedron.

    Canonical equality rows are independent, so when all inequalities can
    be strict at once the dimension is n minus their number.  Otherwise the
    inequalities that are tight on the whole cone join the equalities."""
    eqs, ineqs = cone.equalities, cone.inequalities
    if not feasible(cone.n, equalities=eqs, strict=ineqs):
        tight = tuple(q for q in ineqs if not feasible(
            cone.n, equalities=eqs, nonstrict=ineqs, strict=[q]))
        eqs = make_cone(cone.n, eqs + tight).equalities
    return cone.n - len(eqs)


def cone_contains(outer: Cone, inner: Cone) -> bool:
    """Set containment inner <= outer, decided per constraint of outer.

    A linear functional q is <= 0 on inner iff {x in inner : q.x >= 1} is
    empty; by homogeneity the right-hand side 1 is encoded as strict
    positivity.  Equalities of outer are checked as two inequalities.
    """
    rows = list(outer.inequalities)
    for e in outer.equalities:
        rows.append(e)
        rows.append(tuple(-x for x in e))
    for q in rows:
        neg_q = tuple(-x for x in q)
        if feasible(inner.n, equalities=inner.equalities,
                    nonstrict=inner.inequalities, strict=[neg_q]):
            return False
    return True


def same_cone(a: Cone, b: Cone) -> bool:
    """Representation-independent set equality."""
    if a.n != b.n:
        return False
    return cone_contains(a, b) and cone_contains(b, a)


@dataclass(frozen=True)
class Fan:
    n: int
    cones: tuple


def unit_diff(n, i, j):
    """Row of the constraint w_i - w_j <= 0 (or = 0)."""
    return tuple((1 if k == i else 0) - (1 if k == j else 0) for k in range(n))


def plateau_cone(n, B, E) -> Cone:
    """The cone {w_B <= w_E, w_E all equal, w_E <= w_rest}."""
    E = sorted(E)
    B = sorted(B)
    T = [i for i in range(n) if i not in set(E) | set(B)]
    e0 = E[0]
    eqs = [unit_diff(n, e, e0) for e in E[1:]]
    ineqs = [unit_diff(n, b, e0) for b in B] + [unit_diff(n, e0, t) for t in T]
    return make_cone(n, eqs, ineqs)


def build_W(n: int) -> Fan:
    """The fan of cones C_A = {w : w_i = min w for i in A}, A nonempty:
    C_A is the plateau cone of A with nothing below it, labelled A.
    dim C_A = n - |A| + 1.
    """
    return w_skeleton(n, n)


def w_skeleton(n: int, m: int) -> Fan:
    """The m-skeleton of W(n): cones C_A with |A| >= n - m + 1, built
    without the cones of lower dimension."""
    return Fan(n, tuple(replace(plateau_cone(n, (), A), label=A)
                        for size in range(max(1, n - m + 1), n + 1)
                        for A in combinations(range(n), size)))


def skeleton_membership(n: int, m: int, w) -> bool:
    """w lies in the m-skeleton of W(n) iff its minimum coordinate is
    attained at least n - m + 1 times (empty skeleton for m <= 0)."""
    if m <= 0:
        return False
    lo = min(w)
    return sum(1 for x in w if x == lo) >= n - m + 1


def lineality_space(fan: Fan) -> tuple:
    """Primitive basis of the common lineality space of all cones."""
    rows = {r for c in fan.cones for r in c.equalities + c.inequalities}
    return kernel_basis_primitive(sorted(rows), fan.n)


# ---------------------------------------------------------------------------
# JSON serialization (canonical: sorted keys, cones sorted by content)

def cone_to_jsonable(cone: Cone) -> dict:
    lin = kernel_basis_primitive(
        tuple(cone.equalities) + tuple(cone.inequalities), cone.n)
    out = {
        "equalities": [list(map(int, r)) for r in cone.equalities],
        "inequalities": [list(map(int, r)) for r in cone.inequalities],
        "lineality": [list(map(int, r)) for r in lin],
    }
    if cone.label is not None:
        out["label"] = [i + 1 for i in cone.label]
    return out


def fan_to_jsonable(fan: Fan) -> dict:
    cones = [cone_to_jsonable(c) for c in fan.cones]
    cones.sort(key=lambda c: json.dumps(c, sort_keys=True))
    return {"n": fan.n, "cones": cones}


def dumps_canonical(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"
