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
from dataclasses import dataclass
from itertools import combinations
from typing import Optional

from .halfspaces import feasible, find_point
from .linalg import (
    QQ,
    kernel_basis_primitive,
    primitive,
    primitive_signed,
    rank,
    rref,
    vec_dot,
)


@dataclass(frozen=True)
class Cone:
    """Canonicalized polyhedral cone {x : E x = 0, Q x <= 0}."""

    n: int
    equalities: tuple  # integer row tuples, RREF-scaled and sign-normalized
    inequalities: tuple  # primitive integer rows, sorted
    label: Optional[tuple] = None  # for W(n) cones: the sorted index set A


def _reduce_mod_equalities(row, eq_rows, pivots):
    """Eliminate the pivot coordinates of the equality space from a row."""
    out = list(QQ(x) for x in row)
    for erow, p in zip(eq_rows, pivots):
        f = out[p] / erow[p]
        if f != 0:
            out = [x - f * y for x, y in zip(out, erow)]
    return tuple(out)


def make_cone(n, equalities=(), inequalities=(), label=None, minimal=False) -> Cone:
    """Canonicalize the H-representation.

    Equalities are put in RREF and scaled to primitive sign-normalized
    integer rows.  Inequalities are reduced modulo the equality space,
    scaled primitive, deduplicated and sorted; zero rows drop out.  With
    minimal=True, inequalities that are forced tight on the cone become
    equalities and redundant inequalities are removed, so the result is a
    unique irredundant representation (used for cross-checking cones).
    """
    eq_rows = [tuple(QQ(x) for x in e) for e in equalities]
    ineq_rows = [tuple(QQ(x) for x in q) for q in inequalities]

    if minimal:
        # detect inequalities that hold with equality on the whole cone
        changed = True
        while changed:
            changed = False
            for i, q in enumerate(ineq_rows):
                others = ineq_rows[:i] + ineq_rows[i + 1:]
                if not feasible(n, equalities=eq_rows, nonstrict=others, strict=[q]):
                    eq_rows.append(q)
                    del ineq_rows[i]
                    changed = True
                    break

    reduced, pivots = rref(eq_rows)
    eq_canon = tuple(primitive_signed(r) for r in reduced)

    seen = set()
    ineq_canon = []
    for q in ineq_rows:
        r = _reduce_mod_equalities(q, reduced, pivots)
        p = primitive(r)
        if any(p) and p not in seen:
            seen.add(p)
            ineq_canon.append(p)

    if minimal:
        # drop inequalities implied by the others
        kept = list(ineq_canon)
        i = 0
        while i < len(kept):
            q = kept[i]
            others = kept[:i] + kept[i + 1:]
            # q is redundant iff {x in cone w/o q : q.x > 0} is empty
            neg_q = tuple(-x for x in q)
            if not feasible(n, equalities=eq_canon, nonstrict=others, strict=[neg_q]):
                del kept[i]
            else:
                i += 1
        ineq_canon = kept

    return Cone(n, eq_canon, tuple(sorted(ineq_canon)), label)


def member(cone: Cone, w) -> bool:
    return (all(vec_dot(e, w) == 0 for e in cone.equalities)
            and all(vec_dot(q, w) <= 0 for q in cone.inequalities))


def relative_interior_contains(cone: Cone, w) -> bool:
    return (all(vec_dot(e, w) == 0 for e in cone.equalities)
            and all(vec_dot(q, w) < 0 for q in cone.inequalities))


def cone_dim(cone: Cone) -> int:
    """Dimension of the cone as a polyhedron."""
    lin_dim = cone.n - rank(cone.equalities) if cone.equalities else cone.n
    if feasible(cone.n, equalities=cone.equalities, strict=cone.inequalities):
        return lin_dim
    # some inequalities are forced tight: the minimal form folds them in
    minimal = make_cone(cone.n, cone.equalities, cone.inequalities, minimal=True)
    return cone.n - len(minimal.equalities)


def relative_interior_point(cone: Cone):
    """A rational point with all non-forced-tight inequalities strict."""
    p = find_point(cone.n, equalities=cone.equalities, strict=cone.inequalities)
    if p is not None:
        return p
    minimal = make_cone(cone.n, cone.equalities, cone.inequalities, minimal=True)
    return find_point(cone.n, equalities=minimal.equalities,
                      strict=minimal.inequalities)


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


def build_W(n: int) -> Fan:
    """The fan of cones C_A = {w : w_i = min w for i in A}, A nonempty.

    Each C_A is emitted in an already-minimal representation: equalities
    w_i = w_a0 for i in A (a0 = min A), inequalities w_a0 <= w_k for k
    outside A.  dim C_A = n - |A| + 1.
    """
    indices = list(range(n))
    cones = []
    for size in range(1, n + 1):
        for A in combinations(indices, size):
            a0 = A[0]
            eqs = []
            for i in A[1:]:
                row = [0] * n
                row[i] = 1
                row[a0] = -1
                eqs.append(tuple(row))
            ineqs = []
            for k in indices:
                if k in A:
                    continue
                row = [0] * n
                row[a0] = 1
                row[k] = -1
                ineqs.append(tuple(row))
            cones.append(make_cone(n, eqs, ineqs, label=tuple(A)))
    return Fan(n, tuple(cones))


def w_skeleton(n: int, m: int) -> Fan:
    """The m-skeleton of W(n): cones C_A with |A| >= n - m + 1."""
    full = build_W(n)
    return Fan(n, tuple(c for c in full.cones if len(c.label) >= n - m + 1))


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


def permute_weight(w, perm):
    """Apply the coordinate permutation i -> perm[i] to a weight vector:
    the image has value w[i] at position perm[i]."""
    out = [None] * len(w)
    for i, x in enumerate(w):
        out[perm[i]] = x
    return tuple(out)


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
