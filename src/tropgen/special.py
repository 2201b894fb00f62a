"""Closed forms for principal and linear ideals, and their verification.

For a principal ideal (f) with deg f >= 1 and a generic coordinate change,
the generic tropical variety is the (n-1)-skeleton of the reference fan
W(n), and the generic Groebner fan is W(n) itself.

For an ideal generated by r independent linear forms (rows of a matrix A),
genericity means every r x r minor of A*g is nonzero; then the Groebner
cone of a weight w depends only on how the sorted coordinates of w cross
position r:

  * if the r-th smallest coordinate is strictly below the (r+1)-st, the
    cone is full-dimensional: the chosen r coordinates stay the smallest;
  * otherwise a plateau of equal coordinates crosses position r, and the
    cone fixes that plateau E as equalities, keeping the strictly smaller
    block B below it and the rest above.

So the closed-form cone depends on (r, n, w) only; genericity is checked
once per matrix, not per weight.  Matrix rows are scaled to primitive
integer rows at parse time, which changes neither the ideal nor its
reported RREF.

The generic tropical variety is again a skeleton: W(n)^m with m = n - r.

Each check runs one grid campaign (generic_membership_map) whose
transforms pass the family's gate: nonzero pure powers x_k^d in g(f) for a
principal ideal, nonzero maximal minors of A*g for a linear one.  Its
closed-form comparisons then run on the campaign's first transform, and
it returns a ClosedFormReport.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass
from itertools import combinations
from math import comb, prod

from .fans import Cone, build_W, make_cone, plateau_cone, same_cone, unit_diff
from .generic import (
    check_skeleton_equality,
    generic_membership_map,
    transform_ideal,
    trial_seed,
)
from .groebner import krull_dimension
from .linalg import QQ, mat_mul, primitive, rank
from .poly import (Ideal, ImproperIdealError, ParseError, Polynomial,
                   header_lines, integer_literal)
from .weights import enumerate_groebner_fan, groebner_cone, weight_gb


class NonGenericMatrixError(ValueError):
    """The matrix fails a genericity condition needed by a closed form."""


def pure_power_coefficients(f: Polynomial, g) -> tuple:
    """Coefficient of x_k^d in g(f), for homogeneous f of degree d.

    Substituting x_i -> sum_j g[i][j] x_j and collecting the pure power
    x_k^d gives  P_k = sum_nu a_nu prod_i g[i][k]^{nu_i}  over the terms
    a_nu x^nu of f; no other source contributes to x_k^d.
    """
    if f.homogeneous_degree() is None:
        raise ValueError("polynomial must be homogeneous")
    return tuple(sum(c * prod(g[i][k] ** nu for i, nu in enumerate(e))
                     for e, c in f.terms) for k in range(f.n))


@dataclass
class ClosedFormReport:
    """Outcome of a closed-form check: each check's JSON key mapped to its
    verdict, and the mismatches behind the false ones."""

    checks: dict
    mismatches: list

    @classmethod
    def of(cls, **found):
        """The report of checks that found these lists of mismatches: a
        check passes when it found none."""
        return cls({key: not mism for key, mism in found.items()},
                   [m for mism in found.values() for m in mism])

    @property
    def ok(self) -> bool:
        return all(self.checks.values())

    def to_jsonable(self) -> dict:
        return {**self.checks,
                "mismatches": [repr(m) for m in self.mismatches]}


def check_principal_theorem(f: Polynomial, trials: int = 3, seed: int = 1,
                            bound: int = 50,
                            radius: int = 2) -> ClosedFormReport:
    """One grid campaign on (f) whose transforms g give g(f) every pure
    power x_k^d, a dense open condition for deg f >= 1 that no transform
    meets when the bound rules it out (f = x1^3*x2 - x1*x2^3 with bound 1:
    TransformSearchError).  Then the Newton polytope of g(f) has every
    vertex d*e_k, so its normal fan, the Groebner fan of g(f), is W(n).
    Checks that the agreed grid membership equals the (n-1)-skeleton of
    W(n), and (n <= 4, first transform) that the Groebner fan of g(f) is
    same_cone-bijective with the maximal cones of W(n)."""
    if not f.homogeneous_degree():
        raise ImproperIdealError("ideal is the whole ring")
    n = f.n
    campaign = generic_membership_map(
        Ideal.of(n, (f,)), grid_radius=radius, trials=trials, bound=bound,
        seed=seed, accept=lambda g: all(pure_power_coefficients(f, g)))
    _, grid = check_skeleton_equality(campaign, n - 1)
    return ClosedFormReport.of(
        # the campaign's gate: it returns no transform without them
        pure_powers_nonzero=[],
        grid_equal_skeleton=[("grid", grid[:5])] if grid else [],
        fan_equals_W=_fan_mismatches(transform_ideal(
            campaign.ideal, campaign.transforms[0])) if n <= 4 else [])


def _fan_mismatches(ideal: Ideal) -> list:
    n = ideal.n
    fan = enumerate_groebner_fan(ideal)
    expected = [c for c in build_W(n).cones if len(c.label) == 1]
    if len(fan.cones) != len(expected):
        return [("fan", f"{len(fan.cones)} cones, expected {len(expected)}")]
    for c in fan.cones:
        if not any(same_cone(c, e) for e in expected):
            return [("fan", f"unexpected cone {c.inequalities}")]
    return []


# ---------------------------------------------------------------------------
# linear ideals

def linear_ideal(rows) -> Ideal:
    """The ideal generated by the linear forms with these coefficient rows."""
    n = len(rows[0])
    return Ideal.of(n, tuple(
        Polynomial.from_dict(n, {tuple(int(j == i) for j in range(n)): QQ(c)
                                 for i, c in enumerate(row) if c})
        for row in rows))


def check_minors(rows, n) -> bool:
    """All C(n, r) maximal minors of the r x n matrix nonzero: every choice
    of r columns has rank r."""
    r = len(rows)
    return all(rank([[row[c] for c in cols] for row in rows]) == r
               for cols in combinations(range(n), r))


def right_block_nonzero(reduced, n) -> bool:
    """Every entry of the * block of a matrix in [I_r | *] form nonzero.

    check_minors implies it: when every maximal minor is nonzero, the
    first r columns are independent, so the reduced form is [I_r | *], and
    by Cramer's rule each * entry is, up to sign, a ratio of two maximal
    minors."""
    r = len(reduced)
    return all(reduced[i][j] != 0 for i in range(r) for j in range(r, n))


def parse_matrix_file(text: str) -> tuple:
    """Matrix file: a 'matrix: r n' header (header_lines), then r
    whitespace-separated rows of rationals p or p/q (a signed integer over
    an unsigned one), linearly independent with 1 <= r <= n - 1 (a proper
    linear ideal of dimension n - r >= 1).

    Returns the rows scaled to primitive integer rows, which changes
    neither the ideal nor its RREF."""
    (r, n), lines = header_lines(text, "matrix: r n")
    rows = []
    for lineno, line in lines:
        entries = line.split()
        if len(entries) != n:
            raise ParseError(f"line {lineno}: expected {n} entries", 0)
        row = []
        for ent in entries:
            m = re.fullmatch(r"([+-]?[0-9]+)(?:/([0-9]+))?", ent)
            q = integer_literal(m.group(2) or "1") if m else 0
            if q == 0:
                raise ParseError(f"line {lineno}: bad entry {ent!r}", 0)
            row.append(QQ(integer_literal(m.group(1)), q))
        rows.append(tuple(row))
    if len(rows) != r:
        raise ParseError(f"expected {r} rows, got {len(rows)}", 0)
    if not 0 < rank(rows) == len(rows) < n:
        raise ParseError(f"need 1 <= r <= n - 1 linearly independent rows, "
                         f"got {len(rows)} of rank {rank(rows)}", 0)
    return tuple(map(primitive, rows))


def linear_groebner_cone(r, n, w) -> Cone:
    """Closed-form Groebner cone at w of a generic rank-r linear ideal in
    n variables.

    Precondition, not checked here: the ideal's matrix is generic, that
    is every maximal minor is nonzero (check_minors), so its reduced form
    is [I_r | *] with every * entry nonzero (right_block_nonzero).  Then
    the cone depends on (r, n, w) only: sort the coordinates of w; the
    block structure around position r decides (see module docstring)."""
    if not 1 <= r <= n - 1:
        raise ValueError("rank must be between 1 and n-1")
    order = sorted(range(n), key=lambda i: (w[i], i))
    values = [w[i] for i in order]
    if values[r - 1] < values[r]:
        # full-dimensional: the r chosen coordinates stay smallest
        small = set(order[:r])
        ineqs = [unit_diff(n, s, t)
                 for s in small for t in range(n) if t not in small]
        return make_cone(n, (), ineqs)
    pivot_value = values[r - 1]
    E = [i for i in range(n) if w[i] == pivot_value]
    B = [i for i in range(n) if w[i] < pivot_value]
    return plateau_cone(n, B, E)


def linear_fan_census(n: int, r: int) -> dict:
    """Number of Groebner cones of each dimension for a generic rank-r
    linear ideal, from the closed form.

    Full-dimensional cones pick the r smallest coordinates: C(n, r) of
    dimension n.  Lower cones are plateau patterns (B, E): a plateau E of
    size >= 2 crossing position r (|B| <= r-1, |B| + |E| >= r+1), of
    dimension n - |E| + 1.
    """
    census = {n: comb(n, r)}
    for e_size in range(2, n + 1):
        d = n - e_size + 1
        count = 0
        for b_size in range(0, r):
            if b_size + e_size < r + 1 or b_size + e_size > n:
                continue
            count += comb(n, e_size) * comb(n - e_size, b_size)
        if count:
            census[d] = census.get(d, 0) + count
    return census


LINEAR_WEIGHTS = 20  # random weights at which closed form and engine meet


def check_linear_theorem(rows, trials: int = 3, seed: int = 1,
                         bound: int = 50, radius: int = 2) -> ClosedFormReport:
    """Run the linear-ideal checks for one coefficient matrix A (its rows).

    (a) n - rank(A) equals the Krull dimension of the ideal; (b) one grid
    campaign draws each transform g until all maximal minors of A*g are
    nonzero, so the right-block entries of its reduced form are too
    (right_block_nonzero), or raises TransformSearchError; (c) the
    closed-form cone agrees with the Groebner engine at LINEAR_WEIGHTS
    random weights, on the campaign's first transform; (d) the agreed
    grid membership equals the m-skeleton of W(n); (e) every maximal cone
    of W(n)^m is one of the closed-form plateau cones.
    """
    n, r = len(rows[0]), rank(rows)
    m = n - r
    ideal = linear_ideal(rows)
    dim = krull_dimension(ideal)

    campaign = generic_membership_map(
        ideal, grid_radius=radius, trials=trials, bound=bound, seed=seed,
        accept=lambda g: check_minors(mat_mul(rows, g), n))

    # generic: the closed form's precondition holds for this ideal
    rng = random.Random(trial_seed(seed, 0) * 13 + 5)
    lin_ideal = transform_ideal(ideal, campaign.transforms[0])
    weights = [tuple(rng.randint(-3, 3) for _ in range(n))
               for _ in range(LINEAR_WEIGHTS)]
    cones = [("cone", w) for w in weights
             if not same_cone(linear_groebner_cone(r, n, w),
                              groebner_cone(weight_gb(lin_ideal, w)))]

    _, grid = check_skeleton_equality(campaign, m)

    # maximal cones of W(n)^m are the closed-form plateau cones with empty
    # below-block and plateau size r + 1; witness each by the indicator
    # weight vanishing on the plateau
    w_cones = {c.label: c for c in build_W(n).cones}
    lost = []
    for E in combinations(range(n), r + 1):
        w = tuple(0 if i in E else 1 for i in range(n))
        if not same_cone(linear_groebner_cone(r, n, w), w_cones[E]):
            lost.append(("skeleton_cone", E))
    return ClosedFormReport.of(
        rank_matches_dim=[] if dim == m else [("dim", dim, m)],
        minors_nonzero=[],  # the campaign's gate, as above
        cones_agree=cones,
        grid_equal_skeleton=[("grid", grid[:5])] if grid else [],
        skeleton_cones_found=lost)
