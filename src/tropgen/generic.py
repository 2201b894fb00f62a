"""Random coordinate changes and genericity protocols.

A generic tropical variety is the tropical variety of g(I) for a coordinate
change g outside some proper closed locus.  Exact genericity cannot be
certified by sampling, so every generic quantity here is computed for
several independent random integer transforms; agreement across trials is
the acceptance signal, disagreement triggers escalation (doubling the
coefficient bound) and, if it persists, a loud error.
"""

from __future__ import annotations

import random
from collections.abc import Mapping
from dataclasses import dataclass
from functools import cache
from math import lcm

from .fans import skeleton_membership
from .groebner import buchberger, integral_coefficients
from .linalg import QQ, rank
from .poly import GREVLEX, Ideal, Polynomial, TermOrder, monomial_mul
from .weights import MembershipMap, in_tropical_variety, normalized_grid


class DisagreementError(RuntimeError):
    """Trials kept disagreeing after all escalation rounds."""


class TransformSearchError(RuntimeError):
    """No sampled transform within the bound has the required property."""


def random_transform(n: int, bound: int, seed: int, accept=None):
    """Invertible n x n integer matrix with entries in [-bound, bound].

    With `accept`, the first invertible draw of the same stream for which
    accept(g) holds: the gate a caller's closed form needs.  Raises
    TransformSearchError after 1000 draws."""
    rng = random.Random(seed)
    for _ in range(1000):
        g = tuple(tuple(rng.randint(-bound, bound) for _ in range(n))
                  for _ in range(n))
        if rank(g) == n and (accept is None or accept(g)):
            return g
    gate = "" if accept is None else " passing the gate"
    raise TransformSearchError(
        f"no invertible {n} x {n} matrix with entries in [-{bound}, {bound}]"
        f"{gate} in 1000 samples")


def apply_transform(p: Polynomial, g) -> Polynomial:
    """Substitute x_i -> sum_j g[i][j] x_j (g int or rational), in integers:
    with q and d the common denominators of g and of p's coefficients and t
    p's top degree, x_i = L_i / q for integer linear forms L_i, and a term
    c*x^e of degree k is (d*c) * q^(t - k) * prod_i L_i^(e_i) over d * q^t;
    the terms are summed as integers and each coefficient divided once."""
    n = p.n
    q = lcm(*(x.denominator for row in g for x in row))
    images = [{tuple(int(j == k) for k in range(n)):
               x.numerator * (q // x.denominator)
               for j, x in enumerate(row) if x} for row in g]
    coeffs, d = integral_coefficients(p)
    top = max(map(sum, coeffs), default=0)
    out = {}
    for e, c in coeffs.items():
        term = {(0,) * n: c * q ** (top - sum(e))}
        for i, k in enumerate(e):
            for _ in range(k):
                term = _times(term, images[i])
        for m, v in term.items():
            out[m] = out.get(m, 0) + v
    den = d * q ** top
    return Polynomial.from_dict(n, {m: QQ(v, den) for m, v in out.items()})


def _times(a: dict, b: dict) -> dict:
    """Product of two polynomials given as {exponent: integer}."""
    out = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            e = monomial_mul(e1, e2)
            out[e] = out.get(e, 0) + c1 * c2
    return out


def transform_ideal(ideal: Ideal, g) -> Ideal:
    return Ideal.of(ideal.n, tuple(apply_transform(p, g) for p in ideal.generators))


def trial_seed(seed: int, trial: int, escalation: int = 0) -> int:
    return seed * 1_000_003 + trial + escalation * 101


@cache
def _grid_index(n: int, radius: int) -> dict:
    return {w: i for i, w in enumerate(normalized_grid(n, radius))}


class GridMembership(Mapping):
    """Verdicts on normalized_grid(n, radius), keyed by point in grid
    order.  A map holds one byte per point, 1 for a point in the variety;
    the points and their index are shared by every map over the grid, so
    a report costs a bytes object, not a dict, of the grid's size."""

    def __init__(self, n: int, radius: int, verdicts: bytes):
        self._points = normalized_grid(n, radius)
        self._index = _grid_index(n, radius)
        self._verdicts = verdicts

    def __getitem__(self, w):
        return bool(self._verdicts[self._index[w]])

    def __iter__(self):
        return iter(self._points)

    def __len__(self):
        return len(self._points)


@dataclass
class GenericityReport:
    """Result of a multi-trial generic membership computation that reached
    agreement: one escalation round per bound used, the last one agreeing."""

    ideal: Ideal
    seed: int
    grid_radius: int
    transforms: tuple  # transforms of the agreeing round
    membership: Mapping  # normalized grid point -> verdict
    escalations: list  # bounds actually used

    def to_jsonable(self) -> dict:
        return {
            "seed": self.seed,
            "trials": len(self.transforms),
            "initial_bound": self.escalations[0],
            "grid_radius": self.grid_radius,
            "bounds_used": list(self.escalations),
            "retries": len(self.escalations) - 1,
            "agreed": True,
            "transforms": [[list(row) for row in g] for g in self.transforms],
            "membership": [[list(w), v]
                           for w, v in sorted(self.membership.items())],
        }


def generic_membership_map(ideal: Ideal, grid_radius: int = 3,
                           trials: int = 3, bound: int = 50,
                           seed: int = 1, accept=None) -> GenericityReport:
    """Membership of the generic tropical variety on the normalized grid.

    Runs `trials` independent random transforms, each drawn through the
    gate `accept` if given (see random_transform), and compares the
    resulting membership maps; on disagreement doubles the bound and
    retries, up to three times, then raises DisagreementError.  A negative
    grid radius or fewer than one trial or a bound below one raises
    ValueError: an empty grid or no trials would pass every check on
    nothing.
    """
    if grid_radius < 0 or trials < 1 or bound < 1:
        raise ValueError(f"need grid_radius >= 0, trials >= 1 and bound >= 1, "
                         f"not {grid_radius}, {trials} and {bound}")
    n = ideal.n
    escalations = []
    current = bound
    for escalation in range(4):
        escalations.append(current)
        maps = []
        transforms = []
        for trial in range(trials):
            g = random_transform(n, current,
                                 trial_seed(seed, trial, escalation), accept)
            transforms.append(g)
            maps.append(MembershipMap(transform_ideal(ideal, g))
                        .grid(grid_radius))
        if all(m == maps[0] for m in maps[1:]):
            return GenericityReport(ideal, seed, grid_radius,
                                    tuple(transforms),
                                    GridMembership(n, grid_radius, maps[0]),
                                    escalations)
        current *= 2
    raise DisagreementError(
        f"{trials} trials disagreed at bounds {escalations}")


def check_skeleton_equality(report: GenericityReport, m: int):
    """Compare the agreed membership map with the m-skeleton of W(n).

    Returns (ok, mismatches); mismatches lists normalized grid points
    where the two sides differ."""
    n = report.ideal.n
    mismatches = [w for w, got in report.membership.items()
                  if got != skeleton_membership(n, m, w)]
    return (not mismatches, mismatches)


def check_symmetry(report: GenericityReport):
    """The agreed membership map is invariant under all coordinate
    permutations.  Returns (ok, counterexample).

    Normalizing commutes with permuting coordinates, so the normalized
    grid is closed under permutations, and the sorted point is in the
    orbit of every point.  The map is invariant exactly when each point's
    verdict equals that of its sorted representative; a counterexample is
    a point and that representative."""
    for w, verdict in report.membership.items():
        rep = tuple(sorted(w))
        if report.membership[rep] != verdict:
            return (False, (w, rep))
    return (True, None)


def check_lineality(report: GenericityReport):
    """Shifting a grid point by c*(1,..,1), -2 <= c <= 2, never changes its
    verdict.

    The stored map is keyed on normalized points, for which this holds by
    construction; this re-derives each shifted verdict from scratch on the
    first transform to check the underlying invariance, on a sample."""
    J = transform_ideal(report.ideal, report.transforms[0])
    sample = list(report.membership.items())[::max(1, len(report.membership) // 8)]
    for w, verdict in sample:
        for c in range(-2, 3):
            shifted = tuple(x + c for x in w)
            if in_tropical_variety(J, shifted) != verdict:
                return (False, (w, c))
    return (True, None)


def gb_support_stability(ideal: Ideal, order: TermOrder = GREVLEX,
                         trials: int = 3, bound: int = 50,
                         seed: int = 1) -> bool:
    """Supports of the reduced basis of g(I) agree across random g."""
    supports = []
    for trial in range(trials):
        g = random_transform(ideal.n, bound, trial_seed(seed, trial))
        supports.append(buchberger(transform_ideal(ideal, g).generators,
                                   order).supports())
    return all(s == supports[0] for s in supports[1:])
