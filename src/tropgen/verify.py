"""The acceptance suite: ten numbered verification campaigns over the
corpus, shared by the command line driver and the test suite.

Each criterion returns a CriterionResult; JSON reports deliberately exclude
wall-clock times so identical (input, seed, flags) runs are byte-identical.
"""

from __future__ import annotations

import json
import random
import time
from dataclasses import dataclass
from math import comb
from pathlib import Path

from .fans import (
    build_W,
    cone_dim,
    dumps_canonical,
    lineality_space,
    relative_interior_contains,
)
from .generic import (
    check_lineality,
    check_skeleton_equality,
    check_symmetry,
    gb_support_stability,
    generic_membership_map,
    normalized_grid,
)
from .groebner import buchberger, contains_monomial, normal_form
from .linalg import QQ
from .poly import (
    GRLEX,
    Ideal,
    ParseError,
    Polynomial,
    parse_ideal_file,
    read_input,
    weight_order,
)
from .special import (
    check_linear_theorem,
    check_principal_theorem,
    linear_fan_census,
)

CRITERION_NAMES = {
    1: "reference fan structure",
    2: "skeleton equality campaign",
    3: "dimension-zero emptiness",
    4: "symmetry and lineality",
    5: "principal ideal closed form",
    6: "linear ideal closed form",
    7: "fan/variety cone-count gap",
    8: "basis support stability",
    9: "monomial containment oracle",
    10: "byte-identical reruns",
}


@dataclass
class CriterionResult:
    number: int
    name: str
    passed: bool
    detail: str
    seconds: float

    def to_jsonable(self) -> dict:
        return {
            "number": self.number,
            "name": self.name,
            "passed": self.passed,
            "detail": self.detail,
        }


# the fields of every manifest entry: (name, check, what the check wants)
ENTRY_FIELDS = (
    ("n", lambda x: type(x) is int, "an integer"),
    ("dim", lambda x: type(x) is int, "an integer"),
    ("family", lambda x: isinstance(x, str), "a string"),
    ("campaigns", lambda x: (isinstance(x, list)
                             and all(isinstance(c, str) for c in x)),
     "a list of strings"),
)


class Corpus:
    """Corpus directory with its manifest of expected invariants."""

    def __init__(self, directory):
        self.directory = Path(directory)
        manifest_path = self.directory / "manifest.json"
        if not manifest_path.exists():
            raise ParseError(f"no manifest.json in {directory}", 0)
        try:
            self.manifest = json.loads(read_input(manifest_path))
        except json.JSONDecodeError as exc:
            raise ParseError(f"bad corpus manifest: {exc}", exc.pos) from None
        ideals = (self.manifest.get("ideals")
                  if isinstance(self.manifest, dict) else None)
        if not isinstance(ideals, dict):
            raise ParseError("corpus manifest must be an object with an "
                             "'ideals' object", 0)
        if not ideals:
            raise ParseError("empty corpus manifest", 0)
        for name, entry in ideals.items():
            if not isinstance(entry, dict):
                raise ParseError(f"corpus manifest entry {name!r} is not an "
                                 f"object", 0)
            for field, ok, what in ENTRY_FIELDS:
                if field not in entry or not ok(entry[field]):
                    raise ParseError(f"corpus manifest entry {name!r} needs "
                                     f"{field!r}: {what}", 0)
        self._cache = {}

    def names(self, campaign=None):
        items = self.manifest["ideals"].items()
        if campaign is None:
            return [k for k, _ in items]
        return [k for k, v in items if campaign in v["campaigns"]]

    def entry(self, name) -> dict:
        return self.manifest["ideals"][name]

    def ideal(self, name) -> Ideal:
        if name not in self._cache:
            self._cache[name] = parse_ideal_file(
                read_input(self.directory / name))
        return self._cache[name]


class VerifySession:
    """Runs acceptance criteria, sharing campaign results between them."""

    def __init__(self, corpus: Corpus, seed: int = 1, trials: int = 3,
                 bound: int = 50, grid: int = 3):
        self.corpus = corpus
        self.seed = seed
        self.trials = trials
        self.bound = bound
        self.grid = grid
        self._campaign_reports = {}

    def run(self, numbers=None):
        numbers = sorted(numbers) if numbers else sorted(CRITERION_NAMES)
        results = []
        for k in numbers:
            fn = getattr(self, f"_criterion_{k}")
            t0 = time.perf_counter()
            passed, detail = fn()
            results.append(CriterionResult(k, CRITERION_NAMES[k], passed,
                                           detail, time.perf_counter() - t0))
        return results

    # -- criteria -----------------------------------------------------------

    def _criterion_1(self):
        for n in range(2, 9):
            fan = build_W(n)
            counts = {}
            for c in fan.cones:
                d = n - len(c.label) + 1
                counts[d] = counts.get(d, 0) + 1
            for k in range(1, n + 1):
                if counts.get(k, 0) != comb(n, k - 1):
                    return (False, f"n={n}: {counts.get(k, 0)} cones of dim {k}")
            if n <= 5:  # dimension via the H-representation, independently
                for c in fan.cones:
                    if cone_dim(c) != n - len(c.label) + 1:
                        return (False, f"n={n}: dim mismatch for {c.label}")
                # relative interiors partition R^n: each normalized grid
                # point lies in that of the cone labelled by its zero set
                for w in normalized_grid(n, 1):
                    labels = [c.label for c in fan.cones
                              if relative_interior_contains(c, w)]
                    if labels != [tuple(i for i, x in enumerate(w) if not x)]:
                        return (False, f"n={n}: {w} in the relative "
                                       f"interiors of {labels}")
            if lineality_space(fan) != (tuple([1] * n),):
                return (False, f"n={n}: lineality {lineality_space(fan)}")
        return (True, "n=2..8 cone counts and lineality")

    def _campaign(self, name):
        if name not in self._campaign_reports:
            self._campaign_reports[name] = generic_membership_map(
                self.corpus.ideal(name), grid_radius=self.grid,
                trials=self.trials, bound=self.bound, seed=self.seed)
        return self._campaign_reports[name]

    def _criterion_2(self):
        names = self.corpus.names("skeleton")
        if len(names) < 12:
            return (False, f"only {len(names)} campaign ideals")
        for name in names:
            report = self._campaign(name)
            ok, mismatches = check_skeleton_equality(
                report, self.corpus.entry(name)["dim"])
            if not ok:
                return (False, f"{name}: {len(mismatches)} grid mismatches, "
                               f"first {mismatches[0]}")
        return (True, f"{len(names)} ideals, grid radius {self.grid}")

    def _criterion_3(self):
        names = self.corpus.names("emptiness")
        if len(names) < 3:
            return (False, f"only {len(names)} zero-dimensional ideals")
        for name in names:
            report = self._campaign(name)
            if any(report.membership.values()):
                return (False, f"{name}: nonempty map")
        return (True, f"{len(names)} ideals, all-false maps")

    def _criterion_4(self):
        for name in self.corpus.names("skeleton"):
            report = self._campaign(name)
            ok, counter = check_symmetry(report)
            if not ok:
                return (False, f"{name}: symmetry fails at {counter}")
            ok, counter = check_lineality(report)
            if not ok:
                return (False, f"{name}: lineality fails at {counter}")
        return (True, "all campaign maps symmetric and lineality-invariant")

    def _criterion_5(self):
        rng = random.Random(self.seed * 9176 + 11)
        n = 3
        checked = 0
        while checked < 10:
            f = _random_homogeneous(rng, n, max_degree=4)
            if f is None:
                continue
            report = check_principal_theorem(f, trials=self.trials,
                                             seed=self.seed + checked,
                                             bound=self.bound, radius=self.grid)
            if not report.ok:
                return (False, f"f={f}: {report.to_jsonable()}")
            checked += 1
        return (True, "10 random principal ideals, n=3")

    def _criterion_6(self):
        rng = random.Random(self.seed * 33331 + 7)
        n = 4
        for idx in range(10):
            r = idx % 3 + 1
            rows = _random_full_rank(rng, r, n)
            report = check_linear_theorem(rows, trials=self.trials,
                                          seed=self.seed + idx,
                                          bound=self.bound, radius=self.grid)
            if not report.ok:
                return (False, f"A={rows}: {report.to_jsonable()}")
        return (True, "10 random linear ideals, n=4, ranks 1..3")

    def _criterion_7(self):
        census = linear_fan_census(4, 2)
        w_max = comb(4, 3)  # maximal cones of the 2-skeleton of W(4)
        if census.get(2, 0) <= w_max:
            return (False, f"census {census}, skeleton max cones {w_max}")
        return (True, f"{census[2]} pattern cones of dim 2 > {w_max}")

    def _criterion_8(self):
        names = self.corpus.names("supports")
        if len(names) < 5:
            return (False, f"only {len(names)} ideals flagged")
        for name in names:
            ideal = self.corpus.ideal(name)
            for order in (GRLEX, weight_order(tuple(range(1, ideal.n + 1)))):
                if not gb_support_stability(ideal, order, trials=self.trials,
                                            bound=self.bound, seed=self.seed):
                    return (False, f"{name}: supports differ under weights "
                                   f"{order.weights}")
        return (True, f"{len(names)} ideals x 2 orders x {self.trials} "
                      f"transforms")

    def _criterion_9(self):
        rng = random.Random(self.seed * 77 + 3)
        ideals = _oracle_ideals(rng)
        if len(ideals) < 20:
            return (False, f"only {len(ideals)} oracle ideals")
        for gens, n in ideals:
            fast = contains_monomial(gens, n)
            slow = _brute_force_contains_monomial(gens, n, max_degree=6)
            if fast != slow:
                return (False, f"disagreement on {[str(g) for g in gens]}: "
                               f"saturation={fast} brute={slow}")
        return (True, f"{len(ideals)} ideals, saturation = degree-6 scan")

    def _criterion_10(self):
        def fresh():
            return VerifySession(self.corpus, self.seed, self.trials,
                                 self.bound, self.grid).report_json(numbers=(3, 7))

        first = fresh()
        second = fresh()
        if first != second:
            return (False, "reruns differ")
        return (True, f"two identical runs, {len(first)} bytes each")

    # -- reporting ----------------------------------------------------------

    def report_jsonable(self, results=None, numbers=None) -> dict:
        if results is None:
            results = self.run(numbers)
        return {
            "tool": "tropgen",
            "version": _version(),
            "seed": self.seed,
            "trials": self.trials,
            "bound": self.bound,
            "grid_radius": self.grid,
            "escalations": {name: list(rep.escalations)
                            for name, rep in sorted(self._campaign_reports.items())},
            "criteria": [r.to_jsonable() for r in results],
            "all_passed": all(r.passed for r in results),
        }

    def report_json(self, results=None, numbers=None) -> str:
        return dumps_canonical(self.report_jsonable(results, numbers))


def _version() -> str:
    from . import __version__
    return __version__


def _random_homogeneous(rng, n, max_degree):
    """Random homogeneous polynomial with at least two terms, or None."""
    from itertools import combinations_with_replacement

    d = rng.randint(1, max_degree)
    monos = [tuple(sum(1 for v in pick if v == i) for i in range(n))
             for pick in combinations_with_replacement(range(n), d)]
    terms = {}
    for e in monos:
        if rng.random() < 0.4:
            c = rng.randint(-3, 3)
            if c:
                terms[e] = QQ(c)
    if len(terms) < 2:
        return None
    return Polynomial.from_dict(n, terms)


def _random_full_rank(rng, r, n):
    from .linalg import rank as _rank

    while True:
        rows = tuple(tuple(rng.randint(-5, 5) for _ in range(n))
                     for _ in range(r))
        if _rank(rows) == r:
            return rows


def _oracle_ideals(rng):
    """20 small graded ideals mixing monomial-containing and -free cases."""
    out = []
    fixed = [
        (["x1*x2"], 2),
        (["x1 + x2"], 2),
        (["x1"], 2),
        (["x1 + x2 + x3"], 3),
        (["x1*x2", "x1*x3", "x2*x3"], 3),
        (["x1^2 + x2*x3"], 3),
        (["x1 - x2", "x1 - x3"], 3),
        (["x1^2 - x2^2"], 2),
    ]
    from .poly import parse_polynomial
    for texts, n in fixed:
        out.append((tuple(parse_polynomial(t, n) for t in texts), n))
    while len(out) < 20:
        n = rng.choice((2, 3))
        gens = []
        for _ in range(rng.randint(1, 2)):
            f = _random_homogeneous(rng, n, max_degree=2)
            if f is not None:
                gens.append(f)
        if gens:
            out.append((tuple(gens), n))
    return out


def _brute_force_contains_monomial(gens, n, max_degree):
    """Reduce every monomial of degree <= max_degree to normal form."""
    from itertools import combinations_with_replacement

    gb = buchberger(gens, GRLEX)
    for d in range(1, max_degree + 1):
        for pick in combinations_with_replacement(range(n), d):
            e = tuple(sum(1 for v in pick if v == i) for i in range(n))
            mono = Polynomial(n, ((e, QQ(1)),))
            if normal_form(mono, gb.elements, gb.heads, gb.order).is_zero:
                return True
    return False
