"""The three benchmark workloads: campaign, fanwalk and member.

Every workload is a closed loop with one client in one thread: the next
call starts when the previous one returned.  Each has three parts:

- ``build(m, seed)``: the set-up.  Loads the corpus and makes every input
  from the seed.  ``m`` is a namespace of freshly imported tropgen modules.
- ``run_pass(m, inputs, k, unit, clock)``: one pass over the inputs, the
  timed work.  Each call is one unit, timed on its own with ``clock()``;
  ``unit(label)`` is a context manager (a tracer span in the traced run).
- ``check(m, inputs, k, units)``: the oracle, run after the timed phase.
  Returns (attempted, failed ops per unit label, digest_items).  An
  exception or a wrong answer counts against the ops of its unit; nothing
  is retried or hidden.

Calls go through module attributes (``m.generic.generic_membership_map``)
so that the tracer's wrappers are seen.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

from oracle import IdealOracle

ROOT = Path(__file__).resolve().parent.parent
CORPUS = ROOT / "corpus"

# The paper's campaign parameters (the CLI defaults).
GRID_RADIUS = 3
TRIALS = 3
BOUND = 50

FANWALK_SETS = 4  # transform sets built for fanwalk; passes cycle through them
FANWALK_PROBES = 32  # random weights per fan that must lie in some cone
MEMBER_TRANSFORMS = 4  # random g per skeleton ideal
MEMBER_WEIGHTS = 32  # weights per g: half in the skeleton cone, half uniform
UNIFORM_RANGE = 20


def pass_seed(seed, k):
    """Seed of pass k; pass 0 uses the run's own seed."""
    return seed + 10_007 * k


@dataclass
class Unit:
    """One timed call: its label, op count, wall seconds and result (the
    return value, or the exception it raised)."""

    label: str
    ops: int
    seconds: float
    result: object


@dataclass
class Inputs:
    """What build() makes: the run's seed and the workload's items."""

    seed: int
    items: list
    expected: list = None


@dataclass
class Item:
    name: str
    n: int
    dim: int
    family: str
    ideal: object
    extra: dict = field(default_factory=dict)


def _corpus_items(m, campaigns, min_n=0):
    corpus = m.verify.Corpus(CORPUS)
    items = []
    for name in corpus.names():
        entry = corpus.entry(name)
        if set(entry["campaigns"]) & set(campaigns) and entry["n"] >= min_n:
            items.append(Item(name, entry["n"], entry["dim"], entry["family"],
                              corpus.ideal(name)))
    return items


def _timed(unit, clock, label, fn, *args, **kwargs):
    """Run fn under unit(label); return (seconds, result or exception)."""
    with unit(label):
        t0 = clock()
        try:
            result = fn(*args, **kwargs)
        except Exception as exc:  # recorded as failed ops by check()
            result = exc
        seconds = clock() - t0
    return seconds, result


def _error(exc):
    return {"error": type(exc).__name__, "message": str(exc)}


class Campaign:
    """generic_membership_map on every skeleton and emptiness ideal.  An op
    is one delivered verdict: a grid point in one trial."""

    name = "campaign"
    op = "verdict"

    def build(self, m, seed):
        items = _corpus_items(m, ("skeleton", "emptiness"))
        for item in items:
            item.extra["grid"] = len(m.generic.normalized_grid(item.n, GRID_RADIUS))
        return Inputs(seed, items)

    def run_pass(self, m, inputs, k, unit, clock):
        units = []
        for item in inputs.items:
            seconds, report = _timed(
                unit, clock, item.name, m.generic.generic_membership_map, item.ideal,
                grid_radius=GRID_RADIUS, trials=TRIALS, bound=BOUND,
                seed=pass_seed(inputs.seed, k))
            ops = 0 if isinstance(report, Exception) else item.extra["grid"] * TRIALS
            units.append(Unit(item.name, ops, seconds, report))
        return units

    def check(self, m, inputs, k, units):
        attempted = 0
        failed = Counter()
        digest = []
        for item, u in zip(inputs.items, units):
            ops = item.extra["grid"] * TRIALS
            attempted += ops
            if isinstance(u.result, Exception):
                failed[u.label] += ops
                digest.append(_error(u.result))
                continue
            if item.dim == 0:
                wrong = [w for w, v in u.result.membership.items() if v]
            else:
                _, wrong = m.generic.check_skeleton_equality(u.result, item.dim)
            failed[u.label] += min(ops, len(wrong) * TRIALS)
            digest.append(u.result.to_jsonable())
        return attempted, failed, digest

    def sizes(self, inputs):
        return {"grid_points": {i.name: i.extra["grid"] for i in inputs.items},
                "ops_per_pass": sum(i.extra["grid"] * TRIALS for i in inputs.items)}


def _transformed(m, item, g):
    """Item for J = g(I), keeping I and g for the oracle."""
    return Item(item.name, item.n, item.dim, item.family,
                m.generic.transform_ideal(item.ideal, g), {"base": item.ideal, "g": g})


def _oracle(item):
    """The exact oracle of a transformed item, made on first use (in the
    checks, outside set-up and timing)."""
    if "oracle" not in item.extra:
        item.extra["oracle"] = IdealOracle(item.family, item.dim, item.extra["base"],
                                           item.extra["g"], item.ideal)
    return item.extra["oracle"]


def nongeneric(items):
    """Names of the transformed items whose g is not generic for them: the
    paper's closed form does not hold there, the exact oracle does."""
    return sorted({i.name for i in items if not _oracle(i).generic})


class Fanwalk:
    """enumerate_groebner_fan on g(I) for each skeleton ideal with n >= 3.
    An op is one maximal Groebner cone found."""

    name = "fanwalk"
    op = "cone"

    def build(self, m, seed):
        base = _corpus_items(m, ("skeleton",), min_n=3)
        sets = []
        for s in range(FANWALK_SETS):
            ps = pass_seed(seed, s)
            rng = random.Random(f"fanwalk-{ps}")
            items = []
            for item in base:
                g = m.generic.random_transform(item.n, BOUND, m.generic.trial_seed(ps, 0))
                t = _transformed(m, item, g)
                t.extra["probes"] = [tuple(rng.randint(-UNIFORM_RANGE, UNIFORM_RANGE)
                                           for _ in range(item.n))
                                     for _ in range(FANWALK_PROBES)]
                items.append(t)
            sets.append(items)
        return Inputs(seed, sets)

    def run_pass(self, m, inputs, k, unit, clock):
        units = []
        for item in inputs.items[k % len(inputs.items)]:
            seconds, fan = _timed(unit, clock, item.name,
                                  m.weights.enumerate_groebner_fan, item.ideal)
            ops = 0 if isinstance(fan, Exception) else len(fan.cones)
            units.append(Unit(item.name, ops, seconds, fan))
        return units

    def check(self, m, inputs, k, units):
        attempted = 0
        failed = Counter()
        digest = []
        for item, u in zip(inputs.items[k % len(inputs.items)], units):
            if isinstance(u.result, Exception):
                attempted += 1
                failed[u.label] += 1
                digest.append(_error(u.result))
                continue
            cones = u.result.cones
            attempted += len(cones)
            expected = _oracle(item).cone_count()
            ok = expected is None or len(cones) == expected
            ok = ok and all(any(m.fans.member(c, w) for c in cones)
                            for w in item.extra["probes"])
            if not ok:
                failed[u.label] += len(cones)
            digest.append(m.fans.fan_to_jsonable(u.result))
        return attempted, failed, digest

    def sizes(self, inputs):
        return {"ideals": [i.name for i in inputs.items[0]],
                "transform_sets": len(inputs.items),
                "nongeneric_by_set": [nongeneric(items) for items in inputs.items]}


def _skeleton_weight(rng, n, m):
    """Integer weight in the relative interior of a random maximal cone
    C_A of the m-skeleton of W(n): the minimum is attained exactly on A,
    |A| = n - m + 1."""
    A = set(rng.sample(range(n), n - m + 1))
    low = rng.randint(-UNIFORM_RANGE, UNIFORM_RANGE)
    return tuple(low if i in A else low + rng.randint(1, UNIFORM_RANGE)
                 for i in range(n))


class Member:
    """Cold in_tropical_variety(g(I), w) decisions, the same number per
    skeleton ideal.  An op is one decision; each is timed on its own."""

    name = "member"
    op = "decision"

    def build(self, m, seed):
        base = _corpus_items(m, ("skeleton",))
        rng = random.Random(f"member-{seed}")
        per_ideal = []
        for item in base:
            decisions = []
            for t in range(MEMBER_TRANSFORMS):
                g = m.generic.random_transform(item.n, BOUND, m.generic.trial_seed(seed, t))
                case = _transformed(m, item, g)
                for j in range(MEMBER_WEIGHTS):
                    if j % 2 == 0:
                        w = _skeleton_weight(rng, item.n, item.dim)
                    else:
                        w = tuple(rng.randint(-UNIFORM_RANGE, UNIFORM_RANGE)
                                  for _ in range(item.n))
                    decisions.append((item.name, case, w))
            per_ideal.append(decisions)
        # round-robin over the ideals
        return Inputs(seed, [d for group in zip(*per_ideal) for d in group])

    def run_pass(self, m, inputs, k, unit, clock):
        decide = m.weights.in_tropical_variety
        units = []
        for name, case, w in inputs.items:
            seconds, verdict = _timed(unit, clock, name, decide, case.ideal, w)
            units.append(Unit(name, 0 if isinstance(verdict, Exception) else 1,
                              seconds, verdict))
        return units

    def expected(self, inputs):
        """The oracle's verdicts, computed once and kept for every pass."""
        if inputs.expected is None:
            inputs.expected = [_oracle(case).member(w) for _, case, w in inputs.items]
        return inputs.expected

    def check(self, m, inputs, k, units):
        failed = Counter(u.label for expected, u in zip(self.expected(inputs), units)
                         if u.result != expected)
        digest = [u.result if isinstance(u.result, bool) else _error(u.result)
                  for u in units]
        return len(units), failed, digest

    def sizes(self, inputs):
        return {"decisions_per_pass": len(inputs.items),
                "transforms_per_ideal": MEMBER_TRANSFORMS,
                "weights_per_transform": MEMBER_WEIGHTS,
                "nongeneric": nongeneric({id(c): c for _, c, _ in inputs.items}.values())}


WORKLOADS = {w.name: w for w in (Campaign(), Fanwalk(), Member())}
