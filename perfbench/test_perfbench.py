"""Tests of the benchmark itself: tracer installation, the untraced path,
self-time accounting, metric names, failure accounting, the exact oracles
and the reference clock.

    python3 -m pytest perfbench
"""

from __future__ import annotations

import json
from math import comb
import re
import sys
import time
from pathlib import Path
from types import SimpleNamespace

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import oracle  # noqa: E402
import refclock  # noqa: E402
import run  # noqa: E402
import tracer as tracer_mod  # noqa: E402
import workloads  # noqa: E402

sys.path.insert(0, str(run.SRC))

NAME = re.compile(r"[A-Za-z0-9_.-]+")


@pytest.fixture(autouse=True)
def restore_tropgen_modules():
    """fresh_import() replaces tropgen in sys.modules; put the previous
    copy back so other test modules keep consistent classes."""
    def loaded():
        return {k: v for k, v in sys.modules.items()
                if k == "tropgen" or k.startswith("tropgen.")}

    saved = loaded()
    yield
    for k in loaded():
        del sys.modules[k]
    sys.modules.update(saved)


def keep(names):
    """Restrict a workload to a few fast corpus ideals."""
    return lambda item: item.name in names


class TinyCampaign(workloads.Campaign):
    def build(self, m, seed):
        inputs = super().build(m, seed)
        inputs.items = list(filter(keep({"point", "linear_r1_n3"}), inputs.items))
        return inputs


class TinyFanwalk(workloads.Fanwalk):
    def build(self, m, seed):
        inputs = super().build(m, seed)
        inputs.items = [list(filter(keep({"linear_r1_n3", "hypersurface_n3"}), s))
                        for s in inputs.items]
        return inputs


class TinyMember(workloads.Member):
    def build(self, m, seed):
        inputs = super().build(m, seed)
        inputs.items = inputs.items[:24]  # two decisions per skeleton ideal
        return inputs


def args(trace=0):
    return SimpleNamespace(seed=1, seconds=0.0, trace=trace)


def sites_of(original):
    """Independent scan: every module global or class attribute in
    tropgen holding `original`."""
    found = []
    for mod in tracer_mod.tropgen_modules():
        for attr, value in vars(mod).items():
            if value is original:
                found.append((mod, attr))
            if isinstance(value, type):
                found.extend((value, a) for a, v in vars(value).items() if v is original)
    return found


def test_tracer_wraps_every_binding_and_restores_them():
    run.fresh_import()
    originals = {}
    for name in tracer_mod.TRACED:
        owner, attr = tracer_mod.resolve(name)
        originals[name] = (vars(owner)[attr], set(sites_of(vars(owner)[attr])))
    # names imported with "from .x import y" are bound in several places
    fp_sites = {(o.__name__, a) for o, a in originals["halfspaces.find_point"][1]}
    assert {("tropgen.halfspaces", "find_point"), ("tropgen.weights", "find_point"),
            ("tropgen.fans", "find_point")} <= fp_sites
    assert ("tropgen", "buchberger") in {
        (o.__name__, a) for o, a in originals["groebner.buchberger"][1]}

    t = tracer_mod.Tracer()
    t.install()
    try:
        for name, (original, sites) in originals.items():
            assert sites_of(original) == [], name  # no binding left unwrapped
            for owner, attr in sites:
                wrapped = vars(owner)[attr]
                assert wrapped is not original and wrapped.__wrapped__ is original
    finally:
        t.uninstall()
    for name, (original, sites) in originals.items():
        for owner, attr in sites:
            assert vars(owner)[attr] is original, (name, owner, attr)
        assert set(sites_of(original)) == sites


def test_untraced_run_installs_no_wrapper(monkeypatch):
    def refuse(self):
        raise AssertionError("tracer installed in the untraced run")

    monkeypatch.setattr(tracer_mod.Tracer, "install", refuse)
    m, _, attempted, failed, metrics, _ = run.end_to_end(args(), TinyMember())
    assert attempted == 24 and failed == 0
    for name in tracer_mod.TRACED:
        owner, attr = tracer_mod.resolve(name)
        assert not hasattr(vars(owner)[attr], "__wrapped__"), name


@pytest.mark.parametrize("workload", [TinyCampaign(), TinyFanwalk(), TinyMember()],
                         ids=lambda w: w.name)
def test_self_times_are_nonnegative_and_within_traced_wall(workload):
    _, _, attempted, failed, metrics, info = run.per_layer(args(1), workload)
    assert failed == 0 and attempted > 0  # includes traced == untraced answers
    self_times = [metrics[n + ".self_s"][0] for n in tracer_mod.TRACED]
    assert all(s >= -1e-9 for s in self_times)
    assert sum(self_times) <= info["traced_wall_s"]
    calls = {n: metrics[n + ".calls"][0] for n in tracer_mod.TRACED}
    assert calls["poly.parse_ideal_file"] > 0
    if workload.name == "campaign":
        assert metrics["weights.weight_gb.per_miss"][0] == 2.0
    if workload.name == "fanwalk":
        assert calls["halfspaces.find_point"] > 0


def test_metric_names_are_valid_and_match_benchmark_json():
    spec = json.loads((workloads.ROOT / "BENCHMARK.json").read_text())
    _, _, _, _, e2e, _ = run.end_to_end(args(), TinyMember())
    _, _, _, _, layers, _ = run.per_layer(args(1), TinyMember())
    assert set(e2e) == {m["name"] for m in spec["end_to_end"]}
    assert set(layers) == {m["name"] for m in spec["per_layer"]}
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)
    for name in [*e2e, *layers, *(w["name"] for w in spec["workloads"])]:
        assert NAME.fullmatch(name), name


def test_wrong_expectations_count_as_failed_ops():
    class WrongMember(TinyMember):
        def build(self, m, seed):
            inputs = super().build(m, seed)
            expected = self.expected(inputs)
            expected[0] = not expected[0]  # flipped oracle
            name, case, w = inputs.items[1]
            broken = workloads.Item(case.name, case.n, case.dim, case.family, None)
            inputs.items[1] = (name, broken, w)  # call raises
            return inputs

    class WrongCampaign(TinyCampaign):
        def build(self, m, seed):
            inputs = super().build(m, seed)
            for item in inputs.items:
                item.dim += 1
            return inputs

    class WrongFanwalk(TinyFanwalk):
        def build(self, m, seed):
            inputs = super().build(m, seed)
            for item in inputs.items[0]:
                oracle = workloads._oracle(item)
                oracle.cone_count = lambda c=oracle.cone_count(): c + 1
            return inputs

    _, _, attempted, failed, _, _ = run.end_to_end(args(), WrongMember())
    assert (attempted, failed) == (24, 2)
    _, _, attempted, failed, _, _ = run.end_to_end(args(), WrongCampaign())
    assert 0 < failed <= attempted
    _, _, attempted, failed, _, _ = run.end_to_end(args(), WrongFanwalk())
    assert failed == attempted > 0


def test_reference_clock_samples_while_running_and_is_monotonic():
    with refclock.ReferenceClock() as clock:
        readings = [clock.now()]
        t0 = time.perf_counter()
        while time.perf_counter() - t0 < 3 * refclock.INTERVAL:
            refclock.kernel()
            readings.append(clock.now())
    assert clock.samples >= 2
    assert all(b >= a for a, b in zip(readings, readings[1:]))
    assert readings[-1] > readings[0]


def transformed(m, name, g):
    (item,) = [i for i in workloads._corpus_items(m, ("skeleton",)) if i.name == name]
    t = workloads._transformed(m, item, tuple(tuple(m.linalg.QQ(c) for c in row)
                                               for row in g))
    return t, workloads._oracle(t)


@pytest.mark.parametrize("name, g, cones", [
    # the first column sums to 0, so x1 drops out of x1 + x2 + x3
    ("linear_r1_n3", ((1, 0, 0), (-1, 1, 0), (0, 0, 1)), 2),
    # column 1 is a zero of the cubic, so x1^3 drops out
    ("hypersurface_n3", ((0, 1, 2), (1, 0, 3), (0, 1, 1)), None),
])
def test_exact_oracle_matches_the_program_on_nongeneric_transforms(name, g, cones):
    m = run.fresh_import()
    t, o = transformed(m, name, g)
    assert not o.generic
    fan = m.weights.enumerate_groebner_fan(t.ideal)
    assert len(fan.cones) == o.cone_count()
    if cones is not None:
        assert o.cone_count() == cones
    for w in [(a, b, c) for a in range(-2, 3) for b in range(-2, 3) for c in (0, 1)]:
        assert o.member(w) == m.weights.in_tropical_variety(t.ideal, w), w


def test_exact_oracle_gives_the_closed_forms_on_generic_transforms():
    m = run.fresh_import()
    g = m.generic.random_transform(4, 50, 1)
    for name in ("linear_r2_n4", "principal_n4_generic", "two_planes_nonprime",
                 "ci_n4_dim2"):
        t, o = transformed(m, name, g)
        assert o.generic
        if t.family == "linear":
            assert o.cone_count() == comb(4, 4 - t.dim)
        if t.family == "principal":
            assert o.cone_count() == 4
        for w in [(0, 0, 0, 0), (0, 0, 0, 5), (0, 0, 3, 5), (0, 2, 3, 5), (1, 0, 0, 1)]:
            assert o.member(w) == oracle.skeleton_member(4, t.dim, w), (name, w)


def test_vertex_count_outside_the_simplex():
    # x1^2 x2, x2^3, x3^3, x1 x2 x3: the last is inside the triangle
    assert oracle.vertex_count([(2, 1, 0), (0, 3, 0), (0, 0, 3), (1, 1, 1)]) == 3
    assert oracle.vertex_count([(3, 0, 0), (0, 3, 0), (0, 0, 3), (1, 1, 1)]) == 3
    assert oracle.vertex_count([(2, 1, 0), (1, 2, 0), (0, 0, 3)]) == 3
    assert oracle.vertex_count([(2, 1, 0, 0), (0, 3, 0, 0), (0, 0, 3, 0),
                                (0, 0, 0, 3), (1, 1, 1, 0)]) == 4
