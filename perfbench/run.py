"""tropgen benchmark: one workload per invocation, one process, one thread.

    python3 perfbench/run.py --workload campaign|fanwalk|member \
        --seed 1 --seconds 35 --trace 0|1

Run from a checkout of the repository; it imports tropgen from ``src/``
and reads ``corpus/``, and exits with code 2 if either is missing.

--trace 0 (end-to-end): sets the workload up several times (fresh import,
corpus load, inputs) and reports the median as ``setup_s``.  It then runs
whole passes over the inputs while the previous pass still fits in the
remaining --seconds of wall time (at least one), checks every answer
against the workload's oracle, and reports the end-to-end metrics.  Their
times are read from a reference clock (see refclock.py) that cancels the
machine's changes of speed; the wall-clock figures are printed beside them.

--trace 1 (per layer): runs pass 0 untraced, then installs the tracer and
repeats set-up and pass 0 traced, so that every call count repeats exactly
for a given seed.  It reports calls and wall-clock self time of each
traced function, the derived ratios, and the tracing overhead (on the
reference clock), and writes the spans to ``.perfbench-out/``.

Every line but the last is for people: an environment and input-size
stamp with the output digest, then one line per metric.  The last line is
the JSON result.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import os
import platform
import resource
import statistics
import sys
import time
from collections import Counter
from contextlib import nullcontext
from pathlib import Path
from types import SimpleNamespace

sys.path.insert(0, str(Path(__file__).resolve().parent))

from refclock import ReferenceClock  # noqa: E402
from tracer import TRACED, Tracer  # noqa: E402
from workloads import CORPUS, ROOT, WORKLOADS  # noqa: E402

SRC = ROOT / "src"
OUT = ROOT / ".perfbench-out"
SETUP_REPEATS = 7
MODULES = ("poly", "linalg", "halfspaces", "fans", "groebner", "weights",
           "generic", "verify")


def fresh_import():
    """Import tropgen from scratch (dropping any loaded copy) and return
    its modules as a namespace."""
    for name in [n for n in sys.modules if n == "tropgen" or n.startswith("tropgen.")]:
        del sys.modules[name]
    importlib.import_module("tropgen")
    return SimpleNamespace(**{name: importlib.import_module("tropgen." + name)
                              for name in MODULES})


def _no_unit(label):
    return nullcontext()


def run_pass(workload, m, inputs, k, clock, unit=_no_unit):
    """One pass; returns (units, wall seconds, reference seconds)."""
    t0, r0 = time.perf_counter(), clock.now()
    units = workload.run_pass(m, inputs, k, unit, clock.now)
    return units, time.perf_counter() - t0, clock.now() - r0


def weighted_percentile(units, q):
    """q-quantile (nearest rank) of per-op latency in ms, where each op
    takes the mean latency of the call that ran it."""
    samples = sorted((1000.0 * u.seconds / u.ops, u.ops) for u in units if u.ops)
    rank = q * sum(w for _, w in samples)
    seen = 0
    for value, w in samples:
        seen += w
        if seen >= rank:
            return value
    return samples[-1][0]


def median_op_ms(passes, pass_seconds):
    """Median per-op latency in ms.  Where every call is one op (member),
    the median over calls.  Where a call runs many ops that are not timed
    one by one (campaign, fanwalk), the median over passes of the pass's
    mean per-op latency: the median of call means would hinge on which of
    several similar ideals happens to sit at the middle."""
    units = [u for us in passes for u in us]
    if all(u.ops <= 1 for u in units):
        return weighted_percentile(units, 0.5)
    return statistics.median(1000.0 * s / max(1, sum(u.ops for u in us))
                             for us, s in zip(passes, pass_seconds))


def digest(m, items):
    """sha256 of the canonical JSON of a pass's answers."""
    return hashlib.sha256(m.fans.dumps_canonical(items).encode()).hexdigest()


def git_commit():
    """Commit of the checkout, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        path = ROOT / ".git" / ref[5:]
        if path.is_file():
            return path.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def stamp(args, m, workload, inputs, extra):
    return {
        "workload": workload.name,
        "seed": args.seed,
        "trace": args.trace,
        "python": platform.python_version(),
        "rational_backend": f"{type(m.linalg.QQ(1)).__module__}.{type(m.linalg.QQ(1)).__name__}",
        "nproc": os.cpu_count(),
        "commit": git_commit(),
        "op": workload.op,
        "inputs": workload.sizes(inputs),
        **extra,
    }


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end(args, workload):
    with ReferenceClock() as clock:
        setups, setups_wall = [], []
        for _ in range(SETUP_REPEATS):
            t0, r0 = time.perf_counter(), clock.now()
            m = fresh_import()
            inputs = workload.build(m, args.seed)
            setups.append(clock.now() - r0)
            setups_wall.append(time.perf_counter() - t0)

        passes, wall, ref = [], [], []
        while True:
            units, wall_s, ref_s = run_pass(workload, m, inputs, len(passes), clock)
            passes.append(units)
            wall.append(wall_s)
            ref.append(ref_s)
            if sum(wall) + wall_s > args.seconds:
                break
        samples = clock.samples

    attempted = 0
    first_digest = None
    failures = Counter()
    for k, units in enumerate(passes):
        a, f, items = workload.check(m, inputs, k, units)
        attempted += a
        failures.update(f)
        if k == 0:
            first_digest = digest(m, items)
    all_units = [u for units in passes for u in units]
    ops = sum(u.ops for u in all_units)
    timed = sum(1 for u in all_units if u.ops)
    metrics = {
        "setup_s": (statistics.median(setups), "s",
                    f"median of {len(setups)} set-ups; wall {statistics.median(setups_wall):.4f} s"),
        "ops_per_s": (ops / sum(ref), "1/s",
                      f"{ops} {workload.op}s, {len(passes)} passes; "
                      f"{sum(ref):.3f} reference s, {sum(wall):.3f} wall s"),
        "op_p50_ms": (median_op_ms(passes, ref), "ms",
                      f"{ops} {workload.op}s over {timed} timed calls, {len(passes)} passes"),
        "op_p99_ms": (weighted_percentile(all_units, 0.99), "ms",
                      f"{ops} {workload.op}s over {timed} timed calls"),
        "peak_rss_mb": (peak_rss_mb(), "MB", "process peak resident set"),
    }
    info = {"passes": len(passes), "ops": ops, "digest_pass0": first_digest,
            "failed_by_ideal": dict(failures), "wall_s": sum(wall),
            "reference_s": sum(ref), "clock_samples": samples}
    return m, inputs, attempted, sum(failures.values()), metrics, info


def _ratio(num, den):
    return num / den if den else 0.0


def per_layer(args, workload):
    m = fresh_import()
    plain_inputs = workload.build(m, args.seed)
    with ReferenceClock() as clock:
        plain_units, _, plain_s = run_pass(workload, m, plain_inputs, 0, clock)
        tracer = Tracer()
        t0 = time.perf_counter()
        tracer.install()
        try:
            inputs = workload.build(m, args.seed)
            units, _, traced_s = run_pass(workload, m, inputs, 0, clock, tracer.unit)
        finally:
            tracer.uninstall()
        traced_wall = time.perf_counter() - t0
    _, _, plain_items = workload.check(m, plain_inputs, 0, plain_units)

    attempted, failures, items = workload.check(m, inputs, 0, units)
    if digest(m, items) != digest(m, plain_items):
        failures["traced answers differ from untraced"] += 1
    s = tracer.summary()
    for u in units:
        counts = s["by_unit"].setdefault(u.label, {})
        counts["ops"] = counts.get("ops", 0) + u.ops
    calls, self_s = s["calls"], s["self_s"]
    ops = sum(u.ops for u in units)
    queries = calls["weights.MembershipMap.query"]
    cones = ops if workload.name == "fanwalk" else 0
    fp, fp_none = "halfspaces.find_point", s["find_point_none"]
    metrics = {}
    for name in TRACED:
        metrics[name + ".calls"] = (calls[name], "count", "")
        metrics[name + ".self_s"] = (self_s[name], "s", "")
    metrics.update({
        "weights.MembershipMap.miss_ratio": (_ratio(s["misses"], queries), "ratio",
                                             f"{s['misses']} misses / {queries} queries"),
        "fans.relative_interior_contains.per_query": (
            _ratio(calls["fans.relative_interior_contains"], queries), "ratio",
            f"per {queries} queries"),
        "weights.weight_gb.per_miss": (_ratio(calls["weights.weight_gb"], s["misses"]),
                                       "ratio", f"per {s['misses']} misses"),
        "groebner.buchberger.per_op": (_ratio(calls["groebner.buchberger"], ops),
                                       "ratio", f"per {ops} {workload.op}s"),
        "groebner.contains_monomial.per_op": (
            _ratio(calls["groebner.contains_monomial"], ops), "ratio",
            f"per {ops} {workload.op}s"),
        "weights.groebner_cone.per_cone": (_ratio(calls["weights.groebner_cone"], cones),
                                           "ratio", f"per {cones} fan cones"),
        fp + ".per_cone": (_ratio(calls[fp], cones), "ratio", f"per {cones} fan cones"),
        fp + ".none_ratio": (_ratio(fp_none, calls[fp]), "ratio",
                             f"{fp_none} of {calls[fp]} probes found no point"),
        "trace.overhead_ratio": (traced_s / plain_s - 1.0, "ratio",
                                 f"pass 0: {traced_s:.3f} s traced, {plain_s:.3f} s plain, reference clock"),
    })
    OUT.mkdir(exist_ok=True)
    spans_path = OUT / f"{workload.name}-seed{args.seed}.spans"
    tracer.write(spans_path)
    info = {"ops": ops, "digest_pass0": digest(m, items), "traced_wall_s": traced_wall,
            "spans": len(tracer.span_name), "spans_file": str(spans_path.relative_to(ROOT)),
            "failed_by_ideal": dict(failures), "by_ideal": s["by_unit"]}
    return m, inputs, attempted, sum(failures.values()), metrics, info


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "tropgen" / "__init__.py").is_file() or not CORPUS.is_dir():
        print(f"perfbench: no tropgen sources or corpus under {ROOT}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    workload = WORKLOADS[args.workload]
    run = per_layer if args.trace else end_to_end
    m, inputs, attempted, failed, metrics, info = run(args, workload)

    by_ideal = info.pop("by_ideal", None)
    print("stamp " + json.dumps(stamp(args, m, workload, inputs, info), sort_keys=True))
    for label, counts in (by_ideal or {}).items():
        print(f"layer-counts {label} " + json.dumps(counts, sort_keys=True))
    for name, (value, unit, note) in metrics.items():
        print(f"metric {name} = {value!r} {unit}" + (f"  ({note})" if note else ""))
    print(f"metric failed_ratio = {failed / attempted!r} ratio  ({failed} of {attempted} ops)")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit, _) in metrics.items()},
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
