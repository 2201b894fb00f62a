"""Benchmark pairs: a parent checkout against a change checkout.

    python3 tools/bench_pairs.py --parent DIR --change DIR \
        --pairs campaign:5101-5110 --pairs member:5201-5210 \
        --claim campaign:ops_per_s \
        --describe "what the change does" --out BENCH.json

Each checkout runs its own, unchanged ``perfbench/run.py`` (``--trace 0``)
in a fresh process, one run at a time, for the ``run_seconds`` of the
change's BENCHMARK.json.  For every seed of ``--pairs`` the
two sides run once each; the parent runs first on even pair indices and
the change first on odd ones.  Each run keeps its stamp line (with the
pass count and output digest) and its final JSON line.

The output holds ``runs``, a ``summary`` per workload and the
``claim``.  The summary gives, per end-to-end metric of the change's
BENCHMARK.json, wins of the change, each side's median and quartiles and
the ratio of medians, and lists under ``bound_breaches`` every metric
whose ratio of medians is worse than its ``bound``.  Under
``rss_per_pass`` it fits ``peak_rss_mb`` to the pass count over the
parent's runs by least squares and sets the change's RSS predicted from
its own pass counts beside the measured one, which tells memory held per
extra pass from memory the change holds.  The claim holds when, over at
least 10 pairs, the change wins at least 9 in 10, ties counting for
neither, and the medians differ, in the better direction, by more than
the distance between the parent's quartiles.  It also holds the work one
seed-1 ``campaign`` pass does on each side: ``weight_gb`` calls,
saturations (``contains_monomial`` calls), those made while the grid's
origin was asked, ``buchberger`` runs in all and inside saturations, and
the outcomes of ``MembershipMap.counts``.

The file is rewritten after every pair, so an interrupted run keeps
the pairs it finished.  Standard library only.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

RULE = ("change better in at least 9 of 10 pairs, and medians differ by "
        "more than the parent's interquartile distance")
MIN_PAIRS = 10

# Counts one seed-1 campaign pass of the checkout given as argv[1], through
# the names the package's own modules call.
COUNT_PASS = r"""
import importlib, json, sys
from collections import Counter
from contextlib import nullcontext
from pathlib import Path
from types import SimpleNamespace

root = Path(sys.argv[1])
sys.path[:0] = [str(root / "src"), str(root / "perfbench")]
from workloads import WORKLOADS

m = SimpleNamespace(**{name: importlib.import_module("tropgen." + name)
                       for name in ("generic", "groebner", "verify", "weights")})
weights, groebner = m.weights, m.groebner
counts, maps, origin, saturating = Counter(), {}, [False], [False]

def counted(name, real):
    def call(*args):
        counts[name] += 1
        counts["origin " + name] += origin[0]
        return real(*args)
    return call

def saturation(real):
    def call(*args):
        saturating[0] = True
        try:
            return real(*args)
        finally:
            saturating[0] = False
    return call

def buchberger(real):
    def call(*args):
        counts["buchberger"] += 1
        counts["saturation buchberger"] += saturating[0]
        return real(*args)
    return call

weights.weight_gb = counted("weight_gb", weights.weight_gb)
weights.contains_monomial = counted("saturations",
                                    saturation(weights.contains_monomial))
weights.buchberger = buchberger(weights.buchberger)
groebner.buchberger = buchberger(groebner.buchberger)
real_query = weights.MembershipMap.query

def query(self, w):
    maps[id(self)] = self
    origin[0] = not any(weights.normalize_grid_point(w))
    counts["queries"] += 1
    try:
        return real_query(self, w)
    finally:
        origin[0] = False

weights.MembershipMap.query = query
campaign = WORKLOADS["campaign"]
inputs = campaign.build(m, 1)
campaign.run_pass(m, inputs, 0, lambda label: nullcontext(), lambda: 0.0)
outcomes = Counter()
for mm in maps.values():
    outcomes.update(mm.counts)
print(json.dumps({"maps": len(maps), **counts,
                  "outcomes": dict(sorted(outcomes.items()))}))
"""


def seed_range(text):
    """'W:A-B' or 'W:A' -> (W, [A, ..., B])."""
    workload, _, seeds = text.partition(":")
    first, _, last = seeds.partition("-")
    if not workload or not first:
        raise argparse.ArgumentTypeError(f"want WORKLOAD:FIRST-LAST, not {text!r}")
    return workload, list(range(int(first), int(last or first) + 1))


def run_once(checkout, workload, seed, seconds):
    """One perfbench run in `checkout`: elapsed time, stamp and result."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    elapsed = time.perf_counter() - t0
    if proc.returncode:
        raise RuntimeError(f"{' '.join(cmd)} in {checkout} exited "
                           f"{proc.returncode}: {proc.stderr[-2000:]}")
    lines = proc.stdout.splitlines()
    stamp = next(json.loads(line[len("stamp "):]) for line in lines
                 if line.startswith("stamp "))
    return {"elapsed_s": elapsed, "stamp": stamp, "result": json.loads(lines[-1])}


def pass_counts(checkout):
    """The work of one seed-1 campaign pass in `checkout`."""
    proc = subprocess.run([sys.executable, "-c", COUNT_PASS, str(checkout)],
                          capture_output=True, text=True, check=True)
    return json.loads(proc.stdout)


def _quartiles(values):
    if len(values) < 2:
        return [values[0], values[0]]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return [q1, q3]


def _r(x):
    return round(x, 4)


def metric_summary(pairs, better):
    """Summary of one metric over (parent, change) value pairs."""
    parent = [p for p, _ in pairs]
    change = [c for _, c in pairs]
    wins = sum((c > p) if better == "higher" else (c < p) for p, c in pairs)
    pm, cm = statistics.median(parent), statistics.median(change)
    return {
        "better": better,
        "pairs": len(pairs),
        "change_wins": wins,
        "parent_median": _r(pm),
        "parent_quartiles": [_r(q) for q in _quartiles(parent)],
        "change_median": _r(cm),
        "change_quartiles": [_r(q) for q in _quartiles(change)],
        "ratio_of_medians": _r(cm / pm) if pm else None,
    }


def breached(s, bound):
    """Whether a metric_summary's ratio of medians is worse than 1 by
    more than bound, in its `better` direction."""
    ratio = s["ratio_of_medians"]
    if ratio is None:
        return False
    return ratio < 1 - bound if s["better"] == "higher" else ratio > 1 + bound


def _rss(run):
    return run["result"]["metrics"]["peak_rss_mb"]["value"]


def rss_per_pass(pairs):
    """peak_rss_mb against passes: the least-squares line over the parent
    runs of (parent, change) run pairs, and the medians of the change's
    RSS as that line predicts it from the change's pass counts and as
    measured; None unless the parent ran at least two pass counts."""
    passes = [p["stamp"]["passes"] for p, _ in pairs]
    try:
        slope, intercept = statistics.linear_regression(
            passes, [_rss(p) for p, _ in pairs])
    except statistics.StatisticsError:
        return None
    predicted = statistics.median(intercept + slope * c["stamp"]["passes"]
                                  for _, c in pairs)
    measured = statistics.median(_rss(c) for _, c in pairs)
    return {"parent_slope_mb": _r(slope), "parent_intercept_mb": _r(intercept),
            "change_predicted_median": _r(predicted),
            "change_measured_median": _r(measured),
            "measured_over_predicted": _r(measured / predicted)}


def summarize(runs, metrics, bounds=None):
    """Per workload: a metric_summary per (name, better) of `metrics`,
    the names of those whose bound (by name in `bounds`) is breached, RSS
    per pass, the pass counts, failed ops, correctness and whether the two
    sides' pass-0 digests matched in every pair."""
    bounds = bounds or {}
    by_seed = {}
    for run in runs:
        by_seed.setdefault((run["workload"], run["seed"]), {})[run["side"]] = run
    pairs = {}
    for (workload, _), sides in by_seed.items():
        if set(sides) == {"parent", "change"}:
            pairs.setdefault(workload, []).append((sides["parent"], sides["change"]))
    summary = {}
    for workload, ps in pairs.items():
        out = summary[workload] = {
            name: metric_summary([tuple(r["result"]["metrics"][name]["value"]
                                        for r in pair) for pair in ps], better)
            for name, better in metrics}
        out["bound_breaches"] = [name for name, _ in metrics if name in bounds
                                 and breached(out[name], bounds[name])]
        out["rss_per_pass"] = rss_per_pass(ps)
        sides = ("parent", "change")
        out["passes"] = {side: sorted(pair[i]["stamp"]["passes"] for pair in ps)
                         for i, side in enumerate(sides)}
        out["failed_ops"] = {side: sum(pair[i]["result"]["failed"] for pair in ps)
                             for i, side in enumerate(sides)}
        out["correct"] = all(r["result"]["correct"] for pair in ps for r in pair)
        out["digests_match"] = all(p["stamp"]["digest_pass0"] == c["stamp"]["digest_pass0"]
                                   for p, c in ps)
    return summary


def claim(summary, workload, metric):
    """The claim rule on one summarized metric."""
    s = summary[workload][metric]
    lo, hi = s["parent_quartiles"]
    gap = s["change_median"] - s["parent_median"]
    if s["better"] == "lower":
        gap = -gap
    return {
        "workload": workload,
        "metric": metric,
        "met": (s["pairs"] >= MIN_PAIRS and gap > hi - lo
                and 10 * s["change_wins"] >= 9 * s["pairs"]),
        "rule": RULE,
        "change_wins": s["change_wins"],
        "pairs": s["pairs"],
        "parent_median": s["parent_median"],
        "parent_interquartile": _r(hi - lo),
        "change_median": s["change_median"],
    }


def git_head(checkout):
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=checkout,
                          capture_output=True, text=True)
    return proc.stdout.strip() or "unknown"


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, type=Path)
    parser.add_argument("--change", required=True, type=Path)
    parser.add_argument("--pairs", action="append", type=seed_range, default=[],
                        metavar="WORKLOAD:FIRST-LAST")
    parser.add_argument("--claim", metavar="WORKLOAD:METRIC")
    parser.add_argument("--describe", default="")
    parser.add_argument("--out", required=True, type=Path)
    args = parser.parse_args(argv)

    bench = json.loads((args.change / "BENCHMARK.json").read_text())
    metrics = [(m["name"], m["better"]) for m in bench["end_to_end"]]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]
              if "bound" in m}
    seconds = bench["run_seconds"]
    doc = {
        "change": args.describe,
        "parent_commit": git_head(args.parent),
        "change_commit": git_head(args.change),
        "machine": {"nproc": os.cpu_count(), "python": platform.python_version()},
        "method": (f"python3 perfbench/run.py --workload W --seed S --seconds "
                   f"{seconds:g} --trace 0 in each checkout, one run at a "
                   f"time; per seed one pair, the parent first on even pair "
                   f"indices; quartiles are statistics.quantiles(n=4); written "
                   f"by tools/bench_pairs.py"),
        "seeds": {w: seeds for w, seeds in args.pairs},
    }
    doc["campaign_pass_counts_seed1"] = {
        side: pass_counts(path)
        for side, path in (("parent", args.parent), ("change", args.change))}
    runs = []

    def write():
        doc["summary"] = summarize(runs, metrics, bounds)
        if args.claim:
            workload, _, metric = args.claim.partition(":")
            if workload in doc["summary"]:
                doc["claim"] = claim(doc["summary"], workload, metric)
        doc["runs"] = runs
        args.out.write_text(json.dumps(doc, indent=1) + "\n")

    write()
    for workload, seeds in args.pairs:
        for k, seed in enumerate(seeds):
            sides = [("parent", args.parent), ("change", args.change)]
            if k % 2:
                sides.reverse()
            for i, (side, checkout) in enumerate(sides):
                run = run_once(checkout, workload, seed, seconds)
                runs.append({"workload": workload, "seed": seed, "side": side,
                             "ran_first": i == 0, **run})
                if "rational_backend" not in doc["machine"]:
                    doc["machine"]["rational_backend"] = run["stamp"]["rational_backend"]
            write()
            print(f"{workload} seed {seed}: done", file=sys.stderr, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
