"""The summary and claim rule of tools/bench_pairs.py, on canned runs."""

import importlib.util
from pathlib import Path

import pytest

PATH = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
SPEC = importlib.util.spec_from_file_location("bench_pairs", PATH)
bench_pairs = importlib.util.module_from_spec(SPEC)
SPEC.loader.exec_module(bench_pairs)

METRICS = [("ops_per_s", "higher"), ("peak_rss_mb", "lower")]


def record(side, seed, ops, rss, passes=10, digest="d", failed=0):
    return {"workload": "campaign", "seed": seed, "side": side,
            "ran_first": side == "parent", "elapsed_s": 36.0,
            "stamp": {"passes": passes, "digest_pass0": digest},
            "result": {"correct": not failed, "attempted": 100,
                       "failed": failed,
                       "metrics": {"ops_per_s": {"value": ops, "unit": "1/s"},
                                   "peak_rss_mb": {"value": rss, "unit": "MB"}}}}


def canned(parent_ops, change_ops):
    runs = []
    for seed, (p, c) in enumerate(zip(parent_ops, change_ops)):
        runs.append(record("parent", seed, p, 30.0, passes=20 + seed))
        runs.append(record("change", seed, c, 30.0 + seed % 2, passes=40 - seed))
    return runs


PARENT = [100, 102, 98, 101, 99, 103, 97, 100, 104, 96]


def test_summary_counts_wins_medians_and_quartiles():
    change = [150, 90, 150, 150, 150, 160, 140, 150, 100, 150]
    s = bench_pairs.summarize(canned(PARENT, change), METRICS)["campaign"]
    ops = s["ops_per_s"]
    # seed 1 is a loss, seed 8 a loss: 8 wins
    assert (ops["pairs"], ops["change_wins"]) == (10, 8)
    assert ops["parent_median"] == 100.0 and ops["change_median"] == 150.0
    assert ops["parent_quartiles"] == [97.75, 102.25]
    assert ops["ratio_of_medians"] == 1.5
    # equal RSS ties count for neither side; lower is better
    assert s["peak_rss_mb"]["change_wins"] == 0
    assert s["passes"] == {"parent": list(range(20, 30)),
                           "change": list(range(31, 41))}
    assert s["failed_ops"] == {"parent": 0, "change": 0}
    assert s["correct"] and s["digests_match"]


def test_summary_skips_unpaired_runs_and_flags_digests():
    runs = canned(PARENT[:3], [110, 110, 110])
    runs.append(record("parent", 99, 1.0, 1.0))
    runs[1]["stamp"]["digest_pass0"] = "other"
    runs[3]["result"]["failed"], runs[3]["result"]["correct"] = 5, False
    s = bench_pairs.summarize(runs, METRICS)["campaign"]
    assert s["ops_per_s"]["pairs"] == 3
    assert not s["digests_match"] and not s["correct"]
    assert s["failed_ops"] == {"parent": 0, "change": 5}


@pytest.mark.parametrize("change,met", [
    # 10 wins, medians 50 apart against a parent IQR of 4.5
    ([150] * 10, True),
    # 9 wins still meets the rule
    ([150] * 9 + [90], True),
    # 8 wins does not
    ([150] * 8 + [90, 90], False),
    # 10 wins, but a median gap of 2 is inside the parent's IQR
    ([p + 2 for p in PARENT], False),
])
def test_claim_rule(change, met):
    summary = bench_pairs.summarize(canned(PARENT, change), METRICS)
    c = bench_pairs.claim(summary, "campaign", "ops_per_s")
    assert c["met"] is met
    assert c["parent_interquartile"] == 4.5
    assert c["pairs"] == 10


def test_claim_needs_ten_pairs():
    # 3 wins in 3 pairs, far apart, is too few pairs to meet the rule
    summary = bench_pairs.summarize(canned(PARENT[:3], [150] * 3), METRICS)
    c = bench_pairs.claim(summary, "campaign", "ops_per_s")
    assert (c["pairs"], c["change_wins"], c["met"]) == (3, 3, False)


def test_claim_on_a_lower_is_better_metric():
    runs = []
    for seed, p in enumerate(PARENT):
        runs.append(record("parent", seed, 1.0, p))
        runs.append(record("change", seed, 1.0, p - 10))
    summary = bench_pairs.summarize(runs, METRICS)
    assert bench_pairs.claim(summary, "campaign", "peak_rss_mb")["met"]
    assert not bench_pairs.claim(summary, "campaign", "ops_per_s")["met"]


def test_seed_range():
    assert bench_pairs.seed_range("campaign:5101-5103") == \
        ("campaign", [5101, 5102, 5103])
    assert bench_pairs.seed_range("member:7") == ("member", [7])


def test_pass_counts_of_this_checkout():
    # one seed-1 campaign pass of this checkout: Buchberger runs in all and
    # inside saturations, beside the map's work; the outcomes total the
    # keys the maps answered, the bulk rule-out of keys with one 0 included
    counts = bench_pairs.pass_counts(PATH.parent.parent)
    assert {k: counts[k] for k in (
        "maps", "queries", "weight_gb", "saturations", "buchberger",
        "saturation buchberger")} == {
        "maps": 45, "queries": 2631, "weight_gb": 105, "saturations": 177,
        "buchberger": 243, "saturation buchberger": 138}
    assert counts["buchberger"] == (counts["weight_gb"]
                                    + counts["saturation buchberger"])
    assert sum(counts["outcomes"].values()) == 16923


def test_bound_breaches_follow_each_metric_direction():
    # ops_per_s: ratio 0.7 is worse than its 0.25 bound; peak_rss_mb: ratio
    # 1.05 is within its 0.1 bound, and 1.2 is not
    runs = []
    for seed, p in enumerate(PARENT):
        runs.append(record("parent", seed, p, 30.0))
        runs.append(record("change", seed, 0.7 * p, 31.5))
    bounds = {"ops_per_s": 0.25, "peak_rss_mb": 0.1}
    s = bench_pairs.summarize(runs, METRICS, bounds)["campaign"]
    assert s["bound_breaches"] == ["ops_per_s"]
    for run in runs[1::2]:
        run["result"]["metrics"]["peak_rss_mb"]["value"] = 36.0
        run["result"]["metrics"]["ops_per_s"]["value"] *= 1.1
    s = bench_pairs.summarize(runs, METRICS, bounds)["campaign"]
    assert s["bound_breaches"] == ["peak_rss_mb"]
    # a metric without a bound is never flagged
    assert bench_pairs.summarize(runs, METRICS)["campaign"]["bound_breaches"] \
        == []


def test_rss_per_pass_predicts_the_change_from_its_passes():
    # the parent holds 20 MB plus 0.5 MB per pass; the change runs twice
    # the passes and holds 1 MB more than they predict
    runs = []
    for seed in range(5):
        passes = 10 + seed
        runs.append(record("parent", seed, 100, 20 + 0.5 * passes,
                           passes=passes))
        runs.append(record("change", seed, 120, 21 + passes, passes=2 * passes))
    rss = bench_pairs.summarize(runs, METRICS)["campaign"]["rss_per_pass"]
    assert rss == {"parent_slope_mb": 0.5, "parent_intercept_mb": 20.0,
                   "change_predicted_median": 32.0,
                   "change_measured_median": 33.0,
                   "measured_over_predicted": 1.0312}


def test_rss_per_pass_needs_two_parent_pass_counts():
    runs = [record(side, seed, 100, 30.0, passes=12)
            for seed in range(3) for side in ("parent", "change")]
    assert bench_pairs.summarize(runs, METRICS)["campaign"]["rss_per_pass"] \
        is None
