"""The ten acceptance criteria, run at their stated parameters.

Each test prints one pass/fail line; run with `pytest -s` to see them.
Criteria 2 and 4 share one campaign session so the grid work is done once.
"""

import time
from pathlib import Path

import pytest

from tropgen import verify
from tropgen.fans import member
from tropgen.poly import ParseError
from tropgen.verify import CRITERION_NAMES, Corpus, VerifySession

CORPUS = Path(__file__).resolve().parent.parent / "corpus"

TIME_BUDGETS = {1: 1.0, 2: 600.0, 5: 300.0, 6: 300.0}


@pytest.fixture(scope="module")
def session():
    return VerifySession(Corpus(CORPUS), seed=1, trials=3, bound=50, grid=3)


def _run(session, number):
    t0 = time.perf_counter()
    result = session.run([number])[0]
    elapsed = time.perf_counter() - t0
    status = "PASS" if result.passed else "FAIL"
    print(f"criterion {number:2d} [{CRITERION_NAMES[number]}]: {status} "
          f"({elapsed:.1f}s) {result.detail}")
    assert result.passed, result.detail
    budget = TIME_BUDGETS.get(number)
    if budget is not None:
        assert elapsed < budget, f"exceeded {budget}s budget: {elapsed:.1f}s"
    return result


def test_run_rejects_an_unknown_criterion_before_running_any():
    session = VerifySession(Corpus(CORPUS))
    with pytest.raises(ParseError, match="no criterion 11: criteria are "
                                         "1..10"):
        session.run([3, 11])
    assert session._campaign_reports == {}


def test_criterion_01_reference_fan_structure(session):
    _run(session, 1)


def test_criterion_01_needs_disjoint_relative_interiors(monkeypatch):
    # closed cones overlap on their faces, so membership in the closure
    # fails the partition check
    monkeypatch.setattr(verify, "relative_interior_contains", member)
    passed, detail = VerifySession(Corpus(CORPUS))._criterion_1()
    assert not passed
    assert detail.startswith("n=2: (0, 0) in the relative interiors of")


def test_criterion_02_skeleton_equality_campaign(session):
    _run(session, 2)


def test_criterion_03_dimension_zero_emptiness(session):
    _run(session, 3)


def test_criterion_04_symmetry_and_lineality(session):
    _run(session, 4)


def test_criterion_05_principal_ideal_closed_form(session):
    _run(session, 5)


def test_criterion_06_linear_ideal_closed_form(session):
    _run(session, 6)


def test_criterion_07_cone_count_gap(session):
    _run(session, 7)


def test_criterion_08_support_stability(session):
    _run(session, 8)


def test_criterion_09_containment_oracle(session):
    _run(session, 9)


def test_criterion_10_byte_identical_reruns(session):
    _run(session, 10)
