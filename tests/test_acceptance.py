"""The ten acceptance criteria, run at their stated parameters.

Each test prints one pass/fail line; run with `pytest -s` to see them.
Criteria 2 and 4 share one campaign session so the grid work is done once.
"""

import json
import re
import tempfile
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tropgen import groebner, verify
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


def test_run_rejects_an_empty_selection():
    # an empty selection would pass every check on nothing
    with pytest.raises(ParseError, match="no criterion selected"):
        VerifySession(Corpus(CORPUS)).run([])


JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=8)

# entry names, most of them not plain file names in the corpus directory
NAMES = st.sampled_from(["", ".", "..", "../point", "/etc/hostname", "a/b",
                         "nul\x00", "lone\ud800", "x" * 300, "~",
                         "-h", "point", "manifest.json"]) | st.text(max_size=8)

# well-formed manifest entries, so that the entry files are read
ENTRY = st.fixed_dictionaries({
    "n": st.integers(0, 5), "dim": st.integers(0, 5),
    "family": st.sampled_from(["skeleton", "zero-dim"]),
    "campaigns": st.lists(st.sampled_from(["skeleton", "emptiness"])),
})

FILE_TEXT = (st.sampled_from(["vars: 2\nx1 + x2\n", "vars: 3\nx1*x2 - x3^2\n",
                              "vars: 0\nx1\n", "vars: 1000000\nx1\n", "",
                              "vars: 2\nx1^2 + x2\n", "vars: 2\nx3\n"])
             | st.text(max_size=20))


@settings(max_examples=150, deadline=None)
@given(manifest=JSON | st.fixed_dictionaries({"ideals": JSON})
       | st.fixed_dictionaries({"ideals": st.dictionaries(
           NAMES, ENTRY | st.dictionaries(st.sampled_from(
               ["n", "dim", "family", "campaigns"]), JSON), max_size=4)})
       | st.fixed_dictionaries({"ideals": st.dictionaries(
           NAMES, ENTRY, min_size=1, max_size=4)}),
       raw=st.none() | st.sampled_from(
           [b"[" * 5000, b"{\"ideals\": {\"a\": " + b"1" * 5000 + b"}}",
            b"\xff\xfe", b"NaN"]) | st.binary(max_size=20),
       files=st.dictionaries(NAMES, FILE_TEXT, max_size=4))
def test_corpus_raises_only_parse_errors(manifest, raw, files):
    # a corpus directory with any manifest and any entry files is read, or
    # rejected with ParseError (exit 2), never with another exception;
    # only plain names are written, so the test stays in its directory
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        for name, text in files.items():
            if re.fullmatch(r"[A-Za-z0-9_][A-Za-z0-9_.-]{0,63}", name):
                (root / name).write_text(text, encoding="utf-8")
        (root / "manifest.json").write_bytes(
            json.dumps(manifest).encode() if raw is None else raw)
        try:
            corpus = Corpus(root)
        except ParseError:
            return
        assert corpus.names("skeleton") == [
            name for name in corpus.names()
            if "skeleton" in corpus.entry(name)["campaigns"]]
        for name in corpus.names():
            try:
                ideal = corpus.ideal(name)
            except ParseError:
                continue
            assert corpus.ideal(name) is ideal


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


def test_criterion_09_converts_each_basis_once(monkeypatch):
    # the brute-force scan divides many monomials by one basis per ideal;
    # each basis is converted to integer elements once, not per division
    bases, conversions = [], []
    normal_form, elements = verify.normal_form, groebner._elements

    def recording_normal_form(p, gb):
        if not any(gb is b for b in bases):
            bases.append(gb)
        return normal_form(p, gb)

    def recording_elements(polys, heads):
        conversions.append(polys)
        return elements(polys, heads)

    monkeypatch.setattr(verify, "normal_form", recording_normal_form)
    monkeypatch.setattr(groebner, "_elements", recording_elements)
    passed, detail = VerifySession(Corpus(CORPUS))._criterion_9()
    assert passed, detail
    converted = [p for p in conversions if any(p is b.elements for b in bases)]
    assert len(converted) == len(bases) == 20


def test_criterion_10_byte_identical_reruns(session):
    _run(session, 10)
