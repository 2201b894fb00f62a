"""Command line driver: exit codes, output contracts, reproducibility."""

import hashlib
import json
import os
import shutil
import subprocess
import sys
from itertools import count
from pathlib import Path

import pytest

from tropgen import __version__, cli, groebner, weights
from tropgen.cli import main
from tropgen.groebner import buchberger, normal_form
from tropgen.linalg import QQ
from tropgen.poly import GREVLEX, Polynomial, parse_ideal_file
from tropgen.weights import (in_tropical_variety, initial_forms,
                             normalized_grid, weight_gb)

CORPUS = Path(__file__).resolve().parent.parent / "corpus"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# an empty grid or no trials would pass every check on nothing
BAD_CAMPAIGN_PARAMETERS = [("--grid", "-1"), ("--trials", "0"),
                           ("--bound", "0")]


def test_each_failure_has_one_exit_code():
    # main picks a failure's entry by isinstance, so no class may
    # subclass another
    assert not [(a, b) for a in cli.FAILURES for b in cli.FAILURES
                if a is not b and issubclass(a, b)]


class TestDim:
    def test_linear_r2_n4(self, capsys):
        code, out, _ = run(capsys, "dim", str(CORPUS / "linear_r2_n4"))
        assert code == 0 and "dim = 2" in out

    def test_point(self, capsys):
        code, out, _ = run(capsys, "dim", str(CORPUS / "point"))
        assert code == 0 and "dim = 0" in out

    def test_hypersurface(self, capsys):
        code, out, _ = run(capsys, "dim", str(CORPUS / "hypersurface_n3"))
        assert code == 0 and "dim = 2" in out

    def test_parse_error_exit_2(self, capsys, tmp_path):
        bad = tmp_path / "bad"
        bad.write_text("vars: 2\nx1 + @\n")
        code, _, err = run(capsys, "dim", str(bad))
        assert code == 2 and "error" in err

    def test_non_homogeneous_generator_exit_2(self, capsys, tmp_path):
        bad = tmp_path / "bad"
        bad.write_text("vars: 2\nx1^2 + x2\n")
        code, out, err = run(capsys, "dim", str(bad))
        assert code == 2 and out == ""
        assert err.startswith("error: line 2: generator is not homogeneous")

    def test_past_sixteen_variables(self, capsys, tmp_path):
        # x1*x2, x2*x3, ..., x16*x17: the fewest variables meeting every
        # edge of a path on 17 vertices are x2, x4, ..., x16
        f = tmp_path / "path"
        f.write_text("vars: 17\n" + "\n".join(f"x{i}*x{i + 1}"
                                                for i in range(1, 17)) + "\n")
        code, out, _ = run(capsys, "dim", str(f))
        assert code == 0 and "dim = 9" in out

    def test_too_many_variables_exit_2(self, capsys, tmp_path):
        f = tmp_path / "wide"
        f.write_text("vars: 1000000\nx1 + x2\n")
        code, out, err = run(capsys, "dim", str(f))
        assert (code, out) == (2, "")
        assert err.startswith("error: line 1: need 1..64 variables, "
                              "not 1000000")

    def test_missing_file_exit_2(self, capsys):
        code, _, _ = run(capsys, "dim", "/nonexistent/ideal")
        assert code == 2

    def test_improper_ideal_exit_3(self, capsys, tmp_path):
        unit = tmp_path / "unit"
        unit.write_text("vars: 2\n1 + x1 - x1\n")
        code, _, err = run(capsys, "dim", str(unit))
        assert code == 3


# longer than the 4,300 digits Python converts to an int by default
LONG = "1" * 5000


class TestUnreadableInput:
    """Input that Python itself cannot convert or decode is a parse error
    (exit 2), not a traceback."""

    @pytest.mark.parametrize("text", [
        f"vars: {LONG}\nx1\n",              # variable count
        f"vars: 2\n{LONG}*x1 + x2\n",       # coefficient
        f"vars: 2\n1/{LONG}*x1 + x2\n",     # denominator
        f"vars: 2\nx1^{LONG}\n",            # exponent
        f"vars: 2\nx{LONG}\n",              # variable index
    ], ids=["vars", "coefficient", "denominator", "exponent", "index"])
    def test_overlong_integer_literal_exit_2(self, capsys, tmp_path, text):
        f = tmp_path / "long"
        f.write_text(text)
        code, out, err = run(capsys, "dim", str(f))
        assert (code, out) == (2, "")
        assert err.startswith("error: integer literal of 5000 digits is "
                              "too long")

    def test_overlong_matrix_header_exit_2(self, capsys, tmp_path):
        f = tmp_path / "long.matrix"
        f.write_text(f"matrix: 1 {LONG}\n1 2 3\n")
        code, out, err = run(capsys, "linear", str(f))
        assert (code, out) == (2, "")
        assert err.startswith("error: integer literal of 5000 digits is "
                              "too long")

    @pytest.mark.parametrize("command, data", [
        ("dim", b"vars: 2\nx1 + x2\xff\n"),
        ("member", b"vars: 2\n\xe9x1 + x2\n"),
        ("linear", b"matrix: 1 3\n1 2 \xff\n"),
    ], ids=["dim", "member", "linear"])
    def test_non_utf8_file_exit_2(self, capsys, tmp_path, command, data):
        f = tmp_path / "latin1"
        f.write_bytes(data)
        weight = ("-w", "0,0") if command == "member" else ()
        code, out, err = run(capsys, command, str(f), *weight)
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and "not UTF-8 text" in err


class TestOneIntegerRule:
    """An integer of outside text is ASCII digits, signed only where it
    stands alone: anything int() would also read, such as 1_0 or a
    non-ASCII digit, is a parse or usage error (exit 2), not a value."""

    @pytest.mark.parametrize("command, text, message", [
        ("dim", "vars: 2\nx\u0661 + x2\n", "unexpected character 'x'"),
        ("dim", "vars: \u0662\nx1 + x2\n", "line 1: expected 'vars: n' "
                                            "header"),
        ("linear", "matrix: 1 3\n1 2 1_0\n", "line 2: bad entry '1_0'"),
        ("linear", "matrix: 1 3\n1 2 3/-4\n", "line 2: bad entry '3/-4'"),
        ("linear", "matrix: 1 65\n" + " ".join(["1"] * 65) + "\n",
         "line 1: need 1..64 variables, not 65"),
    ], ids=["index", "vars", "entry", "denominator", "matrix-n"])
    def test_file_literal_exit_2(self, capsys, tmp_path, command, text,
                                 message):
        f = tmp_path / "input"
        f.write_text(text)
        code, out, err = run(capsys, command, str(f))
        assert (code, out) == (2, "")
        assert err.startswith(f"error: {message}")

    def test_weight_exit_2(self, capsys):
        code, out, err = run(capsys, "member", str(CORPUS / "monomial_x1x2"),
                             "-w", "1_0,0")
        assert (code, out) == (2, "")
        assert err == ("error: '1_0' is not an integer literal "
                       "(at position 0)\n")

    def test_criteria_exit_2(self, capsys):
        code, out, err = run(capsys, "verify-corpus", str(CORPUS),
                             "--criteria", "3,\u0667")
        assert (code, out) == (2, "")
        assert err == ("error: '\u0667' is not an integer literal "
                       "(at position 2)\n")

    @pytest.mark.parametrize("argv", [
        ["--grid", "1_0", "dim", str(CORPUS / "point")],
        ["dim", str(CORPUS / "point"), "--seed", "\u0661"],
        ["fan", "wn", "--n", "1_0"],
        ["fan", "wn", "--n", "3", "--skeleton", " 1"]],
        ids=["grid", "seed", "n", "skeleton"])
    def test_option_exit_2(self, capsys, argv):
        # argparse reports a bad option value and exits 2
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "Traceback" not in captured.err
        assert "error: argument" in captured.err
        assert "invalid integer_literal value" in captured.err

    def test_budget_exit_2(self, capsys, monkeypatch):
        monkeypatch.setenv("TROPGEN_BUDGET", "1_0")
        code, out, err = run(capsys, "fan", "groebner",
                             str(CORPUS / "hypersurface_n3"))
        assert (code, out) == (2, "")
        assert err == ("error: TROPGEN_BUDGET must be an integer >= 1, "
                       "not '1_0'\n")


class TestUnwritableOutput:
    """An --out path that cannot be written is a usage error (exit 2), not
    a traceback."""

    @pytest.mark.parametrize("where", ["missing-directory", "directory"])
    def test_unwritable_out_exit_2(self, capsys, tmp_path, where):
        target = (tmp_path / "missing" / "x" if where == "missing-directory"
                  else tmp_path)
        code, out, err = run(capsys, "--out", str(target), "dim",
                             str(CORPUS / "point"))
        assert (code, out) == (2, "")
        assert err.startswith("error: cannot write --out: ")
        assert str(target) in err and "Traceback" not in err
        assert not (tmp_path / "missing").exists()


CORPUS_IDEALS = sorted(json.loads(
    (CORPUS / "manifest.json").read_text())["ideals"])

# ideals with a monomial but no one-term element in their reduced bases,
# so that the certificate at the origin is a power of x1*x2*x3
POWER_SEARCH = {
    "power_search_1": "vars: 3\n2*x1 + x2 - x3\nx1*x2 - x1*x3\n",
    "power_search_2": "vars: 3\n2*x1 + x2 + x3\nx2*x3 + x1*x3 + x3^2\n",
    "power_search_3": "vars: 3\nx2 + 2*x3 - 2*x1\nx1*x3 - x1^2\n"}


def reference_certificate(ideal, w):
    """The certificate of in_w(I), w outside T(I), found independently of
    the w-refined basis's order: a one-term initial form if there is one,
    else the smallest k whose (x1*..*xn)^k has normal form 0 modulo a
    fresh GREVLEX basis of in_w(I)."""
    gens = initial_forms(weight_gb(ideal, w), w)
    for g in gens:
        if len(g.terms) == 1:
            return list(g.terms[0][0])
    gb = buchberger(gens, GREVLEX)
    for k in count(1):
        mono = Polynomial(ideal.n, ((tuple([k] * ideal.n), QQ(1)),))
        if normal_form(mono, gb).is_zero:
            return [k] * ideal.n


class TestMember:
    def test_inside(self, capsys, tmp_path):
        f = tmp_path / "lin"
        f.write_text("vars: 3\nx1 + x2 + x3\n")
        code, out, _ = run(capsys, "member", str(f), "-w", "0,0,0")
        assert code == 0 and "true" in out

    def test_outside_with_certificate(self, capsys, tmp_path):
        f = tmp_path / "lin"
        f.write_text("vars: 3\nx1 + x2 + x3\n")
        code, out, _ = run(capsys, "member", str(f), "-w=-1,0,0")
        assert code == 0 and "false" in out
        assert "certificate monomial: x1" in out

    def test_monomial_certificate(self, capsys):
        code, out, _ = run(capsys, "member", str(CORPUS / "monomial_x1x2"),
                           "-w", "3,1")
        assert code == 0 and "false" in out
        assert "x1*x2" in out

    def test_certificate_power_of_all_variables(self, capsys, tmp_path):
        # x1*(x2 - x3) and x2 - x3 = -2*x1 give x1^2, yet no initial
        # generator is a single term; the certificate is (x1*x2*x3)^2
        f = tmp_path / "ideal"
        f.write_text("vars: 3\n2*x1 + x2 - x3\nx1*x2 - x1*x3\n")
        code, out, _ = run(capsys, "member", str(f), "-w", "0,0,0")
        assert code == 0 and "false" in out
        assert "certificate monomial: x1^2*x2^2*x3^2" in out

    def test_one_basis_per_run(self, capsys, tmp_path, monkeypatch):
        # the verdict and the certificate read the same initial forms, and
        # the power search reduces by them: the one Buchberger run outside
        # the saturation test is weight_gb's
        calls, runs, saturating = [], [], [False]
        weight_gb = weights.weight_gb

        def counting(ideal, *ws):
            calls.append(ws)
            return weight_gb(ideal, *ws)
        monkeypatch.setattr(weights, "weight_gb", counting)
        monkeypatch.setattr(cli, "weight_gb", counting)

        def counting_runs(generators, order):
            runs.append(saturating[0])
            return buchberger(generators, order)

        def saturation(generators):
            saturating[0] = True
            try:
                return groebner.contains_monomial(generators)
            finally:
                saturating[0] = False
        for module in (cli, groebner, weights):
            if vars(module).get("buchberger") is buchberger:
                monkeypatch.setattr(module, "buchberger", counting_runs)
        monkeypatch.setattr(cli, "contains_monomial", saturation)
        f = tmp_path / "ideal"
        f.write_text("vars: 3\n2*x1 + x2 - x3\nx1*x2 - x1*x3\n")
        code, out, _ = run(capsys, "member", str(f), "-w", "0,0,0")
        assert code == 0 and out == ("w = (0, 0, 0): false\n"
                                     "certificate monomial: x1^2*x2^2*x3^2\n")
        assert calls == [((0, 0, 0),)]
        assert runs.count(False) == 1
        code, out, _ = run(capsys, "member", str(f), "-w", "0,0,0", "--json")
        assert code == 0 and out == json.dumps(
            {"certificate": [2, 2, 2], "command": "member", "member": False,
             "seed": 1, "tool": "tropgen", "version": __version__,
             "weight": [0, 0, 0]}, sort_keys=True, indent=2) + "\n"
        assert len(calls) == 2

    @pytest.mark.parametrize("name", [*CORPUS_IDEALS, *POWER_SEARCH])
    def test_certificate_matches_a_fresh_basis(self, capsys, tmp_path, name):
        # every weight of the radius-1 grid outside T, on each corpus ideal
        # and on ideals whose certificate at the origin needs the power
        # search, against the certificate of a fresh GREVLEX basis
        f = CORPUS / name
        if name in POWER_SEARCH:
            f = tmp_path / name
            f.write_text(POWER_SEARCH[name])
        ideal = parse_ideal_file(f.read_text())
        outside = [w for w in normalized_grid(ideal.n, 1)
                   if not in_tropical_variety(ideal, w)]
        if name in POWER_SEARCH:
            assert outside[0] == (0, 0, 0) and all(
                len(g.terms) > 1 for g in initial_forms(
                    weight_gb(ideal, outside[0]), outside[0]))
        for w in outside:
            code, out, _ = run(capsys, "member", str(f),
                               "-w=" + ",".join(map(str, w)), "--json")
            assert code == 0
            assert json.loads(out)["certificate"] == \
                reference_certificate(ideal, w), w

    def test_weight_length_mismatch(self, capsys):
        code, _, _ = run(capsys, "member", str(CORPUS / "monomial_x1x2"),
                         "-w", "1,2,3")
        assert code == 2

    def test_json_output(self, capsys, tmp_path):
        f = tmp_path / "lin"
        f.write_text("vars: 2\nx1 + x2\n")
        code, out, _ = run(capsys, "member", str(f), "-w", "0,1", "--json")
        data = json.loads(out)
        assert data["member"] is False
        assert data["certificate"] == [1, 0]
        assert data["seed"] == 1


class TestGeneric:
    def test_monomial_x1x2(self, capsys):
        code, out, _ = run(capsys, "generic", str(CORPUS / "monomial_x1x2"),
                           "--trials", "2", "--grid", "2")
        assert code == 0
        assert "skeleton equality with W_2^1: PASS" in out

    def test_point_empty(self, capsys):
        code, out, _ = run(capsys, "generic", str(CORPUS / "point"),
                           "--trials", "2", "--grid", "2")
        assert code == 0 and "empty" in out

    @pytest.mark.parametrize("flag,value", BAD_CAMPAIGN_PARAMETERS)
    def test_bad_campaign_parameter_exit_2(self, capsys, flag, value):
        code, out, err = run(capsys, "generic", str(CORPUS / "ci_n4_dim2"),
                             "--json", flag, value)
        assert code == 2 and out == ""
        assert err.startswith(f"error: {flag} must be >= ")


class TestFan:
    def test_wn_counts(self, capsys):
        code, out, _ = run(capsys, "fan", "wn", "--n", "3")
        assert code == 0 and "7 cones" in out

    @pytest.mark.parametrize("n", ["0", "-1"])
    def test_wn_without_variables_exit_2(self, capsys, n):
        code, out, err = run(capsys, "fan", "wn", "--n", n)
        assert code == 2 and out == ""
        assert err.startswith("error: --n must be >= 1")

    @pytest.mark.parametrize("m", ["-1", "4"])
    def test_wn_skeleton_outside_0_to_n_exit_2(self, capsys, m):
        code, out, err = run(capsys, "fan", "wn", "--n", "3", "--skeleton", m)
        assert (code, out) == (2, "")
        assert err == f"error: --skeleton must be in 0..3, not {m}\n"

    @pytest.mark.parametrize("m,cones", [("0", 0), ("3", 7)])
    def test_wn_skeleton_bounds(self, capsys, m, cones):
        code, out, _ = run(capsys, "fan", "wn", "--n", "3", "--skeleton", m)
        assert code == 0 and f"skeleton {m}: {cones} cones" in out

    def test_wn_skeleton(self, capsys):
        code, out, _ = run(capsys, "fan", "wn", "--n", "4", "--skeleton", "2",
                           "--json")
        data = json.loads(out)
        assert len(data["cones"]) == 5  # 4 of dim 2 and 1 of dim 1
        assert sum(1 for c in data["cones"] if len(c["label"]) == 3) == 4

    def test_wn_skeleton_labels(self, capsys):
        # the m-skeleton of W(n) is exactly the C_A with |A| >= n - m + 1
        code, out, _ = run(capsys, "fan", "wn", "--n", "4", "--skeleton", "2",
                           "--json")
        assert code == 0
        labels = sorted(tuple(c["label"]) for c in json.loads(out)["cones"])
        assert labels == [(1, 2, 3), (1, 2, 3, 4), (1, 2, 4), (1, 3, 4),
                          (2, 3, 4)]

    def test_wn_over_budget_exit_5(self, capsys):
        # W(40) has 2^40 - 1 cones: counted, not built
        code, out, err = run(capsys, "fan", "wn", "--n", "40", "--json")
        assert (code, out) == (5, "")
        assert err == ("error: the requested fan has 1099511627775 cones, "
                       "more than the budget of 200\n")

    def test_wn_within_raised_budget(self, capsys, monkeypatch):
        # W(8) has 255 cones, over the default budget of 200
        code, _, _ = run(capsys, "fan", "wn", "--n", "8")
        assert code == 5
        monkeypatch.setenv("TROPGEN_BUDGET", "255")
        code, out, _ = run(capsys, "fan", "wn", "--n", "8")
        assert code == 0 and "W(8): 255 cones" in out

    def test_wn_skeleton_is_built_alone(self, capsys):
        # the 2-skeleton of W(40) has 41 cones, of 2^40 - 1 in W(40)
        code, out, _ = run(capsys, "fan", "wn", "--n", "40", "--skeleton", "2")
        assert code == 0 and "skeleton 2: 41 cones" in out

    def test_fan_json_deterministic(self, capsys):
        _, out1, _ = run(capsys, "fan", "wn", "--n", "3", "--json")
        _, out2, _ = run(capsys, "fan", "wn", "--n", "3", "--json")
        assert out1 == out2

    def test_groebner_fan_principal_is_w3(self, capsys):
        code, out, _ = run(capsys, "fan", "groebner",
                           str(CORPUS / "principal_n3_generic"), "--json")
        assert code == 0
        data = json.loads(out)
        assert len(data["cones"]) == 3

    def test_budget_exit_5(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("TROPGEN_BUDGET", "1")
        f = tmp_path / "quad"
        f.write_text("vars: 3\nx1*x2 + x2*x3 + x1*x3\n")
        code, _, err = run(capsys, "fan", "groebner", str(f))
        assert code == 5

    def test_groebner_fan_past_twelve_variables(self, capsys, tmp_path):
        # the start cone refines the unit weights, so it exists for any n
        f = tmp_path / "hyperplane"
        f.write_text("vars: 13\n" + " + ".join(f"x{i}" for i in range(1, 14))
                     + "\n")
        code, out, _ = run(capsys, "fan", "groebner", str(f))
        assert code == 0 and "13 cones" in out

    @pytest.mark.parametrize("value", ["abc", "-3", "0"])
    def test_invalid_budget_exit_2(self, capsys, tmp_path, monkeypatch, value):
        monkeypatch.setenv("TROPGEN_BUDGET", value)
        f = tmp_path / "line"
        f.write_text("vars: 2\nx1 + x2\n")
        code, out, err = run(capsys, "fan", "groebner", str(f))
        assert code == 2 and out == ""
        assert err.startswith("error: TROPGEN_BUDGET must be an integer >= 1")

    def test_incomplete_fan_exit_1(self, capsys, tmp_path, monkeypatch):
        # no flip can land in a cone whose closure holds the facet point
        monkeypatch.setattr(weights, "member", lambda cone, w: False)
        f = tmp_path / "line"
        f.write_text("vars: 2\nx1 + x2\n")
        code, out, err = run(capsys, "fan", "groebner", str(f))
        assert code == 1 and out == ""
        assert err.startswith("error: no Groebner cone found across")


class TestLinear:
    def test_report(self, capsys):
        code, out, _ = run(capsys, "linear", str(CORPUS / "linear_r2_n4.matrix"),
                           "--trials", "2", "--grid", "1")
        assert code == 0 and "rank = 2, dim = 2" in out

    def test_checks_keys(self, capsys):
        code, out, _ = run(capsys, "linear", str(CORPUS / "linear_r1_n3.matrix"),
                           "--trials", "2", "--grid", "1", "--json")
        assert code == 0
        assert json.loads(out)["checks"] == {
            "rank_matches_dim": True, "minors_nonzero": True,
            "cones_agree": True, "grid_equal_skeleton": True,
            "skeleton_cones_found": True, "mismatches": []}

    def test_cone_at_weight(self, capsys):
        code, out, _ = run(capsys, "linear", str(CORPUS / "linear_r1_n3.matrix"),
                           "-w", "0,1,2", "--json")
        data = json.loads(out)
        assert data["cone"]["inequalities"] == [[1, -1, 0], [1, 0, -1]]

    @pytest.mark.parametrize("text", [
        "matrix: 0 3\n",                      # no generator
        "matrix: 2 3\n1 2 3\n0 0 0\n",        # a zero row
        "matrix: 2 3\n1 1 1\n2 2 2\n",        # rank 1, not 2
        "matrix: 3 3\n1 0 0\n0 1 0\n0 0 1\n",  # rank n: no rank r <= n-1
    ])
    @pytest.mark.parametrize("weight", [(), ("-w", "0,1,2")])
    def test_rows_not_independent_with_r_below_n_exit_2(self, capsys, tmp_path,
                                                          text, weight):
        f = tmp_path / "m.matrix"
        f.write_text(text)
        code, out, err = run(capsys, "linear", str(f), *weight,
                             "--trials", "1", "--grid", "1")
        assert code == 2 and out == ""
        assert err.startswith("error: ") and "linearly independent" in err

    def test_non_generic_rejected(self, capsys, tmp_path):
        # exit code 3 also covers a matrix that fails the closed form's
        # genericity condition; the right block is checked first
        f = tmp_path / "m.matrix"
        block, minor = "a right-block entry vanishes", "a maximal minor vanishes"
        for text, weight, message in [
                ("matrix: 1 3\n0 1 1\n", "0,1,2", block),
                ("matrix: 2 3\n1 0 1\n0 1 0\n", "0,1,2", block),
                ("matrix: 2 4\n1 0 1 1\n0 1 1 1\n", "0,1,1,2", minor)]:
            f.write_text(text)
            code, out, err = run(capsys, "linear", str(f), "-w", weight)
            assert (code, out, err) == (3, "", f"error: {message}\n")

    def test_column_permutation_reported(self, capsys, tmp_path):
        f = tmp_path / "m.matrix"
        f.write_text("matrix: 1 3\n0 1 1\n")
        code, out, _ = run(capsys, "linear", str(f), "--trials", "1",
                           "--grid", "1", "--json")
        data = json.loads(out)
        assert code == 0
        assert data["column_permutation"] == [2, 1, 3]
        assert data["reduced"] == [["1", "0", "1"]]
        assert data["right_block_nonzero"] is False


class TestPrincipal:
    def test_pass(self, capsys):
        code, out, _ = run(capsys, "principal",
                           str(CORPUS / "principal_n3_generic"),
                           "--trials", "2", "--grid", "2")
        assert code == 0 and "PASS" in out

    def test_rejects_non_principal(self, capsys):
        code, _, _ = run(capsys, "principal", str(CORPUS / "point"))
        assert code == 2

    def test_pure_powers_suffice_at_bound_1(self, capsys):
        # g(x1*x2) = x1^2 - x2^2 passes the gate: the Groebner fan of g(f)
        # is W(2) once both pure powers are nonzero, whatever x1*x2's
        # coefficient
        code, out, _ = run(capsys, "principal",
                           str(CORPUS / "monomial_x1x2"), "--bound", "1")
        assert code == 0 and "PASS" in out

    @pytest.mark.parametrize("text", ["vars: 3\n1\n", "vars: 2\n-3\n"],
                             ids=["one", "minus_three"])
    def test_unit_ideal_exit_3(self, capsys, tmp_path, text):
        # a constant generator spans the whole ring, as generic and dim
        # report it
        f = tmp_path / "unit"
        f.write_text(text)
        for command in ("principal", "generic", "dim"):
            code, out, err = run(capsys, command, str(f))
            assert (code, out, err) == (3, "",
                                        "error: ideal is the whole ring\n")

    def test_no_pure_power_transform_exit_4(self, capsys, tmp_path):
        # x_k^4 in g(f) has coefficient ab(a^2 - b^2) for the column
        # (a, b) of g, zero on every column in {-1, 0, 1}^2
        f = tmp_path / "quartic"
        f.write_text("vars: 2\nx1^3*x2 - x1*x2^3\n")
        code, out, err = run(capsys, "principal", str(f), "--bound", "1")
        assert code == 4 and out == ""
        assert err.startswith("error: ") and "larger --bound" in err

    def test_checks_keys(self, capsys):
        code, out, _ = run(capsys, "principal",
                           str(CORPUS / "principal_n3_generic"),
                           "--trials", "2", "--grid", "1", "--json")
        assert code == 0
        assert json.loads(out)["checks"] == {
            "pure_powers_nonzero": True, "grid_equal_skeleton": True,
            "fan_equals_W": True, "mismatches": []}


class TestVerifyCorpus:
    def test_quick_subset(self, capsys):
        code, out, _ = run(capsys, "verify-corpus", str(CORPUS),
                           "--criteria", "1,3,7")
        assert code == 0
        assert out.count("PASS") == 3

    def test_json_reproducible(self, capsys):
        _, out1, _ = run(capsys, "verify-corpus", str(CORPUS), "--criteria",
                         "3,7", "--json")
        _, out2, _ = run(capsys, "verify-corpus", str(CORPUS), "--criteria",
                         "3,7", "--json")
        assert out1 == out2
        data = json.loads(out1)
        assert data["all_passed"] is True
        assert data["version"]

    def test_empty_corpus_exit_2(self, capsys, tmp_path):
        (tmp_path / "manifest.json").write_text('{"ideals": {}}')
        code, _, _ = run(capsys, "verify-corpus", str(tmp_path))
        assert code == 2

    @pytest.mark.parametrize("data", [b'{"ideals": ', b'{"\xff": {}}'],
                             ids=["truncated", "latin1"])
    def test_unreadable_manifest_exit_2(self, capsys, tmp_path, data):
        (tmp_path / "manifest.json").write_bytes(data)
        code, out, err = run(capsys, "verify-corpus", str(tmp_path))
        assert (code, out) == (2, "") and err.startswith("error: ")

    @pytest.mark.parametrize("text", [
        '[]', '"x"', '{"ideals": ["point"]}', '{"ideals": {"a": 5}}',
        '{"ideals": {"a": {"campaigns": 5}}}',
        '{"ideals": {"a": {"n": 2, "family": "zero-dim", '
        '"campaigns": ["skeleton"]}}}',
        '{"ideals": {"a": {"n": 2, "dim": true, "family": "zero-dim", '
        '"campaigns": ["skeleton"]}}}',
        '{"ideals": {"a": {"n": "2", "dim": 0, "family": "zero-dim", '
        '"campaigns": ["skeleton"]}}}',
        '{"ideals": {"a": {"n": 2, "dim": 0, "family": null, '
        '"campaigns": ["skeleton"]}}}',
        '{"ideals": {"a": {"n": 2, "dim": 0, "family": "zero-dim", '
        '"campaigns": ["skeleton", 1]}}}',
        '{"ideals": {"../corpus/point": {"n": 2, "dim": 0, '
        '"family": "zero-dim", "campaigns": ["emptiness"]}}}',
        '{"ideals": {"a": {"n": 2, "dim": 0, "family": "zero-dim", '
        '"campaigns": [], "n": ' + "1" * 5000 + '}}}'],
        ids=["list", "string", "ideals-list", "entry-number",
             "campaigns-number", "no-dim", "dim-bool", "n-string",
             "family-null", "campaign-number", "entry-path", "long-integer"])
    def test_malformed_manifest_exit_2(self, capsys, tmp_path, text):
        (tmp_path / "manifest.json").write_text(text)
        code, out, err = run(capsys, "verify-corpus", str(tmp_path))
        assert (code, out) == (2, "") and err.startswith("error: ")

    @pytest.mark.parametrize("criteria", ["11", "0", "3,11"])
    def test_unknown_criterion_exit_2(self, capsys, criteria):
        code, out, err = run(capsys, "verify-corpus", str(CORPUS),
                             "--criteria", criteria)
        assert code == 2 and out == ""
        assert err.startswith("error: no criterion ") and "1..10" in err

    def test_empty_criteria_exit_2(self, capsys):
        # an empty selection is a usage error, not a run of every criterion
        code, out, err = run(capsys, "verify-corpus", str(CORPUS),
                             "--criteria", "")
        assert (code, out) == (2, "")
        assert err == "error: '' is not an integer literal (at position 0)\n"

    def test_repeated_criterion_runs_once(self, capsys):
        code, out, _ = run(capsys, "verify-corpus", str(CORPUS), "--criteria",
                           "7,3,7", "--json")
        assert code == 0
        assert [c["number"] for c in json.loads(out)["criteria"]] == [3, 7]

    @pytest.mark.parametrize("flag,value", BAD_CAMPAIGN_PARAMETERS)
    def test_bad_campaign_parameter_exit_2(self, capsys, flag, value):
        code, out, err = run(capsys, "verify-corpus", str(CORPUS), flag, value)
        assert code == 2 and out == ""
        assert err.startswith(f"error: {flag} must be >= ")

    def test_tampered_manifest_fails(self, capsys, tmp_path):
        # negative control: mislabel a dimension and expect a FAIL
        import shutil

        for name in ["manifest.json", "hypersurface_n3"]:
            shutil.copy(CORPUS / name, tmp_path / name)
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        manifest["ideals"] = {
            k: v for k, v in manifest["ideals"].items()
            if k == "hypersurface_n3"}
        manifest["ideals"]["hypersurface_n3"]["dim"] = 1
        # pad with copies so the count precondition is satisfied
        for i in range(11):
            alias = f"hypersurface_n3_copy{i}"
            shutil.copy(CORPUS / "hypersurface_n3", tmp_path / alias)
            manifest["ideals"][alias] = dict(
                manifest["ideals"]["hypersurface_n3"], dim=2)
        (tmp_path / "manifest.json").write_text(json.dumps(manifest))
        code, out, _ = run(capsys, "verify-corpus", str(tmp_path),
                           "--criteria", "2", "--trials", "1", "--grid", "1")
        assert code == 1
        assert "FAIL" in out and "hypersurface_n3" in out

    def test_entry_n_must_match_the_ideal_file(self, capsys, tmp_path):
        # a copy of the corpus whose hypersurface_n3 entry says n = 7
        shutil.copytree(CORPUS, tmp_path, dirs_exist_ok=True)
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        manifest["ideals"]["hypersurface_n3"]["n"] = 7
        (tmp_path / "manifest.json").write_text(json.dumps(manifest))
        code, out, err = run(capsys, "verify-corpus", str(tmp_path),
                             "--criteria", "2,3")
        assert (code, out) == (2, "")
        assert err.startswith("error: hypersurface_n3 has vars: 3") and \
            "n = 7" in err

    def test_out_file(self, capsys, tmp_path):
        target = tmp_path / "report.json"
        code, out, _ = run(capsys, "verify-corpus", str(CORPUS), "--criteria",
                           "7", "--json", "--out", str(target))
        assert code == 0 and out == ""
        assert json.loads(target.read_text())["all_passed"] is True


class TestCanonicalOutputs:
    """The canonical JSON of the corpus run, of one Groebner fan and of one
    generic campaign, pinned by sha256.  A change that alters any of them
    on purpose updates the pin and says why.  The campaign's pin guards
    the default transform draws."""

    def test_verify_corpus_json(self, capsys):
        code, out, _ = run(capsys, "verify-corpus", str(CORPUS), "--json")
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "c01697863a1d9ebc738255d3b8f139819ab10a8dba5b42a6843081338577244b")

    def test_groebner_fan_json(self, capsys):
        code, out, _ = run(capsys, "fan", "groebner",
                           str(CORPUS / "ci_n4_dim2"), "--json")
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "62ea23596c8e7c7032b9fb5d04184dc43e375380cbb886866167e7eee6ecc45c")

    def test_generic_campaign_json(self, capsys):
        code, out, _ = run(capsys, "generic",
                           str(CORPUS / "coordinate_lines_n3"), "--json")
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "188a1ca22b0f3bc8b1c76c1a3156c83484d8361c68ad37ecdfb13a02014c40dd")


class TestConsoleScript:
    def test_entry_point(self):
        # -m puts the working directory on sys.path: the package in src/
        # is found without an install or PYTHONPATH
        proc = subprocess.run([sys.executable, "-m", "tropgen.cli", "fan",
                               "wn", "--n", "2"], cwd=CORPUS.parent / "src",
                              capture_output=True, text=True)
        assert proc.returncode == 0
        assert "3 cones" in proc.stdout
