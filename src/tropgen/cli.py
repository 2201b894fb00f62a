"""Command line driver.

Text output is a human summary (and the only place wall-clock times
appear); JSON output is the machine contract and is byte-identical across
runs with the same input, seed and flags.

Exit codes: 0 success / all checks passed, 1 a check failed or a Groebner
fan walk is incomplete (no cone across a facet, or a cone with an
equality), 2 parse or usage error (a
TROPGEN_BUDGET that is not an integer >= 1, --grid below 0, --trials,
--bound or fan wn --n below 1, a fan wn --skeleton outside 0..n, a
--criteria number outside 1..10 or an empty --criteria, a matrix without
1 <= r <= n - 1 independent rows, an input file that is not UTF-8, a
malformed integer literal (poly.integer_literal: 1_0, a non-ASCII digit),
an integer literal longer than Python converts, an --out path that cannot
be written), 3 improper
ideal (contains a unit) or, for linear -w, a matrix that fails the closed
form's genericity condition (a vanishing right-block entry or maximal
minor), 4 persistent transform disagreement or no suitable random
transform within --bound (principal on x1^3*x2 - x1*x2^3 with --bound 1:
every such transform zeroes both pure powers), 5 fan budget exceeded
(more cones than TROPGEN_BUDGET, default 200, in a Groebner fan walk or
in the requested fan wn skeleton).
"""

from __future__ import annotations

import argparse
import sys
import time
from itertools import count
from math import comb

from . import __version__
from .fans import (
    cone_to_jsonable,
    dumps_canonical,
    fan_to_jsonable,
    w_skeleton,
)
from .generic import (
    DisagreementError,
    TransformSearchError,
    check_lineality,
    check_skeleton_equality,
    check_symmetry,
    generic_membership_map,
)
from .groebner import (MarkedGB, contains_monomial, krull_dimension,
                       normal_form)
from .linalg import QQ, rref
from .poly import (
    Ideal,
    ImproperIdealError,
    ParseError,
    Polynomial,
    integer_literal,
    parse_ideal_file,
    read_input,
)
from .special import (
    NonGenericMatrixError,
    check_linear_theorem,
    check_minors,
    check_principal_theorem,
    linear_groebner_cone,
    parse_matrix_file,
    right_block_nonzero,
)
from .verify import Corpus, VerifySession
from .weights import (
    BudgetExceededError,
    BudgetSettingError,
    IncompleteFanError,
    enumerate_groebner_fan,
    fan_budget,
    initial_forms,
    weight_gb,
)


class UsageError(Exception):
    """An option out of range, or an --out file that cannot be written."""


EXIT_OK = 0
EXIT_FAIL = 1
EXIT_PARSE = 2
EXIT_IMPROPER = 3
EXIT_DISAGREE = 4
EXIT_BUDGET = 5

# exit code and message suffix per failure; no class subclasses another
FAILURES = {
    ParseError: (EXIT_PARSE, ""),
    BudgetSettingError: (EXIT_PARSE, ""),
    UsageError: (EXIT_PARSE, ""),
    ImproperIdealError: (EXIT_IMPROPER, ""),
    NonGenericMatrixError: (EXIT_IMPROPER, ""),
    DisagreementError: (EXIT_DISAGREE, ""),
    TransformSearchError: (EXIT_DISAGREE, "; try a larger --bound"),
    BudgetExceededError: (EXIT_BUDGET, ""),
    IncompleteFanError: (EXIT_FAIL, ""),
}

_GLOBAL_DEFAULTS = {"seed": 1, "trials": 3, "bound": 50, "grid": 3,
                    "json": False, "out": None}


def _parser():
    common = argparse.ArgumentParser(add_help=False)
    for flag in ("--seed", "--trials", "--bound"):
        common.add_argument(flag, type=integer_literal,
                            default=argparse.SUPPRESS)
    common.add_argument("--grid", type=integer_literal,
                        default=argparse.SUPPRESS, help="grid radius")
    common.add_argument("--json", action="store_true",
                        default=argparse.SUPPRESS, help="emit canonical JSON")
    common.add_argument("--out", default=argparse.SUPPRESS,
                        help="write output to a file")

    p = argparse.ArgumentParser(
        prog="tropgen", parents=[common],
        description="exact tropical memberships, Groebner cones and "
                    "generic tropical varieties of graded ideals")
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("dim", parents=[common],
                        help="Krull dimension of a graded ideal")
    sp.add_argument("ideal")

    sp = sub.add_parser("member", parents=[common],
                        help="is w in the tropical variety?")
    sp.add_argument("ideal")
    sp.add_argument("-w", "--weight", required=True,
                    help="comma-separated integer weight vector")

    sp = sub.add_parser("generic", parents=[common],
                        help="generic tropical variety campaign")
    sp.add_argument("ideal")

    sp = sub.add_parser("fan", parents=[common],
                        help="export a fan as canonical JSON")
    fan_sub = sp.add_subparsers(dest="fan_kind", required=True)
    wn = fan_sub.add_parser("wn", parents=[common],
                            help="the reference fan W(n)")
    wn.add_argument("--n", type=integer_literal, required=True)
    wn.add_argument("--skeleton", type=integer_literal, default=None)
    gf = fan_sub.add_parser("groebner", parents=[common],
                            help="Groebner fan of an ideal")
    gf.add_argument("ideal")

    sp = sub.add_parser("linear", parents=[common],
                        help="linear ideal closed-form checks")
    sp.add_argument("matrix", help="matrix file ('matrix: r n' header)")
    sp.add_argument("-w", "--weight", default=None,
                    help="emit the closed-form cone at this weight")

    sp = sub.add_parser("principal", parents=[common],
                        help="principal ideal closed-form checks")
    sp.add_argument("ideal")

    sp = sub.add_parser("verify-corpus", parents=[common],
                        help="run the acceptance criteria")
    sp.add_argument("corpus")
    sp.add_argument("--criteria", default=None,
                    help="comma-separated criterion numbers (default all)")
    return p


def _load_ideal(path) -> Ideal:
    return parse_ideal_file(read_input(path))


def _integer_list(text):
    """The comma-separated integer literals of an option, each read at its
    position in text, spaces around it aside."""
    values, start = [], 0
    for part in text.split(","):
        values.append(integer_literal(
            part.strip(), start + len(part) - len(part.lstrip())))
        start += len(part) + 1
    return tuple(values)


def _parse_weight(text, n):
    entries = text.count(",") + 1
    if entries != n:
        raise ParseError(f"weight has {entries} entries, ideal has {n} "
                         f"variables", 0)
    return _integer_list(text)


def _emit(args, jsonable, text_lines):
    out = dumps_canonical(jsonable) if args.json else "\n".join(text_lines) + "\n"
    if args.out:
        try:
            with open(args.out, "w") as fh:
                fh.write(out)
        except OSError as exc:
            raise UsageError(f"cannot write --out: {exc}") from None
    else:
        sys.stdout.write(out)


def _base_report(args):
    return {"tool": "tropgen", "version": __version__, "seed": args.seed}


def cmd_dim(args) -> int:
    ideal = _load_ideal(args.ideal)
    d = krull_dimension(ideal)
    report = _base_report(args)
    report.update({"command": "dim", "n": ideal.n, "dim": d})
    _emit(args, report, [f"dim = {d}"])
    return EXIT_OK


def _monomial_certificate(initial: MarkedGB):
    """A monomial, coefficient 1, of in_w(I), for w outside the variety
    and initial a marked Groebner basis of in_w(I)."""
    for g in initial.elements:
        if len(g.terms) == 1:
            return g.monic()
    # the smallest power of x1*..*xn in in_w(I); the search ends, since a
    # monomial m of in_w(I) divides (x1*..*xn)^k for k its largest exponent
    n = initial.n
    for k in count(1):
        mono = Polynomial(n, ((tuple([k] * n), QQ(1)),))
        if normal_form(mono, initial).is_zero:
            return mono


def cmd_member(args) -> int:
    ideal = _load_ideal(args.ideal)
    w = _parse_weight(args.weight, ideal.n)
    # one w-refined basis gives the verdict and the certificate: its initial
    # forms, on its heads, are a basis of in_w(I) (see weights.MembershipMap)
    gb = weight_gb(ideal, w)
    initial = MarkedGB(gb.n, gb.order, initial_forms(gb, w), gb.heads)
    inside = not contains_monomial(initial.elements)
    report = _base_report(args)
    report.update({"command": "member", "weight": list(w), "member": inside})
    lines = [f"w = {w}: {'true' if inside else 'false'}"]
    if not inside:
        cert = _monomial_certificate(initial)
        report["certificate"] = list(cert.terms[0][0])
        lines.append(f"certificate monomial: {cert}")
    _emit(args, report, lines)
    return EXIT_OK


def cmd_generic(args) -> int:
    t0 = time.perf_counter()
    ideal = _load_ideal(args.ideal)
    m = krull_dimension(ideal)
    report = generic_membership_map(ideal, grid_radius=args.grid,
                                    trials=args.trials, bound=args.bound,
                                    seed=args.seed)
    skel_ok, mismatches = check_skeleton_equality(report, m)
    sym_ok, sym_counter = check_symmetry(report)
    lin_ok, lin_counter = check_lineality(report)
    empty_ok = (m > 0) or not any(report.membership.values())
    all_ok = skel_ok and sym_ok and lin_ok and empty_ok
    out = _base_report(args)
    out.update({
        "command": "generic",
        "dim": m,
        "report": report.to_jsonable(),
        "skeleton_equality": skel_ok,
        "symmetry": sym_ok,
        "lineality": lin_ok,
        "empty_iff_dim_zero": empty_ok,
        "all_passed": all_ok,
    })
    lines = [
        f"dim = {m}" + ("  (generic variety is empty)" if m == 0 else ""),
        f"skeleton equality with W_{ideal.n}^{m}: "
        f"{'PASS' if skel_ok else 'FAIL (%d mismatches)' % len(mismatches)}",
        f"symmetry: {'PASS' if sym_ok else f'FAIL at {sym_counter}'}",
        f"lineality: {'PASS' if lin_ok else f'FAIL at {lin_counter}'}",
        f"bounds used: {report.escalations}",
        f"wall-clock: {time.perf_counter() - t0:.2f}s",
    ]
    _emit(args, out, lines)
    return EXIT_OK if all_ok else EXIT_FAIL


def cmd_fan(args) -> int:
    if args.fan_kind == "wn":
        # the n-skeleton of W(n) is W(n), and --n is at least 1
        m = args.n if args.skeleton is None else args.skeleton
        if not 0 <= m <= args.n:
            raise UsageError(f"--skeleton must be in 0..{args.n}, not {m}")
        # one cone C_A per A with |A| >= n - m + 1, counted before any is built
        cones = sum(comb(args.n, k) for k in range(args.n - m + 1, args.n + 1))
        budget = fan_budget()
        if cones > budget:
            raise BudgetExceededError(
                f"the requested fan has {cones} cones, more than the "
                f"budget of {budget}")
        fan = w_skeleton(args.n, m)
        label = f"W({args.n})" + (
            "" if args.skeleton is None else f" skeleton {m}")
    else:
        ideal = _load_ideal(args.ideal)
        fan = enumerate_groebner_fan(ideal)
        label = f"Groebner fan of {args.ideal}"
    jsonable = fan_to_jsonable(fan)
    jsonable.update(_base_report(args))
    jsonable["command"] = "fan"
    lines = [f"{label}: {len(fan.cones)} cones"]
    if not args.json:
        # the fan itself is only emitted as JSON
        lines.append("use --json for the cone data")
    _emit(args, jsonable, lines)
    return EXIT_OK


def cmd_linear(args) -> int:
    rows = parse_matrix_file(read_input(args.matrix))
    n = len(rows[0])
    reduced, pivots = rref(rows)
    r = len(reduced)
    perm = pivots + tuple(c for c in range(n) if c not in pivots)
    reduced = tuple(tuple(row[c] for c in perm) for row in reduced)
    block_nonzero = right_block_nonzero(reduced, n)
    report = _base_report(args)
    report.update({
        "command": "linear",
        "n": n,
        "rank": r,
        "dim": n - r,
        "reduced": [[str(x) for x in row] for row in reduced],
        "column_permutation": [p + 1 for p in perm],
        "right_block_nonzero": block_nonzero,
    })
    lines = [f"rank = {r}, dim = {n - r}"]
    if args.weight is not None:
        w = _parse_weight(args.weight, n)
        # the closed form's precondition, checked once
        if not block_nonzero:
            raise NonGenericMatrixError("a right-block entry vanishes")
        if not check_minors(reduced, n):
            raise NonGenericMatrixError("a maximal minor vanishes")
        cone = linear_groebner_cone(r, n, w)
        report["cone"] = cone_to_jsonable(cone)
        lines.append(f"cone at {w}: {len(cone.equalities)} equalities, "
                     f"{len(cone.inequalities)} inequalities")
        _emit(args, report, lines)
        return EXIT_OK
    result = check_linear_theorem(rows, trials=args.trials, seed=args.seed,
                                  bound=args.bound, radius=args.grid)
    report["checks"] = result.to_jsonable()
    report["all_passed"] = result.ok
    lines.append(f"closed-form checks: {'PASS' if result.ok else 'FAIL'}")
    _emit(args, report, lines)
    return EXIT_OK if result.ok else EXIT_FAIL


def cmd_principal(args) -> int:
    ideal = _load_ideal(args.ideal)
    if len(ideal.generators) != 1:
        raise ParseError("principal command needs a single generator", 0)
    result = check_principal_theorem(ideal.generators[0], trials=args.trials,
                                     seed=args.seed, bound=args.bound,
                                     radius=args.grid)
    report = _base_report(args)
    report.update({"command": "principal", "checks": result.to_jsonable(),
                   "all_passed": result.ok})
    _emit(args, report,
          [f"closed-form checks: {'PASS' if result.ok else 'FAIL'}"])
    return EXIT_OK if result.ok else EXIT_FAIL


def cmd_verify_corpus(args) -> int:
    t0 = time.perf_counter()
    corpus = Corpus(args.corpus)
    numbers = None if args.criteria is None else _integer_list(args.criteria)
    session = VerifySession(corpus, seed=args.seed, trials=args.trials,
                            bound=args.bound, grid=args.grid)
    results = session.run(numbers)
    lines = []
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        lines.append(f"criterion {r.number:2d} {r.name:<32} {status}  "
                     f"({r.seconds:.1f}s)  {r.detail}")
    lines.append(f"wall-clock: {time.perf_counter() - t0:.2f}s")
    _emit(args, session.report_jsonable(results), lines)
    return EXIT_OK if all(r.passed for r in results) else EXIT_FAIL


COMMANDS = {
    "dim": cmd_dim,
    "member": cmd_member,
    "generic": cmd_generic,
    "fan": cmd_fan,
    "linear": cmd_linear,
    "principal": cmd_principal,
    "verify-corpus": cmd_verify_corpus,
}


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    for key, value in _GLOBAL_DEFAULTS.items():
        if not hasattr(args, key):
            setattr(args, key, value)
    try:
        # an empty grid or no trials would pass every check on nothing, and
        # W(n) needs a variable
        for key, low in (("grid", 0), ("trials", 1), ("bound", 1), ("n", 1)):
            if getattr(args, key, low) < low:
                raise UsageError(
                    f"--{key} must be >= {low}, not {getattr(args, key)}")
        return COMMANDS[args.command](args)
    except tuple(FAILURES) as exc:
        code, hint = next(v for k, v in FAILURES.items() if isinstance(exc, k))
        print(f"error: {exc}{hint}", file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())
