"""Command-line front end.

One executable, four subcommands: ``iterate`` (alternating projection
runs with a CSV trajectory report), ``lemma`` (sequence checks on a CSV
prefix), ``sufficiency`` (certificates, witnesses, and theorem suites),
and ``counterexample`` (the symbolic refuter and finite truncations).

Exit codes, shared by all subcommands, are listed in ``EXIT_CODE_HELP``.
Identical flags and inputs produce byte-identical output.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from . import counterexample as ce
from . import sequences
from .operators import DEFAULT_MAX_ITER, DEFAULT_TOL, CondExpOperator, iterate
from .space import StructuralError
from .spacefile import (OutputError, SpaceBundle, _read_text, _write_text, load_space_file,
                        space_file_dict, write_space_file)
from .sufficiency import (
    SuiteReport,
    check_sufficient,
    check_sufficient_for_f,
    countable_intersection_suite,
    decreasing_chain_suite,
    intersection_sufficiency_suite,
)

EX_OK = 0
EX_NEGATIVE = 2
EX_HYPOTHESIS = 3
EX_USAGE = 64
EX_DATA = 65
EX_CANTCREAT = 73

EXIT_CODE_HELP = """exit codes:
  0   success / positive verdict
  2   negative verdict (not sufficient, not converged, check failed)
  3   hypothesis not met (suite preconditions failed)
  64  usage error
  65  input-format error
  73  output error (a file cannot be written)
"""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EX_USAGE)


class UsageError(Exception):
    pass


def _emit(text: str, out_path) -> None:
    sys.stdout.write(text)
    if out_path:
        _write_text(out_path, text)


def _or_default(value, default):
    """A flag's value, or its default when it was not given.  Flags default
    to None so that a path which does not read a flag can refuse it."""
    return default if value is None else value


def _parse_vector(text: str) -> np.ndarray:
    try:    # numpy parses each token with float(): same bits, same error text
        return np.array(text.replace(",", " ").split(), dtype=float)
    except ValueError as exc:
        raise StructuralError(f"bad vector {text!r}: {exc}") from exc


def _format_vector(v: np.ndarray) -> str:
    """The entries' ``repr``s, space-joined: one ``repr`` per distinct bit pattern
    (``np.unique`` on the floats would merge -0.0, which ``repr`` spells apart)."""
    bits, inverse = np.unique(np.asarray(v, dtype=float).view(np.int64), return_inverse=True)
    texts = np.array([repr(x) for x in bits.view(float).tolist()], dtype=object)
    return " ".join(texts[inverse].tolist())


def _read_sequence_csv(path) -> tuple[np.ndarray, float | None]:
    """One value per line; an optional ``limit=L`` header declares the limit."""
    limit, values = None, []
    for lineno, line in enumerate(_read_text(path).splitlines(), start=1):
        token = line.strip()
        if not token or token.startswith("#"):
            continue
        try:
            value = float(token.removeprefix("limit="))
        except ValueError as exc:
            raise StructuralError(f"{path}:{lineno}: bad value {token!r}") from exc
        if token.startswith("limit="):
            limit = value
        else:
            values.append(value)
    if not values:
        raise StructuralError(f"{path}: no sequence values found")
    return np.array(values), limit


# ---------------------------------------------------------------------------
# iterate

def _cmd_iterate(args) -> int:
    bundle = load_space_file(args.space)
    names = [s for s in args.partitions.split(",") if s]
    if len(names) < 1:
        raise UsageError("--partitions needs at least one name")
    if not 0 <= args.measure < bundle.family.m:
        raise StructuralError(
            f"measure index {args.measure} out of range (family has {bundle.family.m})"
        )
    row = bundle.family.row(args.measure)
    ops = [CondExpOperator(bundle.partition(name), row) for name in names]
    if args.x is not None:
        x = _parse_vector(args.x)
    elif args.x_file is not None:
        x = _parse_vector(_read_text(args.x_file))
    else:
        raise UsageError("one of --x or --x-file is required")
    report = iterate(ops, x, tol=_or_default(args.tol, DEFAULT_TOL),
                     max_iter=_or_default(args.max_iter, DEFAULT_MAX_ITER))

    lines = ["iter,norm2_sq,diff2_sq,sup_residual"]
    diffs = [repr(d) for d in report.diffs2.tolist()] + [""]
    for k, (norm2, diff, residual) in enumerate(
            zip(report.norms2.tolist(), diffs, report.residuals.tolist())):
        lines.append(f"{k + 1},{norm2!r},{diff},{residual!r}")
    lines.append("# limit: " + _format_vector(report.limit))
    csv_text = "\n".join(lines) + "\n"
    if args.report:
        _write_text(args.report, csv_text)
    else:
        sys.stdout.write(csv_text)

    verdict = "converged" if report.converged else "did not converge"
    _emit(
        f"{verdict} after {report.iterations_used} applications; "
        f"residual {report.residual!r}\n",
        args.out,
    )
    return EX_OK if report.converged else EX_NEGATIVE


# ---------------------------------------------------------------------------
# lemma

def _format_rows(rows) -> str:
    """(label, value) rows, each value one column past the longest label."""
    width = max(len(k) for k, _ in rows)
    return "".join(f"{k.ljust(width)}  {v}\n" for k, v in rows)


def _format_identity_report(rep: sequences.IdentityReport) -> str:
    return _format_rows([
        ("terms summed", str(rep.partial_sums.shape[0])),
        ("final partial sum", repr(float(rep.partial_sums[-1]))),
        ("final residual", repr(rep.final_residual)),
        ("tolerance term", repr(rep.tolerance_term)),
        ("truncation allowance", repr(rep.allowance)),
        ("residual decreasing", str(rep.residual_decreasing)),
        ("verdict", "pass" if rep.passed else "FAIL"),
    ])


def _format_bound_report(rep: sequences.BoundReport) -> str:
    return _format_rows([
        ("sup deviation", repr(rep.sup_deviation)),
        ("dyadic averages sup", repr(rep.averages_sup)),
        ("bound 3*sup + |c|", repr(rep.bound)),
        ("slack", repr(rep.slack)),
        ("c", repr(rep.c)),
        ("verdict", "pass" if rep.passed else "FAIL"),
    ])


def _cmd_lemma(args) -> int:
    if args.which == "dyadic" and args.tol is not None:
        raise UsageError("--tol is read only by --which convex-sum")
    values, limit = _read_sequence_csv(args.input)
    if limit is None:
        raise StructuralError(f"{args.input}: {args.which} needs a 'limit=' header")
    if args.which == "convex-sum":
        rep = sequences.convex_sum_identity(values, limit,
                                            tol=_or_default(args.tol, DEFAULT_TOL))
        _emit(_format_identity_report(rep), args.out)
        return EX_OK if rep.passed else EX_NEGATIVE
    # dyadic: the declared limit doubles as the anchor value a_0
    rep = sequences.dyadic_bound_check(values, limit, args.c)
    _emit(_format_bound_report(rep), args.out)
    return EX_OK if rep.passed else EX_NEGATIVE


# ---------------------------------------------------------------------------
# sufficiency

def _suite_exit(report: SuiteReport) -> int:
    if not report.hypothesis_met:
        return EX_HYPOTHESIS
    return EX_OK if report.passed else EX_NEGATIVE


def _cmd_sufficiency(args) -> int:
    if args.max_iter is not None and args.suite not in ("intersection", "countable"):
        raise UsageError("--max-iter is read only by --suite intersection and --suite countable")
    bundle = load_space_file(args.space)
    if args.suite:
        if not args.partitions:
            raise UsageError("--suite needs --partitions NAME,NAME,...")
        parts = [bundle.partition(s) for s in args.partitions.split(",") if s]
        f = _parse_vector(args.f) if args.f is not None else None
        rounds = _or_default(args.max_iter, DEFAULT_MAX_ITER)
        if args.suite == "intersection":
            if len(parts) != 2:
                raise UsageError("--suite intersection needs exactly two partitions")
            report = intersection_sufficiency_suite(bundle.family, parts[0],
                                                    parts[1], f=f, max_rounds=rounds)
        elif args.suite == "chain":
            report = decreasing_chain_suite(bundle.family, parts, f=f)
        else:
            report = countable_intersection_suite(bundle.family, parts, f=f,
                                                  max_rounds=rounds)
        _emit(report.summary() + "\n", args.out)
        return _suite_exit(report)

    if not args.partition:
        raise UsageError("--partition NAME is required outside --suite mode")
    p = bundle.partition(args.partition)
    if args.f is not None:
        cert = check_sufficient_for_f(bundle.family, p, _parse_vector(args.f))
    else:
        cert = check_sufficient(bundle.family, p)
    if cert.sufficient:
        lines = [f"sufficient: partition {args.partition!r} serves every measure"]
        if cert.g is not None:
            lines.append("g = " + _format_vector(cert.g))
        _emit("\n".join(lines) + "\n", args.out)
        return EX_OK
    w = cert.witness
    _emit(
        f"not sufficient: measures {w.gamma} and {w.gamma_prime} disagree on "
        f"block {w.block_index} ({w.description}); violation {w.violation!r}\n",
        args.out,
    )
    return EX_NEGATIVE


# ---------------------------------------------------------------------------
# counterexample

def _cmd_counterexample(args) -> int:
    if args.action == "refute":
        if not args.expr:
            raise UsageError("refute needs --expr EXPRESSION")
        candidate = ce.parse_set_expression(args.expr)
        witness = ce.refute_diagonal(candidate)
        _emit(
            f"witness point {witness}\n"
            f"  in candidate set: {ce.membership(candidate, witness)}\n"
            f"  on the diagonal:  {ce.in_diagonal(witness)}\n",
            args.out,
        )
        return EX_OK
    # truncate
    if not args.radii:
        raise UsageError("truncate needs --radii R1,R2,...")
    radii = [tok for tok in args.radii.split(",") if tok]
    t = ce.finite_truncation(radii)
    bundle = SpaceBundle(t.space, t.family, {
        "p1": t.p1,
        "p2": t.p2,
        "diagonal_field": t.diagonal_field,
    })
    if args.out:
        write_space_file(bundle, args.out)
        sys.stdout.write(f"wrote {t.n}-outcome truncation to {args.out}\n")
    else:
        import json
        sys.stdout.write(json.dumps(space_file_dict(bundle), indent=2) + "\n")
    return EX_OK


# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--out", default=None,
                        help="also write the textual report to this path")
    tol = argparse.ArgumentParser(add_help=False)
    tol.add_argument("--tol", type=float, default=None,
                     help=f"numerical tolerance (default {DEFAULT_TOL:g})")
    cap = argparse.ArgumentParser(add_help=False)
    cap.add_argument("--max-iter", type=int, default=None,
                     help=f"iteration cap (default {DEFAULT_MAX_ITER})")

    parser = _Parser(
        prog="condexp",
        description="conditional expectation operators, partition lattices, "
                    "and sufficiency checks on finite probability spaces",
        epilog=EXIT_CODE_HELP,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_it = sub.add_parser(
        "iterate", parents=[shared, tol, cap],
        help="run alternating conditional expectations and certify the limit",
        epilog=EXIT_CODE_HELP, formatter_class=argparse.RawDescriptionHelpFormatter)
    p_it.add_argument("--space", required=True, help="space-description JSON file")
    p_it.add_argument("--partitions", required=True,
                      help="comma-separated partition names from the space file")
    p_it.add_argument("--measure", type=int, default=0,
                      help="measure row index used as the weighting (default 0)")
    p_it.add_argument("--x", help="start vector, comma- or space-separated; write a "
                                   "negative first entry as --x=-1,2,3")
    p_it.add_argument("--x-file", help="file with the start vector")
    p_it.add_argument("--report", help="write the per-iterate CSV trajectory here")
    p_it.set_defaults(func=_cmd_iterate)

    p_lm = sub.add_parser(
        "lemma", parents=[shared, tol],
        help="check a sequence prefix: convex-sum identity or dyadic sup bound",
        epilog=EXIT_CODE_HELP, formatter_class=argparse.RawDescriptionHelpFormatter)
    p_lm.add_argument("--which", required=True, choices=("convex-sum", "dyadic"))
    p_lm.add_argument("--input", required=True,
                      help="CSV: one value per line, optional 'limit=L' header")
    p_lm.add_argument("--c", type=float, default=None,
                      help="dyadic only: dominating constant; computed from the "
                           "prefix when omitted")
    p_lm.set_defaults(func=_cmd_lemma)

    p_su = sub.add_parser(
        "sufficiency", parents=[shared, cap],
        help="sufficiency certificate/witness for a partition, or theorem suites",
        epilog=EXIT_CODE_HELP, formatter_class=argparse.RawDescriptionHelpFormatter)
    p_su.add_argument("--space", required=True, help="space-description JSON file")
    p_su.add_argument("--partition", help="partition name to check")
    p_su.add_argument("--f", help="test vector: check serving this f only; write a "
                                   "negative first entry as --f=-1,2,3")
    p_su.add_argument("--suite", choices=("intersection", "chain", "countable"),
                      help="run a theorem suite instead of a single check")
    p_su.add_argument("--partitions", help="comma-separated names for --suite")
    p_su.set_defaults(func=_cmd_sufficiency)

    p_ce = sub.add_parser(
        "counterexample", parents=[shared],
        help="symbolic diagonal refuter and finite truncations",
        epilog=EXIT_CODE_HELP, formatter_class=argparse.RawDescriptionHelpFormatter)
    p_ce.add_argument("action", choices=("refute", "truncate"))
    p_ce.add_argument("--expr",
                      help="refute: prefix expression, e.g. '(u (a 1 1 +) (c (a 2 3/2 -)))'")
    p_ce.add_argument("--radii", help="truncate: comma-separated positive rationals")
    p_ce.set_defaults(func=_cmd_counterexample)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"condexp: usage error: {exc}", file=sys.stderr)
        return EX_USAGE
    except StructuralError as exc:    # SpaceFormatError included
        print(f"condexp: input error: {exc}", file=sys.stderr)
        return EX_DATA
    except OutputError as exc:
        print(f"condexp: output error: {exc}", file=sys.stderr)
        return EX_CANTCREAT


if __name__ == "__main__":
    sys.exit(main())
