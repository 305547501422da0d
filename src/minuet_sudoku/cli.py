"""Command-line surface: solve, verify, oracle, and batch subcommands.

Exit codes: 0 success/solved, 1 usage or puzzle-format error, or a batch puzzle
that raised, 2 conjecture failure, 3 ill-posed input, 4 failed self-check (a
result that disagrees with the oracle or breaks the rules: a rule is unsound).
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

from . import oracle
from .grid import (GridError, InconsistentGivens, parse_grid, serialize_grid)
from .harness import (EmptyCorpus, SelfCheckFailed, batch_solve, check_batch_options,
                      load_corpus, render_report, render_trace)
from .minuet import InconsistentSolution, solve

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_FAILURE = 2
EXIT_ILL_POSED = 3
EXIT_SELF_CHECK = 4

TRACE_LEVELS = ("summary", "full")


def _read_puzzle(arg: str):
    """Accept an 81-char puzzle literal or a path to a file holding one."""
    text = Path(arg).read_text() if os.path.isfile(arg) else arg
    return parse_grid(text)


class _Parser(argparse.ArgumentParser):
    """Reports a bad command line as a usage error (exit 1), never exit 2,
    which stands for a conjecture failure."""

    def error(self, message):
        self.print_usage(sys.stderr)
        raise ValueError(f"{self.prog}: {message}")


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="minuet",
        description="Deduction-only Sudoku solving via the minuet method, "
                    "with a brute-force oracle and a conjecture-hunting batch mode.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="solve one puzzle with the full method")
    p.add_argument("puzzle", help="81-char puzzle string or path to a file")
    p.add_argument("--trace", choices=TRACE_LEVELS,
                   help="print the solve log at this verbosity")
    p.add_argument("--phase1-triples", action="store_true",
                   help="also hunt hidden triples during Phase I")

    p = sub.add_parser("verify", help="classify a puzzle's well-posedness")
    p.add_argument("puzzle")

    p = sub.add_parser("oracle", help="print the brute-force solution (ground truth)")
    p.add_argument("puzzle")

    p = sub.add_parser("batch", help="run a corpus and test the conjecture")
    p.add_argument("corpus", help="file with one 81-char puzzle per line")
    p.add_argument("--report", default=None, metavar="DIR",
                   help="write counterexample reports into DIR")
    p.add_argument("--jobs", type=int, default=1, metavar="N",
                   help="at most N processes work, this one included")
    p.add_argument("--level", type=float, default=0.90,
                   help="confidence level for the zero-failure bound")
    return parser


def cmd_solve(args) -> int:
    grid = _read_puzzle(args.puzzle)
    outcome = solve(grid, phase1_triples=args.phase1_triples)
    if args.trace:
        print(render_trace(outcome.trace, args.trace))
    if outcome.status == "solved":
        print(serialize_grid(outcome.grid))
        print(f"solved: {outcome.stats.starters_danced} minuet starter(s), "
              f"{outcome.stats.commits} commit(s)")
        return EXIT_OK
    if outcome.status == "conjecture_failure":
        print(render_report(outcome.report))
        return EXIT_FAILURE
    print(f"ill-posed: {outcome.reason}")
    return EXIT_ILL_POSED


def cmd_verify(args) -> int:
    wp = oracle.verify_well_posed(_read_puzzle(args.puzzle))
    label = {"well_posed": "WellPosed", "no_solution": "NoSolution",
             "multiple_solutions": "MultipleSolutions"}[wp.status]
    print(label)
    return EXIT_OK if wp.is_well_posed else EXIT_ILL_POSED


def cmd_oracle(args) -> int:
    grid = _read_puzzle(args.puzzle)
    try:
        print(serialize_grid(oracle.brute_solve(grid)))
    except oracle.NotWellPosed as e:
        print(f"not well-posed: {e}")
        return EXIT_ILL_POSED
    return EXIT_OK


def cmd_batch(args) -> int:
    check_batch_options(args.jobs, args.level)
    try:
        corpus = load_corpus(args.corpus)
    except EmptyCorpus as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE
    for line_no, message in corpus.errors:
        print(f"{args.corpus}:{line_no}: {message}", file=sys.stderr)
    outdir = Path(args.report) if args.report else None
    if outdir:
        outdir.mkdir(parents=True, exist_ok=True)
    result = batch_solve(corpus, jobs=args.jobs, level=args.level)
    print(result.stats.render())
    for r in result.results:
        if r.status == "error":
            print(f"{args.corpus}:{r.line_no}: {r.error}", file=sys.stderr)
    for line_no, report in result.reports:
        print(f"\n--- counterexample at line {line_no} ---")
        print(render_report(report))
    if outdir:
        for line_no, report in result.reports:
            (outdir / f"counterexample_line{line_no}.txt").write_text(
                render_report(report) + "\n")
        (outdir / "summary.txt").write_text(result.stats.render() + "\n")
    if result.stats.errors:
        return EXIT_USAGE
    return EXIT_OK if result.stats.failures == 0 else EXIT_FAILURE


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        handler = {"solve": cmd_solve, "verify": cmd_verify,
                   "oracle": cmd_oracle, "batch": cmd_batch}[args.command]
        return handler(args)
    except InconsistentGivens as e:
        print(f"ill-posed: {e}", file=sys.stderr)
        return EXIT_ILL_POSED
    except (SelfCheckFailed, InconsistentSolution) as e:
        print(f"self-check failed: {e}", file=sys.stderr)
        return EXIT_SELF_CHECK
    except (GridError, ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
