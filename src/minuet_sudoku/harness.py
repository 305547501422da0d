"""Corpus ingestion, batch conjecture-hunting, statistics, and trace rendering.

Every Solved answer in a batch is independently verified against the
brute-force oracle before being counted; a mismatch aborts the run, since it
means the deduction rules are unsound.  Conjecture failures are emitted as
validated, machine-readable counterexample reports.
"""

from __future__ import annotations

import json
import statistics
import time
from dataclasses import dataclass, field
from multiprocessing import Pool
from pathlib import Path

from . import oracle
from .grid import DIGITS_OF, GridError, parse_grid, serialize_grid
from .minuet import FailureReport, SolveConfig, SolveOutcome, solve
from .trace import TraceEvent


class EmptyCorpus(Exception):
    pass


class SelfCheckFailed(Exception):
    """A solved answer disagreed with the brute-force oracle: a rule is unsound."""


@dataclass(frozen=True, slots=True)
class CorpusEntry:
    line_no: int
    text: str


@dataclass(slots=True)
class CorpusLoad:
    path: str
    entries: list[CorpusEntry]
    errors: list[tuple[int, str]]


def load_corpus(path: str | Path) -> CorpusLoad:
    """Read one 81-char puzzle per line; '#' comments and blank lines skipped.

    Per-line parse errors are collected with their line numbers; a corpus
    with no valid puzzle at all raises EmptyCorpus.
    """
    entries: list[CorpusEntry] = []
    errors: list[tuple[int, str]] = []
    with open(path) as fh:
        for line_no, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            try:
                parse_grid(line)
            except GridError as e:
                errors.append((line_no, f"{type(e).__name__}: {e}"))
                continue
            entries.append(CorpusEntry(line_no, line))
    if not entries:
        raise EmptyCorpus(f"no valid puzzles in {path}")
    return CorpusLoad(str(path), entries, errors)


@dataclass(slots=True)
class PuzzleResult:
    line_no: int
    status: str  # "solved" | "failure" | "ill_posed" | "error"
    well_posedness: str  # an oracle status, or "unknown" if the oracle did not finish
    elapsed: float  # seconds in solve(); 0.0 when the solver did not run
    starters: int = 0
    solution: str | None = None
    report: FailureReport | None = None
    oracle_mismatch: str | None = None
    error: str | None = None  # "{type}: {message}" when status is "error"


def _run_entry(args: tuple[CorpusEntry, SolveConfig]) -> PuzzleResult:
    """Oracle-check and solve one entry, timing the solver alone.

    An exception becomes an "error" result, so one bad puzzle does not lose
    the rest of the batch.
    """
    entry, cfg = args
    well_posedness = "unknown"
    try:
        grid = parse_grid(entry.text)
        wp = oracle.verify_well_posed(grid)
        well_posedness = wp.status
        if not wp.is_well_posed:
            return PuzzleResult(entry.line_no, "ill_posed", wp.status, 0.0)
        t0 = time.perf_counter()
        outcome: SolveOutcome = solve(grid, cfg)
        elapsed = time.perf_counter() - t0
    except Exception as e:
        return PuzzleResult(entry.line_no, "error", well_posedness, 0.0,
                            error=f"{type(e).__name__}: {e}")
    if outcome.status == "solved":
        answer = serialize_grid(outcome.grid)
        truth = serialize_grid(wp.solution)
        mismatch = None if answer == truth else truth
        return PuzzleResult(entry.line_no, "solved", wp.status, elapsed,
                            outcome.stats.starters_danced, answer,
                            oracle_mismatch=mismatch)
    if outcome.status == "conjecture_failure":
        return PuzzleResult(entry.line_no, "failure", wp.status, elapsed,
                            outcome.stats.starters_danced, report=outcome.report)
    # sound rules cannot contradict on a puzzle the oracle already verified
    return PuzzleResult(entry.line_no, "ill_posed", wp.status, elapsed,
                        oracle_mismatch=outcome.reason)


@dataclass(slots=True)
class BatchStats:
    puzzles: int
    well_posed: int
    solved: int
    failures: int
    ill_posed: int
    errors: int  # puzzles whose oracle check or solve raised; outside every other count
    starter_counts: list[int]
    times: list[float]
    level: float
    confidence_bound: float | None

    def render(self) -> str:
        lines = [
            f"puzzles:              {self.puzzles}",
            f"well-posed:           {self.well_posed}",
            f"solved:               {self.solved}",
            f"conjecture failures:  {self.failures}",
            f"ill-posed (skipped):  {self.ill_posed}",
            f"errors:               {self.errors}",
        ]
        if self.starter_counts:
            lines.append(
                "minuet starters used: median %g, max %d"
                % (statistics.median(self.starter_counts), max(self.starter_counts)))
        if self.times:
            ms = sorted(t * 1000 for t in self.times)
            p90 = ms[min(len(ms) - 1, int(0.9 * len(ms)))]
            lines.append("solver time per puzzle: median %.1f ms, p90 %.1f ms, max %.1f ms"
                         % (statistics.median(ms), p90, ms[-1]))
        if self.confidence_bound is not None:
            lines.append(
                "failure-rate upper bound: %.4f%% at %g%% confidence "
                "(%d well-posed puzzles, 0 failures)"
                % (100 * self.confidence_bound, 100 * self.level, self.well_posed))
        elif self.failures:
            lines.append("failure-rate bound: not computed (failures > 0)")
        return "\n".join(lines)


@dataclass(slots=True)
class BatchResult:
    stats: BatchStats
    results: list[PuzzleResult]
    reports: list[tuple[int, FailureReport]] = field(default_factory=list)


def batch_solve(corpus: CorpusLoad, config: SolveConfig | None = None,
                *, jobs: int = 1, level: float = 0.90) -> BatchResult:
    """Solve every corpus entry, oracle-check each answer, aggregate stats.

    Ill-posed entries are flagged and excluded from conjecture statistics
    (the conjecture quantifies over well-posed puzzles only), and so are
    entries whose oracle check or solve raised, counted as errors.  Results are
    canonicalized by corpus line number, so aggregate output is identical
    for any worker count.
    """
    cfg = config or SolveConfig()
    work = [(entry, cfg) for entry in corpus.entries]
    if jobs > 1:
        with Pool(jobs) as pool:
            results = pool.map(_run_entry, work)
    else:
        results = [_run_entry(w) for w in work]
    results.sort(key=lambda r: r.line_no)

    for r in results:
        if r.status == "solved" and r.oracle_mismatch is not None:
            raise SelfCheckFailed(
                f"line {r.line_no}: solver answer {r.solution} "
                f"!= oracle solution {r.oracle_mismatch}")

    reports: list[tuple[int, FailureReport]] = []
    for r in results:
        if r.status == "failure" and r.report is not None:
            validate_report(r.report)
            reports.append((r.line_no, r.report))

    solved = sum(1 for r in results if r.status == "solved")
    failures = sum(1 for r in results if r.status == "failure")
    ill = sum(1 for r in results if r.status == "ill_posed")
    errors = sum(1 for r in results if r.status == "error")
    well_posed = solved + failures
    attempted = [r for r in results if r.status in ("solved", "failure")]
    bound = None
    if failures == 0 and well_posed >= 1:
        bound = confidence_upper_bound(well_posed, 0, level)
    stats = BatchStats(
        puzzles=len(results), well_posed=well_posed, solved=solved,
        failures=failures, ill_posed=ill, errors=errors,
        starter_counts=[r.starters for r in attempted],
        times=[r.elapsed for r in attempted],
        level=level, confidence_bound=bound)
    return BatchResult(stats, results, reports)


def validate_report(report: FailureReport) -> None:
    """Independently check a counterexample report before it is published.

    The puzzle must really be well-posed, the residual grid must agree with
    the puzzle's givens, and every residual cell must still admit the
    oracle's solution digit (otherwise a rule was unsound, not the method
    incomplete).  Raises SelfCheckFailed on any violation.
    """
    start = parse_grid(report.puzzle)
    wp = oracle.verify_well_posed(start)
    if wp.status != report.oracle_status:
        raise SelfCheckFailed(
            f"report oracle status {report.oracle_status} but verification says {wp.status}")
    if not wp.is_well_posed:
        return  # ill-posed input: not a counterexample, nothing more to check
    truth = wp.solution
    residual = parse_grid(report.residual)
    for c in range(81):
        if start.solved[c] and residual.solved[c] != start.solved[c]:
            raise SelfCheckFailed(f"residual grid dropped the given in cell {c}")
        d = truth.solved[c]
        if residual.solved[c]:
            if residual.solved[c] != d:
                raise SelfCheckFailed(
                    f"residual cell {c} inked {residual.solved[c]} but solution has {d}")
        elif not report.residual_candidates[c] & (1 << (d - 1)):
            raise SelfCheckFailed(
                f"residual cell {c} lost the solution digit {d}: a rule is unsound")


def confidence_upper_bound(n: int, failures: int, level: float = 0.90) -> float:
    """Largest failure rate p with P(0 failures in n | p) >= 1 - level.

    The exact zero-failure bound: 1 - (1 - level)^(1/n).  Only the
    zero-failure case is supported; with observed failures the counterexample
    reports speak for themselves.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if failures != 0:
        raise ValueError("only the zero-failure exact bound is supported")
    if not 0.0 < level < 1.0:
        raise ValueError("level must be in (0, 1)")
    return 1.0 - (1.0 - level) ** (1.0 / n)


def _cell_name(c: int) -> str:
    return f"r{c // 9 + 1}c{c % 9 + 1}"


def _describe(ev: TraceEvent) -> str:
    where = ""
    if ev.structure is not None:
        where = f" in {ev.structure.kind} {ev.structure.index + 1}"
    bits = [f"[{ev.step}]"]
    if ev.view:
        bits.append(f"({ev.view})")
    bits.append(ev.rule + ":")
    if ev.digits:
        bits.append(",".join(map(str, ev.digits)))
    if ev.cells:
        bits.append("at " + ",".join(_cell_name(c) for c in ev.cells) + where)
    if ev.inked:
        bits.append("ink " + " ".join(f"{d}@{_cell_name(c)}" for c, d in ev.inked))
    if ev.erased:
        bits.append("erase " + " ".join(f"{d}@{_cell_name(c)}" for c, d in ev.erased))
    return " ".join(bits)


def render_trace(trace: list[TraceEvent], verbosity: str = "summary") -> str:
    """Human-readable solve log in the method's vocabulary.

    "summary" prints counts per rule; "full" prints every event."""
    inks = sum(len(ev.inked) for ev in trace)
    erasures = sum(len(ev.erased) for ev in trace)
    header = f"trace: {len(trace)} events, {inks} inks, {erasures} erasures"
    if not trace:
        return header
    if verbosity == "full":
        return "\n".join([header] + [_describe(ev) for ev in trace])
    counts: dict[tuple[str, str, str], int] = {}
    for ev in trace:
        key = (ev.step, ev.view or "", ev.rule)
        counts[key] = counts.get(key, 0) + 1
    lines = [header]
    for (step, view, rule), n in sorted(counts.items()):
        tag = f"[{step}]" + (f" ({view})" if view else "")
        lines.append(f"{tag} {rule}: {n}")
    return "\n".join(lines)


def render_report(report: FailureReport) -> str:
    """Line-oriented counterexample report plus a machine-readable JSON block."""
    lines = [
        "CONJECTURE FAILURE REPORT",
        f"reason:        {report.reason}",
        f"oracle says:   {report.oracle_status}",
        f"puzzle:        {report.puzzle}",
        f"residual:      {report.residual}",
        f"starters tried ({len(report.starters_tried)}):",
    ]
    lines += [f"  - {s}" for s in report.starters_tried]
    lines.append("residual candidates:")
    for r in range(9):
        row = []
        for c in range(9):
            m = report.residual_candidates[9 * r + c]
            row.append("".join(map(str, DIGITS_OF[m])) or "-")
        lines.append("  " + " ".join(f"{x:>9}" for x in row))
    lines.append("JSON:")
    lines.append(json.dumps(report.to_dict(), indent=2, sort_keys=True))
    return "\n".join(lines)
