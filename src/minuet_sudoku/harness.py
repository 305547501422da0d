"""Corpus ingestion, batch conjecture-hunting, statistics, and trace rendering.

A batch entry runs the oracle once, and every self-check of the entry runs
with that one verdict in the same worker.  An entry the oracle finds
ill-posed is skipped.  On a well-posed entry the solver must either return
the oracle's solution or a conjecture-failure report that names the entry's
puzzle and passes ``validate_report``; a different answer, a completed
grid that breaks the rules, a failed report or a contradiction (which sound
rules cannot reach on a well-posed puzzle) raises SelfCheckFailed and aborts
the run, since it means a deduction rule is unsound.  Conjecture failures are
emitted as validated, machine-readable counterexample reports.

With ``jobs > 1`` the calling process is one of the batch's workers and
forks the others for that call only.  A self-check that fails in any worker
aborts the batch and stops every child, and a child that dies without
sending its results raises ChildProcessError instead of leaving the batch
waiting.

``multiprocessing``, ``statistics`` and ``json`` are imported inside the
calls that use them (a forking ``batch_solve``, ``BatchStats.render`` and
``render_report``), so a solve, an oracle check or a one-worker batch never
loads them.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from pathlib import Path

from . import oracle
from .grid import DIGITS_OF, GridError, parse_grid, serialize_grid
from .minuet import FailureReport, InconsistentSolution, SolveOutcome, solve
from .trace import TraceEvent


class EmptyCorpus(Exception):
    pass


class SelfCheckFailed(Exception):
    """The solver's result on a well-posed puzzle disagreed with the
    brute-force oracle: a rule is unsound."""


@dataclass(frozen=True, slots=True)
class CorpusEntry:
    """One valid puzzle line of a corpus file, with its line number."""
    line_no: int
    text: str


@dataclass(slots=True)
class CorpusLoad:
    """A corpus file's valid entries and its per-line parse errors."""
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
    """One batch entry's status, verdict, times and answer or report."""
    line_no: int
    status: str  # "solved" | "failure" | "ill_posed" | "error"
    well_posedness: str  # an oracle status, or "unknown" if the oracle did not finish
    elapsed: float  # seconds in solve(); 0.0 when the solver did not run
    starters: int = 0
    solution: str | None = None
    report: FailureReport | None = None
    error: str | None = None  # "{type}: {message}" when status is "error"
    oracle_elapsed: float = 0.0  # seconds in verify_well_posed; 0.0 when it did not finish


def _run_entry(entry: CorpusEntry) -> PuzzleResult:
    """Oracle-check and solve one entry, timing the oracle check and the
    solver apart, and self-check the result against the one verdict.

    The verdict goes to ``solve()`` for the failure report and to
    ``validate_report``.  An exception from the oracle check or the solve
    becomes an "error" result, so one bad puzzle does not lose the rest of
    the batch.  A solved answer other than the oracle's, a completed grid
    that breaks the rules (``InconsistentSolution``), a contradiction on a
    well-posed puzzle, or a report that fails validation raises
    SelfCheckFailed, which aborts the batch.
    """
    well_posedness = "unknown"
    oracle_elapsed = 0.0
    try:
        grid = parse_grid(entry.text)
        t0 = time.perf_counter()
        wp = oracle.verify_well_posed(grid)
        oracle_elapsed = time.perf_counter() - t0
        well_posedness = wp.status
        if not wp.is_well_posed:
            return PuzzleResult(entry.line_no, "ill_posed", wp.status, 0.0,
                                oracle_elapsed=oracle_elapsed)
        t0 = time.perf_counter()
        outcome: SolveOutcome = solve(grid, verdict=wp)
        elapsed = time.perf_counter() - t0
    except InconsistentSolution as e:
        raise SelfCheckFailed(f"line {entry.line_no}: {e}") from e
    except Exception as e:
        return PuzzleResult(entry.line_no, "error", well_posedness, 0.0,
                            error=f"{type(e).__name__}: {e}",
                            oracle_elapsed=oracle_elapsed)
    if outcome.status == "solved":
        answer = serialize_grid(outcome.grid)
        truth = serialize_grid(wp.solution)
        if answer != truth:
            raise SelfCheckFailed(
                f"line {entry.line_no}: solver answer {answer} != oracle solution {truth}")
        return PuzzleResult(entry.line_no, "solved", wp.status, elapsed,
                            outcome.stats.starters_danced, answer,
                            oracle_elapsed=oracle_elapsed)
    if outcome.status == "conjecture_failure":
        if outcome.report.puzzle != serialize_grid(grid):
            raise SelfCheckFailed(
                f"line {entry.line_no}: failure report is about puzzle "
                f"{outcome.report.puzzle}, not {serialize_grid(grid)}")
        validate_report(outcome.report, wp)
        return PuzzleResult(entry.line_no, "failure", wp.status, elapsed,
                            outcome.stats.starters_danced, report=outcome.report,
                            oracle_elapsed=oracle_elapsed)
    raise SelfCheckFailed(
        f"line {entry.line_no}: contradiction ({outcome.reason}) on a puzzle the "
        "oracle verified as well-posed")


def _run_share(entries: list[CorpusEntry], conn) -> None:
    """A batch worker's body: run ``_run_entry`` over its share of the
    entries and send back one ``("ok", results)``, or ``("raised", exc)``
    for the first exception, which the caller re-raises."""
    try:
        message = ("ok", [_run_entry(entry) for entry in entries])
    except Exception as e:
        message = ("raised", e)
    conn.send(message)
    conn.close()


@dataclass(slots=True)
class BatchStats:
    """A batch's counts, per-puzzle times and failure-rate bound."""
    puzzles: int
    well_posed: int
    solved: int
    failures: int
    ill_posed: int
    errors: int  # puzzles whose oracle check or solve raised; outside every other count
    starter_counts: list[int]
    times: list[float]  # solver seconds per well-posed puzzle
    oracle_times: list[float]  # seconds per puzzle in its own well-posedness check
    level: float
    confidence_bound: float | None

    def render(self) -> str:
        import statistics

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
        for label, times in (("solver", self.times), ("oracle", self.oracle_times)):
            if times:
                ms = sorted(t * 1000 for t in times)
                p90 = ms[-(-9 * len(ms) // 10) - 1]  # nearest rank: ceil(0.9 n)
                lines.append("%s time per puzzle: median %.1f ms, p90 %.1f ms, max %.1f ms"
                             % (label, statistics.median(ms), p90, ms[-1]))
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
    """A batch's stats, its per-entry results and its failure reports."""
    stats: BatchStats
    results: list[PuzzleResult]
    reports: list[tuple[int, FailureReport]] = field(default_factory=list)


def check_batch_options(jobs: int, level: float) -> None:
    """Raise ValueError when ``jobs`` is below 1 or ``level`` lies outside (0, 1)."""
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    if not 0.0 < level < 1.0:
        raise ValueError(f"level must be in (0, 1), got {level}")


def batch_solve(corpus: CorpusLoad, *, jobs: int = 1, level: float = 0.90) -> BatchResult:
    """Solve every corpus entry, oracle-check each result, aggregate stats.

    Ill-posed entries are flagged and excluded from conjecture statistics
    (the conjecture quantifies over well-posed puzzles only), and so are
    entries whose oracle check or solve raised, counted as errors.  Results are
    canonicalized by corpus line number, so aggregate output is identical
    for any worker count.

    At most ``jobs`` processes work, this one among them: it forks at most
    ``jobs - 1`` children, never more than the entries minus one, and none
    for a single entry or ``jobs=1``.  With ``w`` workers, child ``k`` runs
    ``entries[k::w]`` and sends its results back through its own pipe, and
    this process runs ``entries[0::w]``.  Every child has exited and been
    joined when this returns or raises.

    Raises ValueError, before any solve, when ``check_batch_options``
    rejects ``jobs`` or ``level``; SelfCheckFailed when a well-posed entry's
    result fails its self-check, in any worker; and ChildProcessError, naming
    the exit code, when a child exits without sending its results.
    """
    check_batch_options(jobs, level)
    entries = corpus.entries
    workers = max(1, min(jobs, len(entries)))
    if workers > 1:
        from multiprocessing import Pipe, Process
    children = []  # (process, receiving end) per forked worker
    try:
        for k in range(1, workers):
            receiver, sender = Pipe(duplex=False)
            child = Process(target=_run_share, args=(entries[k::workers], sender))
            child.start()
            sender.close()  # before the next fork, so a dead child reads as EOF
            children.append((child, receiver))
        results = [_run_entry(entry) for entry in entries[0::workers]]
        for child, receiver in children:
            try:
                outcome, payload = receiver.recv()
            except EOFError:
                outcome, payload = "died", None
            child.join()
            if outcome == "died":
                raise ChildProcessError(
                    f"batch worker exited with code {child.exitcode} "
                    "before sending its results")
            if outcome == "raised":
                raise payload
            results += payload
    finally:
        for child, receiver in children:
            if child.is_alive():
                child.terminate()
            child.join()
            receiver.close()
    results.sort(key=lambda r: r.line_no)

    reports = [(r.line_no, r.report) for r in results if r.status == "failure"]

    solved = sum(1 for r in results if r.status == "solved")
    failures = sum(1 for r in results if r.status == "failure")
    ill = sum(1 for r in results if r.status == "ill_posed")
    errors = sum(1 for r in results if r.status == "error")
    well_posed = solved + failures
    attempted = [r for r in results if r.status in ("solved", "failure")]
    bound = None
    if failures == 0 and well_posed >= 1:
        bound = confidence_upper_bound(well_posed, level)
    stats = BatchStats(
        puzzles=len(results), well_posed=well_posed, solved=solved,
        failures=failures, ill_posed=ill, errors=errors,
        starter_counts=[r.starters for r in attempted],
        times=[r.elapsed for r in attempted],
        oracle_times=[r.oracle_elapsed for r in results if r.well_posedness != "unknown"],
        level=level, confidence_bound=bound)
    return BatchResult(stats, results, reports)


def validate_report(report: FailureReport,
                    verdict: oracle.WellPosedness | None = None) -> None:
    """Independently check a counterexample report before it is published.

    The puzzle must really be well-posed, the residual must be 81 cells
    with 81 candidate masks, every residual ink must be the oracle's
    solution digit (so it keeps the givens and has no conflict), and every
    other residual cell must still admit that digit (otherwise a rule was
    unsound, not the method incomplete).  Raises SelfCheckFailed on any
    violation.

    ``verdict`` is the oracle's verdict on ``report.puzzle``, when the caller
    already holds it: ``batch_solve`` passes each entry's one verdict, after
    checking that the report names that entry's puzzle.  Without it, the
    oracle runs here.  Every residual check runs either way.
    """
    try:
        start = parse_grid(report.puzzle)
    except GridError as e:
        raise SelfCheckFailed(f"report puzzle does not parse: {e}") from e
    wp = verdict if verdict is not None else oracle.verify_well_posed(start)
    if wp.status != report.oracle_status:
        raise SelfCheckFailed(
            f"report oracle status {report.oracle_status} but verification says {wp.status}")
    if not wp.is_well_posed:
        raise SelfCheckFailed(f"puzzle is not well-posed ({wp.status}): not a counterexample")
    truth = wp.solution
    residual = report.residual
    if (len(residual) != 81 or len(report.residual_candidates) != 81
            or not set(residual) <= set(".123456789")):
        raise SelfCheckFailed("residual is not 81 cells of '.' or 1-9 with 81 candidate masks")
    for c in range(81):
        ink = 0 if residual[c] == "." else int(residual[c])
        if start.solved[c] and ink != start.solved[c]:
            raise SelfCheckFailed(f"residual grid dropped the given in cell {c}")
        d = truth.solved[c]
        if ink:
            if ink != d:
                raise SelfCheckFailed(f"residual cell {c} inked {ink} but solution has {d}")
        elif not report.residual_candidates[c] & (1 << (d - 1)):
            raise SelfCheckFailed(
                f"residual cell {c} lost the solution digit {d}: a rule is unsound")


def confidence_upper_bound(n: int, level: float = 0.90) -> float:
    """Largest failure rate p with P(0 failures in n | p) >= 1 - level.

    The exact zero-failure bound over ``n`` clean solves:
    1 - (1 - level)^(1/n).  With observed failures the counterexample reports
    speak for themselves.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
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
    import json

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
