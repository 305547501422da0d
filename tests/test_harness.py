import dataclasses
import json
import math
import multiprocessing
import os
import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from minuet_sudoku import (EmptyCorpus, FailureReport, SelfCheckFailed, Structure,
                           batch_solve, brute_solve, confidence_upper_bound, load_corpus,
                           parse_grid, render_report, render_trace, serialize_grid, solve,
                           validate_report, verify_well_posed)
from minuet_sudoku import harness, minuet
from minuet_sudoku.generate import STALL, dig_minimal
from minuet_sudoku.grid import ALL_DIGITS, BIT, PEERS, Grid, InconsistentGivens
from minuet_sudoku.harness import BatchStats

from conftest import CORPORA
from puzzles import EASY, EASY_SOLUTION, HARD, MEDIUM, MEDIUM_SOLUTION, TRICKY
from test_phase2 import scan_structure


# --- corpus loading ---------------------------------------------------------

def test_load_corpus_reads_valid_lines(tmp_path):
    path = tmp_path / "c.txt"
    path.write_text(f"# comment\n{EASY}\n\n{MEDIUM}\n{HARD}\n")
    corpus = load_corpus(path)
    assert [e.text for e in corpus.entries] == [EASY, MEDIUM, HARD]
    assert [e.line_no for e in corpus.entries] == [2, 4, 5]
    assert corpus.errors == []


def test_load_corpus_collects_bad_lines(tmp_path):
    path = tmp_path / "c.txt"
    path.write_text(f"{EASY[:80]}\n{MEDIUM}\n")
    corpus = load_corpus(path)
    assert [e.text for e in corpus.entries] == [MEDIUM]
    assert len(corpus.errors) == 1
    assert corpus.errors[0][0] == 1
    assert "WrongLength" in corpus.errors[0][1]


def test_load_corpus_rejects_comment_only_file(tmp_path):
    path = tmp_path / "c.txt"
    path.write_text("# nothing here\n\n# still nothing\n")
    with pytest.raises(EmptyCorpus):
        load_corpus(path)


# --- batch ------------------------------------------------------------------

def small_corpus(tmp_path, lines):
    path = tmp_path / "batch.txt"
    path.write_text("\n".join(lines) + "\n")
    return load_corpus(path)


# The abort tests run a failing entry beside a good one.  With jobs=2 over two
# entries the caller runs line 1 itself and one forked child runs line 2, so
# the failing entry's line puts it in either share.
ABORT_CASES = pytest.mark.parametrize("jobs,failing_line", [
    pytest.param(1, 2, id="1"),
    pytest.param(2, 2, id="2"),
    pytest.param(2, 1, id="2-parent-share"),
])


def two_entries(good, failing, failing_line):
    return [failing, good] if failing_line == 1 else [good, failing]


def test_batch_solves_and_verifies(tmp_path):
    result = batch_solve(small_corpus(tmp_path, [EASY, MEDIUM, HARD, TRICKY]))
    assert result.stats.puzzles == 4
    assert result.stats.solved == 4
    assert result.stats.failures == 0
    assert result.stats.confidence_bound == pytest.approx(1 - 0.1 ** 0.25)
    assert result.reports == []


def test_batch_flags_ill_posed_and_excludes_from_stats(tmp_path):
    sixteen = EASY_SOLUTION[:16] + "." * 65
    result = batch_solve(small_corpus(tmp_path, [EASY, sixteen]))
    assert result.stats.puzzles == 2
    assert result.stats.ill_posed == 1
    assert result.stats.well_posed == 1
    assert result.stats.solved == 1
    bad = [r for r in result.results if r.status == "ill_posed"]
    assert bad[0].well_posedness == "multiple_solutions"


def test_batch_counts_conjecture_failures(tmp_path):
    result = batch_solve(small_corpus(tmp_path, [EASY, STALL]))
    assert result.stats.failures == 1
    # P(X <= 1 | 2, p) = 1 - p^2 falls to 0.1 at p = sqrt(0.9)
    assert result.stats.confidence_bound == pytest.approx(0.9 ** 0.5)
    assert "(2 well-posed puzzles, 1 failed)" in result.stats.render()
    assert len(result.reports) == 1
    line_no, report = result.reports[0]
    assert report.reason == "all_starters_stuck"


def test_batch_aborts_on_oracle_mismatch(tmp_path, monkeypatch):
    real_solve = harness.solve

    def sabotaged_on_medium(grid, **kwargs):
        outcome = real_solve(grid, **kwargs)
        if serialize_grid(grid) == MEDIUM:
            a, b = outcome.grid.solved[0], outcome.grid.solved[1]
            outcome.grid.solved[0], outcome.grid.solved[1] = b, a
        return outcome

    monkeypatch.setattr(harness, "solve", sabotaged_on_medium)
    for jobs, failing_line in ((1, 2), (2, 2), (2, 1)):  # the ABORT_CASES
        lines = two_entries(EASY, MEDIUM, failing_line)
        with pytest.raises(SelfCheckFailed, match=f"line {failing_line}: solver answer"):
            batch_solve(small_corpus(tmp_path, lines), jobs=jobs)
        assert multiprocessing.active_children() == []


@ABORT_CASES
def test_batch_aborts_on_a_contradiction_on_a_well_posed_puzzle(tmp_path, monkeypatch,
                                                                jobs, failing_line):
    # sound rules cannot contradict on a puzzle the oracle verified as well-posed
    real_solve = harness.solve

    def contradicts_on_medium(grid, **kwargs):
        outcome = real_solve(grid, **kwargs)
        if serialize_grid(grid) == MEDIUM:
            return dataclasses.replace(outcome, status="ill_posed",
                                       reason="empty_cell: cell 0")
        return outcome

    monkeypatch.setattr(harness, "solve", contradicts_on_medium)
    lines = two_entries(EASY, MEDIUM, failing_line)
    with pytest.raises(SelfCheckFailed, match=f"line {failing_line}: contradiction"):
        batch_solve(small_corpus(tmp_path, lines), jobs=jobs)
    assert multiprocessing.active_children() == []


@ABORT_CASES
def test_batch_aborts_on_an_inconsistent_solved_grid(tmp_path, monkeypatch, jobs,
                                                     failing_line):
    # solve()'s own soundness check fires on the completed grid of MEDIUM, a
    # puzzle the oracle verified: that is a self-check failure, not an error
    real_from_ink = minuet.grid_from_ink

    def flags_medium(solved):
        if "".join(map(str, solved)) == MEDIUM_SOLUTION:
            raise InconsistentGivens("digit 9 appears twice in row 0")
        return real_from_ink(solved)

    monkeypatch.setattr(minuet, "grid_from_ink", flags_medium)
    lines = two_entries(EASY, MEDIUM, failing_line)
    with pytest.raises(SelfCheckFailed,
                       match=f"line {failing_line}: solver produced an inconsistent"):
        batch_solve(small_corpus(tmp_path, lines), jobs=jobs)
    assert multiprocessing.active_children() == []


def test_batch_easy_corpus_needs_no_minuets():
    result = batch_solve(load_corpus(CORPORA / "easy.txt"))
    assert result.stats.solved == result.stats.puzzles
    assert result.stats.failures == 0
    assert max(result.stats.starter_counts) == 0


def test_batch_parallel_matches_serial(tmp_path):
    corpus = small_corpus(tmp_path, [EASY, MEDIUM, HARD, TRICKY])
    serial = batch_solve(corpus, jobs=1)

    def outcomes(result):
        return [(r.line_no, r.status, r.solution, r.starters, r.report)
                for r in result.results]

    for jobs in (2, 3):  # one forked child, then two
        parallel = batch_solve(corpus, jobs=jobs)
        assert outcomes(parallel) == outcomes(serial)


@pytest.mark.parametrize("jobs", [1, 2])
def test_batch_keeps_going_past_a_puzzle_that_raises(tmp_path, monkeypatch, jobs):
    real_solve = harness.solve

    def broken_on_medium(grid, **kwargs):
        if serialize_grid(grid) == MEDIUM:
            raise KeyError("boom")
        return real_solve(grid, **kwargs)

    monkeypatch.setattr(harness, "solve", broken_on_medium)
    result = batch_solve(small_corpus(tmp_path, [EASY, MEDIUM, HARD, TRICKY]), jobs=jobs)
    assert [r.status for r in result.results] == ["solved", "error", "solved", "solved"]
    bad = result.results[1]
    assert bad.line_no == 2
    assert bad.error == "KeyError: 'boom'"
    assert bad.well_posedness == "well_posed"
    stats = result.stats
    assert (stats.solved, stats.failures, stats.ill_posed, stats.errors) == (3, 0, 0, 1)
    assert stats.well_posed == 3 and len(stats.times) == 3
    assert len(stats.oracle_times) == 4  # the raising entry passed its oracle check
    assert stats.confidence_bound == pytest.approx(confidence_upper_bound(3, 0.90))
    assert "errors:               1" in stats.render()


def test_batch_times_only_the_solver(tmp_path, monkeypatch):
    real_verify = harness.oracle.verify_well_posed

    def slow_verify(grid):
        time.sleep(0.5)
        return real_verify(grid)

    monkeypatch.setattr(harness.oracle, "verify_well_posed", slow_verify)
    result = batch_solve(small_corpus(tmp_path, [EASY]))
    assert 0 < result.results[0].elapsed < 0.5
    assert result.results[0].oracle_elapsed >= 0.5
    lines = result.stats.render().splitlines()
    medians = {line.split(" time per puzzle: ")[0]: float(line.split("median ")[1].split(" ms")[0])
               for line in lines if " time per puzzle: " in line}
    assert medians["solver"] < 500
    assert medians["oracle"] >= 500


def test_batch_runs_the_oracle_once_per_entry(tmp_path, monkeypatch):
    calls = []
    real_verify = harness.oracle.verify_well_posed  # the module minuet uses too

    def counted(grid):
        calls.append(1)
        return real_verify(grid)

    monkeypatch.setattr(harness.oracle, "verify_well_posed", counted)
    result = batch_solve(small_corpus(tmp_path, [STALL, EASY]), jobs=1)
    assert [r.status for r in result.results] == ["failure", "solved"]
    assert len(calls) == 2
    assert result.reports[0][1].oracle_status == "well_posed"

    calls.clear()
    outcome = solve(STALL)
    assert len(calls) == 1
    assert outcome.report.oracle_status == "well_posed"

    calls.clear()
    validate_report(outcome.report)
    assert len(calls) == 1


def _name_another_puzzle(report, solution):
    report.puzzle = EASY.replace("0", ".")


def _drop_a_given(report, solution):
    # a sub-puzzle of the entry: its givens alone agree with the entry's verdict
    i = next(i for i, ch in enumerate(report.puzzle) if ch != ".")
    report.puzzle = report.puzzle[:i] + "." + report.puzzle[i + 1:]


def _lose_the_solution_digit(report, solution):
    cell = next(c for c in range(81) if report.residual[c] == ".")
    masks = list(report.residual_candidates)
    masks[cell] &= ~BIT[solution.solved[cell]]
    report.residual_candidates = tuple(masks)


def _ink_a_conflict(report, solution):
    # ink an empty residual cell with the digit of an inked peer
    cell = next(c for c in range(81) if report.residual[c] == "."
                and any(report.residual[p] != "." for p in PEERS[c]))
    peer = next(p for p in PEERS[cell] if report.residual[p] != ".")
    report.residual = (report.residual[:cell] + report.residual[peer]
                       + report.residual[cell + 1:])


@ABORT_CASES
@pytest.mark.parametrize("corrupt", [_name_another_puzzle, _drop_a_given,
                                     _lose_the_solution_digit, _ink_a_conflict])
def test_batch_aborts_on_a_report_that_fails_its_self_check(tmp_path, monkeypatch,
                                                            corrupt, jobs, failing_line):
    real_solve = harness.solve
    solution = brute_solve(parse_grid(STALL))

    def corrupted(grid, **kwargs):
        outcome = real_solve(grid, **kwargs)
        if outcome.status == "conjecture_failure":
            corrupt(outcome.report, solution)
        return outcome

    monkeypatch.setattr(harness, "solve", corrupted)
    with pytest.raises(SelfCheckFailed):
        batch_solve(small_corpus(tmp_path, two_entries(EASY, STALL, failing_line)),
                    jobs=jobs)
    assert multiprocessing.active_children() == []


def test_batch_abort_in_the_callers_share_stops_a_busy_child(tmp_path, monkeypatch):
    test_pid = os.getpid()

    def fails_here_and_stalls_in_a_child(entry):
        if os.getpid() == test_pid:
            raise SelfCheckFailed(f"line {entry.line_no}: planted")
        time.sleep(60)

    monkeypatch.setattr(harness, "_run_entry", fails_here_and_stalls_in_a_child)
    t0 = time.perf_counter()
    with pytest.raises(SelfCheckFailed, match="line 1: planted"):
        batch_solve(small_corpus(tmp_path, [EASY, MEDIUM]), jobs=2)
    assert time.perf_counter() - t0 < 30  # the child was stopped, not waited for
    assert multiprocessing.active_children() == []


def test_batch_worker_that_dies_is_an_error_not_a_hang(tmp_path, monkeypatch):
    test_pid = os.getpid()
    real_run_entry = harness._run_entry

    def dies_on_line_2_in_a_child(entry):
        if entry.line_no == 2 and os.getpid() != test_pid:
            os._exit(7)
        return real_run_entry(entry)

    monkeypatch.setattr(harness, "_run_entry", dies_on_line_2_in_a_child)
    with pytest.raises(ChildProcessError, match="exited with code 7"):
        batch_solve(small_corpus(tmp_path, [EASY, MEDIUM]), jobs=2)
    assert multiprocessing.active_children() == []


def test_batch_matches_solve_on_minimal_puzzles(tmp_path):
    # differential test beyond the fixed corpus: seeded minimal puzzles
    puzzles = [dig_minimal(random.Random(seed)) for seed in range(1000, 1150)]
    outcomes = [solve(p) for p in puzzles]
    for puzzle, outcome in zip(puzzles, outcomes):
        if outcome.status == "solved":
            assert outcome.grid.solved == brute_solve(parse_grid(puzzle)).solved
        else:
            assert outcome.status == "conjecture_failure", puzzle
            validate_report(outcome.report)
    result = batch_solve(small_corpus(tmp_path, puzzles))
    assert [r.status for r in result.results] == [
        "solved" if o.status == "solved" else "failure" for o in outcomes]
    assert [r.solution for r in result.results] == [
        serialize_grid(o.grid) if o.status == "solved" else None for o in outcomes]
    assert [r.report for r in result.results] == [o.report for o in outcomes]


@pytest.mark.parametrize("kwargs", [{"jobs": 0}, {"jobs": -3}, {"level": 1.5},
                                    {"level": 0.0}, {"level": 1.0}])
def test_batch_rejects_bad_arguments_before_any_solve(tmp_path, monkeypatch, kwargs):
    calls = []
    monkeypatch.setattr(harness, "solve", lambda grid, **kw: calls.append(grid))
    with pytest.raises(ValueError):
        batch_solve(small_corpus(tmp_path, [EASY, MEDIUM]), **kwargs)
    assert calls == []


@pytest.mark.parametrize("jobs,lines,expected", [
    (500, [EASY, MEDIUM], [[2]]),
    (2, [EASY, MEDIUM, HARD], [[2]]),
    (500, [EASY], []),
])
def test_batch_starts_no_more_workers_than_entries(tmp_path, monkeypatch, jobs, lines,
                                                   expected):
    # the caller is one of the workers, so it forks one child fewer; expected
    # holds the corpus lines of each child's share
    started = []

    class SpiedProcess(multiprocessing.Process):
        def __init__(self, target, args):
            super().__init__(target=target, args=args)
            self.share = args[0]

        def start(self):
            started.append([entry.line_no for entry in self.share])
            super().start()

    monkeypatch.setattr(multiprocessing, "Process", SpiedProcess)  # read at call time
    result = batch_solve(small_corpus(tmp_path, lines), jobs=jobs)
    assert started == expected
    assert result.stats.solved == len(lines)


def test_batch_reports_are_deterministic(tmp_path):
    corpus = small_corpus(tmp_path, [STALL])
    a = batch_solve(corpus)
    b = batch_solve(corpus)
    assert render_report(a.reports[0][1]) == render_report(b.reports[0][1])


def test_render_p90_is_the_nearest_rank():
    stats = BatchStats(puzzles=10, well_posed=10, solved=10, failures=0, ill_posed=0,
                       errors=0, starter_counts=[0] * 10,
                       times=[ms / 1000 for ms in range(1, 11)], oracle_times=[],
                       level=0.90, confidence_bound=None)
    assert "solver time per puzzle: median 5.5 ms, p90 9.0 ms, max 10.0 ms" in stats.render()


# --- confidence bound ---------------------------------------------------------

def test_confidence_bound_single_trial():
    assert confidence_upper_bound(1, 0.90) == pytest.approx(0.9)


def test_confidence_bound_230_trials_is_under_one_percent():
    bound = confidence_upper_bound(230, 0.90)
    assert bound == pytest.approx(1 - 0.1 ** (1 / 230))
    assert bound < 0.01
    # cross-check: zero failures in 230 trials at this rate has 10% probability
    assert (1 - bound) ** 230 == pytest.approx(0.10, abs=1e-12)


def test_confidence_bound_100_trials_exceeds_one_percent():
    assert confidence_upper_bound(100, 0.90) > 0.01


def test_confidence_bound_rejects_bad_inputs():
    with pytest.raises(ValueError):
        confidence_upper_bound(0, 0.9)
    with pytest.raises(ValueError):
        confidence_upper_bound(100, 1.0)


@given(n=st.integers(min_value=1, max_value=100000),
       level=st.floats(min_value=0.01, max_value=0.999))
@settings(max_examples=200)
def test_confidence_bound_identity(n, level):
    bound = confidence_upper_bound(n, level)
    assert 0.0 < bound < 1.0
    assert math.isclose((1 - bound) ** n, 1 - level, abs_tol=1e-12)


def test_confidence_bound_decreases_with_n():
    bounds = [confidence_upper_bound(n, 0.9) for n in (1, 10, 100, 230, 1000)]
    assert bounds == sorted(bounds, reverse=True)


@pytest.mark.parametrize("n", [1, 10, 230, 100000])
def test_confidence_bound_at_zero_failures_is_the_closed_form(n):
    assert abs(confidence_upper_bound(n, 0.90, failures=0) - (1 - 0.1 ** (1 / n))) < 1e-12


def test_confidence_bound_rises_with_failures():
    bounds = [confidence_upper_bound(240, 0.90, failures=k) for k in range(6)]
    assert bounds == sorted(set(bounds))
    assert confidence_upper_bound(240, 0.90, failures=240) == 1.0


@pytest.mark.parametrize("n, failures", [(10, 1), (50, 3), (240, 2)])
def test_confidence_bound_leaves_the_binomial_tail_at_one_minus_level(n, failures):
    p = confidence_upper_bound(n, 0.90, failures=failures)
    tail = sum(math.comb(n, i) * p ** i * (1 - p) ** (n - i) for i in range(failures + 1))
    assert abs(tail - 0.10) < 1e-9


def test_confidence_bound_rejects_failures_outside_zero_to_n():
    with pytest.raises(ValueError, match="failures"):
        confidence_upper_bound(10, 0.9, failures=-1)
    with pytest.raises(ValueError, match="failures"):
        confidence_upper_bound(10, 0.9, failures=11)


# --- rendering ----------------------------------------------------------------

def test_render_trace_empty_is_header_only():
    out = render_trace([])
    assert out.startswith("trace: 0 events")
    assert "\n" not in out


def test_render_trace_names_the_find():
    g = Grid()
    g.masks[20] = 1 << (6 - 1)
    events = []
    scan_structure(g, Structure("row", 2), trace=events)
    full = render_trace(events, "full")
    assert "naked single" in full
    assert "r3c3" in full and "6" in full
    summary = render_trace(events, "summary")
    assert "naked single: 1" in summary


def test_render_report_contains_machine_block():
    outcome = solve(STALL)
    text = render_report(outcome.report)
    block = text.split("JSON:\n", 1)[1]
    data = json.loads(block)
    assert data["residual"] == outcome.report.residual
    assert data["oracle_status"] == "well_posed"
    assert data["starters_tried"]


def test_validate_report_catches_corruption():
    outcome = solve(STALL)
    report = outcome.report
    residual = parse_grid(report.residual)
    cell = next(c for c in range(81) if not residual.solved[c])
    truth_digit = brute_solve(parse_grid(report.puzzle)).solved[cell]
    corrupted = list(report.residual_candidates)
    corrupted[cell] &= ~(1 << (truth_digit - 1))
    report.residual_candidates = tuple(corrupted)
    with pytest.raises(SelfCheckFailed):
        validate_report(report)
    short = solve(STALL).report
    short.residual_candidates = short.residual_candidates[:80]
    with pytest.raises(SelfCheckFailed, match="81 candidate masks"):
        validate_report(short)


def test_validate_report_rejects_a_puzzle_that_is_not_well_posed():
    # a stall on the blank grid is no counterexample: it has many solutions
    blank = "." * 81
    report = FailureReport(puzzle=blank, residual=blank,
                           residual_candidates=(ALL_DIGITS,) * 81, starters_tried=(),
                           oracle_status="multiple_solutions", reason="no_starters")
    with pytest.raises(SelfCheckFailed, match="not well-posed"):
        validate_report(report)
    with pytest.raises(SelfCheckFailed, match="not well-posed"):
        validate_report(report, verify_well_posed(parse_grid(blank)))
    report.puzzle = "55" + "." * 79  # conflicting givens do not even make a grid
    with pytest.raises(SelfCheckFailed, match="does not parse"):
        validate_report(report)
