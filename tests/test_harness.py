import json
import math
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from minuet_sudoku import (EmptyCorpus, SelfCheckFailed, Structure, batch_solve,
                           brute_solve, confidence_upper_bound, detect_singles,
                           load_corpus, parse_grid, render_report, render_trace,
                           serialize_grid, solve, validate_report)
from minuet_sudoku import harness
from minuet_sudoku.grid import Grid

from conftest import CORPORA
from puzzles import EASY, EASY_SOLUTION, HARD, MEDIUM, STALL, TRICKY


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
    assert result.stats.confidence_bound is None
    assert len(result.reports) == 1
    line_no, report = result.reports[0]
    assert report.reason == "all_starters_stuck"


def test_batch_aborts_on_oracle_mismatch(tmp_path, monkeypatch):
    real_solve = harness.solve

    def sabotaged(grid, cfg=None):
        outcome = real_solve(grid, cfg)
        if outcome.status == "solved":
            a, b = outcome.grid.solved[0], outcome.grid.solved[1]
            outcome.grid.solved[0], outcome.grid.solved[1] = b, a
        return outcome

    monkeypatch.setattr(harness, "solve", sabotaged)
    with pytest.raises(SelfCheckFailed):
        batch_solve(small_corpus(tmp_path, [EASY]))


def test_batch_easy_corpus_needs_no_minuets():
    result = batch_solve(load_corpus(CORPORA / "easy.txt"))
    assert result.stats.solved == result.stats.puzzles
    assert result.stats.failures == 0
    assert max(result.stats.starter_counts) == 0


def test_batch_parallel_matches_serial(tmp_path):
    corpus = small_corpus(tmp_path, [EASY, MEDIUM, HARD, TRICKY])
    serial = batch_solve(corpus, jobs=1)
    parallel = batch_solve(corpus, jobs=2)
    assert serial.stats.solved == parallel.stats.solved
    assert serial.stats.failures == parallel.stats.failures
    assert ([r.solution for r in serial.results]
            == [r.solution for r in parallel.results])


@pytest.mark.parametrize("jobs", [1, 2])
def test_batch_keeps_going_past_a_puzzle_that_raises(tmp_path, monkeypatch, jobs):
    real_solve = harness.solve

    def broken_on_medium(grid, cfg=None):
        if serialize_grid(grid) == MEDIUM:
            raise KeyError("boom")
        return real_solve(grid, cfg)

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
    assert stats.confidence_bound == pytest.approx(confidence_upper_bound(3, 0, 0.90))
    assert "errors:               1" in stats.render()


def test_batch_times_only_the_solver(tmp_path, monkeypatch):
    real_verify = harness.oracle.verify_well_posed

    def slow_verify(grid):
        time.sleep(0.5)
        return real_verify(grid)

    monkeypatch.setattr(harness.oracle, "verify_well_posed", slow_verify)
    result = batch_solve(small_corpus(tmp_path, [EASY]))
    assert 0 < result.results[0].elapsed < 0.5
    assert "solver time per puzzle" in result.stats.render()


def test_batch_reports_are_deterministic(tmp_path):
    corpus = small_corpus(tmp_path, [STALL])
    a = batch_solve(corpus)
    b = batch_solve(corpus)
    assert render_report(a.reports[0][1]) == render_report(b.reports[0][1])


# --- confidence bound ---------------------------------------------------------

def test_confidence_bound_single_trial():
    assert confidence_upper_bound(1, 0, 0.90) == pytest.approx(0.9)


def test_confidence_bound_230_trials_is_under_one_percent():
    bound = confidence_upper_bound(230, 0, 0.90)
    assert bound == pytest.approx(1 - 0.1 ** (1 / 230))
    assert bound < 0.01
    # cross-check: zero failures in 230 trials at this rate has 10% probability
    assert (1 - bound) ** 230 == pytest.approx(0.10, abs=1e-12)


def test_confidence_bound_100_trials_exceeds_one_percent():
    assert confidence_upper_bound(100, 0, 0.90) > 0.01


def test_confidence_bound_rejects_bad_inputs():
    with pytest.raises(ValueError):
        confidence_upper_bound(0, 0, 0.9)
    with pytest.raises(ValueError):
        confidence_upper_bound(100, 1, 0.9)
    with pytest.raises(ValueError):
        confidence_upper_bound(100, 0, 1.0)


@given(n=st.integers(min_value=1, max_value=100000),
       level=st.floats(min_value=0.01, max_value=0.999))
@settings(max_examples=200)
def test_confidence_bound_identity(n, level):
    bound = confidence_upper_bound(n, 0, level)
    assert 0.0 < bound < 1.0
    assert math.isclose((1 - bound) ** n, 1 - level, abs_tol=1e-12)


def test_confidence_bound_decreases_with_n():
    bounds = [confidence_upper_bound(n, 0, 0.9) for n in (1, 10, 100, 230, 1000)]
    assert bounds == sorted(bounds, reverse=True)


# --- rendering ----------------------------------------------------------------

def test_render_trace_empty_is_header_only():
    out = render_trace([])
    assert out.startswith("trace: 0 events")
    assert "\n" not in out


def test_render_trace_names_the_find():
    g = Grid()
    g.masks[20] = 1 << (6 - 1)
    events = []
    detect_singles(g, Structure("row", 2), trace=events)
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
