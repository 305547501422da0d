"""Acceptance suite: every criterion as a test, one PASS line printed each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  The corpora under corpora/ are fixed, seeded inputs: 100 easy-rated
puzzles (singles alone suffice), 60 medium, and 240 hard (Step-3-resistant,
so each needs the minuet).
"""

import math
import random
import statistics
import time
from functools import partial

import pytest

from minuet_sudoku import (HalfDoubleRegistry, commit_retained, confidence_upper_bound,
                           dance_together, enumerate_starters,
                           init_hypotheses, parse_grid, replay_trace,
                           serialize_grid, solve, step1_fixpoint, step2_fill,
                           step3_fixpoint, verify_well_posed)
from minuet_sudoku import minuet, oracle, phase2
from minuet_sudoku.grid import BIT, Grid
from minuet_sudoku.harness import batch_solve, load_corpus

from conftest import CORPORA
from test_phase2 import table_scan


@pytest.fixture(scope="module")
def corpus_outcomes(full_corpus):
    """Solve the whole corpus once; reused by criteria 1, 3, 5 and 10."""
    results = []
    for puzzle in full_corpus:
        t0 = time.perf_counter()
        outcome = solve(puzzle)
        elapsed = time.perf_counter() - t0
        results.append((puzzle, outcome, elapsed))
    return results


def test_criterion_1_oracle_equivalence_and_speed(corpus_outcomes, solutions):
    mismatches = 0
    times = []
    for puzzle, outcome, elapsed in corpus_outcomes:
        assert outcome.status == "solved", f"corpus puzzle failed to solve: {puzzle}"
        if serialize_grid(outcome.grid) != solutions[puzzle]:
            mismatches += 1
        times.append(elapsed)
    median = statistics.median(times)
    worst = max(times)
    assert mismatches == 0
    assert median < 0.050, f"median solve time {median * 1000:.1f} ms"
    assert worst < 2.0, f"max solve time {worst * 1000:.1f} ms"
    print(f"\nACCEPTANCE 1 PASS - {len(times)} puzzles, 0/81-cell mismatches, "
          f"median {median * 1000:.1f} ms, max {worst * 1000:.1f} ms")


def test_criterion_2_conjecture_reproduction(hard_corpus):
    assert len(hard_corpus) >= 230
    result = batch_solve(load_corpus(CORPORA / "hard.txt"))
    assert result.stats.failures == 0, (
        "validated counterexample reports emitted: "
        + "; ".join(str(line) for line, _ in result.reports))
    bound = confidence_upper_bound(result.stats.well_posed, 0.90)
    assert bound < 0.01
    print(f"\nACCEPTANCE 2 PASS - {result.stats.well_posed} hard puzzles, "
          f"0 conjecture failures, failure-rate bound {bound * 100:.3f}% < 1% "
          f"at 90% confidence")


def test_criterion_3_step3_suffices_on_easy_corpus(corpus_outcomes, easy_corpus):
    easy = set(easy_corpus)
    assert len(easy) >= 100
    zero_minuet = sum(1 for p, o, _ in corpus_outcomes
                      if p in easy and o.stats.minuet_rounds == 0)
    share = zero_minuet / len(easy)
    assert share >= 0.90
    print(f"\nACCEPTANCE 3 PASS - {zero_minuet}/{len(easy)} easy puzzles "
          f"solved with zero minuet rounds ({share:.0%})")


def _one_dance(g: Grid) -> None:
    """Apply one Step-4 sequence: both hypotheses, tricks (a)/(b), and a
    contradiction commit if one arises.  Whole-solution adoption is not a
    rule application and is deliberately not part of this runner."""
    starters = enumerate_starters(g)
    if not starters:
        return
    state = init_hypotheses(g, starters[0])
    if not state.circle.alive and not state.square.alive:
        raise AssertionError("both hypotheses contradicted on a solvable position")
    if state.circle.alive != state.square.alive:
        commit_retained(state, g)
        return
    dance_together(state, g)


def test_criterion_4_rule_soundness_on_random_positions(solutions):
    rng = random.Random(20240917)
    pool = sorted(solutions.values())
    violations = 0
    positions = 10_000
    for i in range(positions):
        sol = pool[i % len(pool)]
        k = rng.randint(20, 60)
        chars = list(sol)
        for c in rng.sample(range(81), k):
            chars[c] = "."
        g = parse_grid("".join(chars))
        registry = HalfDoubleRegistry()
        step1_fixpoint(g, registry)
        step2_fill(g, registry)
        step3_fixpoint(g)
        if not g.is_complete():
            _one_dance(g)
        for c in range(81):
            true_d = int(sol[c])
            if g.solved[c]:
                if g.solved[c] != true_d:
                    violations += 1
            elif not g.masks[c] & BIT[true_d]:
                violations += 1
    assert violations == 0
    print(f"\nACCEPTANCE 4 PASS - {positions} randomized positions, "
          f"0 deletions of the true digit")


def test_criterion_5_fixpoint_idempotence(full_corpus):
    for puzzle in full_corpus:
        g = parse_grid(puzzle)
        registry = HalfDoubleRegistry()
        step1_fixpoint(g, registry)
        snap = g.copy()
        rerun = step1_fixpoint(g, registry)
        assert g == snap
        assert rerun.finds_per_pass == [0]
        step2_fill(g, registry)
        step3_fixpoint(g)
        snap = g.copy()
        rerun3 = step3_fixpoint(g)
        assert g == snap
        assert sum(rerun3.finds_per_sweep) == 0
    print(f"\nACCEPTANCE 5 PASS - step1/step3 fixpoints idempotent on "
          f"{len(full_corpus)} puzzles")


def test_criterion_6_guard_equivalence(full_corpus, monkeypatch):
    """Step 3 as it runs, against Step 3 with the position-table reference
    scan run with no guards (groups scanned in structures of every size)."""
    for puzzle in full_corpus:
        guarded = parse_grid(puzzle)
        unguarded = parse_grid(puzzle)
        step3_fixpoint(guarded)
        with monkeypatch.context() as m:
            m.setattr(phase2, "_scan", partial(table_scan, use_guards=False))
            step3_fixpoint(unguarded)
        assert guarded == unguarded, f"guards changed the fixpoint on {puzzle}"
    print(f"\nACCEPTANCE 6 PASS - 4-cell/6-cell guards are pure optimizations "
          f"on {len(full_corpus)} puzzles")


def test_criterion_7_union_soundness(hard_corpus, solutions, monkeypatch):
    checks = [0]
    truth = [None]
    real_dance_together = minuet.dance_together

    def dance_together(state, base, *args, **kwargs):
        changed = real_dance_together(state, base, *args, **kwargs)
        circle, square = state.circle, state.square
        if not (circle.alive and square.alive):
            return changed
        for c in range(81):
            if base.solved[c]:
                for view in (circle, square):
                    assert view.shadow.solved[c] == base.solved[c], (
                        f"{view.label} view disagrees with the base at cell {c}")
                continue
            true_d = int(truth[0][c])
            assert (circle.retained(c) | square.retained(c)) & BIT[true_d], (
                f"true digit {true_d} of cell {c} escaped both views")
            for view in (circle, square):
                assert view.retained(c) & ~base.masks[c] == 0, (
                    f"{view.label} view keeps a digit the base lost at cell {c}")
        checks[0] += 1
        return changed

    monkeypatch.setattr(minuet, "dance_together", dance_together)
    reached_step4 = 0
    for puzzle in hard_corpus:
        truth[0] = solutions[puzzle]
        before = checks[0]
        outcome = solve(puzzle)
        assert outcome.status == "solved", puzzle
        if checks[0] > before:
            reached_step4 += 1
    assert checks[0] > 0
    print(f"\nACCEPTANCE 7 PASS - union soundness and live views narrowing the "
          f"base held at {checks[0]} dance-together checkpoints across "
          f"{reached_step4} puzzles")


def test_criterion_8_sixteen_given_fast_path(solutions, monkeypatch):
    rng = random.Random(8)
    pool = sorted(solutions.values())

    def no_search(*args, **kwargs):
        raise AssertionError("search invoked for a 16-given puzzle")

    monkeypatch.setattr(oracle, "_search", no_search)
    for sol in pool[:50]:
        cells = rng.sample(range(81), 16)
        chars = ["."] * 81
        for c in cells:
            chars[c] = sol[c]
        wp = verify_well_posed(parse_grid("".join(chars)))
        assert wp.status == "multiple_solutions"
    print("\nACCEPTANCE 8 PASS - 50 consistent 16-given puzzles classified "
          "MultipleSolutions with zero searches")


def test_criterion_9_confidence_bound_math():
    for n in (1, 10, 100, 230, 1000):
        bound = confidence_upper_bound(n, 0.90)
        assert math.isclose((1 - bound) ** n, 0.10, abs_tol=1e-12)
    assert confidence_upper_bound(230, 0.90) < 0.01
    assert confidence_upper_bound(100, 0.90) > 0.01
    print("\nACCEPTANCE 9 PASS - exact zero-failure bound identity holds to "
          "1e-12; n=230 certifies <1% at 90%, n=100 does not")


def test_criterion_10_trace_replay(corpus_outcomes):
    for puzzle, outcome, _ in corpus_outcomes:
        replayed = replay_trace(outcome.start.copy(), outcome.trace)
        assert replayed == outcome.grid, f"trace replay diverged on {puzzle}"
    print(f"\nACCEPTANCE 10 PASS - replayed traces reproduce the final grid "
          f"on {len(corpus_outcomes)} puzzles")
