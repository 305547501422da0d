import random

import pytest

from minuet_sudoku import (ContradictionFound, Structure, brute_solve,
                           detect_doubles, detect_singles, detect_triples,
                           enumerate_starters, parse_grid, place_ink, step3_fixpoint)
from minuet_sudoku.grid import BIT, CELLS_OF, DIGITS_OF, STRUCTURES, Grid, mask_of

from conftest import random_full_grid
from puzzles import EASY, HARD, MEDIUM, TRICKY


def masked_grid(cell_masks: dict[int, set[int]]) -> Grid:
    g = Grid()
    for cell, digits in cell_masks.items():
        g.masks[cell] = mask_of(digits)
    return g


def test_naked_single_is_inked():
    g = masked_grid({5: {4}})
    finds = detect_singles(g, Structure("row", 0))
    assert [(f.rule, f.cells, f.digits) for f in finds] == [("naked single", (5,), (4,))]
    assert g.solved[5] == 4


def test_hidden_single_is_inked():
    g = Grid()
    for c in CELLS_OF[2]:
        if c != 20:
            g.masks[c] &= ~BIT[6]
    finds = detect_singles(g, Structure("row", 2))
    assert ("hidden single", (20,), (6,)) in [(f.rule, f.cells, f.digits) for f in finds]
    assert g.solved[20] == 6


def test_no_singles_leaves_grid_unchanged():
    g = Grid()
    snap = g.fingerprint()
    assert detect_singles(g, Structure("col", 3)) == []
    assert g.fingerprint() == snap


def test_detect_singles_raises_on_empty_cell():
    g = Grid()
    g.masks[4] = 0
    with pytest.raises(ContradictionFound):
        detect_singles(g, Structure("row", 0))


def test_detect_singles_raises_on_starved_structure():
    g = Grid()
    for c in CELLS_OF[9]:  # column 0
        g.masks[c] &= ~BIT[8]
    with pytest.raises(ContradictionFound):
        detect_singles(g, Structure("col", 0))


def test_rule_22_scenario_is_caught_as_hidden_single():
    # digit 5 restricted to two cells of row 0; blocking one of them leaves
    # a hidden single in the other (passive rule subsumed at full candidates)
    g = Grid()
    for c in CELLS_OF[0]:
        if c not in (0, 4):
            g.masks[c] &= ~BIT[5]
    g.masks[0] &= ~BIT[5]
    finds = detect_singles(g, Structure("row", 0))
    assert ("hidden single", (4,), (5,)) in [(f.rule, f.cells, f.digits) for f in finds]


def test_naked_double_cleans_column():
    g = masked_grid({2: {2, 7}, 29: {2, 7}})
    finds = detect_doubles(g, Structure("col", 2))
    assert any(f.rule == "naked double" and set(f.cells) == {2, 29} for f in finds)
    for c in CELLS_OF[9 + 2]:
        if c not in (2, 29):
            assert not g.masks[c] & (BIT[2] | BIT[7])


def test_hidden_double_strips_foreign_candidates():
    # digits 3 and 8 appear only in cells 30 and 40 of box 4
    g = Grid()
    for c in CELLS_OF[18 + 4]:
        if c not in (30, 40):
            g.masks[c] &= ~(BIT[3] | BIT[8])
    finds = detect_doubles(g, Structure("box", 4))
    assert any(f.rule == "hidden double" and set(f.digits) == {3, 8} for f in finds)
    assert g.candidates(30) == {3, 8}
    assert g.candidates(40) == {3, 8}


def test_naked_double_in_shared_row_and_box_cleans_both():
    g = masked_grid({0: {2, 7}, 1: {2, 7}})  # same row and same box
    detect_doubles(g, Structure("row", 0))
    for c in CELLS_OF[0]:
        if c not in (0, 1):
            assert not g.masks[c] & (BIT[2] | BIT[7])
    for c in CELLS_OF[18]:
        if c not in (0, 1):
            assert not g.masks[c] & (BIT[2] | BIT[7])


def test_doubles_guard_skips_small_structures():
    g = Grid()
    for i, c in enumerate(CELLS_OF[0][:6]):
        g.solved[c] = i + 1
        g.masks[c] = 0
    g.masks[6] = mask_of({7, 8})
    g.masks[7] = mask_of({7, 8})
    g.masks[8] = mask_of({7, 8, 9})
    assert detect_doubles(g, Structure("row", 0)) == []
    assert detect_doubles(g, Structure("row", 0), use_guards=False) != []


def test_naked_triple_from_paired_cells():
    g = masked_grid({0: {5, 6}, 1: {6, 8}, 2: {5, 8}})
    finds = detect_triples(g, Structure("row", 0))
    assert any(f.rule == "naked triple" and f.digits == (5, 6, 8) for f in finds)
    for c in CELLS_OF[0][3:]:
        assert not g.masks[c] & mask_of({5, 6, 8})


def test_naked_triple_with_embedded_pair():
    g = masked_grid({9: {3, 6}, 10: {3, 7}, 11: {3, 6, 7}})
    finds = detect_triples(g, Structure("row", 1))
    assert any(f.rule == "naked triple" and f.digits == (3, 6, 7) for f in finds)


def test_triples_guard_skips_under_six_unsolved():
    g = Grid()
    for i, c in enumerate(CELLS_OF[0][:4]):
        g.solved[c] = i + 1
        g.masks[c] = 0
    g.masks[4] = mask_of({5, 6})
    g.masks[5] = mask_of({6, 8})
    g.masks[6] = mask_of({5, 8})
    g.masks[7] = mask_of({5, 6, 8, 9})
    g.masks[8] = mask_of({5, 6, 8, 9})
    assert detect_triples(g, Structure("row", 0)) == []
    assert detect_triples(g, Structure("row", 0), use_guards=False) != []


def test_step3_solves_medium_puzzle():
    g = parse_grid(MEDIUM)
    run = step3_fixpoint(g)
    assert g.is_complete()
    assert run.finds_per_sweep[-1] == 0


def test_step3_solves_entire_easy_corpus(easy_corpus):
    for puzzle in easy_corpus:
        g = parse_grid(puzzle)
        step3_fixpoint(g)
        assert g.is_complete(), puzzle


def test_step3_on_solved_grid_is_one_empty_sweep():
    g = parse_grid(MEDIUM)
    step3_fixpoint(g)
    run = step3_fixpoint(g)
    assert run.finds_per_sweep == [0]


def full_sweeps(grid: Grid, events: list) -> list[int]:
    """Step 3 without dirty tracking: scan all 27 structures every sweep
    until a sweep finds nothing.  Appends the events; returns the finds per
    sweep."""
    per_sweep = []
    while True:
        n = 0
        for s in STRUCTURES:
            n += len(detect_singles(grid, s, trace=events))
            n += len(detect_doubles(grid, s, trace=events))
            n += len(detect_triples(grid, s, trace=events))
        per_sweep.append(n)
        if not n:
            return per_sweep


def schedule_and_reference(grid: Grid, touched: set[int] | None = None):
    """(events, finds per sweep or the contradiction, final grid) of
    ``step3_fixpoint(touched=...)`` on ``grid`` and of ``full_sweeps`` on a copy."""
    runs = (lambda g, ev: step3_fixpoint(g, trace=ev, touched=touched).finds_per_sweep,
            full_sweeps)
    out = []
    for run, g in zip(runs, (grid, grid.copy())):
        events = []
        try:
            result = run(g, events)
        except ContradictionFound as e:
            result = str(e)
        out.append((events, result, g))
    return out


def test_step3_schedule_matches_full_sweeps(full_corpus, solutions):
    narrowed = danced = contradicted = 0
    for puzzle in full_corpus:
        grid = parse_grid(puzzle)
        got, want = schedule_and_reference(grid)
        assert got == want, puzzle
        c = next((c for c in range(81) if not grid.solved[c]), None)
        if c is None:
            continue
        # both choices of the first starters: only the ink's cell and the
        # peers it erased from are touched
        for starter in enumerate_starters(grid)[:3]:
            for cell, digit in starter.choices():
                view = grid.copy()
                ev = place_ink(view, cell, digit)
                got, want = schedule_and_reference(
                    view, {cell, *(p for p, _ in ev.erased)})
                assert got == want, (puzzle, cell, digit)
                danced += 1
                contradicted += isinstance(got[1], str)
        # one sound narrowing of the fixpoint grid: only its cell is touched
        truth = int(solutions[puzzle][c])
        grid.masks[c] &= ~BIT[next(d for d in DIGITS_OF[grid.masks[c]] if d != truth)]
        got, want = schedule_and_reference(grid, {c})
        assert got == want, puzzle
        narrowed += 1
    assert narrowed > 0 and contradicted > 0 and danced > contradicted


@pytest.mark.parametrize("puzzle", [EASY, MEDIUM, HARD, TRICKY])
def test_step3_fixpoint_idempotent(puzzle):
    g = parse_grid(puzzle)
    step3_fixpoint(g)
    snap = g.fingerprint()
    run = step3_fixpoint(g)
    assert g.fingerprint() == snap
    assert sum(run.finds_per_sweep) == 0


@pytest.mark.parametrize("puzzle", [EASY, MEDIUM, HARD, TRICKY])
def test_guard_equivalence_on_fixtures(puzzle):
    a = parse_grid(puzzle)
    b = parse_grid(puzzle)
    step3_fixpoint(a, use_guards=True)
    step3_fixpoint(b, use_guards=False)
    assert a == b


@pytest.mark.parametrize("puzzle", [EASY, MEDIUM, HARD, TRICKY])
def test_step3_never_erases_the_solution(puzzle):
    g = parse_grid(puzzle)
    truth = brute_solve(g)
    step3_fixpoint(g)
    for c in range(81):
        if g.solved[c]:
            assert g.solved[c] == truth.solved[c]
        else:
            assert truth.solved[c] in g.candidates(c)


def test_cleanup_soundness_on_random_positions():
    rng = random.Random(17)
    for _ in range(15):
        sol = random_full_grid(rng)
        chars = list(sol)
        for c in rng.sample(range(81), rng.randrange(30, 55)):
            chars[c] = "."
        g = parse_grid("".join(chars))
        step3_fixpoint(g)
        for c in range(81):
            true_d = int(sol[c])
            if g.solved[c]:
                assert g.solved[c] == true_d
            else:
                assert true_d in g.candidates(c)


def test_trace_events_record_eliminations():
    g = masked_grid({2: {2, 7}, 29: {2, 7}})
    events = []
    detect_doubles(g, Structure("col", 2), trace=events)
    assert events and events[0].rule == "naked double"
    assert all(d in (2, 7) for _, d in events[0].erased)
