import random

import pytest

from minuet_sudoku import (ContradictionFound, HalfDoubleRegistry, Structure,
                           available_cells, brute_solve, parse_grid,
                           step1_fixpoint, step1_scan, step2_fill)
from minuet_sudoku.grid import BIT, CELLS_OF, Grid

from conftest import random_full_grid
from puzzles import EASY, HARD, MEDIUM


def grid_with(assignments: dict[int, int]) -> Grid:
    chars = ["."] * 81
    for cell, d in assignments.items():
        chars[cell] = str(d)
    return parse_grid("".join(chars))


def test_available_cells_row_and_column_cover():
    # digit 5 inked in two rows crossing box 4 and one crossing column
    g = grid_with({27: 5, 44: 5, 4: 5})  # r4c1, r5c9, r1c5 (1-based)
    avail = available_cells(g, HalfDoubleRegistry(), Structure("box", 4), 5)
    assert avail == {48, 50}
    assert len(avail) <= 2


def test_available_cells_eight_inked_cells():
    g = grid_with({0: 1, 1: 2, 2: 3, 9: 4, 10: 5, 11: 6, 18: 7, 19: 8})
    avail = available_cells(g, HalfDoubleRegistry(), Structure("box", 0), 9)
    assert avail == {20}


def test_available_cells_requires_box():
    with pytest.raises(ValueError):
        available_cells(Grid(), HalfDoubleRegistry(), Structure("row", 0), 1)


def test_available_cells_contains_true_cell_on_random_positions():
    rng = random.Random(11)
    for _ in range(10):
        sol = random_full_grid(rng)
        chars = list(sol)
        for c in rng.sample(range(81), 50):
            chars[c] = "."
        g = parse_grid("".join(chars))
        registry = HalfDoubleRegistry()
        step1_fixpoint(g, registry)
        for b in range(9):
            box_cells = CELLS_OF[18 + b]
            for d in range(1, 10):
                if any(g.solved[c] == d for c in box_cells):
                    continue
                true_cell = next(c for c in box_cells if int(sol[c]) == d)
                assert true_cell in available_cells(g, registry, Structure("box", b), d)


def reference_available(g: Grid, registry: HalfDoubleRegistry, bx: int, d: int) -> set[int]:
    """The rule in available_cells' docstring, cell by cell."""
    groups = [pair for (_, dd), pair in registry.entries.items() if dd == d]
    groups += [cells for cells, m in registry.claim_groups if m & BIT[d]]
    out = set()
    for c in CELLS_OF[18 + bx]:
        row, col = CELLS_OF[c // 9], CELLS_OF[9 + c % 9]
        if g.solved[c]:
            continue
        if c in registry.claimed and not registry.claimed[c] & BIT[d]:
            continue
        if any(g.solved[x] == d for x in row + col):
            continue
        if any(c not in cells and (set(cells) <= set(row) or set(cells) <= set(col))
               for cells in groups):
            continue
        out.add(c)
    return out


def test_available_cells_matches_reference_rule():
    rng = random.Random(23)
    for trial in range(12):
        chars = list(random_full_grid(rng))
        for c in rng.sample(range(81), rng.randrange(45, 60)):
            chars[c] = "."
        g = parse_grid("".join(chars))
        registry = HalfDoubleRegistry()
        step1_fixpoint(g, registry, triples_enabled=trial % 2 == 1)
        # extra pencil marks written straight into the registry, as callers may
        for _ in range(3):
            bx = rng.randrange(9)
            box = CELLS_OF[18 + bx]
            registry.entries[(bx, rng.randrange(1, 10))] = tuple(sorted(rng.sample(box, 2)))
            digits = rng.sample(range(1, 10), 3)
            registry.claim(tuple(sorted(rng.sample(box, rng.choice((2, 3))))),
                           BIT[digits[0]] | BIT[digits[1]] | BIT[digits[2]])
        for b in range(9):
            for d in range(1, 10):
                if any(g.solved[c] == d for c in CELLS_OF[18 + b]):
                    continue
                assert (available_cells(g, registry, Structure("box", b), d)
                        == reference_available(g, registry, b, d)), (trial, b, d)


def test_step1_hidden_single_when_one_cell_remains():
    # digit 1 blocked from rows 1, 2 and column 2 of box 0 -> cell 0 is forced
    g = grid_with({14: 1, 24: 1, 56: 1, 37: 1})
    registry = HalfDoubleRegistry()
    finds = step1_scan(g, registry)
    assert any(f.kind == "hidden_single" and f.cells == (0,) and f.digits == (1,)
               for f in finds)
    assert g.solved[0] == 1


def test_step1_half_double_and_corollary_13a():
    # digits 1 and 2 each fit only cells 0 and 1 of box 0
    g = grid_with({13: 1, 14: 2, 24: 1, 25: 2, 56: 1, 65: 2})
    registry = HalfDoubleRegistry()
    finds = step1_scan(g, registry)
    kinds = {(f.kind, f.digits) for f in finds}
    assert ("half_double", (1,)) in kinds
    assert ("half_double", (2,)) in kinds
    assert any(f.kind == "hidden_double" and f.cells == (0, 1) and f.digits == (1, 2)
               for f in finds)
    assert registry.claimed[0] == (BIT[1] | BIT[2])
    assert g.candidates(0) == {1, 2} and g.candidates(1) == {1, 2}


def test_step1_passive_single_rule_22():
    # box 0 gets a half double of 1 on cells {0, 1}; box 3 then inks 1 in
    # column 0, which blocks cell 0 and forces the second half-double cell
    g = grid_with({14: 1, 24: 1, 56: 1,
                   27: 2, 28: 3, 29: 4, 37: 5, 38: 6, 45: 7, 46: 8, 47: 9})
    registry = HalfDoubleRegistry()
    finds = step1_scan(g, registry)
    assert any(f.kind == "half_double" and f.cells == (0, 1) and f.digits == (1,)
               for f in finds)
    assert any(f.kind == "hidden_single" and f.cells == (36,) and f.digits == (1,)
               for f in finds)
    assert any(f.kind == "passive_single" and f.cells == (1,) and f.digits == (1,)
               for f in finds)
    assert g.solved[1] == 1


def test_step1_contradiction_when_digit_has_no_cell():
    # rows 0 and 1 carry an inked 1 outside box 0, and the remaining box row
    # is claimed by a triple that excludes 1: nowhere left for the digit
    g = grid_with({3: 1, 15: 1})
    registry = HalfDoubleRegistry()
    claim = BIT[5] | BIT[6] | BIT[7]
    registry.claim((18, 19, 20), claim)
    for c in (18, 19, 20):
        g.masks[c] &= claim
    with pytest.raises(ContradictionFound):
        step1_scan(g, registry)


def test_step1_fixpoint_idempotent_with_shared_registry():
    g = parse_grid(MEDIUM)
    registry = HalfDoubleRegistry()
    run1 = step1_fixpoint(g, registry)
    assert run1.finds_per_pass[-1] == 0
    snap = g.fingerprint()
    run2 = step1_fixpoint(g, registry)
    assert g.fingerprint() == snap
    assert run2.finds_per_pass == [0]


def test_step1_fixpoint_needs_multiple_passes_somewhere():
    runs = []
    for puzzle in (EASY, MEDIUM, HARD):
        g = parse_grid(puzzle)
        runs.append(step1_fixpoint(g, HalfDoubleRegistry()).passes)
    assert max(runs) >= 3  # at least two productive passes plus the empty one


def test_step1_trace_is_reproducible():
    def run():
        g = parse_grid(HARD)
        reg = HalfDoubleRegistry()
        events = []
        step1_fixpoint(g, reg, trace=events)
        return [(e.step, e.rule, e.cells, e.digits) for e in events], g.fingerprint()
    assert run() == run()


def test_step2_inks_forced_cell():
    g = grid_with({1: 2, 2: 3, 9: 4, 10: 5, 11: 6, 3: 7, 4: 8, 36: 9})
    registry = HalfDoubleRegistry()
    step2_fill(g, registry)
    assert g.solved[0] == 1  # eight distinct digits cover its structures


def test_step2_half_double_blocks_row_and_box():
    # half double of 1 on cells {0, 1}: same row and same box
    g = grid_with({13: 1, 24: 1, 56: 1})
    registry = HalfDoubleRegistry()
    step1_scan(g, registry)
    assert registry.entries[(0, 1)] == (0, 1)
    step2_fill(g, registry)
    for c in CELLS_OF[0]:  # row 0
        if c not in (0, 1) and not g.solved[c]:
            assert 1 not in g.candidates(c)
    for c in CELLS_OF[18]:  # box 0
        if c not in (0, 1) and not g.solved[c]:
            assert 1 not in g.candidates(c)


@pytest.mark.parametrize("puzzle", [EASY, MEDIUM, HARD])
def test_phase1_never_loses_the_solution(puzzle):
    g = parse_grid(puzzle)
    truth = brute_solve(g)
    registry = HalfDoubleRegistry()
    step1_fixpoint(g, registry)
    step2_fill(g, registry)
    for c in range(81):
        if g.solved[c]:
            assert g.solved[c] == truth.solved[c]
        else:
            assert truth.solved[c] in g.candidates(c)


def test_registry_entries_are_current_after_fixpoint():
    g = parse_grid(HARD)
    registry = HalfDoubleRegistry()
    step1_fixpoint(g, registry)
    for (bx, d), pair in registry.entries.items():
        assert available_cells(g, registry, Structure("box", bx), d) == set(pair)
