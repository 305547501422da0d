import random
from itertools import combinations

import pytest

from minuet_sudoku import (ContradictionFound, HalfDoubleRegistry, Structure, brute_solve,
                           parse_grid, place_ink, serialize_grid, step1_fixpoint,
                           step2_fill)
from minuet_sudoku import phase1
from minuet_sudoku.grid import (BIT, BOX_OF, CELLS_OF, COL_OF, DIGITS_OF, ROW_OF,
                                STRUCT_BITS, Grid, block_group, mask_of)
from minuet_sudoku.generate import STALL, dig_minimal, random_isomorph, random_solution
from minuet_sudoku.trace import TraceEvent

from puzzles import EASY, HARD, MEDIUM


def grid_with(assignments: dict[int, int]) -> Grid:
    chars = ["."] * 81
    for cell, d in assignments.items():
        chars[cell] = str(d)
    return parse_grid("".join(chars))


def claim_groups(registry: HalfDoubleRegistry) -> list[tuple[tuple[int, ...], int]]:
    """Every hidden double or triple as (cells, digit mask), rebuilt from
    ``registry.claimed``: the cells of one box with one mask form one claim
    (two claims never share a digit of a box)."""
    groups: dict[tuple[int, int], list[int]] = {}
    for c, m in sorted(registry.claimed.items()):
        groups.setdefault((BOX_OF[c], m), []).append(c)
    return [(tuple(cells), m) for (_, m), cells in groups.items()]


def reference_available(g: Grid, registry: HalfDoubleRegistry, bx: int, d: int) -> set[int]:
    """The paper's rule, cell by cell: the cells of box ``bx`` still open to
    ``d`` are not inked, not claimed without ``d``, not on a row or column
    holding a ``d``, and not on the line of a half double or claim of ``d``
    unless in it."""
    groups = [pair for (_, dd), pair in registry.entries.items() if dd == d]
    groups += [cells for cells, m in claim_groups(registry) if m & BIT[d]]
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


def test_available_cells_row_and_column_cover():
    # digit 5 inked in two rows crossing box 4 and one crossing column
    g = grid_with({27: 5, 44: 5, 4: 5})  # r4c1, r5c9, r1c5 (1-based)
    registry = HalfDoubleRegistry()
    step1_fixpoint(g, registry)
    assert registry.entries[(4, 5)] == (48, 50)


def test_available_cells_eight_inked_cells():
    g = grid_with({0: 1, 1: 2, 2: 3, 9: 4, 10: 5, 11: 6, 18: 7, 19: 8})
    events = []
    step1_fixpoint(g, HalfDoubleRegistry(), trace=events)
    assert any(e.rule == "hidden single" and e.cells == (20,) and e.digits == (9,)
               for e in events)
    assert g.solved[20] == 9


def test_available_cells_contains_true_cell_on_random_positions():
    rng = random.Random(11)
    for _ in range(10):
        sol = random_solution(rng)
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
                assert true_cell in reference_available(g, registry, b, d)


def test_step1_hidden_single_when_one_cell_remains():
    # digit 1 blocked from rows 1, 2 and column 2 of box 0 -> cell 0 is forced
    g = grid_with({14: 1, 24: 1, 56: 1, 37: 1})
    finds = []
    step1_fixpoint(g, HalfDoubleRegistry(), trace=finds)
    assert any(f.rule == "hidden single" and f.cells == (0,) and f.digits == (1,)
               for f in finds)
    assert g.solved[0] == 1


def test_step1_half_double_and_corollary_13a():
    # digits 1 and 2 each fit only cells 0 and 1 of box 0
    g = grid_with({13: 1, 14: 2, 24: 1, 25: 2, 56: 1, 65: 2})
    registry, finds = HalfDoubleRegistry(), []
    step1_fixpoint(g, registry, trace=finds)
    rules = {(f.rule, f.digits) for f in finds}
    assert ("half double", (1,)) in rules
    assert ("half double", (2,)) in rules
    assert any(f.rule == "hidden double" and f.cells == (0, 1) and f.digits == (1, 2)
               for f in finds)
    assert registry.claimed[0] == (BIT[1] | BIT[2])
    assert g.candidates(0) == {1, 2} and g.candidates(1) == {1, 2}


def test_step1_passive_single_rule_22():
    # box 0 gets a half double of 1 on cells {0, 1}; box 3 then inks 1 in
    # column 0, which blocks cell 0 and forces the second half-double cell
    g = grid_with({14: 1, 24: 1, 56: 1,
                   27: 2, 28: 3, 29: 4, 37: 5, 38: 6, 45: 7, 46: 8, 47: 9})
    finds = []
    step1_fixpoint(g, HalfDoubleRegistry(), trace=finds)
    assert any(f.rule == "half double" and f.cells == (0, 1) and f.digits == (1,)
               for f in finds)
    assert any(f.rule == "hidden single" and f.cells == (36,) and f.digits == (1,)
               for f in finds)
    assert any(f.rule == "passive single" and f.cells == (1,) and f.digits == (1,)
               for f in finds)
    assert g.solved[1] == 1


def test_step1_contradiction_when_digit_has_no_cell():
    # rows 0 and 1 carry an inked 1 outside box 0, and the remaining box row
    # is inked with other digits: nowhere left for the digit
    g = grid_with({3: 1, 15: 1, 18: 5, 19: 6, 20: 7})
    with pytest.raises(ContradictionFound, match="starved"):
        step1_fixpoint(g, HalfDoubleRegistry())


def test_step1_fixpoint_idempotent_with_shared_registry():
    g = parse_grid(MEDIUM)
    registry = HalfDoubleRegistry()
    run1 = step1_fixpoint(g, registry)
    assert run1.finds_per_pass[-1] == 0
    snap = g.copy()
    run2 = step1_fixpoint(g, registry)
    assert g == snap
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
        return [(e.step, e.rule, e.cells, e.digits) for e in events], g
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
    step1_fixpoint(g, registry)
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
        assert reference_available(g, registry, bx, d) == set(pair)


# --- Step 1 as it ran before it kept its state across passes ---------------

CROSS = [STRUCT_BITS[ROW_OF[c]] | STRUCT_BITS[9 + COL_OF[c]] for c in range(81)]
BOXES = [Structure("box", bx) for bx in range(9)]


def full_scan_pencil(registry: HalfDoubleRegistry, d: int) -> int:
    """Cells closed to ``d`` by pencil marks, computed from the registry."""
    groups = [pair for (_, dd), pair in registry.entries.items() if dd == d]
    groups += [cells for cells, m in claim_groups(registry) if m & BIT[d]]
    bits = 0
    for cells in groups:
        own = sum(1 << c for c in cells)
        for line in (STRUCT_BITS[ROW_OF[cells[0]]], STRUCT_BITS[9 + COL_OF[cells[0]]]):
            if not own & ~line:
                bits |= line & ~own
                break
    for c, m in registry.claimed.items():
        if not m & BIT[d]:
            bits |= 1 << c
    return bits


class FullScan:
    """One pass's view of the grid: ink bitboards rebuilt from the grid at
    the start of the pass, pencil bits recomputed at every query, and Rule 22
    checking every half double after every change."""

    def __init__(self, grid: Grid, registry: HalfDoubleRegistry, events: list):
        self.grid, self.registry, self.events = grid, registry, events
        self.inked, self.lines, self.boxes = 0, [0] * 10, [0] * 10
        for c, d in enumerate(grid.solved):
            if d:
                self.note(c, d)

    def note(self, c: int, d: int) -> None:
        self.inked |= 1 << c
        self.lines[d] |= CROSS[c]
        self.boxes[d] |= 1 << BOX_OF[c]

    def closed(self, d: int) -> int:
        return self.inked | self.lines[d] | full_scan_pencil(self.registry, d)

    def ink(self, bx: int, cell: int, d: int, rule: str) -> None:
        self.events.append(place_ink(self.grid, cell, d, step="1.1", rule=rule,
                                     structure=BOXES[bx]))
        self.note(cell, d)

    def rule22(self) -> None:
        grid, registry = self.grid, self.registry
        changed = True
        while changed:
            changed = False
            for (bx, d), (a, b) in list(registry.entries.items()):
                if self.boxes[d] >> bx & 1:
                    registry.entries.pop((bx, d), None)
                    continue
                closed = self.closed(d)
                a_ok, b_ok = not closed >> a & 1, not closed >> b & 1
                if a_ok and b_ok:
                    continue
                registry.entries.pop((bx, d), None)
                if not a_ok and not b_ok:
                    raise ContradictionFound("starved", structure=BOXES[bx], digit=d)
                self.ink(bx, a if a_ok else b, d, "passive single")
                changed = True
            for c in sorted(registry.claimed):
                m = grid.masks[c]
                if grid.solved[c]:
                    continue
                if not m:
                    raise ContradictionFound("empty_cell", cell=c)
                if not m & (m - 1):
                    self.ink(BOX_OF[c], c, DIGITS_OF[m][0], "passive single")
                    changed = True

    def claim(self, bx: int, cells: tuple, digits: tuple, rule: str) -> None:
        masks, gm, erased = self.grid.masks, mask_of(digits), []
        for c in cells:
            for dx in DIGITS_OF[masks[c] & ~gm]:
                masks[c] &= ~BIT[dx]
                erased.append((c, dx))
        self.registry.claimed.update(dict.fromkeys(cells, gm))
        self.events.append(TraceEvent("1.3", rule, structure=BOXES[bx], cells=cells,
                                      digits=digits, erased=tuple(erased)))
        self.rule22()

    def corollaries(self, bx: int, d: int, pair: tuple, triples: bool) -> None:
        registry = self.registry
        if any(c in registry.claimed for c in pair):
            return
        for d2 in range(1, 10):
            if d2 != d and registry.entries.get((bx, d2)) == pair:
                self.claim(bx, pair, tuple(sorted((d, d2))), "hidden double")
                return
        others = [(dd, p) for (bb, dd), p in registry.entries.items()
                  if bb == bx and dd != d]
        for (d2, p2), (d3, p3) in combinations(others if triples else [], 2):
            spots = set(pair) | set(p2) | set(p3)
            if len(spots) == 3 and not any(c in registry.claimed for c in spots):
                self.claim(bx, tuple(sorted(spots)), tuple(sorted((d, d2, d3))),
                           "hidden triple")
                return

    def scan(self, triples: bool) -> None:
        registry = self.registry
        for d in range(1, 10):
            for bx in range(9):
                if self.boxes[d] >> bx & 1:
                    registry.entries.pop((bx, d), None)
                    continue
                open_bits = STRUCT_BITS[18 + bx] & ~self.closed(d)
                cells = [c for c in CELLS_OF[18 + bx] if open_bits >> c & 1]
                if not cells:
                    raise ContradictionFound("starved", structure=BOXES[bx], digit=d)
                if len(cells) == 1:
                    registry.entries.pop((bx, d), None)
                    self.ink(bx, cells[0], d, "hidden single")
                    self.rule22()
                elif len(cells) == 2 and registry.entries.get((bx, d)) != tuple(cells):
                    registry.entries[(bx, d)] = tuple(cells)
                    self.events.append(TraceEvent("1.2", "half double", structure=BOXES[bx],
                                                  cells=tuple(cells), digits=(d,)))
                    self.corollaries(bx, d, tuple(cells), triples)


def full_scan_fixpoint(grid: Grid, registry: HalfDoubleRegistry, triples: bool,
                       events: list) -> list[int]:
    """Step 1 with a fresh view per pass, every pass scanning all 81 (digit,
    box) pairs until one finds nothing.  Returns the finds per pass."""
    per_pass = []
    while not per_pass or per_pass[-1]:
        start = len(events)
        FullScan(grid, registry, events).scan(triples)
        per_pass.append(len(events) - start)
    return per_pass


def step1_inputs(full_corpus) -> list[str]:
    """The corpus, seeded minimal puzzles, ``STALL`` isomorphs, and seeded
    partial grids that mostly reach a contradiction."""
    rng = random.Random(808)
    partial = []
    for _ in range(40):
        g = Grid()
        for c in rng.sample(range(81), rng.randrange(10, 30)):
            if not g.solved[c] and g.masks[c]:
                place_ink(g, c, rng.choice(DIGITS_OF[g.masks[c]]))
        partial.append(serialize_grid(g))
    return (full_corpus + [dig_minimal(random.Random(seed)) for seed in range(2000, 2100)]
            + [random_isomorph(rng).apply(STALL) for _ in range(20)] + partial)


@pytest.fixture(scope="module")
def step1_puzzles(full_corpus):
    return step1_inputs(full_corpus)


def kept_fixpoint(grid, registry, triples, events) -> list[int]:
    return step1_fixpoint(grid, registry, triples, trace=events).finds_per_pass


def run_step1(fixpoint, puzzle: str, triples: bool):
    """(events, finds per pass or the contradiction, grid, registry)."""
    registry, grid, events = HalfDoubleRegistry(), parse_grid(puzzle), []
    try:
        result = fixpoint(grid, registry, triples, events)
    except ContradictionFound as e:
        return events, str(e), grid, None
    return events, result, grid, (registry.entries, registry.claimed)


@pytest.mark.parametrize("triples", [False, True])
def test_step1_schedule_matches_full_scans(step1_puzzles, triples):
    contradicted = 0
    for puzzle in step1_puzzles:
        got = run_step1(kept_fixpoint, puzzle, triples)
        assert got == run_step1(full_scan_fixpoint, puzzle, triples), puzzle
        contradicted += isinstance(got[1], str)
    assert 0 < contradicted < len(step1_puzzles) // 4


@pytest.mark.parametrize("triples", [False, True])
def test_kept_bitboards_match_fresh_ones_after_every_pass(step1_puzzles, monkeypatch,
                                                          triples):
    """After every pass the kept closed-cell boards equal freshly built ones,
    and the open cells of every box and digit not yet inked there follow the
    paper's rule (``reference_available``)."""
    def closed(boards, d):
        return boards.inked | boards.ink_lines[d] | boards.pencil[d]

    real_pass, checked = phase1._pass, []

    def checked_pass(boards, triples_enabled, events):
        real_pass(boards, triples_enabled, events)
        fresh = phase1._Bitboards(boards.grid, boards.registry)
        assert ([closed(boards, d) for d in range(1, 10)]
                == [closed(fresh, d) for d in range(1, 10)])
        assert boards.held == fresh.held
        for d in range(1, 10):
            for bx in range(9):
                if not boards.held >> 9 * d + bx & 1:
                    open_bits = ~closed(boards, d)
                    assert ({c for c in CELLS_OF[18 + bx] if open_bits >> c & 1}
                            == reference_available(boards.grid, boards.registry, bx, d))
        checked.append(1)

    monkeypatch.setattr(phase1, "_pass", checked_pass)
    for puzzle in step1_puzzles:
        try:
            step1_fixpoint(parse_grid(puzzle), HalfDoubleRegistry(), triples)
        except ContradictionFound:
            pass
    assert len(checked) > 3 * len(step1_puzzles)


def full_step2(grid: Grid, registry: HalfDoubleRegistry, events: list) -> None:
    """Step 2 with the paper's full rule: every half double's block (Rule
    20), then every claim's block on its digits (Rule 21), then the naked
    singles."""
    blocks = [(pair, BIT[d], "half double block", BOXES[bx])
              for (bx, d), pair in registry.entries.items()]
    blocks += [(cells, m, "double block" if len(cells) == 2 else "triple block", None)
               for cells, m in claim_groups(registry)]
    for cells, m, rule, structure in blocks:
        erased = block_group(grid, cells, m)
        if erased:
            events.append(TraceEvent("2", rule, structure=structure, cells=cells,
                                     digits=DIGITS_OF[m], erased=tuple(erased)))
    for c in range(81):
        if not grid.solved[c]:
            m = grid.masks[c]
            if not m:
                raise ContradictionFound("empty_cell", cell=c)
            if not m & (m - 1):
                events.append(place_ink(grid, c, DIGITS_OF[m][0], step="2",
                                        rule="naked single"))


def run_step2(fill, grid: Grid, registry: HalfDoubleRegistry):
    """(events, grid) of one Step 2 on a copy of ``grid``, or the contradiction."""
    grid, events = grid.copy(), []
    try:
        fill(grid, registry, events)
    except ContradictionFound as e:
        return str(e)
    return events, grid


@pytest.mark.parametrize("triples", [False, True])
def test_claims_need_no_marks_of_their_own(step1_puzzles, monkeypatch, triples):
    """The lemmas behind Phase I's pencil marks: after every claim no live
    entry holds a cell claimed without its digit (so ``_try_corollaries``
    needs no claimed-cell guard), and Step 2 without the claims' blocks
    matches the full rule's events and grid, or its contradiction."""
    real_claim, claims = phase1._Bitboards.claim, []

    def checked_claim(boards, bx, cells, digits, rule, events):
        real_claim(boards, bx, cells, digits, rule, events)
        claimed = boards.registry.claimed
        for (_, d), pair in boards.registry.entries.items():
            assert all(claimed.get(c, BIT[d]) & BIT[d] for c in pair)
        claims.append(1)

    monkeypatch.setattr(phase1._Bitboards, "claim", checked_claim)
    with_claims = 0
    for puzzle in step1_puzzles:
        grid, registry = parse_grid(puzzle), HalfDoubleRegistry()
        try:
            step1_fixpoint(grid, registry, triples)
        except ContradictionFound:
            continue
        kept = run_step2(lambda g, r, ev: step2_fill(g, r, trace=ev), grid, registry)
        assert kept == run_step2(full_step2, grid, registry), puzzle
        with_claims += bool(registry.claimed)
    assert claims and with_claims
