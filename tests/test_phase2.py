import random
from functools import partial
from itertools import chain, combinations

import pytest

from minuet_sudoku import (ContradictionFound, Structure, brute_solve, enumerate_starters,
                           parse_grid, phase2, place_ink, serialize_grid, step3_fixpoint)
from minuet_sudoku.generate import STALL, random_isomorph, random_solution
from minuet_sudoku.grid import (ALL_DIGITS, BIT, CELLS_OF, DIGITS_OF, STRUCT_SET_OF,
                                STRUCTURES, Grid, cells_at, mask_of)
from minuet_sudoku.trace import TraceEvent

from puzzles import EASY, HARD, MEDIUM, TRICKY


def scan_structure(grid: Grid, s: Structure, trace: list | None = None) -> list[TraceEvent]:
    """One visit of Step 3's structure scan (``phase2._scan``): singles,
    then the groups the guards let through.  Returns the events appended,
    one per find."""
    events = trace if trace is not None else []
    start = len(events)
    phase2._scan(grid, STRUCTURES.index(s), events, None)
    return events[start:]


def scan_groups(grid: Grid, s: Structure, k: int, trace: list | None = None,
                use_guards: bool = True) -> list[TraceEvent]:
    """Scan one structure for groups of size ``k`` (2 doubles, 3 triples)
    with the position-table reference scan below; returns the events
    appended, one per find."""
    events = trace if trace is not None else []
    start = len(events)
    table_scan_groups(grid, STRUCTURES.index(s), (k,), events, None, use_guards)
    return events[start:]


def masked_grid(cell_masks: dict[int, set[int]]) -> Grid:
    g = Grid()
    for cell, digits in cell_masks.items():
        g.masks[cell] = mask_of(digits)
    return g


def test_naked_single_is_inked():
    g = masked_grid({5: {4}})
    finds = scan_structure(g, Structure("row", 0))
    assert [(f.rule, f.cells, f.digits) for f in finds] == [("naked single", (5,), (4,))]
    assert g.solved[5] == 4


def test_hidden_single_is_inked():
    g = Grid()
    for c in CELLS_OF[2]:
        if c != 20:
            g.masks[c] &= ~BIT[6]
    finds = scan_structure(g, Structure("row", 2))
    assert ("hidden single", (20,), (6,)) in [(f.rule, f.cells, f.digits) for f in finds]
    assert g.solved[20] == 6


def test_no_singles_leaves_grid_unchanged():
    g = Grid()
    snap = g.copy()
    assert scan_structure(g, Structure("col", 3)) == []
    assert g == snap


def test_detect_singles_raises_on_empty_cell():
    g = Grid()
    g.masks[4] = 0
    with pytest.raises(ContradictionFound):
        scan_structure(g, Structure("row", 0))


def test_detect_singles_raises_on_starved_structure():
    g = Grid()
    for c in CELLS_OF[9]:  # column 0
        g.masks[c] &= ~BIT[8]
    with pytest.raises(ContradictionFound):
        scan_structure(g, Structure("col", 0))


def test_rule_22_scenario_is_caught_as_hidden_single():
    # digit 5 restricted to two cells of row 0; blocking one of them leaves
    # a hidden single in the other (passive rule subsumed at full candidates)
    g = Grid()
    for c in CELLS_OF[0]:
        if c not in (0, 4):
            g.masks[c] &= ~BIT[5]
    g.masks[0] &= ~BIT[5]
    finds = scan_structure(g, Structure("row", 0))
    assert ("hidden single", (4,), (5,)) in [(f.rule, f.cells, f.digits) for f in finds]


def test_naked_double_cleans_column():
    g = masked_grid({2: {2, 7}, 29: {2, 7}})
    finds = scan_groups(g, Structure("col", 2), 2)
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
    finds = scan_groups(g, Structure("box", 4), 2)
    assert any(f.rule == "hidden double" and set(f.digits) == {3, 8} for f in finds)
    assert g.candidates(30) == {3, 8}
    assert g.candidates(40) == {3, 8}


def test_naked_double_in_shared_row_and_box_cleans_both():
    g = masked_grid({0: {2, 7}, 1: {2, 7}})  # same row and same box
    scan_groups(g, Structure("row", 0), 2)
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
    assert scan_groups(g, Structure("row", 0), 2) == []
    assert scan_groups(g, Structure("row", 0), 2, use_guards=False) != []


def test_naked_triple_from_paired_cells():
    g = masked_grid({0: {5, 6}, 1: {6, 8}, 2: {5, 8}})
    finds = scan_groups(g, Structure("row", 0), 3)
    assert any(f.rule == "naked triple" and f.digits == (5, 6, 8) for f in finds)
    for c in CELLS_OF[0][3:]:
        assert not g.masks[c] & mask_of({5, 6, 8})


def test_naked_triple_with_embedded_pair():
    g = masked_grid({9: {3, 6}, 10: {3, 7}, 11: {3, 6, 7}})
    finds = scan_groups(g, Structure("row", 1), 3)
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
    assert scan_groups(g, Structure("row", 0), 3) == []
    assert scan_groups(g, Structure("row", 0), 3, use_guards=False) != []


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
    """Step 3 without dirty tracking, from the position-table reference
    scans below: scan all 27 structures every sweep until a sweep finds
    nothing.  Appends the events; returns the finds per sweep."""
    per_sweep = []
    while True:
        start = len(events)
        for s in range(27):
            table_scan(grid, s, events, None)
        n = len(events) - start
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


def step3_cases(puzzle: str, truth: str):
    """Step-3 inputs from one puzzle, as (kind, grid, touched): the parsed
    puzzle with all structures dirty; then, from the grid the caller left at
    its fixpoint, both choices of the first three starters (only the ink's
    cell and the peers it erased from are touched) and one sound narrowing
    (only its cell is touched)."""
    grid = parse_grid(puzzle)
    yield "parsed", grid, None
    c = next((c for c in range(81) if not grid.solved[c]), None)
    if c is None:
        return
    for starter in enumerate_starters(grid)[:3]:
        for cell, digit in starter.choices():
            view = grid.copy()
            ev = place_ink(view, cell, digit)
            yield "danced", view, {cell, *(p for p, _ in ev.erased)}
    truth_digit = int(truth[c])
    grid.masks[c] &= ~BIT[next(d for d in DIGITS_OF[grid.masks[c]] if d != truth_digit)]
    yield "narrowed", grid, {c}


def test_step3_schedule_matches_full_sweeps(full_corpus, solutions):
    counts = {"narrowed": 0, "danced": 0, "contradicted": 0}
    for puzzle in full_corpus:
        for kind, grid, touched in step3_cases(puzzle, solutions[puzzle]):
            got, want = schedule_and_reference(grid, touched)
            assert got == want, (puzzle, kind, touched)
            counts[kind] = counts.get(kind, 0) + 1
            counts["contradicted"] += kind == "danced" and isinstance(got[1], str)
    assert counts["narrowed"] > 0 and counts["contradicted"] > 0
    assert counts["danced"] > counts["contradicted"]


def structures_of(touched: set[int]) -> int:
    """The 27-bit set of structures holding a touched cell."""
    hit = 0
    for c in touched:
        hit |= STRUCT_SET_OF[c]
    return hit


def table_ink(grid: Grid, cell: int, digit: int, rule: str, s: int, events: list, view,
              touched: set) -> None:
    ev = place_ink(grid, cell, digit, step="3.1", rule=rule, view=view,
                   structure=STRUCTURES[s])
    events.append(ev)
    touched.add(cell)
    touched.update(c for c, _ in ev.erased)


def digit_positions(masks: list[int], s: int) -> list[int]:
    """Structure ``s`` as a digit -> positions table: bit ``i`` of entry ``d``
    is set when ``d`` is a candidate of ``CELLS_OF[s][i]``.  Cells ascend, so
    bit order is cell order."""
    pos = [0] * 10
    for i, c in enumerate(CELLS_OF[s]):
        for d in DIGITS_OF[masks[c]]:
            pos[d] |= 1 << i
    return pos


def table_scan(grid: Grid, s: int, events: list, view, use_guards: bool = True) -> int:
    """Step 3's structure scan, a drop-in for ``phase2._scan`` that shares
    none of its tallies: the singles, then doubles and triples, each read
    from position tables.  With ``use_guards=False`` it scans groups in
    structures of every size.  Returns the structures holding a cell it
    changed."""
    return (table_scan_singles(grid, s, events, view)
            | table_scan_groups(grid, s, (2, 3), events, view, use_guards))


def table_scan_singles(grid: Grid, s: int, events: list, view) -> int:
    """The singles scan read from a position table built for every look.
    Returns the structures holding a cell it changed."""
    cells = CELLS_OF[s]
    masks = grid.masks
    solved = grid.solved
    touched: set[int] = set()
    while True:
        inked_mask = 0
        naked = None
        for c in cells:
            m = masks[c]
            if solved[c]:
                inked_mask |= BIT[solved[c]]
            elif not m:
                raise ContradictionFound("empty_cell", cell=c)
            elif naked is None and not m & (m - 1):
                naked = c
        if naked is not None:
            d = DIGITS_OF[masks[naked]][0]
            table_ink(grid, naked, d, "naked single", s, events, view, touched)
            continue
        pos = digit_positions(masks, s)
        for d in DIGITS_OF[ALL_DIGITS & ~inked_mask]:
            p = pos[d]
            if not p:
                raise ContradictionFound("starved", structure=STRUCTURES[s], digit=d)
            if not p & (p - 1):
                c = cells[p.bit_length() - 1]
                table_ink(grid, c, d, "hidden single", s, events, view, touched)
                break
        else:
            return structures_of(touched)


def table_groups(items: list[tuple[int, int]], k: int):
    """Each k-subset of ``(key, mask)`` items, in ``combinations`` order,
    whose masks have 2..k bits each and exactly k bits together."""
    small = [item for item in items if 2 <= item[1].bit_count() <= k]
    for group in combinations(small, k):
        union = 0
        for _, m in group:
            union |= m
        if union.bit_count() == k:
            yield tuple(key for key, _ in group), union


def table_candidate_groups(masks: list[int], s: int, unsolved: list[int], k: int):
    for group, union in table_groups([(c, masks[c]) for c in unsolved], k):
        yield "naked", group, DIGITS_OF[union], union
    pos = digit_positions(masks, s)
    for digits, union in table_groups([(d, pos[d]) for d in range(1, 10)], k):
        yield "hidden", cells_at(s, union), digits, mask_of(digits)


def table_scan_groups(grid: Grid, s: int, sizes: tuple[int, ...], events: list, view,
                      use_guards: bool) -> int:
    """Returns the structures holding a cell a cleanup changed."""
    touched: set[int] = set()
    for k in sizes:
        table_scan_size(grid, s, k, events, view, touched, use_guards)
    return structures_of(touched)


def table_scan_size(grid: Grid, s: int, k: int, events: list, view, touched: set,
                    use_guards: bool) -> None:
    """The group scan of one size, as a generator of every candidate group
    over the cell masks, then over a position table built afresh."""
    unsolved = [c for c in CELLS_OF[s] if not grid.solved[c]]
    if use_guards and len(unsolved) < 2 * k:
        return
    step, size = phase2.GROUP_NAMES[k]
    while True:
        for kind, group, digits, group_mask in table_candidate_groups(grid.masks, s,
                                                                      unsolved, k):
            erased = phase2._cleanup_group(grid, group, group_mask)
            touched.update(c for c, _ in erased)
            if erased:
                events.append(TraceEvent(step, f"{kind} {size}", view=view,
                                         structure=STRUCTURES[s], cells=group,
                                         digits=digits, erased=tuple(erased)))
                break
        else:
            return


def run_step3(grid: Grid, touched: set[int] | None, view: str | None):
    """(events, finds per sweep or the contradiction's fields, final grid)."""
    events = []
    try:
        result = step3_fixpoint(grid, trace=events, view=view,
                                touched=touched).finds_per_sweep
    except ContradictionFound as e:
        result = (e.kind, e.structure, e.cell, e.digit)
    return events, result, grid


def planted_grids(seed: int, n: int):
    """Full-candidate grids with eight naked or hidden doubles and triples
    planted in random structures, as Step-3 cases.  Several groups are often
    visible in one structure at once, so their order shows in the trace."""
    rng = random.Random(seed)
    for _ in range(n):
        g = Grid()
        for _ in range(8):
            cells = CELLS_OF[rng.randrange(27)]
            k = rng.choice((2, 3))
            group = rng.sample(cells, k)
            digits = mask_of(rng.sample(range(1, 10), k))
            naked = rng.random() < 0.5
            for c in cells:
                if naked and c in group:
                    g.masks[c] &= digits
                elif not naked and c not in group:
                    g.masks[c] &= ~digits
        yield "planted", g, None


def row_with_four_open(*masks: set[int]) -> Grid:
    """Full candidates, except row 0: 1-5 inked in its first five cells and
    the given candidates in the other four."""
    g = Grid()
    for d, c in enumerate(CELLS_OF[0][:5], start=1):
        place_ink(g, c, d)
    for c, digits in zip(CELLS_OF[0][5:], masks):
        g.masks[c] = mask_of(digits)
    return g


def row_inked_below_four() -> Grid:
    """A naked single, and no other single: the singles scan inks the row
    down to 3 unsolved cells, so its group scan is skipped."""
    return row_with_four_open({6}, {7, 8}, {8, 9}, {7, 9})


def row_double_at_four() -> Grid:
    """No single, and a naked double whose cleanup erases only inside row 0:
    the row keeps 4 unsolved cells, so its group scan must run."""
    return row_with_four_open({6, 7}, {6, 7}, {6, 7, 8, 9}, {6, 7, 8, 9})


def row_triple_at_six() -> Grid:
    """No single and no double, and a naked triple {4,5,6} in row 0 whose
    cells lie in three boxes and three columns: 1-3 are inked one per box,
    so the row keeps 6 unsolved cells and only its triple scan can find the
    group."""
    g = Grid()
    for d, c in zip((1, 2, 3), (0, 3, 6)):
        place_ink(g, c, d)
    for c, digits in zip((2, 5, 8), ({4, 5}, {5, 6}, {4, 6})):
        g.masks[c] = mask_of(digits)
    return g


def step3_group_scans(grid: Grid, monkeypatch) -> tuple[list, list[int]]:
    """Step 3's events on ``grid`` and the structures whose group scan ran,
    once per size scanned."""
    scanned = []
    real_scan_size = phase2._scan_size

    def scan_size(grid, s, *args):
        scanned.append(s)
        return real_scan_size(grid, s, *args)

    monkeypatch.setattr(phase2, "_scan_size", scan_size)
    events = []
    step3_fixpoint(grid, trace=events)
    return events, scanned


def test_step3_skips_group_scan_of_a_structure_inked_below_four(monkeypatch):
    g = row_inked_below_four()
    events, scanned = step3_group_scans(g, monkeypatch)
    assert events[0].rule == "naked single" and events[0].cells == (5,)
    assert sum(not g.solved[c] for c in CELLS_OF[0]) == 3
    assert scanned and 0 not in scanned  # row 0's group scan was never called


def test_step3_scans_groups_of_a_structure_with_four_unsolved(monkeypatch):
    events, scanned = step3_group_scans(row_double_at_four(), monkeypatch)
    assert scanned[0] == 0
    assert (events[0].rule, events[0].cells, events[0].digits) == \
        ("naked double", (5, 6), (6, 7))


def test_step3_scans_match_position_table_scans(full_corpus, solutions, monkeypatch):
    rng = random.Random(1313)
    stalls = [STALL] + [random_isomorph(rng).apply(STALL) for _ in range(10)]
    truths = {**solutions,
              **{p: serialize_grid(brute_solve(parse_grid(p))) for p in stalls}}
    cases = [step3_cases(puzzle, truths[puzzle]) for puzzle in full_corpus + stalls]
    cases.append(planted_grids(1313, 150))
    cases.append([("planted", row_inked_below_four(), None),
                  ("planted", row_double_at_four(), None)])
    rules, raised = set(), set()
    for kind, grid, touched in chain.from_iterable(cases):
        view = "circle" if kind == "danced" else None
        reference = grid.copy()
        with monkeypatch.context() as m:
            m.setattr(phase2, "_scan", table_scan)
            want = run_step3(reference, touched, view)
        got = run_step3(grid, touched, view)  # leaves a parsed grid at its fixpoint
        assert got == want, (kind, touched, serialize_grid(grid))
        rules.update(ev.rule for ev in got[0])
        if isinstance(got[1], tuple):
            raised.add(got[1][0])
    assert rules >= {f"{kind} {size}" for kind in ("naked", "hidden")
                     for size in ("single", "double", "triple")}
    assert raised == {"empty_cell", "starved"}


@pytest.mark.parametrize("puzzle", [EASY, MEDIUM, HARD, TRICKY])
def test_step3_fixpoint_idempotent(puzzle):
    g = parse_grid(puzzle)
    step3_fixpoint(g)
    snap = g.copy()
    run = step3_fixpoint(g)
    assert g == snap
    assert sum(run.finds_per_sweep) == 0


@pytest.mark.parametrize("puzzle", [
    EASY, MEDIUM, HARD, TRICKY,
    # the only group of each sits where a guard one cell too tight would skip it
    pytest.param(row_double_at_four, id="row_double_at_four"),
    pytest.param(row_triple_at_six, id="row_triple_at_six"),
])
def test_guard_equivalence_on_fixtures(puzzle, monkeypatch):
    make = partial(parse_grid, puzzle) if isinstance(puzzle, str) else puzzle
    a, b = make(), make()
    step3_fixpoint(a)
    monkeypatch.setattr(phase2, "_scan", partial(table_scan, use_guards=False))
    step3_fixpoint(b)
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
        sol = random_solution(rng)
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
    scan_groups(g, Structure("col", 2), 2, trace=events)
    assert events and events[0].rule == "naked double"
    assert all(d in (2, 7) for _, d in events[0].erased)
