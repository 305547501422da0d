"""Step-3 closure, checked from the rules' definitions alone.

``step3_finds`` shares no code with ``phase2``: it imports only ``grid``'s
tables.  In each of the 27 structures it tries every 1-, 2- and 3-subset of
the unsolved cells and of the uninked digits, with no guards.  A grid at a
Step-3 fixpoint holds no single, no naked or hidden double or triple whose
Rule-21 cleanup erases anything, and no subset that leaves a dead end.
"""

from itertools import combinations

from minuet_sudoku import minuet, solve
from minuet_sudoku.grid import BIT, CELLS_OF, DIGITS_OF, Grid

from puzzles import CLIMB_STALLS
from test_golden_trace import stall_puzzles


def cleanup(grid: Grid, cells: tuple[int, ...], digits: int) -> list[tuple[int, int]]:
    """Rule 21 for a group: the foreign candidates of its cells, then its
    digits in every other cell of each structure holding all of its cells."""
    masks = grid.masks
    erased = [(c, d) for c in cells for d in DIGITS_OF[masks[c] & ~digits]]
    for shared in CELLS_OF:
        if set(cells) <= set(shared):
            erased += [(c, d) for c in shared if c not in cells
                       for d in DIGITS_OF[masks[c] & digits]]
    return erased


def step3_finds(grid: Grid) -> list[tuple]:
    """Every Step-3 find left in the grid, as (kind, structure, subset):
    a subset of k cells spanning at most k digits, or of k digits with at
    most k places, that is a dead end (fewer), a single (k = 1) or a group
    whose cleanup erases something."""
    masks = grid.masks
    finds = []
    for s, structure in enumerate(CELLS_OF):
        unsolved = [c for c in structure if not grid.solved[c]]
        inked = {grid.solved[c] for c in structure}
        places = {d: frozenset(c for c in unsolved if masks[c] & BIT[d])
                  for d in range(1, 10) if d not in inked}
        for k in (1, 2, 3):
            for cells in combinations(unsolved, k):
                union = 0
                for c in cells:
                    union |= masks[c]
                n = union.bit_count()
                if n < k or n == k and (k == 1 or cleanup(grid, cells, union)):
                    finds.append(("naked", s, cells))
            for digits in combinations(places, k):
                spots = frozenset().union(*(places[d] for d in digits))
                group = sum(BIT[d] for d in digits)
                if len(spots) < k or len(spots) == k and (
                        k == 1 or cleanup(grid, tuple(sorted(spots)), group)):
                    finds.append(("hidden", s, digits))
    return finds


def test_step3_closure_at_every_starter_base(hard_corpus, monkeypatch):
    """Each base grid ``solve()`` hands to ``enumerate_starters`` is at a
    Step-3 fixpoint: after Phase I and Step 3, after a commit, and after
    trick (a) with its Step 3."""
    bases = []
    real = minuet.enumerate_starters

    def enumerate_starters(grid):
        bases.append(grid.copy())
        return real(grid)

    monkeypatch.setattr(minuet, "enumerate_starters", enumerate_starters)
    for puzzle in hard_corpus:
        solve(puzzle)
    assert len(bases) == 425
    assert {i: finds for i, g in enumerate(bases) if (finds := step3_finds(g))} == {}


def test_step3_closure_at_every_stall_residual():
    """The residual a stall ends on is at a Step-3 fixpoint."""
    outcomes = [solve(puzzle) for puzzle in stall_puzzles() + list(CLIMB_STALLS)]
    assert [o.status for o in outcomes] == ["conjecture_failure"] * 33
    residuals = [o.grid for o in outcomes]
    assert {i: finds for i, g in enumerate(residuals) if (finds := step3_finds(g))} == {}
