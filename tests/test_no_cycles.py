"""A solve, an oracle call, a puzzle dig and a batch create no reference
cycles: everything they allocate is freed by reference counting alone.

Each test collects once, turns the cyclic garbage collector off, runs one
path and then asserts that a collection finds nothing to free.  A cycle
that reaches a solve's frames (a caught contradiction kept with its
traceback, say) would otherwise keep the whole solve alive until the
collector ran, and the collector's pauses would land inside solves.
"""

import gc
import random

import pytest

from minuet_sudoku import (InconsistentGivens, NotWellPosed, batch_solve, brute_solve,
                           count_solutions, load_corpus, parse_grid, solve,
                           validate_report, verify_well_posed)
from minuet_sudoku.generate import STALL, dig_minimal
from minuet_sudoku.grid import Grid

from puzzles import HARD

# two 5s in row 1
CONFLICT = "55" + "." * 79


def cyclic_garbage(run) -> int:
    """The objects the cyclic collector frees after ``run()``, which runs
    with the collector off."""
    gc.collect()
    gc.disable()
    try:
        run()
        return gc.collect()
    finally:
        gc.enable()


def one_given_dropped(puzzles: list[str]) -> list[str]:
    """Each puzzle with its first given emptied."""
    out = []
    for puzzle in puzzles:
        i = puzzle.index(next(ch for ch in puzzle if ch != "."))
        out.append(puzzle[:i] + "." + puzzle[i + 1:])
    return out


def test_solves_leave_no_cyclic_garbage(hard_corpus):
    """Hard puzzles (Step 4 commits a survivor in most of them) with Phase-I
    triples off and on, the stall with its report validated, and
    conflicting givens, as text and as a grid."""
    commits = []

    def run():
        for puzzle in hard_corpus[::8]:
            for triples in (False, True):
                commits.append(solve(puzzle, phase1_triples=triples).stats.commits)
        validate_report(solve(STALL).report)
        for puzzle in (CONFLICT, Grid([5, 5] + [0] * 79, [0] * 81)):
            try:
                solve(puzzle)
            except InconsistentGivens:
                pass
            else:
                raise AssertionError("conflicting givens were solved")

    assert cyclic_garbage(run) == 0
    assert sum(commits) > len(commits)  # contradicted views were made and dropped


def test_ill_posed_solves_leave_no_cyclic_garbage(hard_corpus):
    """Hard puzzles with one given dropped go ill-posed through a stall and
    through an adoption, each followed by the oracle."""
    reasons = []

    def run():
        for puzzle in one_given_dropped(hard_corpus[::10]):
            reasons.append(solve(puzzle).reason)

    assert cyclic_garbage(run) == 0
    assert any(r.startswith("all_starters_stuck;") for r in reasons if r)
    assert any(r.startswith("adopted a completion;") for r in reasons if r)


def test_oracle_leaves_no_cyclic_garbage():
    """Every oracle entry point: verify_well_posed on unique grids, a grid
    with several solutions, a blank grid and conflicting ink (the last two
    below 17 givens), a capped count, and a brute_solve that raises."""
    multiple = parse_grid(one_given_dropped([HARD])[0])

    def run():
        for grid in (parse_grid(HARD), parse_grid(STALL), multiple, parse_grid("." * 81),
                     Grid([5, 5] + [0] * 79, [0] * 81)):
            verify_well_posed(grid)
        assert count_solutions(multiple, cap=5) == 5
        brute_solve(parse_grid(HARD))
        try:
            brute_solve(multiple)
        except NotWellPosed:
            pass
        else:
            raise AssertionError("brute_solve returned a grid with several solutions")

    assert cyclic_garbage(run) == 0


def test_dig_leaves_no_cyclic_garbage():
    assert cyclic_garbage(lambda: dig_minimal(random.Random(1))) == 0


@pytest.mark.parametrize("jobs", [1, 2])
def test_batch_leaves_no_cyclic_garbage(hard_corpus, tmp_path, jobs):
    """A batch over hard puzzles, the stall (a validated failure report) and
    an ill-posed puzzle, in this process alone and with one forked child."""
    path = tmp_path / "corpus.txt"
    path.write_text("\n".join(hard_corpus[:4] + [STALL] + one_given_dropped([HARD])) + "\n")
    corpus = load_corpus(path)
    statuses = []

    def run():
        statuses.extend(r.status for r in batch_solve(corpus, jobs=jobs).results)

    assert cyclic_garbage(run) == 0
    assert statuses == ["solved"] * 4 + ["failure", "ill_posed"]
