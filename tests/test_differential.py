"""Differential tests of the solver against the oracle on arbitrary grids.

The fixed corpora hold only puzzles with one solution.  Here hypothesis
draws a seeded ``random_solution``, keeps 17-40 of its cells as givens and
sometimes overwrites one of them, so the grids are well-posed, have several
solutions, have none, or have conflicting givens, and each is written as
text in a random layout.  Every verdict of ``solve`` is checked against
``verify_well_posed``, its trace is replayed, and a seeded isomorph must give
the same status.  The examples are derandomized, so every run draws the same
grids.
"""

import random

import pytest
from hypothesis import example, given, note, settings
from hypothesis import strategies as st

from minuet_sudoku import (Grid, InconsistentGivens, brute_solve, parse_grid, replay_trace,
                           serialize_grid, solve, validate_report, verify_well_posed)
from minuet_sudoku.generate import STALL, random_isomorph, random_solution

from puzzles import TRICKY, TRICKY_SOLUTION


def units_of(cell: int) -> tuple[int, int, int]:
    """The cell's row, column and box, numbered apart from the grid module's
    tables so a clash is found without the code under test."""
    r, c = divmod(cell, 9)
    return r, 9 + c, 18 + 3 * (r // 3) + c // 3


def clashes(ink: list[int]) -> bool:
    seen = set()
    for cell, d in enumerate(ink):
        if d:
            for unit in units_of(cell):
                if (unit, d) in seen:
                    return True
                seen.add((unit, d))
    return False


def admits(grid, solution: str) -> bool:
    """Each cell of ``grid`` holds ``solution``'s digit as ink or as a
    candidate (an inked cell's mask is 0)."""
    return all(grid.solved[c] == int(d) or grid.masks[c] >> int(d) - 1 & 1
               for c, d in enumerate(solution))


@st.composite
def grids(draw) -> tuple[str, str, int]:
    """Puzzle text, the random solution it was cut from, and an isomorph
    seed.  The text keeps 17-40 cells of the solution, perhaps with one of
    them overwritten by any digit, and writes empty cells as '.' or '0' with
    whitespace between its rows."""
    solution = random_solution(random.Random(draw(st.integers(0, 2**32 - 1))))
    kept = sorted(draw(st.sets(st.integers(0, 80), min_size=17, max_size=40)))
    ink = [int(solution[c]) if c in kept else 0 for c in range(81)]
    overwrite = draw(st.none() | st.tuples(st.sampled_from(kept), st.integers(1, 9)))
    if overwrite:
        cell, digit = overwrite
        ink[cell] = digit
    empty = draw(st.sampled_from(".0"))
    gap = draw(st.sampled_from(["", "\n", " ", "\t", "\r\n"]))
    text = "".join(str(d) if d else empty for d in ink)
    text = gap.join(text[9 * r:9 * r + 9] for r in range(9))
    return text, solution, draw(st.integers(0, 2**32 - 1))


@settings(max_examples=150, derandomize=True, deadline=None, database=None)
@given(grids())
@example((STALL, serialize_grid(brute_solve(parse_grid(STALL))), 7))  # a conjecture failure
@example((TRICKY, TRICKY_SOLUTION, 7))  # solved with the joint tricks
def test_solve_agrees_with_the_oracle_on_arbitrary_grids(case):
    text, solution, iso_seed = case
    ink = [0 if ch in ".0" else int(ch) for ch in "".join(text.split())]
    note(f"puzzle: {''.join(str(d) if d else '.' for d in ink)}")
    if clashes(ink):
        with pytest.raises(InconsistentGivens):
            parse_grid(text)
        with pytest.raises(InconsistentGivens):
            solve(text)
        assert not verify_well_posed(Grid(ink)).is_well_posed
        return

    outcome = solve(text)
    wp = verify_well_posed(parse_grid(text))
    note(f"solve: {outcome.status} ({outcome.reason}); oracle: {wp.status}")
    assert outcome.start == parse_grid(text)
    assert replay_trace(outcome.start.copy(), outcome.trace) == outcome.grid
    if outcome.status == "solved":
        assert wp.is_well_posed
        assert outcome.grid.solved == wp.solution.solved
    elif outcome.status == "ill_posed":
        assert not wp.is_well_posed
    else:
        assert outcome.status == "conjecture_failure"
        validate_report(outcome.report, wp)

    # Every step but an adoption keeps every solution (solve()'s docstring).
    # So when the givens lie in the drawn solution, no rule reaches a
    # contradiction, and unless the solve adopted, it ends admitting that
    # solution.
    if all(d == int(solution[c]) for c, d in enumerate(ink) if d):
        assert outcome.status != "ill_posed" or "oracle says" in outcome.reason
        if not any(ev.rule.startswith("adopt") for ev in outcome.trace if ev.view is None):
            assert admits(outcome.grid, solution)

    iso = random_isomorph(random.Random(iso_seed))
    mapped = solve(iso.apply(serialize_grid(outcome.start)))
    assert mapped.status == outcome.status
    if outcome.status == "solved":
        assert serialize_grid(mapped.grid) == iso.apply(serialize_grid(outcome.grid))
