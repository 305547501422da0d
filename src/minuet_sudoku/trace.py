"""Solve-log events and deterministic trace replay."""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, NamedTuple

if TYPE_CHECKING:
    from .grid import Grid, Structure


class TraceEvent(NamedTuple):
    """One applied deduction: which rule fired, where, and what it changed.

    ``step`` uses the method's step tags ("1.1", "1.2", "1.3", "2", "3.1",
    "3.2", "3.3", "4", "4a", "commit").  Events on the base grid carry
    ``view=None``; events inside a hypothesis carry "circle" or "square" and
    are ignored by :func:`replay_trace`.
    """

    step: str
    rule: str
    view: str | None = None
    structure: "Structure | None" = None
    cells: tuple[int, ...] = ()
    digits: tuple[int, ...] = ()
    inked: tuple[tuple[int, int], ...] = ()
    erased: tuple[tuple[int, int], ...] = ()


def replay_trace(grid: "Grid", events: Iterable[TraceEvent]) -> "Grid":
    """Re-apply the ink/erase deltas of all base-grid events, in order.

    Mutates ``grid`` in place and returns it.  Replaying a solve's trace
    against the puzzle it started from reproduces the final grid exactly.
    """
    solved = grid.solved
    masks = grid.masks
    for ev in events:
        if ev.view is not None:
            continue
        for cell, digit in ev.erased:
            masks[cell] &= ~(1 << (digit - 1))
        for cell, digit in ev.inked:
            solved[cell] = digit
            masks[cell] = 0
    return grid
