"""Basic cleanup: scan all 27 structures for naked/hidden singles, doubles and
triples, apply the blocking-rule cleanups after each find, iterate to fixpoint.

A scan keeps no state between calls.  The singles scan makes one pass over
a structure's cells: it finds empty cells and naked singles and ORs the
masks into ``seen`` and ``twice`` (digits with one place or more, two or
more), so a digit neither inked nor in ``twice`` is starved or a hidden
single.  A naked group is ``k`` cells whose masks span ``k`` digits, a
hidden group ``k`` digits whose positions (``grid.digit_positions``) span
``k`` cells.  The group scan builds the position table only once no naked
group erased anything, and reuses it until a cleanup erases.

Groups of size ``k`` are scanned only in structures with ``2k``+ unsolved
cells (4 for doubles, 6 for triples): in a smaller one the cells outside a
group form a smaller group of the other kind, which the earlier scans look
for.  The singles scan returns the unsolved count it ends with, so
``step3_fixpoint`` skips the group scan of a structure with fewer than 4.
Quadruples would need 8+ unsolved cells and are rare enough that hunting
them never pays, so they are deliberately not implemented.

Every find is logged as one ``TraceEvent`` (step "3.1", "3.2" or "3.3"),
and that event is the only record of it: ``detect_singles`` returns the
events it appended, and ``step3_fixpoint`` counts a sweep's finds as the
growth of the trace.  It tracks dirty structures (a structure is rescanned
only after one of its cells changed), which skips provably find-free scans
without altering finds, events, or the final grid.  Each scan returns the
structures its finds changed, as a 27-bit set.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations

from .grid import (ALL_DIGITS, BIT, CELLS_OF, DIGITS_OF, STRUCT_SET_OF, STRUCTURES,
                   ContradictionFound, Grid, Structure, block_group, cells_at,
                   digit_positions, flat_structure, mask_of, place_ink)
from .trace import TraceEvent

GROUP_NAMES = {2: ("3.2", "double"), 3: ("3.3", "triple")}  # size -> step, name


@dataclass(slots=True)
class FixpointRun:
    finds_per_sweep: list[int] = field(default_factory=list)

    @property
    def sweeps(self) -> int:
        return len(self.finds_per_sweep)


def _cleanup_group(grid: Grid, cells: tuple[int, ...],
                   group_mask: int) -> list[tuple[int, int]]:
    """Rule 21: strip foreign candidates inside the group's cells (each keeps
    one of the group's digits), then erase the group's digits from every
    structure containing all of its cells."""
    masks = grid.masks
    erased = [(c, d) for c in cells for d in DIGITS_OF[masks[c] & ~group_mask]]
    for c in cells:
        masks[c] &= group_mask
    erased += block_group(grid, cells, group_mask)
    return erased


def _structures_hit(erased) -> int:
    """The 27-bit set of structures holding a cell of the (cell, digit) pairs."""
    hit = 0
    for c, _ in erased:
        hit |= STRUCT_SET_OF[c]
    return hit


def _ink(grid, cell, digit, step, rule, s, events, view) -> int:
    """Ink and log a single; returns the structures it changed (27-bit)."""
    ev = place_ink(grid, cell, digit, step=step, rule=rule, view=view,
                   structure=STRUCTURES[s])
    events.append(ev)
    return STRUCT_SET_OF[cell] | _structures_hit(ev.erased)


def _scan_singles(grid: Grid, s: int, events: list,
                  view: str | None) -> tuple[int, int]:
    """Ink singles until none is left: an empty cell raises first, then the
    lowest naked single is inked, else the lowest digit that is starved
    (raises) or a hidden single (inked).  Returns the structure's unsolved
    cell count at the end and the structures the inks changed (27-bit)."""
    cells = CELLS_OF[s]
    masks = grid.masks
    solved = grid.solved
    hit = 0
    while True:
        inked_mask = seen = twice = 0
        naked = None
        for c in cells:
            m = masks[c]
            twice |= seen & m
            seen |= m
            if solved[c]:
                inked_mask |= BIT[solved[c]]
            elif not m:
                raise ContradictionFound("empty_cell", cell=c)
            elif naked is None and not m & (m - 1):  # single bit
                naked = c
        if naked is not None:
            d = DIGITS_OF[masks[naked]][0]
            hit |= _ink(grid, naked, d, "3.1", "naked single", s, events, view)
            continue
        lone = ALL_DIGITS & ~(inked_mask | twice)  # starved or hidden single
        if not lone:
            return 9 - inked_mask.bit_count(), hit
        b = lone & -lone
        d = b.bit_length()
        if not seen & b:
            raise ContradictionFound("starved", structure=STRUCTURES[s], digit=d)
        c = next(c for c in cells if masks[c] & b)
        hit |= _ink(grid, c, d, "3.1", "hidden single", s, events, view)


def _scan_groups(grid: Grid, s: int, sizes: tuple[int, ...], events: list,
                 view: str | None, use_guards: bool) -> int:
    """For each size ``k`` in turn, clean up (Rule 21) the first group whose
    cleanup erases something, log it, and look again, until no group erases
    anything.  Groups come in ``combinations`` order of the cells (naked),
    then of the digits (hidden), with 2..k candidates or positions each and
    k together.  A position table is reused until a cleanup erases.  Returns
    the structures the cleanups changed (27-bit)."""
    masks = grid.masks
    unsolved = [c for c in CELLS_OF[s] if not grid.solved[c]]
    pos = None
    hit = 0
    for k in sizes:
        if use_guards and len(unsolved) < 2 * k:
            break  # sizes ascend, so every later size is guarded too
        step, size = GROUP_NAMES[k]
        while True:
            small = [c for c in unsolved if 2 <= masks[c].bit_count() <= k]
            for cells in combinations(small, k):
                union = 0
                for c in cells:
                    union |= masks[c]
                if union.bit_count() == k:
                    kind, digits = "naked", DIGITS_OF[union]
                    erased = _cleanup_group(grid, cells, union)
                    if erased:
                        break
            else:
                if pos is None:
                    pos = digit_positions(masks, s)
                small = [d for d in range(1, 10) if 2 <= pos[d].bit_count() <= k]
                for digits in combinations(small, k):
                    union = 0
                    for d in digits:
                        union |= pos[d]
                    if union.bit_count() == k:
                        kind, cells = "hidden", cells_at(s, union)
                        erased = _cleanup_group(grid, cells, mask_of(digits))
                        if erased:
                            break
                else:
                    break  # no group of size k erases anything
            pos = None
            hit |= _structures_hit(erased)
            events.append(TraceEvent(step, f"{kind} {size}", view, STRUCTURES[s],
                                     cells, digits, (), tuple(erased)))
    return hit


def detect_singles(grid: Grid, s: Structure, *, trace: list | None = None,
                   view: str | None = None) -> list[TraceEvent]:
    """Ink every naked and hidden single currently visible in the structure.
    Returns the events appended, one per find."""
    events = trace if trace is not None else []
    start = len(events)
    _scan_singles(grid, flat_structure(s), events, view)
    return events[start:]


def step3_fixpoint(grid: Grid, *, use_guards: bool = True, trace: list | None = None,
                   view: str | None = None, touched: set[int] | None = None) -> FixpointRun:
    """Sweep structures (singles, then doubles, then triples each) until a
    sweep yields zero finds.  Total candidate count strictly decreases on any
    sweep with a find, so this terminates.  Raises ContradictionFound on
    states with no solution (meaningful inside minuet hypothesis views).

    A structure unchanged since its last scan cannot yield a find, so each
    sweep visits only the dirty ones, lowest flat id first: a structure
    dirtied ahead of the cursor is scanned later in the same sweep, one
    dirtied at or behind it waits for the next.  Both sets are 27-bit ints.
    Finds, events, sweep counts and the final grid are exactly those of
    scanning all 27 structures every sweep.  A sweep's finds are the events
    it appended.  ``touched`` names the cells changed since the grid was last
    at a fixpoint; only their structures start dirty.  Without it, all 27 do.
    """
    events = trace if trace is not None else []
    run = FixpointRun()
    if touched is None:
        dirty = (1 << 27) - 1
    else:
        dirty = 0
        for c in touched:
            dirty |= STRUCT_SET_OF[c]
    while True:
        start = len(events)
        later = 0
        while dirty:
            s = (dirty & -dirty).bit_length() - 1
            dirty &= dirty - 1
            unsolved, hit = _scan_singles(grid, s, events, view)
            if unsolved >= 4 or not use_guards:
                hit |= _scan_groups(grid, s, (2, 3), events, view, use_guards)
            behind = (2 << s) - 1
            dirty |= hit & ~behind
            later |= hit & behind
        n = len(events) - start
        run.finds_per_sweep.append(n)
        if not n:
            return run
        dirty = later
