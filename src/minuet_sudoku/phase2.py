"""Basic cleanup: scan all 27 structures for naked/hidden singles, doubles and
triples, apply the blocking-rule cleanups after each find, iterate to fixpoint.

A scan keeps no state between calls.  A structure visit (``_scan``) reads
one tally pass over its cells (``_tally``): the inked digits, empty cells,
the first naked single, the cells with 2 and with 2-3 candidates, and the
place accumulators ``seen``, ``twice``, ``thrice`` and ``four`` (digits with
at least one, two, three, four places).  A digit neither inked nor in
``twice`` is starved or a hidden single.  Once no single is left, the group
scan of size ``k`` reads the same tally: a naked group is ``k`` of the cells
with 2..k candidates whose masks span ``k`` digits, a hidden group ``k`` of
the digits with 2..k places (``twice & ~thrice`` for doubles, ``twice &
~four`` for triples) whose positions span ``k`` cells.  Positions are built
for those digits only, and only when there are ``k`` of them; the tally is
taken again only after a cleanup erases.

Groups of size ``k`` are scanned only in structures with ``2k``+ unsolved
cells (4 for doubles, 6 for triples): in a smaller one the cells outside a
group form a smaller group of the other kind, which the earlier scans look
for.  Quadruples would need 8+ unsolved cells and are rare enough that
hunting them never pays, so they are deliberately not implemented.

Every find is logged as one ``TraceEvent`` (step "3.1", "3.2" or "3.3"),
and that event is the only record of it: ``step3_fixpoint`` counts a
sweep's finds as the growth of the trace.  It tracks dirty structures (a
structure is rescanned only after one of its cells changed), which skips
provably find-free scans without altering finds, events, or the final
grid.  Each scan returns the structures its finds changed, as a 27-bit set.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations

from .grid import (ALL_DIGITS, BIT, CELLS_OF, DIGITS_OF, STRUCT_SET_OF, STRUCTURES,
                   ContradictionFound, Grid, block_group, cells_at, mask_of,
                   place_ink)
from .trace import TraceEvent

GROUP_NAMES = {2: ("3.2", "double"), 3: ("3.3", "triple")}  # size -> step, name


@dataclass(slots=True)
class FixpointRun:
    """The finds of each sweep of one ``step3_fixpoint`` call."""
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


def _tally(grid: Grid, cells: tuple[int, ...]) -> tuple:
    """One pass over a structure's cells.  Returns the inked digits, the
    first naked single (or None), the digits with one place or more and with
    two or more, and a tuple indexed by group size ``k`` (2 or 3) of the
    cells with 2..k candidates and the digits with 2..k places.  Raises on
    an empty cell."""
    masks = grid.masks
    solved = grid.solved
    inked = seen = twice = thrice = four = 0
    naked = None
    pairs, small = [], []
    for c in cells:
        m = masks[c]
        if solved[c]:
            inked |= BIT[solved[c]]
        elif not m:
            raise ContradictionFound("empty_cell", cell=c)
        else:
            four |= thrice & m
            thrice |= twice & m
            twice |= seen & m
            seen |= m
            n = m.bit_count()
            if n == 1:
                if naked is None:
                    naked = c
            elif n <= 3:
                small.append(c)
                if n == 2:
                    pairs.append(c)
    return inked, naked, seen, twice, (None, None, (pairs, twice & ~thrice),
                                       (small, twice & ~four))


def _scan(grid: Grid, s: int, events: list, view: str | None) -> int:
    """Ink singles until none is left: an empty cell raises first, then the
    lowest naked single is inked, else the lowest digit that is starved
    (raises) or a hidden single (inked).  Then run ``_scan_size`` for
    doubles and then triples, each only if the structure keeps enough
    unsolved cells (module docstring).  Returns the structures the inks and
    cleanups changed (27-bit)."""
    cells = CELLS_OF[s]
    masks = grid.masks
    hit = 0
    while True:
        inked, naked, seen, twice, by_size = _tally(grid, cells)
        if naked is not None:
            d = DIGITS_OF[masks[naked]][0]
            hit |= _ink(grid, naked, d, "3.1", "naked single", s, events, view)
            continue
        lone = ALL_DIGITS & ~(inked | twice)  # starved or hidden single
        if not lone:
            break
        b = lone & -lone
        d = b.bit_length()
        if not seen & b:
            raise ContradictionFound("starved", structure=STRUCTURES[s], digit=d)
        c = next(c for c in cells if masks[c] & b)
        hit |= _ink(grid, c, d, "3.1", "hidden single", s, events, view)
    for k in (2, 3):
        if 9 - inked.bit_count() < 2 * k:
            break  # a structure too small for doubles is too small for triples
        found, by_size = _scan_size(grid, s, k, by_size, events, view)
        hit |= found
    return hit


def _scan_size(grid: Grid, s: int, k: int, by_size: tuple, events: list,
               view: str | None) -> tuple[int, tuple]:
    """Clean up (Rule 21) the first group of size ``k`` whose cleanup erases
    something, log it, and look again, until no group erases anything.
    Groups come in ``combinations`` order of the cells with 2..k candidates
    (naked), then of the digits with 2..k places (hidden), from ``by_size``
    (``_tally``'s), which is taken again after each find.  Positions are
    built for those digits only.  Returns the structures the cleanups
    changed (27-bit) and the tallies the structure ends with."""
    masks = grid.masks
    step, size = GROUP_NAMES[k]
    hit = 0
    while True:
        small, few = by_size[k]
        erased = None
        if len(small) >= k:
            for cells in combinations(small, k):
                union = 0
                for c in cells:
                    union |= masks[c]
                if union.bit_count() == k:
                    kind, digits = "naked", DIGITS_OF[union]
                    erased = _cleanup_group(grid, cells, union)
                    if erased:
                        break
        if not erased and few.bit_count() >= k:
            pos = [0] * 10
            for i, c in enumerate(CELLS_OF[s]):
                for d in DIGITS_OF[masks[c] & few]:
                    pos[d] |= 1 << i
            for digits in combinations(DIGITS_OF[few], k):
                union = 0
                for d in digits:
                    union |= pos[d]
                if union.bit_count() == k:
                    kind, cells = "hidden", cells_at(s, union)
                    erased = _cleanup_group(grid, cells, mask_of(digits))
                    if erased:
                        break
        if not erased:
            return hit, by_size  # no group of size k erases anything
        hit |= _structures_hit(erased)
        events.append(TraceEvent(step, f"{kind} {size}", view, STRUCTURES[s],
                                 cells, digits, (), tuple(erased)))
        by_size = _tally(grid, CELLS_OF[s])[4]


def step3_fixpoint(grid: Grid, *, trace: list | None = None, view: str | None = None,
                   touched: set[int] | None = None) -> FixpointRun:
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
            hit = _scan(grid, s, events, view)
            behind = (2 << s) - 1
            dirty |= hit & ~behind
            later |= hit & behind
        n = len(events) - start
        run.finds_per_sweep.append(n)
        if not n:
            return run
        dirty = later
