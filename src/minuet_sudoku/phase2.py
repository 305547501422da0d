"""Basic cleanup: scan all 27 structures for naked/hidden singles, doubles and
triples, apply the blocking-rule cleanups after each find, iterate to fixpoint.

Each scan of a structure reads its cells' candidate masks and a position
table built fresh from them (``grid.digit_positions``, no state kept between
scans): entry ``d`` has bit ``i`` set when ``d`` is a candidate of the
structure's ``i``-th cell.  A hidden single is a one-bit entry and a starved
digit a zero one.  A naked group is ``k`` cells whose masks span ``k``
digits, a hidden group ``k`` digits whose positions span ``k`` cells, so one
finder (``_groups``) serves both kinds and both sizes.

Groups of size ``k`` are scanned only in structures with ``2k``+ unsolved
cells (4 for doubles, 6 for triples): in a smaller one the cells outside a
group form a smaller group of the other kind, which the earlier scans look
for.  Quadruples would need 8+ unsolved cells and are rare enough that
hunting them never pays, so they are deliberately not implemented.

Every find is logged as one ``TraceEvent`` (step "3.1", "3.2" or "3.3"),
and that event is the only record of it: the detectors return the events they
appended, and ``step3_fixpoint`` counts a sweep's finds as the growth of
the trace.  It tracks dirty structures (a structure is rescanned only after
one of its cells changed), which skips provably find-free scans without
altering finds, events, or the final grid.
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


def _cleanup_group(grid: Grid, cells: tuple[int, ...], group_mask: int,
                   touched: set) -> list[tuple[int, int]]:
    """Rule 21: strip foreign candidates inside the group's cells (each keeps
    one of the group's digits), then erase the group's digits from every
    structure containing all of its cells."""
    masks = grid.masks
    erased = [(c, d) for c in cells for d in DIGITS_OF[masks[c] & ~group_mask]]
    for c in cells:
        masks[c] &= group_mask
    erased += block_group(grid, cells, group_mask)
    touched.update(c for c, _ in erased)
    return erased


def _ink(grid, cell, digit, step, rule, s, events, view, touched) -> None:
    ev = place_ink(grid, cell, digit, step=step, rule=rule, view=view,
                   structure=STRUCTURES[s])
    events.append(ev)
    touched.add(cell)
    touched.update(c for c, _ in ev.erased)


def _scan_singles(grid: Grid, s: int, events: list, view: str | None,
                  touched: set) -> None:
    cells = CELLS_OF[s]
    masks = grid.masks
    solved = grid.solved
    while True:
        inked_mask = 0
        naked = None
        for c in cells:
            m = masks[c]
            if solved[c]:
                inked_mask |= BIT[solved[c]]
            elif not m:
                raise ContradictionFound("empty_cell", cell=c)
            elif naked is None and not m & (m - 1):  # single bit
                naked = c
        if naked is not None:
            d = DIGITS_OF[masks[naked]][0]
            _ink(grid, naked, d, "3.1", "naked single", s, events, view, touched)
            continue
        pos = digit_positions(masks, s)
        for d in DIGITS_OF[ALL_DIGITS & ~inked_mask]:
            p = pos[d]
            if not p:
                raise ContradictionFound("starved", structure=STRUCTURES[s], digit=d)
            if not p & (p - 1):
                c = cells[p.bit_length() - 1]
                _ink(grid, c, d, "3.1", "hidden single", s, events, view, touched)
                break
        else:
            return


def _groups(items: list[tuple[int, int]], k: int):
    """Each k-subset of ``(key, mask)`` items, in ``combinations`` order,
    whose masks have 2..k bits each and exactly k bits together: yields the
    subset's keys and the union of its masks."""
    small = [item for item in items if 2 <= item[1].bit_count() <= k]
    for group in combinations(small, k):
        union = 0
        for _, m in group:
            union |= m
        if union.bit_count() == k:
            yield tuple(key for key, _ in group), union


def _candidate_groups(masks: list[int], s: int, unsolved: list[int], k: int):
    """Naked groups of size ``k`` in structure ``s``, then hidden ones, as
    (kind, cells, digits, group mask).  The position table is read only once
    every naked group has been offered."""
    for group, union in _groups([(c, masks[c]) for c in unsolved], k):
        yield "naked", group, DIGITS_OF[union], union
    pos = digit_positions(masks, s)
    for digits, union in _groups([(d, pos[d]) for d in range(1, 10)], k):
        yield "hidden", cells_at(s, union), digits, mask_of(digits)


def _scan_groups(grid: Grid, s: int, k: int, events: list, view: str | None,
                 touched: set, use_guards: bool) -> None:
    """Clean up (Rule 21) the first group whose cleanup erases something,
    log it, and look again, until no group erases anything."""
    unsolved = [c for c in CELLS_OF[s] if not grid.solved[c]]
    if use_guards and len(unsolved) < 2 * k:
        return
    step, size = GROUP_NAMES[k]
    while True:
        for kind, group, digits, group_mask in _candidate_groups(grid.masks, s, unsolved, k):
            erased = _cleanup_group(grid, group, group_mask, touched)
            if erased:
                events.append(TraceEvent(step, f"{kind} {size}", view=view,
                                         structure=STRUCTURES[s], cells=group,
                                         digits=digits, erased=tuple(erased)))
                break
        else:
            return


def detect_singles(grid: Grid, s: Structure, *, trace: list | None = None,
                   view: str | None = None) -> list[TraceEvent]:
    """Ink every naked and hidden single currently visible in the structure.
    Returns the events appended, one per find."""
    events = trace if trace is not None else []
    start = len(events)
    _scan_singles(grid, flat_structure(s), events, view, set())
    return events[start:]


def detect_doubles(grid: Grid, s: Structure, *, trace: list | None = None,
                   view: str | None = None, use_guards: bool = True) -> list[TraceEvent]:
    """Find and clean up naked/hidden doubles in the structure.

    Skipped when the structure has fewer than 4 unsolved cells (see the
    module docstring).  A find is logged only when its cleanup actually
    erased something.  Returns the events appended, one per find.
    """
    events = trace if trace is not None else []
    start = len(events)
    _scan_groups(grid, flat_structure(s), 2, events, view, set(), use_guards)
    return events[start:]


def detect_triples(grid: Grid, s: Structure, *, trace: list | None = None,
                   view: str | None = None, use_guards: bool = True) -> list[TraceEvent]:
    """Find and clean up naked/hidden triples; skipped under 6 unsolved cells.
    Returns the events appended, one per find."""
    events = trace if trace is not None else []
    start = len(events)
    _scan_groups(grid, flat_structure(s), 3, events, view, set(), use_guards)
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
            changed: set[int] = set()
            _scan_singles(grid, s, events, view, changed)
            for k in GROUP_NAMES:
                _scan_groups(grid, s, k, events, view, changed, use_guards)
            hit = 0
            for c in changed:
                hit |= STRUCT_SET_OF[c]
            behind = (2 << s) - 1
            dirty |= hit & ~behind
            later |= hit & behind
        n = len(events) - start
        run.finds_per_sweep.append(n)
        if not n:
            return run
        dirty = later
