"""Basic cleanup: scan all 27 structures for naked/hidden singles, doubles and
triples, apply the blocking-rule cleanups after each find, iterate to fixpoint.

Doubles are only worth scanning in structures with 4+ unsolved cells and
triples with 6+ (anything smaller already yields a single); quadruples would
need 8+ unsolved cells and are rare enough that hunting them never pays, so
they are deliberately not implemented.

The fixpoint driver tracks dirty structures (a structure is rescanned only
after one of its cells changed), which skips provably find-free scans without
altering finds, events, or the final grid.
"""

from __future__ import annotations

from bisect import insort
from dataclasses import dataclass, field
from itertools import combinations

from .grid import (BIT, CELLS_OF, DIGITS_OF, STRUCTS_OF, STRUCTURES,
                   ContradictionFound, Grid, Structure, flat_structure, place_ink)
from .trace import TraceEvent


@dataclass(frozen=True, slots=True)
class GroupFind:
    kind: str  # naked_single | hidden_single | naked_double | hidden_double | naked_triple | hidden_triple
    structure: Structure
    cells: tuple[int, ...]
    digits: tuple[int, ...]


@dataclass(slots=True)
class FixpointRun:
    finds: list[GroupFind] = field(default_factory=list)
    finds_per_sweep: list[int] = field(default_factory=list)

    @property
    def sweeps(self) -> int:
        return len(self.finds_per_sweep)


def margin_half_doubles(grid: Grid, s: Structure) -> list[tuple[int, int, int]]:
    """Digits that are candidates in exactly two cells of the structure, as
    (digit, cellA, cellB) with digits ascending.  Recomputed on demand."""
    return _margins(grid, flat_structure(s), 2)


def _margins(grid: Grid, s: int, count: int) -> list[tuple[int, int, int]]:
    out = []
    masks = grid.masks
    for d in range(1, 10):
        b = BIT[d]
        occ = [c for c in CELLS_OF[s] if masks[c] & b]
        if len(occ) == count:
            out.append((d, *occ))
    return out


def _erase(grid: Grid, cell: int, digit: int, erased: list, touched: set) -> None:
    grid.masks[cell] &= ~BIT[digit]
    erased.append((cell, digit))
    touched.add(cell)
    if not grid.masks[cell]:
        raise ContradictionFound("empty_cell", cell=cell)


def _cleanup_group(grid: Grid, cells: tuple[int, ...], group_mask: int,
                   touched: set) -> list[tuple[int, int]]:
    """Rule 21: strip foreign candidates inside the group's cells, then erase
    the group's digits from every structure containing all of its cells."""
    erased: list[tuple[int, int]] = []
    for c in cells:
        for d in DIGITS_OF[grid.masks[c] & ~group_mask]:
            _erase(grid, c, d, erased, touched)
    common = set(STRUCTS_OF[cells[0]])
    for c in cells[1:]:
        common &= set(STRUCTS_OF[c])
    for s in sorted(common):
        for c in CELLS_OF[s]:
            if c in cells or grid.solved[c]:
                continue
            for d in DIGITS_OF[grid.masks[c] & group_mask]:
                _erase(grid, c, d, erased, touched)
    return erased


def _ink(grid, cell, digit, step, rule, s, events, view, touched) -> None:
    ev = place_ink(grid, cell, digit, step=step, rule=rule, view=view,
                   structure=STRUCTURES[s])
    events.append(ev)
    touched.add(cell)
    touched.update(c for c, _ in ev.erased)


def _scan_singles(grid: Grid, s: int, events: list, view: str | None,
                  touched: set) -> list[GroupFind]:
    finds = []
    cells = CELLS_OF[s]
    masks = grid.masks
    solved = grid.solved
    while True:
        inked_mask = 0
        for c in cells:
            if solved[c]:
                inked_mask |= BIT[solved[c]]
            elif not masks[c]:
                raise ContradictionFound("empty_cell", cell=c)
        hit = False
        for c in cells:
            m = masks[c]
            if not solved[c] and not m & (m - 1):  # single bit
                d = DIGITS_OF[m][0]
                _ink(grid, c, d, "3.1", "naked single", s, events, view, touched)
                finds.append(GroupFind("naked_single", STRUCTURES[s], (c,), (d,)))
                hit = True
                break
        if hit:
            continue
        for d in range(1, 10):
            b = BIT[d]
            if inked_mask & b:
                continue
            occ = [c for c in cells if masks[c] & b]
            if not occ:
                raise ContradictionFound("starved", structure=STRUCTURES[s], digit=d)
            if len(occ) == 1:
                _ink(grid, occ[0], d, "3.1", "hidden single", s, events, view, touched)
                finds.append(GroupFind("hidden_single", STRUCTURES[s], (occ[0],), (d,)))
                hit = True
                break
        if not hit:
            return finds


def _scan_doubles(grid: Grid, s: int, events: list, view: str | None,
                  touched: set, use_guards: bool) -> list[GroupFind]:
    cells = CELLS_OF[s]
    unsolved = [c for c in cells if not grid.solved[c]]
    if use_guards and len(unsolved) < 4:
        return []
    finds = []
    masks = grid.masks
    while True:
        hit = False
        for a, b in combinations(unsolved, 2):
            ma = masks[a]
            if ma.bit_count() != 2 or ma != masks[b]:
                continue
            erased = _cleanup_group(grid, (a, b), ma, touched)
            if erased:
                digits = DIGITS_OF[ma]
                finds.append(GroupFind("naked_double", STRUCTURES[s], (a, b), digits))
                events.append(TraceEvent("3.2", "naked double", view=view,
                                         structure=STRUCTURES[s], cells=(a, b),
                                         digits=digits, erased=tuple(erased)))
                hit = True
                break
        if hit:
            continue
        margins = _margins(grid, s, 2)
        for (d1, a1, b1), (d2, a2, b2) in combinations(margins, 2):
            if (a1, b1) != (a2, b2):
                continue
            gm = BIT[d1] | BIT[d2]
            erased = _cleanup_group(grid, (a1, b1), gm, touched)
            if erased:
                finds.append(GroupFind("hidden_double", STRUCTURES[s], (a1, b1), (d1, d2)))
                events.append(TraceEvent("3.2", "hidden double", view=view,
                                         structure=STRUCTURES[s], cells=(a1, b1),
                                         digits=(d1, d2), erased=tuple(erased)))
                hit = True
                break
        if not hit:
            return finds


def _scan_triples(grid: Grid, s: int, events: list, view: str | None,
                  touched: set, use_guards: bool) -> list[GroupFind]:
    cells = CELLS_OF[s]
    unsolved = [c for c in cells if not grid.solved[c]]
    if use_guards and len(unsolved) < 6:
        return []
    finds = []
    masks = grid.masks
    while True:
        hit = False
        small = [c for c in unsolved if masks[c].bit_count() in (2, 3)]
        for a, b, c in combinations(small, 3):
            union = masks[a] | masks[b] | masks[c]
            if union.bit_count() != 3:
                continue
            erased = _cleanup_group(grid, (a, b, c), union, touched)
            if erased:
                digits = DIGITS_OF[union]
                finds.append(GroupFind("naked_triple", STRUCTURES[s], (a, b, c), digits))
                events.append(TraceEvent("3.3", "naked triple", view=view,
                                         structure=STRUCTURES[s], cells=(a, b, c),
                                         digits=digits, erased=tuple(erased)))
                hit = True
                break
        if hit:
            continue
        occ_23 = []
        for d in range(1, 10):
            b = BIT[d]
            occ = tuple(c for c in cells if masks[c] & b)
            if 2 <= len(occ) <= 3:
                occ_23.append((d, occ))
        for (d1, o1), (d2, o2), (d3, o3) in combinations(occ_23, 3):
            spots = set(o1) | set(o2) | set(o3)
            if len(spots) != 3:
                continue
            trio = tuple(sorted(spots))
            gm = BIT[d1] | BIT[d2] | BIT[d3]
            erased = _cleanup_group(grid, trio, gm, touched)
            if erased:
                finds.append(GroupFind("hidden_triple", STRUCTURES[s], trio, (d1, d2, d3)))
                events.append(TraceEvent("3.3", "hidden triple", view=view,
                                         structure=STRUCTURES[s], cells=trio,
                                         digits=(d1, d2, d3), erased=tuple(erased)))
                hit = True
                break
        if not hit:
            return finds


def detect_singles(grid: Grid, s: Structure, *, trace: list | None = None,
                   view: str | None = None) -> list[GroupFind]:
    """Ink every naked and hidden single currently visible in the structure."""
    events = trace if trace is not None else []
    return _scan_singles(grid, flat_structure(s), events, view, set())


def detect_doubles(grid: Grid, s: Structure, *, trace: list | None = None,
                   view: str | None = None, use_guards: bool = True) -> list[GroupFind]:
    """Find and clean up naked/hidden doubles in the structure.

    Skipped when the structure has fewer than 4 unsolved cells (a double
    there would imply a single already found).  A find is reported only when
    its cleanup actually erased something.
    """
    events = trace if trace is not None else []
    return _scan_doubles(grid, flat_structure(s), events, view, set(), use_guards)


def detect_triples(grid: Grid, s: Structure, *, trace: list | None = None,
                   view: str | None = None, use_guards: bool = True) -> list[GroupFind]:
    """Find and clean up naked/hidden triples; skipped under 6 unsolved cells."""
    events = trace if trace is not None else []
    return _scan_triples(grid, flat_structure(s), events, view, set(), use_guards)


def step3_fixpoint(grid: Grid, *, use_guards: bool = True, trace: list | None = None,
                   view: str | None = None, touched: set[int] | None = None) -> FixpointRun:
    """Sweep structures (singles, then doubles, then triples each) until a
    sweep yields zero finds.  Total candidate count strictly decreases on any
    sweep with a find, so this terminates.  Raises ContradictionFound on
    states with no solution (meaningful inside minuet hypothesis views).

    A structure unchanged since its last scan cannot yield a find, so each
    sweep visits only the dirty ones: a structure dirtied ahead of the
    cursor is scanned later in the same sweep, one dirtied at or behind it
    waits for the next.  Finds, events, sweep counts and the final grid are
    exactly those of scanning all 27 structures every sweep.  ``touched``
    names the cells changed since the grid was last at a fixpoint; only
    their structures start dirty.  Without it, all 27 do.
    """
    events = trace if trace is not None else []
    run = FixpointRun()
    if touched is None:
        current = list(range(27))
    else:
        current = sorted({s for c in touched for s in STRUCTS_OF[c]})
    in_current = set(current)
    next_sweep: set[int] = set()
    while current:
        n = 0
        idx = 0
        while idx < len(current):
            s = current[idx]
            idx += 1
            in_current.discard(s)
            changed: set[int] = set()
            found = _scan_singles(grid, s, events, view, changed)
            found += _scan_doubles(grid, s, events, view, changed, use_guards)
            found += _scan_triples(grid, s, events, view, changed, use_guards)
            n += len(found)
            run.finds.extend(found)
            for c in changed:
                for ds in STRUCTS_OF[c]:
                    if ds > s and ds not in in_current:
                        insort(current, ds)
                        in_current.add(ds)
                    elif ds <= s:
                        next_sweep.add(ds)
        run.finds_per_sweep.append(n)
        current = sorted(next_sweep)
        in_current = set(current)
        next_sweep.clear()
    if not run.finds_per_sweep or run.finds_per_sweep[-1] != 0:
        run.finds_per_sweep.append(0)
    return run
