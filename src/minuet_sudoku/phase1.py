"""Phase I: populate the grid with candidates.

Step 1 hunts hidden singles, half doubles and hidden doubles box by box
(rows and columns are deliberately left to Step 3).  Step 2 then fills every
cell with all digits not blocked by ink, half doubles, or doubles/triples.

The registry plays the role of the pencil marks: ``entries`` are the small
corner digits (a half double per box and digit), ``claim_groups`` the big
penciled hidden doubles/triples, which make their cells unavailable to every
other digit.

Every find is logged as one ``TraceEvent``: an ink under step "1.1" (hidden
and passive singles), a half double under "1.2", a hidden double or triple
under "1.3".  The event is the only record of a find; ``step1_scan`` returns
the events its pass appended, and ``step1_fixpoint`` counts them per pass.

Step 1 keeps asking which cells of a box are still open to a digit.  It
answers from bitboards: 81-bit ints in which bit ``c`` stands for cell ``c``.
Each ``step1_scan`` call builds a :class:`_Bitboards` from the grid in one
pass, so grids and registries changed between calls are picked up.  A cell
is closed to ``d`` by ink (the cell is inked, or its row or column holds a
``d``) or by pencil (it lies on the line of a half double or claim group of
``d`` without belonging to it, Rules 20 and 21, or a claim closes it to
``d``).  The ink part is updated at every Phase-I ink.  The pencil part is
computed per digit on demand and cached; a digit's entry is dropped when its
half doubles change, and every entry when a claim is added.  The open cells
of box ``bx`` are ``BOX & ~(inked | ink_lines[d] | pencil[d])``, read in
ascending cell order so that finds come out in scan order.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations

from .grid import (BIT, BOX_OF, CELLS_OF, COL_OF, DIGITS_OF, ROW_OF, STRUCT_BITS,
                   STRUCTS_OF, ContradictionFound, Grid, Structure, block_group, mask_of,
                   place_ink)
from .trace import TraceEvent


CROSS_BITS = tuple(STRUCT_BITS[r] | STRUCT_BITS[k] for r, k, _ in STRUCTS_OF)


@dataclass(slots=True)
class Phase1Run:
    finds_per_pass: list[int] = field(default_factory=list)

    @property
    def passes(self) -> int:
        return len(self.finds_per_pass)


class HalfDoubleRegistry:
    """Phase I record of small-corner marks and big-pencil claims.

    ``entries`` maps (box, digit) to the exactly-two cells still available to
    the digit in that box.  Entries are purged as soon as the digit is inked
    or a cell becomes unavailable (Rule 22 fires at that moment).
    ``claim_groups`` holds hidden doubles/triples: their cells are closed to
    all other digits (Rule 21).
    """

    def __init__(self):
        self.entries: dict[tuple[int, int], tuple[int, int]] = {}
        self.claim_groups: list[tuple[tuple[int, ...], int]] = []
        self.claimed: dict[int, int] = {}

    def claim(self, cells: tuple[int, ...], mask: int) -> None:
        self.claim_groups.append((cells, mask))
        for c in cells:
            self.claimed[c] = mask


def _pencil_bits(registry: HalfDoubleRegistry, d: int) -> int:
    """Cells closed to ``d`` by pencil marks: the rest of the row or column
    holding a half double or claim group of ``d`` (Rules 20/21), and claimed
    cells whose claim excludes ``d``."""
    b = BIT[d]
    groups = [pair for (_, dd), pair in registry.entries.items() if dd == d]
    groups += [cells for cells, m in registry.claim_groups if m & b]
    bits = 0
    for cells in groups:
        own = 0
        for c in cells:
            own |= 1 << c
        line = STRUCT_BITS[ROW_OF[cells[0]]]
        if own & ~line:
            line = STRUCT_BITS[9 + COL_OF[cells[0]]]
        if not own & ~line:
            bits |= line & ~own
    for c, m in registry.claimed.items():
        if not m & b:
            bits |= 1 << c
    return bits


class _Bitboards:
    """The grid and registry as seen by one Step-1 scan.

    ``inked`` holds every inked cell; ``ink_lines[d]`` every cell in a row or
    column that holds a ``d``; ``ink_boxes[d]`` bit ``bx`` when box ``bx``
    holds a ``d``.  Inks and registry changes made during the scan must go
    through the methods below, which keep these and the pencil cache current.
    """

    __slots__ = ("grid", "registry", "inked", "ink_lines", "ink_boxes", "pencil")

    def __init__(self, grid: Grid, registry: HalfDoubleRegistry):
        self.grid = grid
        self.registry = registry
        self.inked = 0
        self.ink_lines = [0] * 10
        self.ink_boxes = [0] * 10
        for c, d in enumerate(grid.solved):
            if d:
                self.inked |= 1 << c
                self.ink_lines[d] |= CROSS_BITS[c]
                self.ink_boxes[d] |= 1 << BOX_OF[c]
        self.pencil: list[int | None] = [None] * 10

    def holds(self, bx: int, d: int) -> bool:
        return bool(self.ink_boxes[d] >> bx & 1)

    def closed(self, d: int) -> int:
        pencil = self.pencil[d]
        if pencil is None:
            pencil = self.pencil[d] = _pencil_bits(self.registry, d)
        return self.inked | self.ink_lines[d] | pencil

    def open_cells(self, bx: int, d: int) -> int:
        return STRUCT_BITS[18 + bx] & ~self.closed(d)

    def ink(self, bx: int, cell: int, d: int, rule: str) -> TraceEvent:
        ev = place_ink(self.grid, cell, d, step="1.1", rule=rule,
                       structure=Structure("box", bx))
        self.inked |= 1 << cell
        self.ink_lines[d] |= CROSS_BITS[cell]
        self.ink_boxes[d] |= 1 << BOX_OF[cell]
        return ev

    def record(self, bx: int, d: int, pair: tuple[int, int]) -> None:
        self.registry.entries[(bx, d)] = pair
        self.pencil[d] = None

    def forget(self, bx: int, d: int) -> None:
        if self.registry.entries.pop((bx, d), None) is not None:
            self.pencil[d] = None

    def claim(self, cells: tuple[int, ...], mask: int) -> None:
        self.registry.claim(cells, mask)
        self.pencil = [None] * 10


def available_cells(grid: Grid, registry: HalfDoubleRegistry, box: Structure,
                    d: int) -> set[int]:
    """Cells of the box still open to ``d``: not inked, not closed off by a
    claimed double/triple, and not covered by a row/column that blocks ``d``."""
    if box.kind != "box":
        raise ValueError("available_cells scans boxes only")
    bx = box.index
    boards = _Bitboards(grid, registry)
    if boards.holds(bx, d):
        raise ValueError(f"digit {d} is already inked in box {bx}")
    open_bits = boards.open_cells(bx, d)
    return {c for c in CELLS_OF[18 + bx] if open_bits >> c & 1}


def _eager_rule22(boards: _Bitboards, events: list) -> None:
    """Rule 22, applied as soon as a half-double (or claimed) cell becomes
    unavailable: the surviving cell and digit are a hidden single."""
    grid, registry = boards.grid, boards.registry
    changed = True
    while changed:
        changed = False
        for (bx, d), (a, b) in list(registry.entries.items()):
            if boards.holds(bx, d):
                boards.forget(bx, d)
                continue
            closed = boards.closed(d)
            a_ok = not closed >> a & 1
            b_ok = not closed >> b & 1
            if a_ok and b_ok:
                continue
            boards.forget(bx, d)
            if not a_ok and not b_ok:
                raise ContradictionFound("starved", structure=Structure("box", bx), digit=d)
            target = a if a_ok else b
            events.append(boards.ink(bx, target, d, "passive single"))
            changed = True
        for c in sorted(registry.claimed):
            if grid.solved[c]:
                continue
            m = grid.masks[c]
            if not m:
                raise ContradictionFound("empty_cell", cell=c)
            if not m & (m - 1):
                d = DIGITS_OF[m][0]
                events.append(boards.ink(BOX_OF[c], c, d, "passive single"))
                changed = True


def _claim(boards: _Bitboards, bx: int, cells: tuple[int, ...], digits: tuple[int, ...],
           rule: str, events: list) -> None:
    """Pencil a hidden double or triple: strip every other digit from its
    cells, close them to those digits (Rule 21), then apply Rule 22."""
    masks = boards.grid.masks
    gm = mask_of(digits)
    erased = []
    for c in cells:
        for dx in DIGITS_OF[masks[c] & ~gm]:
            masks[c] &= ~BIT[dx]
            erased.append((c, dx))
    boards.claim(cells, gm)
    events.append(TraceEvent("1.3", rule, structure=Structure("box", bx),
                             cells=cells, digits=digits, erased=tuple(erased)))
    _eager_rule22(boards, events)


def _try_corollaries(boards: _Bitboards, bx: int, d: int, pair: tuple[int, int],
                     triples_enabled: bool, events: list) -> None:
    """Corollary 13a (two half doubles on the same two cells are a hidden
    double) and, optionally, Corollary 16a for hidden triples."""
    registry = boards.registry
    if any(c in registry.claimed for c in pair):
        return
    for d2 in range(1, 10):
        if d2 != d and registry.entries.get((bx, d2)) == pair:
            _claim(boards, bx, pair, tuple(sorted((d, d2))), "hidden double", events)
            return
    if not triples_enabled:
        return
    others = [(dd, p) for (bb, dd), p in registry.entries.items()
              if bb == bx and dd != d]
    for (d2, p2), (d3, p3) in combinations(others, 2):
        spots = set(pair) | set(p2) | set(p3)
        if len(spots) != 3 or any(c in registry.claimed for c in spots):
            continue
        _claim(boards, bx, tuple(sorted(spots)), tuple(sorted((d, d2, d3))),
               "hidden triple", events)
        return


def step1_scan(grid: Grid, registry: HalfDoubleRegistry, triples_enabled: bool = False,
               *, trace: list | None = None) -> list[TraceEvent]:
    """One full pass over (digit 1..9) x (box 0..8), applying finds in place.

    Returns the events this pass appended, one per find.  An unchanged half
    double re-registers silently; only new registrations, inks and claims
    count as finds.  Raises ContradictionFound when a digit has no available
    cell in a box that does not contain it.
    """
    events = trace if trace is not None else []
    start = len(events)
    boards = _Bitboards(grid, registry)
    for d in range(1, 10):
        for bx in range(9):
            if boards.holds(bx, d):
                boards.forget(bx, d)
                continue
            open_bits = boards.open_cells(bx, d)
            n = open_bits.bit_count()
            if not n:
                raise ContradictionFound("starved", structure=Structure("box", bx), digit=d)
            if n == 1:
                cell = open_bits.bit_length() - 1
                boards.forget(bx, d)
                events.append(boards.ink(bx, cell, d, "hidden single"))
                _eager_rule22(boards, events)
            elif n == 2:
                pair = ((open_bits & -open_bits).bit_length() - 1, open_bits.bit_length() - 1)
                if registry.entries.get((bx, d)) == pair:
                    continue
                boards.record(bx, d, pair)
                events.append(TraceEvent("1.2", "half double",
                                         structure=Structure("box", bx),
                                         cells=pair, digits=(d,)))
                _try_corollaries(boards, bx, d, pair, triples_enabled, events)
    return events[start:]


def step1_fixpoint(grid: Grid, registry: HalfDoubleRegistry,
                   triples_enabled: bool = False, *, trace: list | None = None) -> Phase1Run:
    """Repeat step1_scan until a pass yields no new finds (usually 2-3 passes)."""
    events = trace if trace is not None else []
    run = Phase1Run()
    while True:
        finds = step1_scan(grid, registry, triples_enabled, trace=events)
        run.finds_per_pass.append(len(finds))
        if not finds:
            break
    return run


def step2_fill(grid: Grid, registry: HalfDoubleRegistry,
               *, trace: list | None = None) -> list[TraceEvent]:
    """Prune every cell down to its non-blocked candidates and ink naked singles.

    Ink blockages are already reflected in the masks; this applies the
    pencil-mark blockages: a half double erases its digit from every
    structure containing both of its cells (Rule 20), and a claimed double or
    triple erases its digits from every structure containing all of its cells
    (Rule 21).  It is very important not to miss any candidates, so nothing
    else is erased.  Raises ContradictionFound if a cell ends up empty.
    """
    events = trace if trace is not None else []
    masks = grid.masks
    blocks = [(pair, BIT[d], "half double block", Structure("box", bx))
              for (bx, d), pair in registry.entries.items()]
    blocks += [(cells, gm, "double block" if len(cells) == 2 else "triple block", None)
               for cells, gm in registry.claim_groups]
    for cells, gm, rule, structure in blocks:
        erased = block_group(grid, cells, gm)
        if erased:
            events.append(TraceEvent("2", rule, structure=structure, cells=cells,
                                     digits=DIGITS_OF[gm], erased=tuple(erased)))
    for c in range(81):
        if grid.solved[c]:
            continue
        m = masks[c]
        if not m:
            raise ContradictionFound("empty_cell", cell=c)
        if not m & (m - 1):
            ev = place_ink(grid, c, DIGITS_OF[m][0], step="2", rule="naked single")
            events.append(ev)
    return events
