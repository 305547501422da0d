"""Phase I: populate the grid with candidates.

Step 1 hunts hidden singles, half doubles and hidden doubles box by box
(rows and columns are deliberately left to Step 3).  Step 2 then fills every
cell with all digits not blocked by ink, half doubles, or doubles/triples.

The registry plays the role of the pencil marks: ``entries`` are the small
corner digits (a half double per box and digit), ``claimed`` the cells of the
big penciled hidden doubles/triples, which are closed to every other digit.

Every find is logged as one ``TraceEvent``: an ink under step "1.1" (hidden
and passive singles), a half double under "1.2", a hidden double or triple
under "1.3".  The event is the only record of a find; ``step1_fixpoint`` counts
them per pass.

Step 1 keeps asking which cells of a box are still open to a digit.  It
answers from bitboards: 81-bit ints in which bit ``c`` stands for cell ``c``.
A cell is closed to ``d`` by ink (it is inked, or its row or column holds a
``d``) or by pencil (Rules 20 and 21: it is on the line of a half double of
``d`` but not in it, or in a claim without ``d``).  Every pass of
``step1_fixpoint`` updates one :class:`_Bitboards` in place and rescans only
the (digit, box) pairs whose open cells or half double changed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache
from itertools import combinations

from .grid import (ALL_DIGITS, BIT, BOX_OF, DIGITS_OF, STRUCT_BITS, STRUCT_SET_OF,
                   STRUCTURES, STRUCTS_OF, ContradictionFound, Grid, block_group,
                   mask_of, place_ink)
from .trace import TraceEvent


CROSS_BITS = tuple(STRUCT_BITS[r] | STRUCT_BITS[k] for r, k, _ in STRUCTS_OF)
BOX_BITS = STRUCT_BITS[18:]
# Boxes crossed by each row and column, then by each cell's row and column.
BOXES_OF = tuple(sum(1 << bx for bx in range(9) if bits & BOX_BITS[bx])
                 for bits in STRUCT_BITS[:18] + CROSS_BITS)
EVERY_DIGIT = tuple(sum(1 << 9 * d + bx for d in range(1, 10)) for bx in range(9))


@dataclass(slots=True)
class Phase1Run:
    """The finds of each Step-1 pass of one ``step1_fixpoint`` call."""
    finds_per_pass: list[int] = field(default_factory=list)

    @property
    def passes(self) -> int:
        return len(self.finds_per_pass)


class HalfDoubleRegistry:
    """Phase I record of small-corner marks and big-pencil claims.

    ``entries`` maps (box, digit) to the exactly-two cells still available to
    the digit in that box.  Entries are purged as soon as the digit is inked
    or a cell becomes unavailable (Rule 22 fires at that moment).
    ``claimed`` maps each cell of a hidden double/triple to the claim's digit
    mask: the cell is closed to all other digits (Rule 21).

    Only Step 1 writes a registry: pass ``step1_fixpoint`` an empty one, or
    one an earlier ``step1_fixpoint`` filled on the same grid.  Step 2 reads it.
    """

    def __init__(self):
        self.entries: dict[tuple[int, int], tuple[int, int]] = {}
        self.claimed: dict[int, int] = {}


@cache
def _line_bits(pair: tuple[int, int]) -> tuple[int, int]:
    """Rest of the row or column holding both cells, and its boxes, or (0, 0)."""
    a, b = pair
    shared = STRUCT_SET_OF[a] & STRUCT_SET_OF[b]
    s = (shared & -shared).bit_length() - 1  # lowest id: a row, a column or the box
    if s >= 18:
        return 0, 0
    return STRUCT_BITS[s] & ~(1 << a | 1 << b), BOXES_OF[s]


def _pencil_bits(registry: HalfDoubleRegistry) -> list[int]:
    """Per digit, the cells pencil closes to it (Rules 20 and 21)."""
    pencil = [0] * 10
    for (_, d), pair in registry.entries.items():
        pencil[d] |= _line_bits(pair)[0]
    for c, m in registry.claimed.items():
        for d in DIGITS_OF[ALL_DIGITS & ~m]:
            pencil[d] |= 1 << c
    return pencil


class _Bitboards:
    """Step 1's view of the grid and registry, updated in place by every ink
    and registry change, which must go through the methods below.  ``inked``,
    ``ink_lines[d]`` and ``pencil[d]`` hold the inked cells, the rows and
    columns holding a ``d`` and the cells pencil closes to ``d``.  Pair masks
    (bit ``9 * d + bx`` for digit ``d`` in box ``bx``) hold the pairs whose
    box holds the digit (``held``) and those whose open cells or half double
    changed since their last scan (``stale``: every pair at first, later
    never a held one)."""

    __slots__ = ("grid", "registry", "inked", "ink_lines", "pencil", "held", "stale")

    def __init__(self, grid: Grid, registry: HalfDoubleRegistry):
        self.grid, self.registry = grid, registry
        self.inked, self.held, self.ink_lines = 0, 0, [0] * 10
        for c, d in enumerate(grid.solved):
            if d:
                self.inked |= 1 << c
                self.ink_lines[d] |= CROSS_BITS[c]
                self.held |= 1 << 9 * d + BOX_OF[c]
        self.pencil = _pencil_bits(registry)
        self.stale = sum(EVERY_DIGIT)

    def _mark(self, pairs: int) -> None:
        self.stale |= pairs & ~self.held

    def ink(self, bx: int, cell: int, d: int, rule: str) -> TraceEvent:
        ev = place_ink(self.grid, cell, d, step="1.1", rule=rule,
                       structure=STRUCTURES[18 + bx])
        self.inked |= 1 << cell
        self.ink_lines[d] |= CROSS_BITS[cell]
        self.held |= 1 << 9 * d + bx
        self._mark(EVERY_DIGIT[bx] | BOXES_OF[18 + cell] << 9 * d)
        return ev

    def record(self, bx: int, d: int, pair: tuple[int, int]) -> None:
        self.registry.entries[(bx, d)] = pair
        bits, boxes = _line_bits(pair)
        self.pencil[d] |= bits
        self._mark(boxes << 9 * d)

    def forget(self, bx: int, d: int) -> None:
        # Nothing to reopen (the lemma in step1_fixpoint's docstring).
        self.registry.entries.pop((bx, d), None)

    def claim(self, bx: int, cells: tuple[int, ...], digits: tuple[int, ...], rule: str,
              events: list) -> None:
        """Pencil a hidden double or triple: strip every other digit from its
        cells, close them to those digits (Rule 21), then apply Rule 22.

        Rule 21 also closes the rest of the claim's line to its own digits,
        but that is already closed.  Lemma: the claim is formed from a live
        entry per claim digit with its pair inside ``cells``, so on that
        line.  The entry lives until its digit is inked at a claim cell
        (``step1_fixpoint``), whose row and column then close the line."""
        masks, gm, erased = self.grid.masks, mask_of(digits), []
        for c in cells:
            self.registry.claimed[c] = gm
            for dx in DIGITS_OF[masks[c] & ~gm]:
                masks[c] &= ~BIT[dx]
                erased.append((c, dx))
        for d in DIGITS_OF[ALL_DIGITS & ~gm]:
            self.pencil[d] |= sum(1 << c for c in cells)
            self._mark(1 << 9 * d + bx)
        events.append(TraceEvent("1.3", rule, structure=STRUCTURES[18 + bx],
                                 cells=cells, digits=digits, erased=tuple(erased)))
        _eager_rule22(self, events)


def _eager_rule22(boards: _Bitboards, events: list) -> None:
    """Rule 22, applied as soon as a half-double (or claimed) cell becomes
    unavailable: the surviving cell and digit are a hidden single.  A walk
    checks every entry and claimed cell; one unchanged since the last walk
    was consistent then, so checking it again finds nothing."""
    grid, registry = boards.grid, boards.registry
    changed = True
    while changed:
        changed = False
        for (bx, d), (a, b) in list(registry.entries.items()):
            if boards.held >> 9 * d + bx & 1:
                boards.forget(bx, d)
                continue
            closed = boards.inked | boards.ink_lines[d] | boards.pencil[d]
            a_ok, b_ok = not closed >> a & 1, not closed >> b & 1
            if a_ok and b_ok:
                continue
            if not a_ok and not b_ok:
                raise ContradictionFound("starved", structure=STRUCTURES[18 + bx], digit=d)
            events.append(boards.ink(bx, a if a_ok else b, d, "passive single"))
            boards.forget(bx, d)
            changed = True
        for c in sorted(registry.claimed):
            if grid.solved[c]:
                continue
            m = grid.masks[c]
            if not m:
                raise ContradictionFound("empty_cell", cell=c)
            if not m & (m - 1):
                events.append(boards.ink(BOX_OF[c], c, DIGITS_OF[m][0], "passive single"))
                changed = True


def _try_corollaries(boards: _Bitboards, bx: int, d: int, pair: tuple[int, int],
                     triples_enabled: bool, events: list) -> None:
    """Corollary 13a (two half doubles on the same two cells are a hidden
    double) and, optionally, Corollary 16a for hidden triples.

    No claim can share a cell with an earlier one.  Lemma: a claim closes
    its cells to other digits and Rule 22 runs before ``claim`` returns, so
    no live entry holds a cell claimed without its digit.  A claim digit's
    open cells stay inside its entry's pair, so it is never recorded again.
    So ``pair`` holds no claimed cell, and spots holding one are four."""
    registry = boards.registry
    for d2 in range(1, 10):
        if d2 != d and registry.entries.get((bx, d2)) == pair:
            boards.claim(bx, pair, tuple(sorted((d, d2))), "hidden double", events)
            return
    if not triples_enabled:
        return
    others = [(dd, p) for (bb, dd), p in registry.entries.items() if bb == bx and dd != d]
    for (d2, p2), (d3, p3) in combinations(others, 2):
        spots = set(pair) | set(p2) | set(p3)
        if len(spots) != 3:
            continue
        boards.claim(bx, tuple(sorted(spots)), tuple(sorted((d, d2, d3))), "hidden triple",
                     events)
        return


def _pass(boards: _Bitboards, triples_enabled: bool, events: list) -> None:
    """One Step-1 pass: scan the stale (digit, box) pairs in (digit 1..9) x
    (box 0..8) order.  A pair marked stale behind the scan waits for the next."""
    registry, ink_lines, pencil, pos = boards.registry, boards.ink_lines, boards.pencil, 0
    while stale := boards.stale >> pos << pos:
        low = stale & -stale
        boards.stale ^= low
        pos = low.bit_length()
        d, bx = divmod(pos - 1, 9)
        if boards.held & low:
            boards.forget(bx, d)
            continue
        open_bits = BOX_BITS[bx] & ~(boards.inked | ink_lines[d] | pencil[d])
        n = open_bits.bit_count()
        if not n:
            raise ContradictionFound("starved", structure=STRUCTURES[18 + bx], digit=d)
        if n == 1:
            events.append(boards.ink(bx, open_bits.bit_length() - 1, d, "hidden single"))
            boards.forget(bx, d)
            _eager_rule22(boards, events)
        elif n == 2:
            pair = ((open_bits & -open_bits).bit_length() - 1, open_bits.bit_length() - 1)
            if registry.entries.get((bx, d)) == pair:
                continue
            boards.record(bx, d, pair)
            events.append(TraceEvent("1.2", "half double", structure=STRUCTURES[18 + bx],
                                     cells=pair, digits=(d,)))
            _try_corollaries(boards, bx, d, pair, triples_enabled, events)


def step1_fixpoint(grid: Grid, registry: HalfDoubleRegistry,
                   triples_enabled: bool = False, *, trace: list | None = None) -> Phase1Run:
    """Repeat Step-1 passes on one set of bitboards until a pass finds nothing.

    ``registry`` is empty, or was filled by an earlier ``step1_fixpoint`` on
    this grid (rerunning Step 1 on its own registry finds nothing new).

    Forgetting a half double reopens no cell.  Lemma: Step 1 forgets an entry
    only after its digit is inked in the box at one of the pair's cells, so
    ``ink_lines[d]`` already closes the rest of the pair's line.  The pair
    was the box's only open cells for the digit, open sets only shrink, and
    Step 1 inks a hidden single or an entry's passive single at an open
    cell.  A claimed cell's passive single could land off the pair only on a
    grid with no solution, where the line then stays closed: every Step-1
    find keeps every solution, and the pair holds the digit's cell in each.
    """
    events = trace if trace is not None else []
    boards, run = _Bitboards(grid, registry), Phase1Run()
    while not run.finds_per_pass or run.finds_per_pass[-1]:
        start = len(events)
        _pass(boards, triples_enabled, events)
        run.finds_per_pass.append(len(events) - start)
    return run


def step2_fill(grid: Grid, registry: HalfDoubleRegistry,
               *, trace: list | None = None) -> None:
    """Prune every cell down to its non-blocked candidates and ink naked singles.

    Ink blockages are already reflected in the masks; this applies the
    pencil-mark blockages: a half double erases its digit from every
    structure containing both of its cells (Rule 20).  It is very important
    not to miss any candidates, so nothing else is erased.  Raises
    ContradictionFound if a cell ends up empty.

    A claim's block (Rule 21) would erase nothing more.  Each claim digit's
    entry has its pair inside the claim (``_Bitboards.claim``): while it
    lives, its block covers the claim's structures, and once its digit is
    inked at a claim cell, the ink has erased it from all their cells.
    """
    events = trace if trace is not None else []
    masks = grid.masks
    for (bx, d), pair in registry.entries.items():
        erased = block_group(grid, pair, BIT[d])
        if erased:
            events.append(TraceEvent("2", "half double block", structure=STRUCTURES[18 + bx],
                                     cells=pair, digits=(d,), erased=tuple(erased)))
    for c in range(81):
        if grid.solved[c]:
            continue
        m = masks[c]
        if not m:
            raise ContradictionFound("empty_cell", cell=c)
        if not m & (m - 1):
            ev = place_ink(grid, c, DIGITS_OF[m][0], step="2", rule="naked single")
            events.append(ev)
