"""Grid topology, candidate-set algebra, and puzzle text I/O.

Cells are indexed 0..80 row-major.  A candidate set is a 9-bit mask with bit
``d-1`` standing for digit ``d``, so membership, union, intersection, removal
and cardinality are single int operations.  The 27 structures (9 rows, 9
columns, 9 boxes) also have a flat id used internally: rows 0-8, columns
9-17, boxes 18-26.
"""

from __future__ import annotations

from typing import NamedTuple

from .trace import TraceEvent

ALL_DIGITS = 0b111111111  # mask of {1..9}
BIT = (0, 1, 2, 4, 8, 16, 32, 64, 128, 256)  # BIT[d] for digit d

DIGITS_OF: tuple[tuple[int, ...], ...] = tuple(
    tuple(d for d in range(1, 10) if m & BIT[d]) for m in range(512)
)


def mask_of(digits) -> int:
    m = 0
    for d in digits:
        m |= BIT[d]
    return m


class Structure(NamedTuple):
    kind: str  # "row" | "col" | "box"
    index: int  # 0..8


ROW_OF = tuple(i // 9 for i in range(81))
COL_OF = tuple(i % 9 for i in range(81))
BOX_OF = tuple(3 * (i // 27) + (i % 9) // 3 for i in range(81))

STRUCTURES: tuple[Structure, ...] = tuple(
    [Structure("row", i) for i in range(9)]
    + [Structure("col", i) for i in range(9)]
    + [Structure("box", i) for i in range(9)]
)

CELLS_OF: tuple[tuple[int, ...], ...] = tuple(
    [tuple(9 * r + c for c in range(9)) for r in range(9)]
    + [tuple(9 * r + c for r in range(9)) for c in range(9)]
    + [
        tuple(9 * (3 * (b // 3) + dr) + 3 * (b % 3) + dc for dr in range(3) for dc in range(3))
        for b in range(9)
    ]
)

STRUCT_BITS = tuple(sum(1 << c for c in cells) for cells in CELLS_OF)  # 81-bit, by flat id

STRUCTS_OF = tuple((ROW_OF[i], 9 + COL_OF[i], 18 + BOX_OF[i]) for i in range(81))
STRUCT_SET_OF = tuple(sum(1 << s for s in STRUCTS_OF[c]) for c in range(81))  # 27-bit, by flat id

PEERS: tuple[tuple[int, ...], ...] = tuple(
    tuple(sorted((set(CELLS_OF[r]) | set(CELLS_OF[c]) | set(CELLS_OF[b])) - {i}))
    for i, (r, c, b) in enumerate(STRUCTS_OF)
)


def cells_at(s: int, positions: int) -> tuple[int, ...]:
    """The cells of structure ``s`` at the set bits of a position mask."""
    cells = CELLS_OF[s]
    return tuple(cells[i - 1] for i in DIGITS_OF[positions])


class GridError(Exception):
    """Base for puzzle-text and placement errors."""


class WrongLength(GridError):
    pass


class BadChar(GridError):
    pass


class InconsistentGivens(GridError):
    pass


class NotACandidate(GridError):
    pass


class AlreadySolved(GridError):
    pass


class ContradictionFound(Exception):
    """A grid state that admits no solution (empty cell, starved structure, or conflict)."""

    def __init__(self, kind: str, structure: Structure | None = None,
                 cell: int | None = None, digit: int | None = None):
        self.kind = kind
        self.structure = structure
        self.cell = cell
        self.digit = digit
        where = []
        if structure is not None:
            where.append(f"{structure.kind} {structure.index}")
        if cell is not None:
            where.append(f"cell {cell}")
        if digit is not None:
            where.append(f"digit {digit}")
        super().__init__(f"{kind}: " + ", ".join(where) if where else kind)


class Grid:
    """81 cells, each inked (solved) or carrying a pencil candidate mask.

    ``solved[i]`` is 0 for unsolved cells, otherwise the inked digit.
    ``masks[i]`` is the candidate mask of an unsolved cell and 0 for inked
    cells.  Ink never reverts to pencil and no operation ever adds a
    candidate back; erasing is one-way.
    """

    __slots__ = ("solved", "masks")

    def __init__(self, solved: list[int] | None = None, masks: list[int] | None = None):
        self.solved = [0] * 81 if solved is None else solved
        self.masks = [ALL_DIGITS] * 81 if masks is None else masks

    def copy(self) -> "Grid":
        return Grid(self.solved.copy(), self.masks.copy())

    def __eq__(self, other) -> bool:
        if not isinstance(other, Grid):
            return NotImplemented
        return self.solved == other.solved and self.masks == other.masks

    def candidates(self, cell: int) -> set[int]:
        return set(DIGITS_OF[self.masks[cell]])

    def is_complete(self) -> bool:
        return 0 not in self.solved

    def inked_count(self) -> int:
        return 81 - self.solved.count(0)

    def __repr__(self) -> str:
        return f"Grid({serialize_grid(self)!r})"

    def pretty(self) -> str:
        lines = []
        for r in range(9):
            if r in (3, 6):
                lines.append("------+-------+------")
            row = []
            for c in range(9):
                if c in (3, 6):
                    row.append("|")
                d = self.solved[9 * r + c]
                row.append(str(d) if d else ".")
            lines.append(" ".join(row))
        return "\n".join(lines)


_PUZZLE_CHARS = frozenset("0123456789.")
# byte -> ink: '0'-'9' to 0-9 and '.' to 0; parse_grid admits no other byte
_INK_OF_CHAR = bytes.maketrans(b"0123456789.", bytes(range(10)) + b"\0")


def parse_grid(text: str) -> Grid:
    """Parse an 81-character puzzle (digits 1-9 are givens; '.' or '0' empty).

    Whitespace and newlines are ignored.  The grid is ``grid_from_ink``'s
    for the givens.  Raises WrongLength, BadChar, or InconsistentGivens.
    """
    chars = "".join(text.split())  # str.split drops exactly what str.isspace accepts
    if not _PUZZLE_CHARS.issuperset(chars):
        bad = next(ch for ch in chars if ch not in _PUZZLE_CHARS)
        raise BadChar(f"invalid character {bad!r}")
    if len(chars) != 81:
        raise WrongLength(f"expected 81 significant characters, got {len(chars)}")
    return grid_from_ink(list(chars.encode("ascii").translate(_INK_OF_CHAR)))


def grid_from_ink(solved: list[int]) -> Grid:
    """A new grid inking ``solved``'s digits (0 for an empty cell).

    Every empty cell starts with the full candidate set minus the digits
    inked in its row, column and box.  Raises WrongLength unless ``solved``
    has 81 cells, BadChar on a cell that is not an int in 0-9 (a bool is
    not), and InconsistentGivens when a digit is inked twice in one
    structure.
    """
    if len(solved) != 81:
        raise WrongLength(f"expected 81 cells, got {len(solved)}")
    used = [0] * 27  # inked-digit mask per flat structure
    for i, d in enumerate(solved):
        if d.__class__ is not int or not 0 <= d <= 9:
            raise BadChar(f"cell {i} holds {d!r}, not a digit 0-9")
        if not d:
            continue
        b = BIT[d]
        for s in STRUCTS_OF[i]:
            if used[s] & b:
                raise InconsistentGivens(
                    f"digit {d} appears twice in {STRUCTURES[s].kind} {STRUCTURES[s].index}")
            used[s] |= b

    masks = [0] * 81
    for i in range(81):
        if not solved[i]:
            r, c, b = STRUCTS_OF[i]
            masks[i] = ALL_DIGITS & ~(used[r] | used[c] | used[b])
    return Grid(list(solved), masks)


def serialize_grid(grid: Grid) -> str:
    """81 characters: digits for inked cells, '.' for unsolved."""
    return "".join(str(d) if d else "." for d in grid.solved)


def place_ink(grid: Grid, cell: int, digit: int, *, step: str = "", rule: str = "ink",
              view: str | None = None, structure: Structure | None = None) -> TraceEvent:
    """Ink ``digit`` into ``cell`` and erase it from all 20 peers (Rule 19).

    Raises AlreadySolved or NotACandidate.  Returns the event recording the
    placement and every peer elimination it caused.
    """
    if grid.solved[cell]:
        raise AlreadySolved(f"cell {cell} already inked with {grid.solved[cell]}")
    b = BIT[digit]
    if not grid.masks[cell] & b:
        raise NotACandidate(f"digit {digit} is not a candidate of cell {cell}")
    grid.solved[cell] = digit
    masks = grid.masks
    masks[cell] = 0
    erased = []
    for p in PEERS[cell]:
        if masks[p] & b:
            masks[p] ^= b
            erased.append((p, digit))
    return TraceEvent(step, rule, view, structure, (cell,), (digit,), ((cell, digit),),
                      tuple(erased))


def block_group(grid: Grid, cells: tuple[int, ...], mask: int) -> list[tuple[int, int]]:
    """Rules 20 and 21: erase the digits of ``mask`` from every other cell of
    the structures containing all of ``cells``.  Returns the erasures as
    (cell, digit) pairs; raises ContradictionFound on a cell left empty."""
    masks = grid.masks
    erased = []
    shared = STRUCT_SET_OF[cells[0]]
    for c in cells:
        shared &= STRUCT_SET_OF[c]
    while shared:
        s = (shared & -shared).bit_length() - 1
        shared &= shared - 1
        for c in CELLS_OF[s]:
            if c in cells or not masks[c] & mask:
                continue
            erased += [(c, d) for d in DIGITS_OF[masks[c] & mask]]
            masks[c] &= ~mask
            if not masks[c]:
                raise ContradictionFound("empty_cell", cell=c)
    return erased

