"""Independent backtracking oracle with singles propagation.

Used to verify well-posedness, supply ground-truth solutions for soundness
tests, and validate counterexample reports.  Deliberately shares nothing with
the deduction modules: it imports only the grid type and the topology and
bit tables.  The search builds its own candidate masks from the
inked cells alone, ignoring the grid's pencil marks, and propagates naked and
hidden singles with its own code before each branch, so it is a genuinely
independent check on the solver.  The root is built in one pass over the
ink: each of the 27 units (rows, columns, boxes) gathers its given digits,
a digit given twice in a unit is a dead end, and each empty cell starts
with the digits none of its three units holds, which is what erasing every
given from its peers would leave; ink that is not 81 digits 0-9 raises
ValueError there.  The hidden-single search rescans only the units whose
masks changed since their last scan, kept as a 27-bit set, like Step 3's
dirty structures but in its own code.
A unit scan keeps the unit's placed digits apart, so it looks for hidden
singles only among the digits of unsolved cells; that is exact because a
unit is scanned only after every placed digit is erased from its peers.
A node branches on the bivalue cell with the most bivalue peers, where
there is one: either digit there narrows the linked pairs at once, so the
searches stay small while a node costs what it did.
"""

from __future__ import annotations

from dataclasses import dataclass

from .grid import ALL_DIGITS, BIT, CELLS_OF, DIGITS_OF, PEERS, STRUCT_SET_OF, Grid

MIN_CLUES_FOR_UNIQUE = 17  # no 16-clue puzzle has a unique solution

PEER_BITS = tuple(sum(1 << p for p in PEERS[c]) for c in range(81))  # 81-bit, by cell
# row, column and box of each cell
UNITS_OF = tuple(tuple(u for u in range(27) if c in CELLS_OF[u]) for c in range(81))


class NotWellPosed(Exception):
    pass


@dataclass(frozen=True)
class WellPosedness:
    """The oracle's verdict on a puzzle, with its solution when it has one."""
    status: str  # "well_posed" | "no_solution" | "multiple_solutions"
    solution: Grid | None = None

    @property
    def is_well_posed(self) -> bool:
        return self.status == "well_posed"


def _propagate(cand: list[int], todo: list[int], dirty: int) -> bool:
    """Run naked and hidden singles on ``cand`` to a fixpoint, in place.

    A cell whose mask is one bit holds that digit.  ``todo`` lists the cells
    whose digit is not yet erased from their peers.  ``dirty`` is a 27-bit
    set of the units whose masks changed since their last hidden-single
    scan: a unit nothing has changed cannot yield a find, so only dirty
    units are scanned, lowest first.  Narrowing a cell marks its three units
    dirty.  After a unit yields a hidden single the naked singles run again
    before the remaining dirty units are scanned.

    A unit scan ORs the masks of the unit's placed cells into ``held`` and
    those of its unsolved cells into ``seen`` and ``twice``, so ``once =
    seen & ~twice`` holds only digits with one unsolved place, each of them
    a hidden single or a dead end.  This is exact: a unit is scanned only
    when ``todo`` is empty, so every placed digit is already erased from the
    unit's other cells, and ``seen | held`` is the union of all its masks.

    Returns False at a dead end: a cell with no candidate, a unit with a
    digit that fits nowhere, or a cell that is the only place of two digits.
    Each stays a dead end under any further narrowing, so the result, and
    the masks when it is True, do not depend on the scan order: they are
    those of scanning all 27 units every round.
    """
    while True:
        while todo:
            cell = todo.pop()
            b = cand[cell]
            for p in PEERS[cell]:
                m = cand[p]
                if m & b:
                    m ^= b
                    if not m:
                        return False
                    cand[p] = m
                    dirty |= STRUCT_SET_OF[p]
                    if not m & (m - 1):
                        todo.append(p)
        while dirty and not todo:
            u = (dirty & -dirty).bit_length() - 1
            dirty &= dirty - 1
            unit = CELLS_OF[u]
            held = seen = twice = 0
            for c in unit:
                m = cand[c]
                if m & (m - 1):
                    twice |= seen & m
                    seen |= m
                else:
                    held |= m
            if seen | held != ALL_DIGITS:
                return False
            once = seen & ~twice
            if once:
                for c in unit:
                    m = cand[c] & once
                    if m & (m - 1):
                        return False  # two digits with this cell as their only place
                    if m and m != cand[c]:
                        cand[c] = m
                        todo.append(c)
                        dirty |= STRUCT_SET_OF[c]
        if not todo:
            return True


def _branch_cell(cand: list[int]) -> int:
    """The cell a search node branches on, or -1 when every cell holds one digit.

    A bivalue cell (two candidates) is preferred, and among those the one
    with the most bivalue peers, ties by ascending index: a pair that sees
    many pairs settles many cells through the naked singles either branch
    forces.  With no bivalue cell, the cell with the fewest candidates, ties
    by ascending index.  The candidates are counted once, in one C-level
    pass, and the bivalue cells are read from those counts.  The choice
    changes only the order of the search: the count up to a cap, and the
    solution when it is unique, are the same for any choice.
    """
    counts = list(map(int.bit_count, cand))
    twos = []  # the bivalue cells, ascending
    pairs = 0  # 81-bit board of the bivalue cells
    c = -1
    for _ in range(counts.count(2)):
        c = counts.index(2, c + 1)
        twos.append(c)
        pairs |= 1 << c
    if not pairs:
        best = min((n for n in counts if n > 1), default=0)
        return counts.index(best) if best else -1
    pick, best = -1, -1
    for c in twos:
        score = (pairs & PEER_BITS[c]).bit_count()
        if score > best:
            pick, best = c, score
    return pick


def _root(values: list[int]) -> list[int] | None:
    """The inked cells' candidate masks at their singles fixpoint, or None at
    a dead end.

    One pass over the ink ORs each given's bit into the masks of its three
    units; a digit given twice in a unit is a dead end.  An empty cell then
    starts with the digits none of its units holds, a dead end when there is
    none, and the cells left with one candidate seed ``todo``.  These are
    the masks that erasing every given from its peers gives, so by
    ``_propagate``'s lemma the fixpoint is the same.  Raises ValueError
    unless ``values`` is 81 ints in 0-9 (bools excluded); the check rides
    on the same pass, and malformed ink raises even beside a dead end.
    """
    if len(values) != 81:
        raise ValueError(f"expected 81 cells, got {len(values)}")
    cand = [ALL_DIGITS] * 81
    used = [0] * 27  # given-digit mask per unit
    empty = []
    clash = False
    for i, d in enumerate(values):
        if d.__class__ is not int or not 0 <= d <= 9:
            raise ValueError(f"cell {i} holds {d!r}, not a digit 0-9")
        if not d:
            empty.append(i)
            continue
        b = cand[i] = BIT[d]
        r, c, x = UNITS_OF[i]
        if (used[r] | used[c] | used[x]) & b:
            clash = True
        used[r] |= b
        used[c] |= b
        used[x] |= b
    if clash:
        return None
    todo = []
    for i in empty:
        r, c, x = UNITS_OF[i]
        m = ALL_DIGITS ^ (used[r] | used[c] | used[x])
        if not m:
            return None
        cand[i] = m
        if not m & (m - 1):
            todo.append(i)
    return cand if _propagate(cand, todo, (1 << 27) - 1) else None


def _dfs(cand: list[int], budget: int, first: list[list[int]]) -> int:
    """Count the completions of a node's masks, up to ``budget``, appending
    the first one found to ``first``.

    The node branches on ``_branch_cell``'s cell, digits ascending, each
    branch on its own copy of the masks.  A node's masks are at the singles
    fixpoint, so a branch differs from them only in the branched cell and
    starts with that cell's three units dirty.
    """
    pick = _branch_cell(cand)
    if pick < 0:
        if not first:
            first.append([DIGITS_OF[m][0] for m in cand])
        return 1
    count = 0
    for d in DIGITS_OF[cand[pick]]:
        child = cand.copy()
        child[pick] = BIT[d]
        if _propagate(child, [pick], STRUCT_SET_OF[pick]):
            count += _dfs(child, budget - count, first)
            if count >= budget:
                break
    return count


def _search(values: list[int], cap: int) -> tuple[int, list[int] | None]:
    """Count completions of the inked cells up to ``cap``; return (count, first solution).

    The state is 81 candidate masks built from the inked cells alone, at the
    root by ``_root``.  Each node propagates singles, then branches on
    ``_branch_cell``'s cell (the best-linked bivalue cell, else one with the
    fewest candidates); ``_dfs`` is the node.  It is a module-level function,
    not a closure, so a search leaves no function-cell reference cycle
    behind for the cyclic garbage collector.
    """
    cand = _root(values)
    if cand is None:
        return 0, None
    first: list[list[int]] = []
    n = _dfs(cand, cap, first)
    return n, (first[0] if first else None)


def count_solutions(grid: Grid, cap: int = 2) -> int:
    """min(cap, number of completions of the inked cells).

    The grid's pencil marks are ignored.  The search propagates naked and
    hidden singles with its own code, sharing nothing with the deduction
    modules, and branches on the bivalue cell with the most bivalue peers
    (else on a cell with the fewest candidates).
    """
    if cap < 1:
        raise ValueError("cap must be >= 1")
    n, _ = _search(grid.solved, cap)
    return n


def brute_solve(grid: Grid) -> Grid:
    """The unique completion of a well-posed grid.  Raises NotWellPosed otherwise."""
    n, sol = _search(grid.solved, 2)
    if n != 1 or sol is None:
        raise NotWellPosed(f"solution count is {'0' if n == 0 else '>= 2'}")
    return Grid(sol, [0] * 81)


def verify_well_posed(grid: Grid) -> WellPosedness:
    """Classify a puzzle as WellPosed / NoSolution / MultipleSolutions.

    Fast path below 17 givens, where no puzzle has a unique solution (though
    it may have none): NoSolution when the singles from the givens dead-end
    (``_root``), conflicting ink included, and otherwise MultipleSolutions,
    with no search.  So a grid whose dead end only a search would find still
    reads MultipleSolutions; both readings mean "not well-posed", and the
    rule stands because acceptance criterion 8 forbids a search there.  From
    17 givens on, the search decides.  Like the search, this reads only the
    ink, never the grid's pencil marks.
    """
    if grid.inked_count() < MIN_CLUES_FOR_UNIQUE:
        dead = _root(grid.solved) is None
        return WellPosedness("no_solution" if dead else "multiple_solutions")
    n, sol = _search(grid.solved, 2)
    if n == 0:
        return WellPosedness("no_solution")
    if n > 1:
        return WellPosedness("multiple_solutions")
    return WellPosedness("well_posed", Grid(sol, [0] * 81))
