"""Seeded puzzle generation and grid symmetry, for the corpus generator,
the tests and the demos.

Every function draws only from the ``random.Random`` it is given, so a seed
fixes its output.  Uniqueness and the singles test are the oracle's, never
the solver's: a generated puzzle does not depend on the method it is used
to test.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .grid import PEERS, Grid, parse_grid, place_ink, serialize_grid
from .oracle import _root, count_solutions

# A published 21-clue well-posed puzzle on which every starter dances to a
# stall: a known counterexample to the conjecture.  It is, as recalled and
# unverified, the puzzle Arto Inkala published in 2012 as the "world's
# hardest sudoku".  corpora/counterexamples.txt lists it with four more.
STALL = ("800000000003600000070090200050007000000045700"
         "000100030001000068008500010090000400")


def _fill(g: Grid, i: int, rng: random.Random) -> bool:
    """Fill cells ``i``..80 of ``g`` in order, each with a shuffled
    candidate, backtracking out of dead ends; returns whether it completed.
    A module-level function, not a closure, so a fill leaves no
    function-cell reference cycle behind."""
    if i == 81:
        return True
    opts = list(g.candidates(i))
    rng.shuffle(opts)
    for d in opts:
        snap = (g.solved.copy(), g.masks.copy())
        place_ink(g, i, d)
        if all(g.masks[j] or g.solved[j] for j in range(81)):
            if _fill(g, i + 1, rng):
                return True
        g.solved, g.masks = snap
    return False


def random_solution(rng: random.Random) -> str:
    """A complete grid: cells filled in order, each with a shuffled
    candidate, backtracking out of dead ends (``_fill``)."""
    g = Grid()
    if not _fill(g, 0, rng):
        raise RuntimeError("random fill failed")
    return serialize_grid(g)


def singles_solvable(puzzle: str) -> bool:
    """True if naked and hidden singles alone finish the puzzle: the
    oracle's singles closure of the givens leaves one candidate per cell."""
    cand = _root(parse_grid(puzzle).solved)
    return cand is not None and all(not m & (m - 1) for m in cand)


def _dig(rng: random.Random, keeps) -> str:
    """Empty the cells of ``random_solution(rng)`` in random order, refilling
    any whose removal makes ``keeps(puzzle)`` false.

    A cell whose peers still hold the other eight digits is forced, so
    emptying it keeps the puzzle unique and singles-solvable without a test.
    """
    chars = list(random_solution(rng))
    order = list(range(81))
    rng.shuffle(order)
    for c in order:
        keep, chars[c] = chars[c], "."
        if len({chars[p] for p in PEERS[c]} - {"."}) == 8:
            continue
        if not keeps("".join(chars)):
            chars[c] = keep
    return "".join(chars)


def dig_minimal(rng: random.Random) -> str:
    """A minimal puzzle: every given is needed for a unique solution."""
    return _dig(rng, lambda p: count_solutions(parse_grid(p)) == 1)


def dig_easy(rng: random.Random) -> str:
    """A puzzle that singles alone finish (hence unique), minimal for that."""
    return _dig(rng, singles_solvable)


@dataclass(frozen=True, slots=True)
class Isomorph:
    """One symmetry of the 9x9 grid: cell (r, c) of the image holds the
    relabelled digit of source cell (rows[r], cols[c]), read from the
    transposed source when `transpose` is set."""
    digits: tuple[int, ...]  # digits[d - 1] is the new label of digit d
    rows: tuple[int, ...]
    cols: tuple[int, ...]
    transpose: bool

    def apply(self, text: str) -> str:
        out = []
        for r in self.rows:
            for c in self.cols:
                ch = text[9 * c + r] if self.transpose else text[9 * r + c]
                out.append("." if ch in ".0" else str(self.digits[int(ch) - 1]))
        return "".join(out)


def random_isomorph(rng: random.Random) -> Isomorph:
    """Bands, stacks, rows within a band, columns within a stack, digit
    labels and transposition, all drawn from ``rng``."""
    bands = rng.sample(range(3), 3)
    stacks = rng.sample(range(3), 3)
    rows = tuple(3 * b + r for b in bands for r in rng.sample(range(3), 3))
    cols = tuple(3 * s + c for s in stacks for c in rng.sample(range(3), 3))
    return Isomorph(tuple(rng.sample(range(1, 10), 9)), rows, cols, rng.random() < 0.5)
