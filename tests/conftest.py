import random
from pathlib import Path

import pytest

from minuet_sudoku import (Grid, brute_solve, count_solutions, load_corpus, parse_grid,
                           place_ink, serialize_grid)
from minuet_sudoku.grid import PEERS

CORPORA = Path(__file__).resolve().parents[1] / "corpora"


@pytest.fixture(scope="session")
def easy_corpus():
    return [e.text for e in load_corpus(CORPORA / "easy.txt").entries]


@pytest.fixture(scope="session")
def medium_corpus():
    return [e.text for e in load_corpus(CORPORA / "medium.txt").entries]


@pytest.fixture(scope="session")
def hard_corpus():
    return [e.text for e in load_corpus(CORPORA / "hard.txt").entries]


@pytest.fixture(scope="session")
def full_corpus(easy_corpus, medium_corpus, hard_corpus):
    return easy_corpus + medium_corpus + hard_corpus


@pytest.fixture(scope="session")
def solutions(full_corpus):
    """Ground-truth completions from the brute-force oracle, keyed by puzzle."""
    return {p: serialize_grid(brute_solve(parse_grid(p))) for p in full_corpus}


def random_full_grid(rng: random.Random) -> str:
    """A uniformly scrambled complete grid (test helper, oracle-free)."""
    g = Grid()
    def fill(i: int) -> bool:
        if i == 81:
            return True
        opts = list(g.candidates(i))
        rng.shuffle(opts)
        for d in opts:
            snap = (g.solved.copy(), g.masks.copy())
            place_ink(g, i, d)
            if all(g.masks[j] or g.solved[j] for j in range(81)):
                if fill(i + 1):
                    return True
            g.solved, g.masks = snap
        return False
    assert fill(0)
    return serialize_grid(g)


def dig_minimal(rng: random.Random) -> str:
    """Empty the cells of a random full grid in random order, refilling any
    whose removal would leave more than one solution: a minimal puzzle.

    A cell whose peers still hold the other eight digits is forced, so
    emptying it keeps the puzzle unique without a search."""
    chars = list(random_full_grid(rng))
    order = list(range(81))
    rng.shuffle(order)
    for c in order:
        keep, chars[c] = chars[c], "."
        if len({chars[p] for p in PEERS[c]} - {"."}) == 8:
            continue
        if count_solutions(parse_grid("".join(chars))) != 1:
            chars[c] = keep
    return "".join(chars)
