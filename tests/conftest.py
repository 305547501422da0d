from pathlib import Path

import pytest

from minuet_sudoku import brute_solve, load_corpus, parse_grid, serialize_grid

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
