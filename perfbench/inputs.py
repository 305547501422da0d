"""Workload inputs: the puzzles each workload solves, made from a seed.

`fixpoint` and `minuet` are corpus files in a seeded order.  `stall` is a
stratified set of seeded isomorphs of a 21-clue puzzle the method cannot
solve.  Nothing here times anything; `load` is the work `setup_s` measures.
"""

from __future__ import annotations

import importlib
import random
import sys
from dataclasses import dataclass
from itertools import permutations
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
CORPORA = ROOT / "corpora"

WORKLOADS = ("fixpoint", "minuet", "stall")
CORPUS_FILES = {"fixpoint": ("easy.txt", "medium.txt"), "minuet": ("hard.txt",)}

# The hand-crafted 21-clue puzzle of tests/puzzles.py (STALL) and
# demos/02_conjecture_hunt.py: every starter dances to a stall on it.
STALL = ("800000000003600000070090200050007000000045700"
         "000100030001000068008500010090000400")


class BenchError(Exception):
    """The benchmark cannot run here (missing sources or corpora)."""


def import_package():
    """Import `minuet_sudoku` from this checkout's `src/`, never from elsewhere."""
    init = SRC / "minuet_sudoku" / "__init__.py"
    if not init.is_file():
        raise BenchError(f"no package sources at {init}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    pkg = importlib.import_module("minuet_sudoku")
    if Path(pkg.__file__).resolve() != init.resolve():
        raise BenchError(f"minuet_sudoku imported from {pkg.__file__}, not {init}")
    return pkg


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


BAND_ORDERS = tuple(permutations(range(3)))


def _isomorph(rng: random.Random, bands, stacks, transpose: bool) -> Isomorph:
    rows = tuple(3 * b + r for b in bands for r in rng.sample(range(3), 3))
    cols = tuple(3 * s + c for s in stacks for c in rng.sample(range(3), 3))
    return Isomorph(tuple(rng.sample(range(1, 10), 9)), rows, cols, transpose)


def stall_isomorphs(seed: int) -> tuple[list[Isomorph], list[Isomorph], list[Isomorph]]:
    """The stall workload's isomorphs: all 108, a subset of 36, a batch of 12
    that falls into six balanced slices of two (one transposed, one not).

    Band order, stack order and transpose form 72 coarse classes, and the
    class decides most of the oracle's search time (isomorphs of one class
    differ by about 10%, classes by up to 3x).  So every set holds a fixed
    mix of classes and the seed draws the rest of each isomorph: its digit
    relabelling, rows within each band and columns within each stack, and
    the order of the 108.  The 108 are one isomorph of every class plus the
    subset.  The subset holds every (band order, stack order) pair once,
    transposed when their indices differ in parity.  The batch is the part
    of the subset whose stack order index is the band order index or the
    one after it.
    """
    rng = random.Random(seed)
    every = [(b, s, t) for b in BAND_ORDERS for s in BAND_ORDERS for t in (False, True)]
    subset = [_isomorph(rng, b, s, (i + j) % 2 == 1)
              for i, b in enumerate(BAND_ORDERS) for j, s in enumerate(BAND_ORDERS)]
    batch = [subset[6 * i + j] for i in range(6) for j in (i, (i + 1) % 6)]
    full = [_isomorph(rng, *cls) for cls in every] + subset
    rng.shuffle(full)
    return full, subset, batch


# Each round of a run goes through the workload in this many slices, and
# each slice times a little of everything (solve, oracle, batch), so that
# every metric samples the host's speed across the whole run.
SLICES = {"fixpoint": 4, "minuet": 6, "stall": 6}


@dataclass(slots=True)
class Slice:
    puzzles: list[str]  # solved and oracle-checked, in this order
    subset: list[str]  # the traced run solves these
    batch: object  # the CorpusLoad that batch_solve runs over


@dataclass(slots=True)
class Workload:
    name: str
    slices: list[Slice]
    may_stall: bool  # a validated conjecture failure is a correct outcome

    @property
    def puzzles(self) -> list[str]:
        return [p for sl in self.slices for p in sl.puzzles]


def _split(items: list, k: int) -> list[list]:
    return [items[i * len(items) // k:(i + 1) * len(items) // k] for i in range(k)]


def load(name: str, seed: int) -> Workload:
    """Import the package and load or generate the workload's puzzles."""
    if name not in WORKLOADS:
        raise BenchError(f"unknown workload {name!r}")
    import_package()
    from minuet_sudoku import grid, harness

    if name == "stall":
        full, part, batch_set = stall_isomorphs(seed)
        puzzles = [iso.apply(STALL) for iso in full]
        subset = [iso.apply(STALL) for iso in part]
        batch_texts = [iso.apply(STALL) for iso in batch_set]
        for text in puzzles:  # the validation load_corpus gives a file
            grid.parse_grid(text)
    else:
        paths = [CORPORA / f for f in CORPUS_FILES[name]]
        missing = [str(p) for p in paths if not p.is_file()]
        if missing:
            raise BenchError(f"missing corpus files: {', '.join(missing)}")
        puzzles = [e.text for p in paths for e in harness.load_corpus(p).entries]
        random.Random(seed).shuffle(puzzles)
        subset = batch_texts = puzzles
    k = SLICES[name]
    slices = []
    for i, (ps, sub, texts) in enumerate(zip(_split(puzzles, k), _split(subset, k),
                                             _split(batch_texts, k))):
        entries = [harness.CorpusEntry(j + 1, text) for j, text in enumerate(texts)]
        corpus = harness.CorpusLoad(f"<{name} seed {seed} slice {i}>", entries, [])
        slices.append(Slice(ps, sub, corpus))
    return Workload(name, slices, may_stall=(name == "stall"))
