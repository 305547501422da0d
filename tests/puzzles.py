"""Frozen fixture puzzles.

Each pair was generated with a seeded random dig and verified uniquely
solvable with the brute-force oracle; solutions were frozen from the oracle's
output.  Tiers: EASY solves in Phase I + singles, MEDIUM needs the full
Step-3 fixpoint, HARD needs the minuet, TRICKY exercises the joint
elimination tricks, STALL resists the whole method (a known candidate
counterexample: hand-crafted to defeat assumption-plus-propagation solving).

``Isomorph`` maps a puzzle to an equivalent one; ``random_isomorph`` draws
one from a seeded ``random.Random``.
"""

import random
from dataclasses import dataclass

EASY = ("530070000600195000098000060800060003400803001"
        "700020006060000280000419005000080079")
EASY_SOLUTION = ("534678912672195348198342567859761423426853791"
                 "713924856961537284287419635345286179")

MEDIUM = ("....3.48..6......1..2.8...5.....1.7...4.6.91.3"
          ".......6.....3...4.5.9....2.9...7..")
MEDIUM_SOLUTION = ("951632487863574291742189635698451372524367918"
                   "317928546176243859485796123239815764")

HARD = (".9..2.6.....7...45.851......1..3.5...5.2...839"
        ".7......8.3.1...6.6........7...31..")
HARD_SOLUTION = ("794325618621798345385164279218439567456271983"
                 "937856421843912756169547832572683194")

TRICKY = (".4.9..7.1...4...86.25..1....7.............6..5"
          "91..4.....7.9...58....51....3.2...8")
TRICKY_SOLUTION = ("648953721139472586725681349276538914384719652"
                   "591264873417896235862345197953127468")

STALL = ("800000000003600000070090200050007000000045700"
         "000100030001000068008500010090000400")


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
