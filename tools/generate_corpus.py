#!/usr/bin/env python3
"""Generate the seeded puzzle corpora under corpora/.

Builds random complete grids, digs cells while the puzzle stays uniquely
solvable, and buckets the results by which rule tier finishes them:

  easy    solvable to the end with naked/hidden singles alone
  medium  solvable by the full Step-3 fixpoint (doubles/triples needed)
  hard    Step-3-resistant: needs Step 4 (the minuet)

Every emitted puzzle is uniquely solvable by construction, and every hard
puzzle is checked to be solved by the full method before it is kept.
Deterministic for a fixed seed.

Usage: python tools/generate_corpus.py [--seed N] [--easy N] [--medium N] [--hard N]
"""

from __future__ import annotations

import argparse
import random
import sys
import time
from pathlib import Path

from minuet_sudoku import (Grid, count_solutions, detect_singles, parse_grid,
                           place_ink, serialize_grid, solve)
from minuet_sudoku.grid import STRUCTURES, ContradictionFound


def random_solution(rng: random.Random) -> str:
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
    if not fill(0):
        raise RuntimeError("random fill failed")
    return serialize_grid(g)


def singles_solvable(puzzle: str) -> bool:
    """True if naked/hidden singles alone finish the puzzle."""
    g = parse_grid(puzzle)
    try:
        while True:
            found = 0
            for s in STRUCTURES:
                found += len(detect_singles(g, s))
            if not found:
                break
    except ContradictionFound:
        return False
    return g.is_complete()


def dig_minimal(solution: str, rng: random.Random) -> str:
    """Remove cells in random order while the puzzle stays uniquely solvable."""
    chars = list(solution)
    order = list(range(81))
    rng.shuffle(order)
    for c in order:
        keep = chars[c]
        chars[c] = "."
        if count_solutions(parse_grid("".join(chars)), 2) != 1:
            chars[c] = keep
    return "".join(chars)


def dig_easy(solution: str, rng: random.Random) -> str:
    """Remove cells while the puzzle stays singles-solvable (hence unique)."""
    chars = list(solution)
    order = list(range(81))
    rng.shuffle(order)
    for c in order:
        keep = chars[c]
        chars[c] = "."
        if not singles_solvable("".join(chars)):
            chars[c] = keep
    return "".join(chars)


def classify(puzzle: str) -> str:
    if singles_solvable(puzzle):
        return "easy"
    outcome = solve(puzzle)
    if outcome.status != "solved":
        return "stall"
    if outcome.stats.starters_danced == 0:
        return "medium"
    tricks = any(ev.step == "4a" for ev in outcome.trace)
    return "hard+tricks" if tricks else "hard"


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--seed", type=int, default=20240917)
    ap.add_argument("--easy", type=int, default=100)
    ap.add_argument("--medium", type=int, default=60)
    ap.add_argument("--hard", type=int, default=240)
    ap.add_argument("--outdir", default=str(Path(__file__).resolve().parents[1] / "corpora"))
    args = ap.parse_args()

    rng = random.Random(args.seed)
    outdir = Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)

    easy: list[str] = []
    while len(easy) < args.easy:
        easy.append(dig_easy(random_solution(rng), rng))
    print(f"easy: {len(easy)} generated", flush=True)

    medium: list[str] = []
    hard: list[str] = []
    tricky = 0
    stalls: list[str] = []
    t0 = time.time()
    tried = 0
    while len(hard) < args.hard or len(medium) < args.medium:
        tried += 1
        puzzle = dig_minimal(random_solution(rng), rng)
        tier = classify(puzzle)
        if tier == "medium" and len(medium) < args.medium:
            medium.append(puzzle)
        elif tier.startswith("hard") and len(hard) < args.hard:
            hard.append(puzzle)
            if tier == "hard+tricks":
                tricky += 1
        elif tier == "stall":
            stalls.append(puzzle)
        if tried % 50 == 0:
            print(f"  tried {tried}: medium {len(medium)}/{args.medium} "
                  f"hard {len(hard)}/{args.hard} (tricks {tricky}) "
                  f"stalls {len(stalls)} [{time.time() - t0:.0f}s]", flush=True)

    header = (f"# generated by tools/generate_corpus.py seed={args.seed}\n"
              "# one 81-char puzzle per line; every puzzle is uniquely solvable\n")
    (outdir / "easy.txt").write_text(
        header + "# tier: solvable with naked/hidden singles alone\n"
        + "\n".join(easy) + "\n")
    (outdir / "medium.txt").write_text(
        header + "# tier: solved by the Step-3 fixpoint, singles alone insufficient\n"
        + "\n".join(medium) + "\n")
    (outdir / "hard.txt").write_text(
        header + "# tier: Step-3-resistant, needs the minuet (Step 4)\n"
        + "\n".join(hard) + "\n")
    if stalls:
        (outdir / "stalls.txt").write_text(
            header + "# puzzles the full method failed to finish (candidate counterexamples)\n"
            + "\n".join(stalls) + "\n")
    print(f"done: {len(easy)} easy, {len(medium)} medium, {len(hard)} hard "
          f"({tricky} exercising trick (a)), {len(stalls)} stalls, "
          f"{tried} minimal puzzles tried in {time.time() - t0:.0f}s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
