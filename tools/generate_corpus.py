#!/usr/bin/env python3
"""Generate the seeded puzzle corpora under corpora/.

Builds random complete grids, digs cells while the puzzle stays uniquely
solvable, and buckets the results by which rule tier finishes them:

  easy    solvable to the end with naked/hidden singles alone
  medium  solvable by the full Step-3 fixpoint (doubles/triples needed)
  hard    Step-3-resistant: needs Step 4 (the minuet)

Every emitted puzzle is uniquely solvable by construction.  A hard puzzle is
kept whether or not the full method solves it, so the hard tier is an
unbiased sample for the failure-rate bound; the ones it fails on are also
listed in stalls.txt.  Deterministic for a fixed seed.

Usage: python tools/generate_corpus.py [--seed N] [--easy N] [--medium N] [--hard N]
                                       [--outdir DIR]
"""

from __future__ import annotations

import argparse
import random
import sys
import time
from pathlib import Path

from minuet_sudoku import solve
from minuet_sudoku.generate import dig_easy, dig_minimal, singles_solvable


def classify(puzzle: str) -> str:
    """The puzzle's tier: easy, medium or hard.  A hard puzzle is tagged
    "hard+stall" when the full method fails on it, else "hard+tricks" when
    the solve used trick (a)."""
    if singles_solvable(puzzle):
        return "easy"
    outcome = solve(puzzle)
    if outcome.status != "solved":
        return "hard+stall"
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
        easy.append(dig_easy(rng))
    print(f"easy: {len(easy)} generated", flush=True)

    medium: list[str] = []
    hard: list[str] = []
    tricky = 0
    stalls: list[str] = []
    t0 = time.time()
    tried = 0
    while len(hard) < args.hard or len(medium) < args.medium:
        tried += 1
        puzzle = dig_minimal(rng)
        tier = classify(puzzle)
        if tier == "medium" and len(medium) < args.medium:
            medium.append(puzzle)
        elif tier.startswith("hard") and len(hard) < args.hard:
            hard.append(puzzle)
            if tier == "hard+tricks":
                tricky += 1
        if tier == "hard+stall":
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
