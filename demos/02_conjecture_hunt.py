#!/usr/bin/env python3
"""Hunt for counterexamples: batch the hard corpus, then show what a
validated counterexample report looks like on a puzzle that really does
resist the method."""

from pathlib import Path

from minuet_sudoku import batch_solve, load_corpus, render_report, solve
from minuet_sudoku.generate import STALL

CORPORA = Path(__file__).resolve().parents[1] / "corpora"

corpus = load_corpus(CORPORA / "hard.txt")
print(f"batching {len(corpus.entries)} Step-3-resistant puzzles...")
result = batch_solve(corpus)
print(result.stats.render())

# A published 21-clue puzzle, recalled (unverified) as the one Arto Inkala
# published in 2012 as the "world's hardest sudoku": neither hypothesis of
# any starter develops far enough to matter, so every starter dances to a
# stall.  corpora/counterexamples.txt holds it and four more published ones.
print("\nnow a published hard puzzle (Inkala 2012, as recalled):")
outcome = solve(STALL)
print(f"outcome: {outcome.status} ({outcome.reason})")
print()
print(render_report(outcome.report))
