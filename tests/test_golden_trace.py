"""Golden trace gate: every corpus solve, event by event, against a frozen digest.

Solves all 400 corpus puzzles with ``phase1_triples`` off and on and hashes
each trace event field by field, the final ink and candidate masks and the
status.  The digest was computed from the per-cell Phase I scan, so a
representation change in Phase I or Step 3 must reproduce every event, in
order, to pass.

No corpus solve reaches a conjecture failure, so a second digest covers that
path: ``STALL`` and 24 seeded isomorphs of it, hashing besides the above the
``SolveStats`` and the ``FailureReport``.  Every starter is danced there,
not only those that progress.
"""

import dataclasses
import hashlib
import json
import random

import pytest

from minuet_sudoku import solve
from minuet_sudoku.generate import STALL, random_isomorph

GOLDEN = {
    False: "a7486d20a16a5102b907c7d069c8e28c664354b5952e85ed536fc3ab28d44fa7",
    True: "2722a68f704c34ca323b19f18acd2eea7c7d46507e8695242045c0c49ec7b145",
}

GOLDEN_STALL = {
    False: "54b1ed30f26f7071834c696b05e4d0b2b092d99676aecbbf1741c783931de88a",
    True: "54b1ed30f26f7071834c696b05e4d0b2b092d99676aecbbf1741c783931de88a",
}


def _event_line(ev) -> str:
    structure = None if ev.structure is None else (ev.structure.kind, ev.structure.index)
    return repr((ev.step, ev.rule, ev.view, structure, ev.cells, ev.digits,
                 ev.inked, ev.erased))


def _update(h, puzzle, outcome) -> None:
    h.update(f"puzzle {puzzle}\n".encode())
    for ev in outcome.trace:
        h.update(_event_line(ev).encode() + b"\n")
    h.update(f"status {outcome.status}\n".encode())
    h.update(f"solved {outcome.grid.solved}\n".encode())
    h.update(f"masks {outcome.grid.masks}\n".encode())


def corpus_digest(puzzles, triples: bool) -> str:
    h = hashlib.sha256()
    for puzzle in puzzles:
        _update(h, puzzle, solve(puzzle, phase1_triples=triples))
    return h.hexdigest()


def stall_puzzles() -> list[str]:
    rng = random.Random(2026)
    return [STALL] + [random_isomorph(rng).apply(STALL) for _ in range(24)]


def stall_digest(triples: bool) -> str:
    h = hashlib.sha256()
    for puzzle in stall_puzzles():
        outcome = solve(puzzle, phase1_triples=triples)
        assert outcome.status == "conjecture_failure", puzzle
        _update(h, puzzle, outcome)
        h.update(f"stats {dataclasses.astuple(outcome.stats)}\n".encode())
        h.update(f"report {json.dumps(outcome.report.to_dict(), sort_keys=True)}\n".encode())
    return h.hexdigest()


@pytest.mark.parametrize("triples", [False, True], ids=["triples_off", "triples_on"])
def test_corpus_trace_digest_is_unchanged(full_corpus, triples):
    assert len(full_corpus) == 400
    assert corpus_digest(full_corpus, triples) == GOLDEN[triples]


@pytest.mark.parametrize("triples", [False, True], ids=["triples_off", "triples_on"])
def test_stall_failure_digest_is_unchanged(triples):
    assert stall_digest(triples) == GOLDEN_STALL[triples]
