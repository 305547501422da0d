"""Golden trace gate: every corpus solve, event by event, against a frozen digest.

Solves all 400 corpus puzzles with ``phase1_triples`` off and on and hashes
each trace event field by field, the final ink and candidate masks and the
status.  The digest was computed from the per-cell Phase I scan, so a
representation change in Phase I or Step 3 must reproduce every event, in
order, to pass.
"""

import hashlib

import pytest

from minuet_sudoku import SolveConfig, solve

GOLDEN = {
    False: "a7486d20a16a5102b907c7d069c8e28c664354b5952e85ed536fc3ab28d44fa7",
    True: "2722a68f704c34ca323b19f18acd2eea7c7d46507e8695242045c0c49ec7b145",
}


def _event_line(ev) -> str:
    structure = None if ev.structure is None else (ev.structure.kind, ev.structure.index)
    return repr((ev.step, ev.rule, ev.view, structure, ev.cells, ev.digits,
                 ev.inked, ev.erased))


def corpus_digest(puzzles, triples: bool) -> str:
    h = hashlib.sha256()
    cfg = SolveConfig(phase1_triples=triples)
    for puzzle in puzzles:
        outcome = solve(puzzle, cfg)
        h.update(f"puzzle {puzzle}\n".encode())
        for ev in outcome.trace:
            h.update(_event_line(ev).encode() + b"\n")
        h.update(f"status {outcome.status}\n".encode())
        h.update(f"solved {outcome.grid.solved}\n".encode())
        h.update(f"masks {outcome.grid.masks}\n".encode())
    return h.hexdigest()


@pytest.mark.parametrize("triples", [False, True], ids=["triples_off", "triples_on"])
def test_corpus_trace_digest_is_unchanged(full_corpus, triples):
    assert len(full_corpus) == 400
    assert corpus_digest(full_corpus, triples) == GOLDEN[triples]
