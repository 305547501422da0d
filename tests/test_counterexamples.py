"""The counterexample corpus: well-posed puzzles the method cannot solve.

Each puzzle in ``corpora/counterexamples.txt`` follows a '#' line naming its
source.  The oracle must call it well-posed, ``solve`` must end in a
conjecture failure whose report validates against that verdict, and two
seeded isomorphs must stall too, on the residual mapped by the same
isomorph.
"""

import random
from pathlib import Path

import pytest

from minuet_sudoku import (load_corpus, parse_grid, serialize_grid, solve, validate_report,
                           verify_well_posed)
from minuet_sudoku.generate import STALL, random_isomorph

COUNTEREXAMPLES = Path(__file__).resolve().parents[1] / "corpora" / "counterexamples.txt"


def entries():
    return load_corpus(COUNTEREXAMPLES).entries


def test_every_counterexample_names_its_source():
    lines = COUNTEREXAMPLES.read_text().splitlines()
    puzzles = entries()
    assert not load_corpus(COUNTEREXAMPLES).errors
    for entry in puzzles:
        assert lines[entry.line_no - 2].startswith("# "), entry.line_no
    assert serialize_grid(parse_grid(STALL)) in [serialize_grid(parse_grid(e.text))
                                                 for e in puzzles]


@pytest.mark.parametrize("entry", entries(), ids=lambda e: f"line{e.line_no}")
def test_counterexample_stalls_and_its_isomorphs_stall_alike(entry):
    wp = verify_well_posed(parse_grid(entry.text))
    assert wp.status == "well_posed"
    outcome = solve(entry.text, verdict=wp)
    assert outcome.status == "conjecture_failure"
    validate_report(outcome.report, wp)
    rng = random.Random(entry.line_no)
    for _ in range(2):
        iso = random_isomorph(rng)
        image = solve(iso.apply(serialize_grid(outcome.start)))
        assert image.status == "conjecture_failure"
        assert image.report.residual == iso.apply(outcome.report.residual)
