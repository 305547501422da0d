"""What the benchmark's tracer (``perfbench/tracing.py``) reads from the
solver: the names it wraps, and the results its counters count.  A change
to what ``run_minuet``, ``dance_together`` or ``enumerate_starters`` return
would otherwise skew the traced counters without failing anything."""

import importlib.util
from pathlib import Path

import pytest

import minuet_sudoku
from minuet_sudoku import minuet
from minuet_sudoku.generate import STALL

from puzzles import TRICKY

ENDINGS = {"commit", "adopt", "joint", "stuck"}


def load_tracing():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = load_tracing()


def test_every_traced_name_resolves():
    for module_name, attr, *_ in tracing.TARGETS:
        assert callable(getattr(getattr(minuet_sudoku, module_name), attr)), attr


@pytest.mark.parametrize("puzzle,progress,joint", [(TRICKY, 3, 1), (STALL, 0, 0)],
                         ids=["tricky", "stall"])
def test_traced_counters_match_what_the_solver_returned(monkeypatch, puzzle, progress,
                                                        joint):
    endings, listed = [], []
    real_run, real_enumerate = minuet.run_minuet, minuet.enumerate_starters

    def run_minuet(*args, **kwargs):
        result = real_run(*args, **kwargs)
        endings.append(result[0])
        return result

    def enumerate_starters(grid):
        starters = real_enumerate(grid)
        listed.append(len(starters))
        return starters

    monkeypatch.setattr(minuet, "run_minuet", run_minuet)
    monkeypatch.setattr(minuet, "enumerate_starters", enumerate_starters)
    tracer = tracing.Tracer(minuet_sudoku)
    with tracer:
        c = tracer.phase("solve")
        outcome, _ = tracer.root("minuet.solve", minuet_sudoku.solve, puzzle)
    assert set(endings) <= ENDINGS
    assert c["minuet.run_minuet.calls"] == len(endings) == outcome.stats.starters_danced
    assert c["minuet.run_minuet.progress"] == len(endings) - endings.count("stuck") == progress
    assert c["minuet.dance_together.changed"] == endings.count("joint") == joint
    assert c["minuet.starters_enumerated"] == sum(listed) > 0
