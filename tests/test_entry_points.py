"""Smoke tests for the scripts outside the package: each demo and the corpus
generator runs against this checkout's sources and exits 0.  Also what a
fresh interpreter loads for the package's commands."""

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

from minuet_sudoku import count_solutions, load_corpus, parse_grid
from minuet_sudoku.generate import STALL

from puzzles import EASY, MEDIUM

ROOT = Path(__file__).resolve().parents[1]
GENERATOR = ROOT / "tools" / "generate_corpus.py"


def run_script(script: Path | str, *args: str) -> subprocess.CompletedProcess:
    path = [str(ROOT / "src")] + [p for p in [os.environ.get("PYTHONPATH")] if p]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    return subprocess.run([sys.executable, str(script), *args], env=env,
                          capture_output=True, text=True, timeout=300)


def load_generator():
    spec = importlib.util.spec_from_file_location("generate_corpus", GENERATOR)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("demo", sorted((ROOT / "demos").glob("*.py")), ids=lambda p: p.name)
def test_demo_exits_zero(demo):
    proc = run_script(demo)
    assert proc.returncode == 0, proc.stderr


def test_generator_emits_uniquely_solvable_puzzles(tmp_path):
    """At the default seed the generator writes the start of each committed
    corpus: all of easy.txt and the first medium and hard puzzles."""
    proc = run_script(GENERATOR, "--easy", "100", "--medium", "1", "--hard", "1",
                      "--outdir", str(tmp_path))
    assert proc.returncode == 0, proc.stderr
    sizes = {}
    for tier in ("easy", "medium", "hard"):
        written = (tmp_path / f"{tier}.txt").read_text()
        assert (ROOT / "corpora" / f"{tier}.txt").read_text().startswith(written), tier
        puzzles = [e.text for e in load_corpus(tmp_path / f"{tier}.txt").entries]
        sizes[tier] = len(puzzles)
        for puzzle in puzzles:
            assert count_solutions(parse_grid(puzzle), 2) == 1, puzzle
    assert sizes == {"easy": 100, "medium": 1, "hard": 1}


def test_classify_puts_a_stall_in_the_hard_tier():
    assert load_generator().classify(STALL) == "hard+stall"


def test_generator_keeps_a_stall_in_hard_and_lists_it(tmp_path, monkeypatch):
    generator = load_generator()
    dug = iter([STALL])  # a second dig raises instead of looping forever
    monkeypatch.setattr(generator, "dig_minimal", lambda rng: next(dug))
    monkeypatch.setattr(sys, "argv", ["generate_corpus.py", "--easy", "0", "--medium", "0",
                                      "--hard", "1", "--outdir", str(tmp_path)])
    assert generator.main() == 0
    for name in ("hard", "stalls"):
        assert [e.text for e in load_corpus(tmp_path / f"{name}.txt").entries] == [STALL]


LAZY_MODULES = ("multiprocessing", "json", "statistics")
IMPORT_SURFACE = f"""
import sys
preloaded = {{m for m in {LAZY_MODULES!r} if m in sys.modules}}
def loaded():
    print(" ".join(m for m in {LAZY_MODULES!r} if m in sys.modules and m not in preloaded))
import io
from contextlib import redirect_stdout
import minuet_sudoku, minuet_sudoku.cli
from minuet_sudoku import batch_solve, load_corpus
with redirect_stdout(io.StringIO()):
    for command in ("solve", "verify", "oracle"):
        assert minuet_sudoku.cli.main([command, {EASY!r}]) == 0
result = batch_solve(load_corpus(sys.argv[1]), jobs=1)
assert result.stats.solved == 2
loaded()
result.stats.render()
loaded()
"""


def test_solve_verify_oracle_and_serial_batch_load_no_lazy_module(tmp_path):
    """A fresh interpreter that imports the package and its CLI, runs `solve`,
    `verify` and `oracle`, and batches two entries with jobs=1 has loaded
    none of multiprocessing, json and statistics beyond what the interpreter
    started with; rendering the batch's stats then loads statistics.  It
    runs in a subprocess because this test session has imported
    multiprocessing already."""
    corpus = tmp_path / "two.txt"
    corpus.write_text(f"{EASY}\n{MEDIUM}\n")
    proc = run_script("-c", IMPORT_SURFACE, str(corpus))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split("\n")[:2] == ["", "statistics"]
