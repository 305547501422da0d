"""Deduction-only solving of well-posed 9x9 Sudoku puzzles via the minuet
method, with an independent brute-force oracle and a batch harness that hunts
for counterexamples to the conjecture that the method solves them all."""

from .grid import (Grid, Structure, GridError, WrongLength, BadChar,
                   InconsistentGivens, NotACandidate, AlreadySolved,
                   ContradictionFound, parse_grid, serialize_grid, place_ink)
from .oracle import (WellPosedness, NotWellPosed, count_solutions, brute_solve,
                     verify_well_posed)
from .phase1 import HalfDoubleRegistry, Phase1Run, step1_fixpoint, step2_fill
from .phase2 import FixpointRun, step3_fixpoint
from .minuet import (Starter, HypothesisView, MinuetState, SolveStats, SolveOutcome,
                     FailureReport, BothContradicted, InconsistentSolution,
                     enumerate_starters, init_hypotheses, dance_alone, dance_together,
                     commit_retained, run_minuet, solve)
from .harness import (CorpusEntry, CorpusLoad, EmptyCorpus, SelfCheckFailed,
                      BatchStats, BatchResult, load_corpus, batch_solve,
                      confidence_upper_bound, render_trace, render_report,
                      validate_report)
from .trace import TraceEvent, replay_trace

__all__ = [name for name in dir() if not name.startswith("_")]
