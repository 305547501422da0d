#!/usr/bin/env python3
"""Record one point of the benchmark trajectory as BENCH_<label>.json.

Runs a checkout's own `perfbench/run.py`, unchanged, on every workload, once
with `--trace 0` (end-to-end metrics) and once with `--trace 1` (per-layer
metrics), and writes each run's JSON result line together with the Python
version, the machine and its core count.  Every run uses the same seed and
run length, so the files of the trajectory compare with one another.  Fails
without writing anything if a run exits with an error, reports a wrong
answer or counts an operation that raised.

It also records the counterexamples' solver and oracle medians: the
checkout's own `batch_solve`, from its `src/`, over this repository's
`corpora/counterexamples.txt` for a fixed number of rounds, so a checkout
of another commit times the same puzzles.  A batch times the solver apart
from the oracle, so this is the stall path's solver time with no oracle
time inside it.  It fails, writing nothing, unless every puzzle of every
round ends as a validated conjecture failure with no error.

Usage: python tools/record_bench.py LABEL [--checkout DIR]

LABEL names the change measured; the file BENCH_<LABEL>.json is written at
the root of this repository.  The checkout defaults to this repository;
point it at a clone of another commit to record that commit on the same
machine.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = ("fixpoint", "minuet", "stall")
SEED = 4242
SECONDS = 30.0
COUNTEREXAMPLES = ROOT / "corpora" / "counterexamples.txt"
ROUNDS = 100

# run by the checkout's interpreter with only its src/ on the path:
# argv is the corpus path and the number of rounds
TIME_BATCHES = """\
import json, sys
from minuet_sudoku.harness import batch_solve, load_corpus
corpus = load_corpus(sys.argv[1])
out = {"puzzles": 0, "failures": 0, "errors": 0, "solver_ms": [], "oracle_ms": []}
for _ in range(int(sys.argv[2])):
    stats = batch_solve(corpus).stats
    out["puzzles"] += stats.puzzles
    out["failures"] += stats.failures
    out["errors"] += stats.errors
    out["solver_ms"] += [t * 1e3 for t in stats.times]
    out["oracle_ms"] += [t * 1e3 for t in stats.oracle_times]
print(json.dumps(out))
"""


def run_once(checkout: Path, workload: str, trace: int, seed: int = SEED) -> dict:
    """One perfbench run; returns its JSON result line."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(SECONDS), "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    if out.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {out.returncode}:\n{out.stderr}")
    result = json.loads(out.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload} --trace {trace}: wrong answers\n{out.stdout}")
    if result["failed"]:
        raise SystemExit(f"{workload} --trace {trace}: {result['failed']} operation(s) "
                         f"raised\n{out.stdout}")
    return result


def time_counterexamples(checkout: Path, rounds: int = ROUNDS) -> dict:
    """The checkout's `batch_solve` over this repository's counterexample
    corpus, ``rounds`` times; returns the solver and oracle medians over
    every puzzle of every round."""
    cmd = [sys.executable, "-c", TIME_BATCHES, str(COUNTEREXAMPLES), str(rounds)]
    env = {**os.environ, "PYTHONPATH": str(checkout / "src")}
    out = subprocess.run(cmd, cwd=checkout, env=env, capture_output=True, text=True)
    if out.returncode != 0:
        raise SystemExit(f"counterexample batches exited {out.returncode}:\n{out.stderr}")
    counts = json.loads(out.stdout.strip().splitlines()[-1])
    if counts["failures"] != counts["puzzles"]:  # an error or ill-posed entry is no failure
        raise SystemExit(f"counterexamples: {counts['failures']} of {counts['puzzles']} "
                         f"validated failures, {counts['errors']} error(s)")
    return {"corpus": COUNTEREXAMPLES.name, "rounds": rounds,
            "puzzles": counts["puzzles"] // rounds,
            "solver_ms_p50": statistics.median(counts["solver_ms"]),
            "oracle_ms_p50": statistics.median(counts["oracle_ms"])}


def commit_of(checkout: Path) -> str | None:
    """The checkout's HEAD commit, with ``-dirty`` appended when a tracked
    file differs from it (untracked files do not count); None when it is not
    a git checkout of its own (an exported tree inside another repository
    must not borrow its HEAD)."""
    if not (checkout / ".git").exists():
        return None
    out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=checkout,
                         capture_output=True, text=True)
    if out.returncode != 0:
        return None
    status = subprocess.run(["git", "status", "--porcelain", "--untracked-files=no"],
                            cwd=checkout, capture_output=True, text=True, check=True)
    return out.stdout.strip() + ("-dirty" if status.stdout.strip() else "")


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("label")
    ap.add_argument("--checkout", type=Path, default=ROOT)
    args = ap.parse_args(argv)
    checkout = args.checkout.resolve()
    runs = []
    for workload in WORKLOADS:
        for trace in (0, 1):
            print(f"{workload} --trace {trace} ...", flush=True)
            runs.append({"workload": workload, "trace": trace,
                         "result": run_once(checkout, workload, trace)})
    print("counterexamples ...", flush=True)
    counterexamples = time_counterexamples(checkout)
    record = {
        "label": args.label,
        "commit": commit_of(checkout),
        "python": platform.python_version(),
        "machine": platform.machine(),
        "cores": os.cpu_count(),
        "seed": SEED,
        "seconds": SECONDS,
        "runs": runs,
        "counterexamples": counterexamples,
    }
    path = ROOT / f"BENCH_{args.label}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
