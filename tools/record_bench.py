#!/usr/bin/env python3
"""Record one point of the benchmark trajectory as BENCH_<label>.json.

Runs a checkout's own `perfbench/run.py`, unchanged, on every workload, once
with `--trace 0` (end-to-end metrics) and once with `--trace 1` (per-layer
metrics), and writes each run's JSON result line together with the Python
version, the machine and its core count.  Every run uses the same seed and
run length, so the files of the trajectory compare with one another.  Fails
without writing anything if a run exits with an error, reports a wrong
answer or counts an operation that raised.

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
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = ("fixpoint", "minuet", "stall")
SEED = 4242
SECONDS = 30.0


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
    record = {
        "label": args.label,
        "commit": commit_of(checkout),
        "python": platform.python_version(),
        "machine": platform.machine(),
        "cores": os.cpu_count(),
        "seed": SEED,
        "seconds": SECONDS,
        "runs": runs,
    }
    path = ROOT / f"BENCH_{args.label}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
