#!/usr/bin/env python3
"""Benchmark of the minuet solver on one workload.

    python3 perfbench/run.py --workload fixpoint|minuet|stall --seed N \\
        --seconds S --trace 0|1

Drives the package's public API from this process (`batch_solve` with
jobs=2 starts its own two workers) and prints, as the last line of standard
output, one JSON object with `correct`, `attempted`, `failed` and
`metrics`.  With --trace 0 the metrics are the end-to-end ones, measured with
nothing wrapped; with --trace 1 they are the per-layer ones, from spans
recorded around the package's functions (tracing.py).  The lines before it
are a readable summary.  README.md describes workloads and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import check
import inputs
from tracing import Tracer

HERE = Path(__file__).resolve().parent
SETUP_PROBES = 5

END_TO_END_UNITS = {
    "setup_s": "s", "solve_puzzles_per_s": "1/s", "solve_ms_p50": "ms",
    "solve_ms_p90": "ms", "oracle_ms_p50": "ms", "oracle_ms_p90": "ms",
    "batch_puzzles_per_s": "1/s", "batch_jobs2_puzzles_per_s": "1/s",
    "peak_rss_mb": "MB",
}

# Spans reported as `<name>.self_ms` and `<name>.calls`, per solved puzzle.
SOLVE_SPANS = (
    "phase1.step1_fixpoint", "phase1.step2_fill",
    "phase2.step3_fixpoint.base", "phase2.step3_fixpoint.view",
    "minuet.enumerate_starters", "minuet.init_hypotheses", "minuet.dance_alone",
    "minuet.dance_together", "minuet.commit_retained", "minuet.run_minuet",
)
SOLVE_COUNTS = ("phase1.step1.passes", "phase2.step3.sweeps",
                "minuet.starters_enumerated", "trace.events.base",
                "trace.events.view")
ORACLE = "oracle.verify_well_posed"


class Tally:
    """Checked operations: how many were attempted, which failed and why.

    An operation fails when it raises or when its output is wrong; a wrong
    output also makes the run incorrect.
    """

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.errors: list[str] = []

    def record(self, what: str, err: str | None, raised: bool = False) -> None:
        self.attempted += 1
        if err is not None:
            self.failed += 1
            self.wrong += not raised
            if len(self.errors) < 5:
                self.errors.append(f"{what}: {err}")


def probe_setup(name: str, seed: int) -> float:
    """Seconds one fresh interpreter takes to import the package and load."""
    out = subprocess.run(
        [sys.executable, str(HERE / "setup_probe.py"), name, str(seed)],
        cwd=inputs.ROOT, capture_output=True, text=True, timeout=120, check=True)
    return float(out.stdout.split()[-1])


def oracle_solution(pkg, puzzle: str) -> str:
    verdict = pkg.verify_well_posed(pkg.parse_grid(puzzle))
    if verdict.solution is None:
        raise RuntimeError(f"the oracle says {verdict.status} for {puzzle}")
    return pkg.serialize_grid(verdict.solution)


def references(pkg, wl: inputs.Workload, seed: int) -> dict[str, str]:
    """Every puzzle's solution, checked here as a valid completion.

    Corpus puzzles get theirs from the oracle; each stall isomorph gets the
    same isomorphism applied to the solution of the original puzzle.
    """
    if wl.name == "stall":
        solution = oracle_solution(pkg, inputs.STALL)
        pairs = [(iso.apply(inputs.STALL), iso.apply(solution))
                 for iso in inputs.stall_isomorphs(seed)[0]]
    else:
        pairs = [(p, oracle_solution(pkg, p)) for p in wl.puzzles]
    for puzzle, solution in pairs:
        err = check.completion_error(solution, puzzle)
        if err is not None:
            raise RuntimeError(f"no valid reference solution for {puzzle}: {err}")
    return dict(pairs)


def outcome_error(pkg, outcome, puzzle: str, ref: str, may_stall: bool) -> str | None:
    answer = pkg.serialize_grid(outcome.grid) if outcome.status == "solved" else None
    return check.outcome_error(outcome.status, answer, outcome.report, puzzle,
                               ref, may_stall)


def timed_solve(pkg, wl, refs, tally: Tally, puzzle: str) -> float:
    """Seconds one solve() of the puzzle string took to return or raise."""
    t0 = time.perf_counter()
    try:
        outcome = pkg.solve(puzzle)
    except Exception as e:  # a crash is a failed operation, not a lost run
        dt = time.perf_counter() - t0
        tally.record(f"solve {puzzle}", f"raised {e!r}", raised=True)
        return dt
    dt = time.perf_counter() - t0
    tally.record(f"solve {puzzle}",
                 outcome_error(pkg, outcome, puzzle, refs[puzzle], wl.may_stall))
    return dt


def timed_oracle(pkg, refs, tally: Tally, puzzle: str) -> float:
    """Seconds one verify_well_posed call took to return or raise."""
    grid = pkg.parse_grid(puzzle)
    t0 = time.perf_counter()
    try:
        verdict = pkg.verify_well_posed(grid)
    except Exception as e:
        dt = time.perf_counter() - t0
        tally.record(f"oracle {puzzle}", f"raised {e!r}", raised=True)
        return dt
    dt = time.perf_counter() - t0
    if verdict.status != "well_posed":
        err = f"oracle says {verdict.status}"
    else:
        err = check.solution_error(pkg.serialize_grid(verdict.solution), puzzle,
                                   refs[puzzle])
    tally.record(f"oracle {puzzle}", err)
    return dt


def check_batch(result, corpus, wl, refs, tally: Tally) -> None:
    texts = {e.line_no: e.text for e in corpus.entries}
    seen = set()
    for r in result.results:
        puzzle = texts[r.line_no]
        seen.add(r.line_no)
        if r.well_posedness != "well_posed":
            err = f"batch says {r.well_posedness}"
        else:
            err = check.outcome_error(r.status, r.solution, r.report, puzzle,
                                      refs[puzzle], wl.may_stall)
        tally.record(f"batch line {r.line_no}", err)
    for line_no in texts.keys() - seen:
        tally.record(f"batch line {line_no}", "missing from the batch result")


def timed_batch(pkg, wl, refs, tally: Tally, corpus, jobs: int,
                tracer: Tracer | None = None) -> float:
    """Seconds one batch_solve over the corpus took to return or raise."""
    t0 = time.perf_counter()
    try:
        if tracer is None:
            result = pkg.batch_solve(corpus, jobs=jobs)
        else:
            result, _ = tracer.root("harness.batch_solve", pkg.batch_solve, corpus)
    except Exception as e:  # e.g. SelfCheckFailed: the whole batch failed
        dt = time.perf_counter() - t0
        for entry in corpus.entries:
            tally.record(f"batch line {entry.line_no}", f"batch raised {e!r}", raised=True)
        return dt
    dt = time.perf_counter() - t0
    check_batch(result, corpus, wl, refs, tally)
    return dt


class Rounds:
    """Whole rounds for about `seconds`: at least one, and another only while
    it can be expected to end less than half a round past the deadline."""

    def __init__(self, seconds: float):
        self.start = time.perf_counter()
        self.deadline = self.start + seconds
        self.count = 0

    def another(self) -> bool:
        now = time.perf_counter()
        if self.count and now + (now - self.start) / self.count / 2 > self.deadline:
            return False
        self.count += 1
        return True


def warm_up(pkg, wl) -> None:
    """Untimed, unchecked solves; the measured ones check every output."""
    for puzzle in wl.puzzles[:2 if wl.may_stall else 10]:
        with contextlib.suppress(Exception):
            pkg.solve(puzzle)


def untraced(pkg, wl, refs, seed: int, seconds: float, tally: Tally) -> dict:
    """End-to-end metrics.  Throughputs are calls over their total time and
    latencies percentiles of every call, failed calls included."""
    warm_up(pkg, wl)
    probes_per_slice = -(-SETUP_PROBES // len(wl.slices))
    setup, solve_ms, oracle_ms = [], [], []
    batch_n, batch_s = [0, 0], [0.0, 0.0]  # puzzles and seconds, jobs=1 and 2
    rounds = Rounds(seconds)
    while rounds.another():
        for sl in wl.slices:
            if rounds.count == 1:
                setup += [probe_setup(wl.name, seed) for _ in range(probes_per_slice)]
            solve_ms += [timed_solve(pkg, wl, refs, tally, p) * 1e3 for p in sl.puzzles]
            oracle_ms += [timed_oracle(pkg, refs, tally, p) * 1e3 for p in sl.puzzles]
            for i, jobs in enumerate((1, 2)):
                batch_s[i] += timed_batch(pkg, wl, refs, tally, sl.batch, jobs)
                batch_n[i] += len(sl.batch.entries)
    print(f"{wl.name} seed {seed}: {rounds.count} rounds of {len(wl.slices)} slices; "
          f"{len(solve_ms)} timed solves, {len(oracle_ms)} timed oracle calls, "
          f"{batch_n[0]}+{batch_n[1]} puzzles batched; "
          f"setup probes {[round(s, 4) for s in setup]}")
    values = {
        "setup_s": statistics.median(setup),
        "solve_puzzles_per_s": len(solve_ms) / (sum(solve_ms) / 1e3),
        "solve_ms_p50": statistics.median(solve_ms),
        "solve_ms_p90": statistics.quantiles(solve_ms, n=10)[-1],
        "oracle_ms_p50": statistics.median(oracle_ms),
        "oracle_ms_p90": statistics.quantiles(oracle_ms, n=10)[-1],
        "batch_puzzles_per_s": batch_n[0] / batch_s[0],
        "batch_jobs2_puzzles_per_s": batch_n[1] / batch_s[1],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    return {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}


def traced(pkg, wl, refs, seed: int, seconds: float, tally: Tally) -> dict:
    """Per-layer metrics.  Each slice runs its subset untraced, then traced,
    then a traced batch_solve with jobs=1 (spans recorded in jobs=2 workers
    would stay in the workers)."""
    warm_up(pkg, wl)
    tracer = Tracer(pkg)
    with tracer:
        tracer.phase("setup")
        tracer.root("bench.setup", inputs.load, wl.name, seed)
    solve_c, batch_c = tracer.phase("solve"), tracer.phase("batch")
    untraced_s = 0.0
    rounds = Rounds(seconds)
    while rounds.another():
        for sl in wl.slices:
            untraced_s += sum(timed_solve(pkg, wl, refs, tally, p) for p in sl.subset)
            with tracer:
                tracer.phase("solve")
                for p in sl.subset:
                    try:
                        outcome, _ = tracer.root("minuet.solve", pkg.solve, p)
                    except Exception as e:
                        tally.record(f"solve {p}", f"raised {e!r}", raised=True)
                        continue
                    views = sum(ev.view is not None for ev in outcome.trace)
                    solve_c["trace.events.view"] += views
                    solve_c["trace.events.base"] += len(outcome.trace) - views
                    tally.record(f"solve {p}", outcome_error(pkg, outcome, p, refs[p],
                                                             wl.may_stall))
                tracer.phase("batch")
                timed_batch(pkg, wl, refs, tally, sl.batch, 1, tracer)

    traced_ns, batch_ns = solve_c["root.dur_ns"], batch_c["root.dur_ns"]
    self_total = sum(v for k, v in solve_c.items() if k.endswith(".self_ns"))
    if self_total != traced_ns:
        raise RuntimeError(f"span self times add to {self_total} ns, solves took {traced_ns}")
    n = sum(len(sl.subset) for sl in wl.slices) * rounds.count
    nb = sum(len(sl.batch.entries) for sl in wl.slices) * rounds.count
    m = {}
    for span in SOLVE_SPANS:
        m[f"{span}.self_ms"] = (solve_c[f"{span}.self_ns"] / n / 1e6, "ms")
        m[f"{span}.calls"] = (solve_c[f"{span}.calls"] / n, "count")
    for name in SOLVE_COUNTS:
        m[name] = (solve_c[name] / n, "count")
    m["minuet.run_minuet.useful_ratio"] = (_ratio(
        solve_c["minuet.run_minuet.progress"], solve_c["minuet.run_minuet.calls"]), "ratio")
    m["minuet.dance_together.useful_ratio"] = (_ratio(
        solve_c["minuet.dance_together.changed"], solve_c["minuet.dance_together.calls"]),
        "ratio")
    m["minuet.solve.self_ms"] = (solve_c["minuet.solve.self_ns"] / n / 1e6, "ms")
    m[f"{ORACLE}.self_ms"] = (solve_c[f"{ORACLE}.self_ns"] / n / 1e6
                              + batch_c[f"{ORACLE}.self_ns"] / nb / 1e6, "ms")
    m[f"{ORACLE}.calls"] = (solve_c[f"{ORACLE}.calls"] / n
                            + batch_c[f"{ORACLE}.calls"] / nb, "count")
    m[f"{ORACLE}.in_solve.self_ms"] = (solve_c[f"{ORACLE}.self_ns"] / n / 1e6, "ms")
    m[f"{ORACLE}.in_solve.calls"] = (solve_c[f"{ORACLE}.calls"] / n, "count")
    m["harness.validate_report.self_ms"] = (
        batch_c["harness.validate_report.self_ns"] / nb / 1e6, "ms")
    m["harness.validate_report.calls"] = (batch_c["harness.validate_report.calls"] / nb,
                                          "count")
    in_solve = sum(v for k, v in batch_c.items()
                   if k.endswith(">minuet.solve.dur_ns"))
    oracle_outside = sum(v for k, v in batch_c.items()
                         if k.endswith(f">{ORACLE}.dur_ns")
                         and not k.startswith("minuet.solve>"))
    m["harness.batch_overhead_ms"] = ((batch_ns - in_solve - oracle_outside) / nb / 1e6,
                                      "ms")
    m["grid.parse_grid.calls"] = (
        tracer.phases["setup"]["grid.parse_grid.calls"] / len(wl.puzzles), "count")
    untraced_ms = untraced_s * 1e3 / n
    traced_ms = traced_ns / 1e6 / n
    m["tracing.untraced_solve_ms"] = (untraced_ms, "ms")
    m["tracing.traced_solve_ms"] = (traced_ms, "ms")
    m["tracing.overhead_pct"] = (100 * (traced_ms / untraced_ms - 1), "%")
    print(f"{wl.name} seed {seed}: {rounds.count} traced rounds, {n} traced solves, "
          f"{nb} puzzles batched; solve {untraced_ms:.3f} ms untraced, "
          f"{traced_ms:.3f} ms traced, {m['minuet.solve.self_ms'][0]:.3f} ms of it "
          f"unattributed")
    return {k: {"value": v, "unit": u} for k, (v, u) in m.items()}


def _ratio(num: int, den: int) -> float:
    return num / den if den else 0.0


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=inputs.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    try:
        pkg = inputs.import_package()
        wl = inputs.load(args.workload, args.seed)
        refs = references(pkg, wl, args.seed)
    except (inputs.BenchError, ImportError, RuntimeError) as e:
        print(f"perfbench: cannot run: {e}", file=sys.stderr)
        return 2
    tally = Tally()
    measure = traced if args.trace else untraced
    metrics = measure(pkg, wl, refs, args.seed, args.seconds, tally)
    for line in tally.errors:
        print(f"FAILED {line}")
    print(json.dumps({"correct": tally.wrong == 0,
                      "attempted": tally.attempted, "failed": tally.failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
