#!/usr/bin/env python3
"""Alternating parent/change benchmark pairs on one workload.

Runs each checkout's own `perfbench/run.py --trace 0` N times, in pairs:
the parent runs first on odd pairs and the change first on even ones, and
each pair uses its own seed (SEED, SEED+1, ...).  Each run goes through
`record_bench.run_once`, so a run that exits with an error, reports a wrong
answer or counts an operation that raised stops the whole comparison.

For each end-to-end metric of BENCHMARK.json it prints each side's median
and quartiles, the parent's interquartile range, the change of the median,
the median and quartiles of the per-pair ratios change / parent, and the
pairs the change won (ties count for neither side); then every pair's two
readings, so each run made is on record; then a verdict for each metric,
the first of these that applies:

  gain holds        the change wins at least nine pairs in ten, and its
                    median is better than the parent's by more than the
                    parent's interquartile range
  worse than bound  the change's median is worse than the parent's by more
                    than the metric's bound in BENCHMARK.json
  unresolved        the parent's interquartile range is wider than the bound
                    (relative to its median), and not every change run beats
                    every parent run
  no change shown   otherwise

An unresolved verdict is followed by the parent's interquartile range as a
share of its median, beside the metric's bound, for example `parent IQR
31% > bound 25%`.

The verdict compares the two sides' spreads, as the benchmark's gain test
does, so drift in the machine's speed that both runs of a pair share reads
as spread there.  The ratios cancel that drift: a change that makes every
run 20% faster reads 0.800 [0.800, 0.800] however far the machine drifts.

Usage: python tools/bench_pairs.py WORKLOAD --parent DIR [--change DIR]
           --seed SEED [--pairs N]

The change defaults to this repository; point --parent at a clone of the
parent commit.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

from record_bench import ROOT, SECONDS, WORKLOADS, commit_of, run_once


def end_to_end_metrics() -> dict[str, tuple[str, float]]:
    """Each end-to-end metric's better direction and relative bound, by name,
    from BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: (m["better"], m["bound"]) for m in spec["end_to_end"]}


def run_pairs(parent: Path, change: Path, workload: str, seed: int,
              pairs: int) -> list[tuple[dict, dict]]:
    """(parent metrics, change metrics) for each pair, parent first on odd pairs."""
    out = []
    for i in range(pairs):
        order = [("parent", parent), ("change", change)]
        if i % 2:
            order.reverse()
        metrics = {}
        for side, checkout in order:
            print(f"pair {i + 1}/{pairs} seed {seed + i}: {side}", file=sys.stderr, flush=True)
            metrics[side] = run_once(checkout, workload, 0, seed=seed + i)["metrics"]
        out.append((metrics["parent"], metrics["change"]))
    return out


def quartiles(values: list[float]) -> tuple[float, float, float]:
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def wins(before: list[float], after: list[float], sign: int) -> int:
    """The pairs the change won; ``sign`` is 1 when higher is better and -1
    when lower is."""
    return sum(sign * (a - b) > 0 for b, a in zip(before, after))


def verdict(before: list[float], after: list[float], sign: int, bound: float) -> str:
    """The module docstring's verdict on one metric."""
    b1, b2, b3 = quartiles(before)
    gap = sign * (statistics.median(after) - b2)  # positive: the change is better
    if 10 * wins(before, after, sign) >= 9 * len(before) and gap > b3 - b1:
        return "gain holds"
    if -gap > bound * b2:
        return "worse than bound"
    beats_all = min(sign * a for a in after) > max(sign * b for b in before)
    if b3 - b1 > bound * b2 and not beats_all:
        return "unresolved"
    return "no change shown"


def summarize(runs: list[tuple[dict, dict]], metrics: dict[str, tuple[str, float]]) -> list[str]:
    """One line per metric: medians, quartiles, parent IQR, median change,
    per-pair ratio quartiles, wins; then every pair's readings and every
    metric's verdict, an unresolved one with the parent's relative IQR
    against the bound."""
    lines = [f"{'metric':<27}{'parent median [q1, q3]':<28}{'change median [q1, q3]':<28}"
             f"{'parent IQR':<12}{'change':<9}{'ratio median [q1, q3]':<24}wins"]
    verdicts = []
    for name, (direction, bound) in metrics.items():
        before = [p[name]["value"] for p, _ in runs]
        after = [c[name]["value"] for _, c in runs]
        b1, b2, b3 = quartiles(before)
        a1, a2, a3 = quartiles(after)
        r1, r2, r3 = quartiles([a / b for b, a in zip(before, after)])
        sign = 1 if direction == "higher" else -1
        lines.append(f"{name:<27}{f'{b2:.4g} [{b1:.4g}, {b3:.4g}]':<28}"
                     f"{f'{a2:.4g} [{a1:.4g}, {a3:.4g}]':<28}{b3 - b1:<12.4g}"
                     f"{f'{100 * (a2 / b2 - 1):+.1f}%':<9}"
                     f"{f'{r2:.3f} [{r1:.3f}, {r3:.3f}]':<24}"
                     f"{wins(before, after, sign)}/{len(runs)}")
        said = verdict(before, after, sign, bound)
        why = f"parent IQR {(b3 - b1) / b2:.0%} > bound {bound:.0%}"
        verdicts.append(f"  {said:<18}{name:<27}{why}" if said == "unresolved"
                        else f"  {said:<18}{name}")
    lines.append("pairs (parent -> change):")
    for name in metrics:
        pairs = "  ".join(f"{p[name]['value']:.4g}->{c[name]['value']:.4g}" for p, c in runs)
        lines.append(f"  {name}: {pairs}")
    return lines + ["verdicts:"] + verdicts


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("workload", choices=WORKLOADS)
    ap.add_argument("--parent", type=Path, required=True)
    ap.add_argument("--change", type=Path, default=ROOT)
    ap.add_argument("--seed", type=int, required=True, help="the first pair's seed")
    ap.add_argument("--pairs", type=int, default=10)
    args = ap.parse_args(argv)
    if args.pairs < 2:
        ap.error("--pairs must be >= 2 for quartiles")
    parent, change = args.parent.resolve(), args.change.resolve()
    runs = run_pairs(parent, change, args.workload, args.seed, args.pairs)
    print(f"{args.workload}: {args.pairs} pairs, seeds {args.seed}-{args.seed + args.pairs - 1},"
          f" {SECONDS:g} s; parent {commit_of(parent) or parent},"
          f" change {commit_of(change) or change}")
    print("\n".join(summarize(runs, end_to_end_metrics())))
    return 0


if __name__ == "__main__":
    sys.exit(main())
