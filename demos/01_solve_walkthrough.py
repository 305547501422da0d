#!/usr/bin/env python3
"""Walk through one solve, phase by phase, printing the log the way a
pencil-and-paper solver would narrate it."""

from minuet_sudoku import (HalfDoubleRegistry, enumerate_starters, parse_grid,
                           render_trace, serialize_grid, solve, step1_fixpoint,
                           step2_fill, step3_fixpoint)

PUZZLE = (".9..2.6.....7...45.851......1..3.5...5.2...839"
          ".7......8.3.1...6.6........7...31..")

print("puzzle:")
print(parse_grid(PUZZLE).pretty())

# Phase I: numbers look for cells (Step 1), then cells look for numbers (Step 2)
grid = parse_grid(PUZZLE)
registry = HalfDoubleRegistry()
events = []
run = step1_fixpoint(grid, registry, trace=events)
print(f"\nStep 1 took {run.passes} passes and made {sum(run.finds_per_pass)} finds "
      f"({grid.inked_count()} cells inked)")
print(f"  half doubles on record: {len(registry.entries)}, "
      f"hidden doubles claimed: {sum(e.step == '1.3' for e in events)}")

step2_fill(grid, registry, trace=events)
print(f"Step 2 filled every cell with candidates "
      f"({sum(m.bit_count() for m in grid.masks)} pencil marks total)")

# Phase II: prune with the basic cleanup, then dance
run3 = step3_fixpoint(grid, trace=events)
print(f"Step 3 swept to a fixpoint in {run3.sweeps} sweeps, "
      f"{sum(run3.finds_per_sweep)} finds; {81 - grid.inked_count()} cells remain")

if not grid.is_complete():
    starters = enumerate_starters(grid)
    print(f"\nStep 4: {len(starters)} starters available; best is the "
          f"{starters[0].describe()} (score {starters[0].score})")

outcome = solve(PUZZLE)
print(f"\nfull method: {outcome.status} after "
      f"{outcome.stats.starters_danced} starter(s), "
      f"{outcome.stats.commits} commit(s)")
print(serialize_grid(outcome.grid))
print("\nsolve log by rule:")
print(render_trace(outcome.trace, "summary"))
