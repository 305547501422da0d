"""Time one set-up in a fresh interpreter: import the package and load the
workload's puzzles.  Prints the seconds taken.

    python3 perfbench/setup_probe.py <workload> <seed>
"""

import sys
import time

import inputs

if __name__ == "__main__":
    t0 = time.perf_counter()
    inputs.load(sys.argv[1], int(sys.argv[2]))
    print(repr(time.perf_counter() - t0))
