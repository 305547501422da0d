"""Spans around the package's public functions, recorded from outside.

The tracer replaces each function in the namespace its callers look it up
in (`solve()` reaches Phase I, Step 3 and the minuet through names bound in
`minuet_sudoku.minuet`, and the oracle through the `oracle` module
attribute), and puts every original back on exit.  The program itself is not
changed, so the untraced run measures exactly the code users run.

A span's self time is its duration minus the durations of its direct
children, so the self times of all spans under a root add up to the root's
duration exactly, in integer nanoseconds.  Counters are keyed by name and
accumulate per phase of the benchmark (`setup`, `solve`, `batch`).
"""

from __future__ import annotations

import functools
from collections import Counter
from time import perf_counter_ns


def _step3_tag(args, kwargs) -> str:
    return "base" if kwargs.get("view") is None else "view"


def _count_passes(c: Counter, run) -> None:
    c["phase1.step1.passes"] += run.passes


def _count_sweeps(c: Counter, run) -> None:
    c["phase2.step3.sweeps"] += run.sweeps


def _count_starters(c: Counter, starters) -> None:
    c["minuet.starters_enumerated"] += len(starters)


def _count_changed(c: Counter, changed) -> None:
    c["minuet.dance_together.changed"] += bool(changed)


def _count_progress(c: Counter, result) -> None:
    c["minuet.run_minuet.progress"] += result[0] != "stuck"


# (module, attribute, span name, tag function, counter function)
TARGETS = (
    ("minuet", "step1_fixpoint", "phase1.step1_fixpoint", None, _count_passes),
    ("minuet", "step2_fill", "phase1.step2_fill", None, None),
    ("minuet", "step3_fixpoint", "phase2.step3_fixpoint", _step3_tag, _count_sweeps),
    ("minuet", "enumerate_starters", "minuet.enumerate_starters", None, _count_starters),
    ("minuet", "init_hypotheses", "minuet.init_hypotheses", None, None),
    ("minuet", "dance_alone", "minuet.dance_alone", None, None),
    ("minuet", "dance_together", "minuet.dance_together", None, _count_changed),
    ("minuet", "commit_retained", "minuet.commit_retained", None, None),
    ("minuet", "run_minuet", "minuet.run_minuet", None, _count_progress),
    ("oracle", "verify_well_posed", "oracle.verify_well_posed", None, None),
    ("harness", "solve", "minuet.solve", None, None),
    ("harness", "validate_report", "harness.validate_report", None, None),
    ("harness", "parse_grid", "grid.parse_grid", None, None),
    ("grid", "parse_grid", "grid.parse_grid", None, None),
)


class Tracer:
    """Install with `with Tracer(pkg) as t:`; read `t.phases[name]`.

    Besides `<span>.self_ns` and `<span>.calls`, each span adds its full
    duration to `<parent>><span>.dur_ns`, so time can be split by caller,
    and each top-level span to `root.dur_ns`.
    """

    def __init__(self, pkg):
        self.pkg = pkg
        self.phases: dict[str, Counter] = {}
        self.counts = Counter()
        self.stack: list[list] = []  # [span name, ns covered by child spans]
        self._saved: list[tuple[object, str, object]] = []

    def __enter__(self) -> "Tracer":
        for module_name, attr, name, tag, count in TARGETS:
            module = getattr(self.pkg, module_name)
            fn = getattr(module, attr)
            self._saved.append((module, attr, fn))
            setattr(module, attr, self._wrap(fn, name, tag, count))
        return self

    def __exit__(self, *exc) -> None:
        while self._saved:
            module, attr, fn = self._saved.pop()
            setattr(module, attr, fn)

    def phase(self, name: str) -> Counter:
        """Direct counters to the named phase; returns its Counter."""
        self.counts = self.phases.setdefault(name, Counter())
        return self.counts

    def _enter(self, name: str) -> int:
        self.stack.append([name, 0])
        return perf_counter_ns()

    def _exit(self, t0: int) -> int:
        dt = perf_counter_ns() - t0
        name, child_ns = self.stack.pop()
        c = self.counts
        c[name + ".self_ns"] += dt - child_ns
        c[name + ".calls"] += 1
        if self.stack:
            parent = self.stack[-1]
            parent[1] += dt
            c[f"{parent[0]}>{name}.dur_ns"] += dt
        else:
            c["root.dur_ns"] += dt
        return dt

    def root(self, name: str, fn, *args):
        """Run `fn(*args)` as a top-level span; returns (result, duration_ns)."""
        t0 = self._enter(name)
        try:
            result = fn(*args)
        finally:
            dt = self._exit(t0)
        return result, dt

    def _wrap(self, fn, name, tag, count):
        tracer = self

        @functools.wraps(fn)
        def span(*args, **kwargs):
            key = name if tag is None else f"{name}.{tag(args, kwargs)}"
            t0 = tracer._enter(key)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._exit(t0)
            if count is not None:
                count(tracer.counts, result)
            return result

        return span
