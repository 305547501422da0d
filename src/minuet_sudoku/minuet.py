"""Step 4, the minuet: pick a binary starter, develop circle and square
hypotheses independently (dance alone), combine their retained candidates to
prune the base grid (dance together), commit the survivor on contradiction,
and retry with fresh starters until the puzzle yields.

Each hypothesis view holds a full shadow grid: the explicit form of the
over/under-dot markings.  A view only ever narrows the base, and exactly one
of a starter's two choices is true, so the union of the two views' retained
sets always contains the true digit of every cell.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from . import oracle
from .grid import (BIT, CELLSET_OF, DIGITS_OF, STRUCTS_OF, STRUCTURES,
                   ContradictionFound, Grid, Structure, check_consistency,
                   parse_grid, place_ink, serialize_grid)
from .phase1 import HalfDoubleRegistry, step1_fixpoint, step2_fill
from .phase2 import _margins, step3_fixpoint
from .trace import TraceEvent


class NoStarters(Exception):
    """No bivalue cell and no half double exists at a Step-3 fixpoint."""


class BothContradicted(Exception):
    """Both hypotheses of an exhaustive binary choice failed: no solution exists."""


@dataclass(frozen=True, slots=True)
class Starter:
    kind: str  # "bivalue" | "half_double"
    cells: tuple[int, ...]
    digits: tuple[int, ...]
    structure: Structure | None
    score: int

    def choices(self) -> tuple[tuple[int, int], tuple[int, int]]:
        """The two (cell, digit) assertions; exactly one is true."""
        if self.kind == "bivalue":
            c = self.cells[0]
            return (c, self.digits[0]), (c, self.digits[1])
        d = self.digits[0]
        return (self.cells[0], d), (self.cells[1], d)

    def describe(self) -> str:
        if self.kind == "bivalue":
            c = self.cells[0]
            return (f"starter cell r{c // 9 + 1}c{c % 9 + 1} "
                    f"{{{self.digits[0]},{self.digits[1]}}}")
        a, b = self.cells
        s = self.structure
        return (f"starter half double {self.digits[0]} in {s.kind} {s.index + 1} "
                f"cells r{a // 9 + 1}c{a % 9 + 1},r{b // 9 + 1}c{b % 9 + 1}")


@dataclass(slots=True)
class HypothesisView:
    label: str  # "circle" | "square"
    shadow: Grid
    status: str = "alive"
    reason: ContradictionFound | None = None

    @property
    def alive(self) -> bool:
        return self.status == "alive"

    def retained(self, cell: int) -> int:
        """Candidate mask this hypothesis still allows in the cell."""
        d = self.shadow.solved[cell]
        return BIT[d] if d else self.shadow.masks[cell]


@dataclass(slots=True)
class MinuetState:
    starter: Starter
    circle: HypothesisView
    square: HypothesisView
    rounds: int = 0


@dataclass(slots=True)
class SolveConfig:
    phase1_triples: bool = False
    max_starters: int | None = None
    round_cap: int = 81
    monitor: Callable | None = None  # called as monitor(base, circle, square) after each dance_together


@dataclass(slots=True)
class SolveStats:
    phase1_passes: int = 0
    phase1_finds: int = 0
    step3_sweeps: int = 0
    starters_danced: int = 0
    minuet_rounds: int = 0
    commits: int = 0

    @property
    def used_minuet(self) -> bool:
        return self.starters_danced > 0


@dataclass(slots=True)
class FailureReport:
    """A well-posed puzzle the full method failed to solve: a candidate
    counterexample to the conjecture that the method solves them all."""
    puzzle: str
    residual: str
    residual_candidates: tuple[int, ...]
    starters_tried: tuple[str, ...]
    oracle_status: str
    reason: str  # "all_starters_stuck" | "no_starters"

    def to_dict(self) -> dict:
        return {
            "puzzle": self.puzzle,
            "residual": self.residual,
            "residual_candidates": ["".join(map(str, DIGITS_OF[m]))
                                    for m in self.residual_candidates],
            "starters_tried": list(self.starters_tried),
            "oracle_status": self.oracle_status,
            "reason": self.reason,
        }


@dataclass(slots=True)
class SolveOutcome:
    status: str  # "solved" | "conjecture_failure" | "ill_posed"
    grid: Grid
    start: Grid
    trace: list[TraceEvent]
    stats: SolveStats
    report: FailureReport | None = None
    reason: str | None = None

    @property
    def solved(self) -> bool:
        return self.status == "solved"


def enumerate_starters(grid: Grid) -> list[Starter]:
    """All bivalue cells and half doubles, best-scored first.

    Score = number of bivalue cells in the union of the starter's covering
    structures (footnote-8 heuristic).  Ties break by ascending cell index,
    then ascending digit.  Raises NoStarters when none exist.
    """
    masks = grid.masks
    bivalue = [c for c in range(81)
               if not grid.solved[c] and masks[c].bit_count() == 2]
    bset = set(bivalue)
    starters: list[Starter] = []
    for c in bivalue:
        cover = set()
        for s in STRUCTS_OF[c]:
            cover |= CELLSET_OF[s]
        d1, d2 = DIGITS_OF[masks[c]]
        starters.append(Starter("bivalue", (c,), (d1, d2), None, len(cover & bset)))
    seen: set[tuple[int, int, int]] = set()
    for s in range(27):
        for d, a, b in _margins(grid, s, 2):
            key = (a, b, d)
            if key in seen:
                continue
            seen.add(key)
            common = set(STRUCTS_OF[a]) & set(STRUCTS_OF[b])
            cover = set()
            for s2 in common:
                cover |= CELLSET_OF[s2]
            starters.append(Starter("half_double", (a, b), (d,), STRUCTURES[s],
                                    len(cover & bset)))
    if not starters:
        raise NoStarters("no bivalue cell and no half double at this fixpoint")
    starters.sort(key=lambda st: (-st.score, min(st.cells), st.digits[0],
                                  max(st.cells), 0 if st.kind == "bivalue" else 1))
    return starters


def init_hypotheses(grid: Grid, starter: Starter,
                    trace: list | None = None) -> MinuetState:
    """Copy the base twice, assert one choice per view, develop both."""
    events = trace if trace is not None else []
    state = MinuetState(starter,
                        HypothesisView("circle", grid.copy()),
                        HypothesisView("square", grid.copy()))
    for view, (cell, digit) in zip((state.circle, state.square), starter.choices()):
        try:
            events.append(place_ink(view.shadow, cell, digit, step="4",
                                    rule="starter", view=view.label))
            step3_fixpoint(view.shadow, trace=events, view=view.label)
        except ContradictionFound as e:
            view.status = "contradicted"
            view.reason = e
    return state


def _sync_view(view: HypothesisView, base: Grid) -> set[int]:
    """Narrow the shadow to the base (shadow(c) must stay a subset of base(c)).

    Returns the set of cells whose shadow state changed.  Raises
    ContradictionFound when the base no longer admits this hypothesis.
    """
    shadow = view.shadow
    changed: set[int] = set()
    for c in range(81):
        bd = base.solved[c]
        sd = shadow.solved[c]
        if bd:
            if sd == bd:
                continue
            if sd:
                raise ContradictionFound("conflict", cell=c, digit=bd)
            if not shadow.masks[c] & BIT[bd]:
                raise ContradictionFound("empty_cell", cell=c, digit=bd)
            ev = place_ink(shadow, c, bd, view=view.label)
            changed.add(c)
            changed.update(p for p, _ in ev.erased)
        else:
            if sd:
                if not base.masks[c] & BIT[sd]:
                    raise ContradictionFound("conflict", cell=c, digit=sd)
                continue
            nm = shadow.masks[c] & base.masks[c]
            if nm != shadow.masks[c]:
                if not nm:
                    raise ContradictionFound("empty_cell", cell=c)
                shadow.masks[c] = nm
                changed.add(c)
    return changed


def dance_alone(view: HypothesisView, base: Grid,
                trace: list | None = None) -> HypothesisView:
    """Sync the view with the base, then run a Step-3 fixpoint inside it.

    A contradiction is captured in the view's status, never raised: it is a
    useful result (the other hypothesis must be true)."""
    if not view.alive:
        return view
    events = trace if trace is not None else []
    try:
        changed = _sync_view(view, base)
        dirty: set[int] = set()
        for c in changed:
            dirty.update(STRUCTS_OF[c])
        step3_fixpoint(view.shadow, trace=events, view=view.label, dirty=dirty)
    except ContradictionFound as e:
        view.status = "contradicted"
        view.reason = e
    return view


def dance_together(state: MinuetState, base: Grid, trace: list | None = None,
                   monitor: Callable | None = None) -> bool:
    """Joint eliminations from both views' markings; returns True if the base changed.

    Trick (a): a digit retained by neither view cannot be part of either
    solution, so it is erased from the base; if both views solve a cell to
    the same digit, that digit is inked.  Trick (b): a digit circled in one
    structure and squared in an overlapping structure is erased from the
    intersection (it would conflict with both dancers).  Changes are followed
    by a Step-3 cleanup of the base and a re-sync of both views.

    With fully propagated shadow grids, every trick-(b) target has already
    lost the digit in both views, so trick (a) claims those erasures first;
    (b) still runs and matters whenever view markings are sparser.
    """
    events = trace if trace is not None else []
    circle, square = state.circle, state.square
    cs, ss = circle.shadow, square.shadow
    touched: set[int] = set()
    changed = False

    for c in range(81):
        if base.solved[c]:
            continue
        cd, sd = cs.solved[c], ss.solved[c]
        if cd and cd == sd:
            ev = place_ink(base, c, cd, step="4a", rule="trick (a) single")
            events.append(ev)
            touched.add(c)
            touched.update(p for p, _ in ev.erased)
            changed = True
            continue
        allowed = circle.retained(c) | square.retained(c)
        rm = base.masks[c] & ~allowed
        if rm:
            base.masks[c] &= allowed
            erased = tuple((c, d) for d in DIGITS_OF[rm])
            events.append(TraceEvent("4a", "trick (a)", cells=(c,),
                                     digits=DIGITS_OF[rm], erased=erased))
            touched.add(c)
            changed = True
            if not base.masks[c]:
                raise ContradictionFound("empty_cell", cell=c)

    for n in range(1, 10):
        b = BIT[n]
        circled = [c for c in range(81) if cs.solved[c] == n and not base.solved[c]]
        squared = [c for c in range(81) if ss.solved[c] == n and not base.solved[c]]
        for a in circled:
            for z in squared:
                if a == z:
                    continue
                erased = []
                for s1 in STRUCTS_OF[a]:
                    set1 = CELLSET_OF[s1]
                    for s2 in STRUCTS_OF[z]:
                        inter = set1 & CELLSET_OF[s2]
                        for x in sorted(inter):
                            if x == a or x == z or base.solved[x]:
                                continue
                            if base.masks[x] & b:
                                base.masks[x] &= ~b
                                erased.append((x, n))
                                touched.add(x)
                                if not base.masks[x]:
                                    raise ContradictionFound("empty_cell", cell=x)
                if erased:
                    events.append(TraceEvent("4b", "trick (b)", cells=(a, z),
                                             digits=(n,), erased=tuple(erased)))
                    changed = True

    if changed:
        dirty: set[int] = set()
        for c in touched:
            dirty.update(STRUCTS_OF[c])
        step3_fixpoint(base, trace=events, dirty=dirty)
        dance_alone(circle, base, events)
        dance_alone(square, base, events)
    if monitor is not None:
        monitor(base, circle, square)
    return changed


def commit_retained(state: MinuetState, base: Grid,
                    trace: list | None = None) -> None:
    """One view contradicted: its choice was false, so the survivor is right.

    Ink every cell the survivor solved, narrow the base to its retained
    candidates, and run a Step-3 cleanup.  Raises BothContradicted if neither
    view survived (only reachable on ill-posed input)."""
    events = trace if trace is not None else []
    alive = [v for v in (state.circle, state.square) if v.alive]
    if not alive:
        raise BothContradicted(state.starter.describe())
    if len(alive) == 2:
        raise ValueError("commit_retained requires exactly one contradicted view")
    surv = alive[0]
    shadow = surv.shadow
    rule = f"commit {surv.label}"
    touched: set[int] = set()
    for c in range(81):
        if not base.solved[c] and shadow.solved[c]:
            ev = place_ink(base, c, shadow.solved[c], step="commit", rule=rule)
            events.append(ev)
            touched.add(c)
            touched.update(p for p, _ in ev.erased)
    for c in range(81):
        if base.solved[c]:
            continue
        nm = base.masks[c] & shadow.masks[c]
        if nm != base.masks[c]:
            erased = tuple((c, d) for d in DIGITS_OF[base.masks[c] & ~nm])
            base.masks[c] = nm
            events.append(TraceEvent("commit", rule, cells=(c,),
                                     digits=tuple(d for _, d in erased),
                                     erased=erased))
            touched.add(c)
            if not nm:
                raise ContradictionFound("empty_cell", cell=c)
    dirty: set[int] = set()
    for c in touched:
        dirty.update(STRUCTS_OF[c])
    step3_fixpoint(base, trace=events, dirty=dirty)


def _adopt(view: HypothesisView, base: Grid, events: list) -> None:
    """A hypothesis completed without conflict: it is a solution, write it in."""
    rule = f"adopt {view.label}"
    for c in range(81):
        if not base.solved[c]:
            events.append(place_ink(base, c, view.shadow.solved[c],
                                    step="commit", rule=rule))


def run_minuet(base: Grid, starter: Starter, round_cap: int = 81,
               *, trace: list | None = None,
               monitor: Callable | None = None) -> tuple[str, MinuetState]:
    """Dance one starter to completion, contradiction-commit, or a stall.

    Returns ("solved" | "progress" | "stuck", state).  "stuck" with an
    unchanged base means this starter cannot help right now; all markings
    (the views) are simply discarded.
    """
    events = trace if trace is not None else []
    state = init_hypotheses(base, starter, events)
    changed_total = False
    for _ in range(round_cap):
        state.rounds += 1
        dance_alone(state.circle, base, events)
        dance_alone(state.square, base, events)
        c_alive, s_alive = state.circle.alive, state.square.alive
        if not c_alive and not s_alive:
            raise BothContradicted(starter.describe())
        if c_alive != s_alive:
            commit_retained(state, base, events)
            return "progress", state
        if base.is_complete():
            return "solved", state
        for view in (state.circle, state.square):
            if view.shadow.is_complete():
                _adopt(view, base, events)
                return "solved", state
        changed = dance_together(state, base, events, monitor)
        changed_total |= changed
        if changed and base.is_complete():
            return "solved", state
        if not changed:
            return ("progress", state) if changed_total else ("stuck", state)
    return "stuck", state


def solve(puzzle: str | Grid, config: SolveConfig | None = None) -> SolveOutcome:
    """Run the full method: Phase I, Step-3 fixpoint, then minuets until solved.

    Returns Solved (all 81 cells inked and consistent), ConjectureFailure
    (every starter stuck on an unchanged base: the scientific payload), or
    IllPosedDetected (a contradiction or an exhausted binary choice, which
    sound rules only reach on inputs without a unique solution).
    """
    cfg = config or SolveConfig()
    grid = parse_grid(puzzle) if isinstance(puzzle, str) else puzzle.copy()
    start = grid.copy()
    trace: list[TraceEvent] = []
    stats = SolveStats()
    starters_tried: list[str] = []

    def ill_posed(reason: str) -> SolveOutcome:
        return SolveOutcome("ill_posed", grid, start, trace, stats, reason=reason)

    def failure(reason: str) -> SolveOutcome:
        verdict = oracle.verify_well_posed(start)
        report = FailureReport(
            puzzle=serialize_grid(start),
            residual=serialize_grid(grid),
            residual_candidates=tuple(grid.masks),
            starters_tried=tuple(starters_tried),
            oracle_status=verdict.status,
            reason=reason,
        )
        return SolveOutcome("conjecture_failure", grid, start, trace, stats,
                            report=report, reason=reason)

    try:
        registry = HalfDoubleRegistry()
        p1 = step1_fixpoint(grid, registry, cfg.phase1_triples, trace=trace)
        stats.phase1_passes = p1.passes
        stats.phase1_finds = len(p1.finds)
        step2_fill(grid, registry, trace=trace)
        stats.step3_sweeps += step3_fixpoint(grid, trace=trace).sweeps
    except ContradictionFound as e:
        return ill_posed(str(e))

    while not grid.is_complete():
        try:
            starters = enumerate_starters(grid)
        except NoStarters:
            return failure("no_starters")
        if cfg.max_starters is not None:
            starters = starters[:cfg.max_starters]
        progressed = False
        for starter in starters:
            before = grid.fingerprint()
            starters_tried.append(starter.describe())
            stats.starters_danced += 1
            try:
                outcome, state = run_minuet(grid, starter, cfg.round_cap,
                                            trace=trace, monitor=cfg.monitor)
            except BothContradicted:
                return ill_posed("both hypotheses contradicted: no solution exists")
            except ContradictionFound as e:
                return ill_posed(str(e))
            stats.minuet_rounds += state.rounds
            if outcome == "progress":
                stats.commits += 1
            if grid.is_complete():
                progressed = True
                break
            if grid.fingerprint() != before:
                progressed = True
                break
        if not progressed:
            return failure("all_starters_stuck")

    issue = check_consistency(grid)
    if issue is not None:
        raise RuntimeError(f"solver produced an inconsistent grid: {issue}")
    return SolveOutcome("solved", grid, start, trace, stats)
