"""Step 4, the minuet: pick a binary starter, develop circle and square
hypotheses independently (dance alone), combine their retained candidates to
prune the base grid (dance together), commit the survivor on contradiction,
and retry with fresh starters until the puzzle yields.  The minuet as coded
alternates dancing alone and together until nothing changes; one
``dance_together`` is that whole iteration (``run_minuet``).

Each hypothesis view holds a full shadow grid: the explicit form of the
over/under-dot markings.  A view is developed once, when its starter is
asserted (``init_hypotheses`` calls ``dance_alone``), and is then only read.
Exactly one of a starter's two choices is true, so the union of the two
views' retained sets always contains the true digit of every cell.

Invariant: a live view narrows the base.  Every cell the base has solved is
solved to the same digit in the view, and every digit the view retains in a
cell the base retains too.  The view starts as a copy of the base and only
loses candidates.  Until a commit or an adoption ends the minuet, the base
changes only in ``dance_together``:

- trick (a) narrows each base cell to the union of the two views' retained
  candidates, and inks only a digit both views have inked;
- the Step-3 cleanup that follows draws only finds that a live view at its
  own Step-3 fixpoint has already drawn.  Restricted to a narrowing of the
  base, a single or a naked or hidden group of the base is still a single or
  a group, or leaves an empty cell or a starved digit, which Step 3 reports
  as a contradiction.

So a live view never needs to be brought up to date with the base.

A commit needs no Step-3 cleanup of its own: it makes the base equal to the
survivor's shadow, which ``init_hypotheses`` left at a Step-3 fixpoint
(``commit_retained``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from . import oracle
from .grid import (BIT, CELLS_OF, DIGITS_OF, STRUCT_BITS, STRUCT_SET_OF, STRUCTS_OF,
                   STRUCTURES, ContradictionFound, Grid, InconsistentGivens, Structure,
                   grid_from_ink, parse_grid, place_ink, serialize_grid)
from .phase1 import HalfDoubleRegistry, step1_fixpoint, step2_fill
from .phase2 import step3_fixpoint
from .trace import TraceEvent


class BothContradicted(Exception):
    """Both hypotheses of an exhaustive binary choice failed: no solution exists."""


class InconsistentSolution(RuntimeError):
    """``solve()`` completed a grid that breaks the rules: a deduction rule is unsound."""


class Starter(NamedTuple):
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
    """One side of a starter: the label and the shadow grid developed under it."""
    label: str  # "circle" | "square"
    shadow: Grid
    # set when the view is contradicted; kept without its traceback, whose
    # frames would hold the whole solve in a reference cycle with this view
    reason: ContradictionFound | None = None

    @property
    def alive(self) -> bool:
        return self.reason is None

    def retained(self, cell: int) -> int:
        """Candidate mask this hypothesis still allows in the cell."""
        d = self.shadow.solved[cell]
        return BIT[d] if d else self.shadow.masks[cell]


@dataclass(slots=True)
class MinuetState:
    """A starter and its two hypothesis views."""
    starter: Starter
    circle: HypothesisView
    square: HypothesisView


@dataclass(slots=True)
class SolveStats:
    """Per-solve counters of Phase I passes, Step-3 sweeps and the minuet."""
    phase1_passes: int = 0
    phase1_finds: int = 0
    step3_sweeps: int = 0
    starters_danced: int = 0
    # minuets that returned: starters_danced on every solved outcome and
    # conjecture failure; kept only because the golden stall digest hashes it
    minuet_rounds: int = 0
    commits: int = 0  # minuets that ended by committing the surviving view


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
    """What ``solve()`` returns: status, grids, trace, stats and any report."""
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


# 81-bit board of a cell's three structures: the cover of a bivalue starter
CELL_COVER = tuple(STRUCT_BITS[r] | STRUCT_BITS[c] | STRUCT_BITS[b]
                   for r, c, b in STRUCTS_OF)


def enumerate_starters(grid: Grid) -> list[Starter]:
    """All bivalue cells and half doubles, best-scored first.

    A half double is a digit with exactly two places in a structure: one
    pass over the structure's cells ORs their masks into ``seen``,
    ``twice`` and ``thrice`` (digits with one place or more, two or more,
    three or more), and the half doubles are ``twice & ~thrice``.  Score =
    number of bivalue cells in the union of the starter's covering
    structures (footnote-8 heuristic): the bivalue board ANDed with the
    cover, on 81-bit boards.  The cover is a cell's three structures
    (``CELL_COVER``), or the ones a half double's two cells share.  Ties
    break by ascending cell index, then ascending digit.  The list is empty
    when there is no bivalue cell and no half double.
    """
    masks = grid.masks
    solved = grid.solved
    bivalue = [c for c in range(81) if masks[c].bit_count() == 2 and not solved[c]]
    board = 0
    for c in bivalue:
        board |= 1 << c
    # (sort key, Starter fields); the keys are distinct, so fields never compare
    entries = []
    for c in bivalue:
        digits = DIGITS_OF[masks[c]]
        score = (board & CELL_COVER[c]).bit_count()
        entries.append(((-score, c, digits[0], c, 0),
                        ("bivalue", (c,), digits, None, score)))
    found = set()
    for s in range(27):
        cells = CELLS_OF[s]
        seen = twice = thrice = 0
        for c in cells:
            m = masks[c]
            thrice |= twice & m
            twice |= seen & m
            seen |= m
        half = twice & ~thrice
        while half:
            b = half & -half
            half ^= b
            a, z = [c for c in cells if masks[c] & b]
            d = b.bit_length()
            if (a, z, d) in found:  # also a half double of an earlier structure
                continue
            found.add((a, z, d))
            shared = STRUCT_SET_OF[a] & STRUCT_SET_OF[z]
            cover = 0
            while shared:
                cover |= STRUCT_BITS[(shared & -shared).bit_length() - 1]
                shared &= shared - 1
            score = (board & cover).bit_count()
            entries.append(((-score, a, d, z, 1),
                            ("half_double", (a, z), (d,), STRUCTURES[s], score)))
    entries.sort()
    return [Starter(*fields) for _, fields in entries]


def init_hypotheses(grid: Grid, starter: Starter,
                    trace: list | None = None) -> MinuetState:
    """Copy the base twice, assert one choice per view, develop both.

    The base must be at a Step-3 fixpoint, as it is whenever ``solve()``
    dances a starter.  Then only the starter's cell and the peers its ink
    erased from differ from a fixpoint, so each view's Step 3 starts with
    just their structures dirty.  This is the only time a view is developed:
    a live view stays a narrowing of the base (module docstring), so the
    base's later changes never reach it.
    """
    events = trace if trace is not None else []
    state = MinuetState(starter,
                        HypothesisView("circle", grid.copy()),
                        HypothesisView("square", grid.copy()))
    for view, (cell, digit) in zip((state.circle, state.square), starter.choices()):
        ev = place_ink(view.shadow, cell, digit, step="4", rule="starter",
                       view=view.label)
        events.append(ev)
        dance_alone(view, {cell, *(p for p, _ in ev.erased)}, events)
    return state


def dance_alone(view: HypothesisView, touched: set[int],
                trace: list | None = None) -> HypothesisView:
    """Develop a hypothesis: run a Step-3 fixpoint inside the view, starting
    from the cells in ``touched`` (those changed since the shadow was last at
    a fixpoint).  ``init_hypotheses`` calls it once per view; nothing later
    needs to, since a live view stays a narrowing of the base (module
    docstring) and the base's changes never reach it.

    A contradiction is captured as the view's ``reason``, never raised: it is
    a useful result (the other hypothesis must be true).  The reason is kept
    without its traceback.  The traceback's frames reach back to this view
    and up to ``solve()``, so a caught contradiction that kept them would
    hold the whole solve (trace, starters, shadows) in a reference cycle
    until the cyclic garbage collector ran."""
    try:
        step3_fixpoint(view.shadow, trace=trace, view=view.label, touched=touched)
    except ContradictionFound as e:
        view.reason = e.with_traceback(None)
    return view


def _narrow(base: Grid, c: int, allowed: int, step: str, rule: str,
            events: list) -> bool:
    """Erase from base cell ``c`` every candidate outside ``allowed``, as one
    event; returns whether anything was erased."""
    rm = base.masks[c] & ~allowed
    if not rm:
        return False
    base.masks[c] &= allowed
    events.append(TraceEvent(step, rule, cells=(c,), digits=DIGITS_OF[rm],
                             erased=tuple((c, d) for d in DIGITS_OF[rm])))
    if not base.masks[c]:
        raise ContradictionFound("empty_cell", cell=c)
    return True


def dance_together(state: MinuetState, base: Grid, trace: list | None = None) -> bool:
    """Joint eliminations from both views' markings; returns True if the base changed.

    Trick (a): a digit retained by neither view cannot be part of either
    solution, so it is erased from the base; if both views solve a cell to
    the same digit, that digit is inked.  Trick (b): a digit circled in one
    structure and squared in an overlapping structure is erased from the
    intersection (it would conflict with both dancers).  Changes are followed
    by a Step-3 cleanup of the base.  The views are left as they are: each
    live view still narrows the base afterwards (module docstring), because
    trick (a) keeps the union of their candidates and every Step-3 find on
    the base is one both views have already drawn.

    Trick (b) needs no code of its own here, because trick (a) draws every
    one of its conclusions first.  Lemma: in a live shadow, a solved cell's
    digit is neither a candidate nor the ink of any peer.  Every ink, in the
    base and in each shadow, goes through ``place_ink``, which erases the
    digit from all 20 peers (Rule 19) and refuses a digit that is not a
    candidate; ``grid_from_ink`` builds the givens the same way, and masks
    only ever shrink.  Now take a target ``x`` of (b) for digit ``n``, circled
    at ``a`` and squared at ``z``: ``x`` shares a structure with ``a`` and one
    with ``z``, so by the lemma ``n`` is absent from both
    ``circle.retained(x)`` and ``square.retained(x)``.  Trick (a) visits
    every unsolved base cell, so it has already erased ``n`` at ``x``, and
    (b) has nothing left to erase.  Its conclusions are therefore still
    drawn, and logged as trick (a) events under step "4a".  (``run_minuet``
    calls this only while both views are alive.)
    """
    events = trace if trace is not None else []
    circle, square = state.circle, state.square
    cs, ss = circle.shadow, square.shadow
    touched: set[int] = set()

    for c in range(81):
        if base.solved[c]:
            continue
        cd, sd = cs.solved[c], ss.solved[c]
        if cd and cd == sd:
            ev = place_ink(base, c, cd, step="4a", rule="trick (a) single")
            events.append(ev)
            touched.add(c)
            touched.update(p for p, _ in ev.erased)
        elif _narrow(base, c, circle.retained(c) | square.retained(c), "4a",
                     "trick (a)", events):
            touched.add(c)

    if touched:
        step3_fixpoint(base, trace=events, touched=touched)
    return bool(touched)


def commit_retained(state: MinuetState, base: Grid,
                    trace: list | None = None) -> None:
    """One view contradicted: its choice was false, so the survivor is right.

    Ink every cell the survivor solved and narrow the base to its retained
    candidates.  Raises BothContradicted if neither view survived (only
    reachable on ill-posed input).

    No Step-3 cleanup follows, because it could find nothing.  Lemma: after
    the commit the base equals the survivor's shadow, which is at a Step-3
    fixpoint.  Views never change after ``init_hypotheses``, so a view is
    contradicted before any ``dance_together``, and ``run_minuet`` commits
    before one has touched the base.
    ``init_hypotheses`` copied that base, which was at a Step-3 fixpoint, and
    ``dance_alone`` took the copy back to one.  The shadow narrows the base
    (module docstring), and a digit inked in the shadow is a candidate of
    none of the cell's peers there (``dance_together``).  So the inks erase
    only what the shadow lacks, and the narrowing leaves each base cell with
    exactly the shadow's candidates."""
    events = trace if trace is not None else []
    alive = [v for v in (state.circle, state.square) if v.alive]
    if not alive:
        raise BothContradicted(state.starter.describe())
    if len(alive) == 2:
        raise ValueError("commit_retained requires exactly one contradicted view")
    _take_shadow(alive[0], base, "commit", events)


def _take_shadow(view: HypothesisView, base: Grid, verb: str, events: list) -> None:
    """Make the base equal ``view``'s shadow, as rule ``"<verb> <label>"``:
    ink each cell the shadow solved, then narrow the rest to its candidates
    (a complete shadow, which is adopted as the solution, leaves no rest)."""
    shadow, rule = view.shadow, f"{verb} {view.label}"
    for c in range(81):
        if not base.solved[c] and shadow.solved[c]:
            events.append(place_ink(base, c, shadow.solved[c], step="commit", rule=rule))
    for c in range(81):
        if not base.solved[c]:
            _narrow(base, c, shadow.masks[c], "commit", rule, events)


def run_minuet(base: Grid, starter: Starter, *,
               trace: list | None = None) -> tuple[str, MinuetState]:
    """Dance one starter; returns how the dance ended, and the state.

    The ending is one of:

    - "commit": one view was contradicted, and the survivor was committed
      (``commit_retained``, which raises BothContradicted when neither view
      survived);
    - "adopt": both views are alive and one shadow is complete, and that
      completion was adopted as the solution;
    - "joint": ``dance_together`` changed the base;
    - "stuck": it did not; this starter cannot help right now, and all
      markings (the views) are simply discarded.

    Lemma: the ending is "stuck" exactly when the base is unchanged.  A
    starter's choices are candidates of unsolved base cells.  A commit inks
    the survivor's choice there, an adoption inks every unsolved cell, and
    ``dance_together`` returns True only after it inked or erased something.

    One ``dance_together`` is the whole alternation of dancing alone and
    together.  Lemma: a second call would change nothing.  The views are
    fixed after ``init_hypotheses``, so dancing alone again finds nothing.
    Trick (a) inks every cell both views solved alike and narrows every
    other unsolved base cell to the union of the views' candidates.  Its
    Step-3 cleanup leaves each cell at that union, because a live view still
    narrows the base (module docstring).  So a second trick (a) has nothing
    to ink or erase.
    """
    events = trace if trace is not None else []
    state = init_hypotheses(base, starter, events)
    if not (state.circle.alive and state.square.alive):
        commit_retained(state, base, events)
        return "commit", state
    for view in (state.circle, state.square):
        if view.shadow.is_complete():
            _take_shadow(view, base, "adopt", events)
            return "adopt", state
    return ("joint" if dance_together(state, base, events) else "stuck"), state


def solve(puzzle: str | Grid, *, phase1_triples: bool = False,
          verdict: oracle.WellPosedness | None = None) -> SolveOutcome:
    """Run the full method: Phase I, Step-3 fixpoint, then minuets until solved.

    The outcome's ``status`` is "solved" (all 81 cells inked and
    consistent), "conjecture_failure" (no starter, or every starter stuck on
    an unchanged base, of a puzzle the oracle verified as well-posed: the
    scientific payload, with a ``report``), or "ill_posed" (a contradiction
    or an exhausted binary choice, which sound rules only reach on inputs
    without a unique solution, or a stall on such an input; ``reason`` says
    which).  ``phase1_triples`` also hunts hidden triples in Phase I.

    Lemma: on a well-posed puzzle the outcome (status, ink and masks) is
    the greatest common fixpoint of Step 3 and the dilemma rule over bivalue
    cells and half doubles, so it depends neither on the order of
    ``enumerate_starters`` nor on Phase I.  Each Step-3 rule and each minuet
    (a base narrowed to the union of the two views' closures, or to the
    survivor's closure) only narrows, and each is monotone: on a narrower
    grid it narrows at least as far or reaches a contradiction, and a
    narrower grid keeps every starter or settles it.  Chaotic iteration of
    monotone narrowing rules ends at one greatest common fixpoint whatever
    the order (Apt, "The essence of constraint propagation", 1999), and
    Phase I's finds all lie inside it.  Only the trace and ``SolveStats``
    follow the path taken.

    Adoption is the one step that needs a unique solution.  An adoption
    (``run_minuet``) takes one view's completion without looking at the
    other view, which is sound only when the puzzle has one solution.  So a
    solve that ends by adoption is "solved" only when the oracle verifies the
    puzzle as well-posed, and "ill_posed" otherwise.

    Every other step keeps every solution.  Phase I and Step 3 deduce from
    the rules; a commit drops a choice that holds in no solution; trick (a)
    keeps the union of the two views' closures, and each solution lies in
    one of them.  So a grid completed without an adoption is the puzzle's
    only solution, that solve is a uniqueness proof, and the oracle runs
    only after an adoption or a stall.

    ``verdict`` is the oracle's verdict on this puzzle when the caller
    already holds one; it is consulted only when the method stalls or ends
    by adoption.  Without it, those ends run the oracle themselves.

    A ``Grid``'s pencil marks are rebuilt from its ink by ``grid_from_ink``,
    as ``parse_grid`` builds them: ink that is not 81 ints in 0-9 raises
    WrongLength or BadChar, and conflicting ink InconsistentGivens, before
    any work.  The completed grid passes through ``grid_from_ink``
    again, and a conflict there raises InconsistentSolution.
    """
    grid = parse_grid(puzzle) if isinstance(puzzle, str) else grid_from_ink(puzzle.solved)
    start = grid.copy()
    trace: list[TraceEvent] = []
    stats = SolveStats()
    starters_tried: list[str] = []

    def ill_posed(reason: str) -> SolveOutcome:
        return SolveOutcome("ill_posed", grid, start, trace, stats, reason=reason)

    def oracle_verdict() -> oracle.WellPosedness:
        return verdict if verdict is not None else oracle.verify_well_posed(start)

    def failure(reason: str) -> SolveOutcome:
        wp = oracle_verdict()
        if not wp.is_well_posed:
            return ill_posed(f"{reason}; oracle says {wp.status}")
        report = FailureReport(
            puzzle=serialize_grid(start),
            residual=serialize_grid(grid),
            residual_candidates=tuple(grid.masks),
            starters_tried=tuple(starters_tried),
            oracle_status=wp.status,
            reason=reason,
        )
        return SolveOutcome("conjecture_failure", grid, start, trace, stats,
                            report=report, reason=reason)

    try:
        registry = HalfDoubleRegistry()
        p1 = step1_fixpoint(grid, registry, phase1_triples, trace=trace)
        stats.phase1_passes = p1.passes
        stats.phase1_finds = sum(p1.finds_per_pass)
        step2_fill(grid, registry, trace=trace)
        stats.step3_sweeps += step3_fixpoint(grid, trace=trace).sweeps
    except ContradictionFound as e:
        return ill_posed(str(e))

    ending = None
    while not grid.is_complete():
        starters = enumerate_starters(grid)
        if not starters:
            return failure("no_starters")
        for starter in starters:
            starters_tried.append(starter.describe())
            stats.starters_danced += 1
            try:
                ending, _ = run_minuet(grid, starter, trace=trace)
            except BothContradicted:
                return ill_posed("both hypotheses contradicted: no solution exists")
            except ContradictionFound as e:
                return ill_posed(str(e))
            stats.minuet_rounds += 1
            stats.commits += ending == "commit"
            if ending != "stuck":
                break
        else:
            return failure("all_starters_stuck")

    try:
        grid_from_ink(grid.solved)
    except InconsistentGivens as e:
        raise InconsistentSolution(f"solver produced an inconsistent grid: {e}") from e
    if ending == "adopt":  # an adoption completes the grid, so it ends the loop
        wp = oracle_verdict()
        if not wp.is_well_posed:
            return ill_posed(f"adopted a completion; oracle says {wp.status}")
    return SolveOutcome("solved", grid, start, trace, stats)
