import random

import pytest

from minuet_sudoku import (BothContradicted,
                           HalfDoubleRegistry, Starter,
                           brute_solve, commit_retained, dance_alone,
                           dance_together, enumerate_starters, init_hypotheses,
                           parse_grid, place_ink, replay_trace, run_minuet,
                           serialize_grid, solve, step1_fixpoint, step2_fill,
                           step3_fixpoint, validate_report, verify_well_posed)
from minuet_sudoku import minuet
from minuet_sudoku.grid import (ALL_DIGITS, BIT, CELLS_OF, DIGITS_OF, PEERS, STRUCTS_OF,
                                STRUCTURES, ContradictionFound, Grid, InconsistentGivens,
                                Structure, mask_of)
from minuet_sudoku.generate import STALL, dig_minimal, random_isomorph, random_solution
from minuet_sudoku.minuet import MinuetState, HypothesisView

from minuet_sudoku.phase1 import Phase1Run

from puzzles import (CLIMB_STALLS, EASY, EASY_SOLUTION, HARD, HARD_SOLUTION, MEDIUM, TRICKY,
                     TRICKY_SOLUTION)
from test_golden_trace import stall_puzzles


def at_fixpoint(puzzle: str) -> Grid:
    g = parse_grid(puzzle)
    registry = HalfDoubleRegistry()
    step1_fixpoint(g, registry)
    step2_fill(g, registry)
    step3_fixpoint(g)
    return g


def two_view_state(base: Grid, starter: Starter) -> MinuetState:
    state = init_hypotheses(base, starter)
    assert state.circle.alive and state.square.alive
    return state


# --- starters -------------------------------------------------------------

def test_enumerate_starters_on_bivalue_grid():
    g = parse_grid(EASY_SOLUTION)
    # un-solve a swappable pair: cells 1 and 2 hold 3 and 4 in row 0 / box 0
    for c in (1, 2):
        d = g.solved[c]
        g.solved[c] = 0
    g.masks[1] = g.masks[2] = mask_of({3, 4})
    starters = enumerate_starters(g)
    assert len(starters) >= 2
    bivalue = [s for s in starters if s.kind == "bivalue"]
    assert [s.cells[0] for s in bivalue] == [1, 2]  # equal score, index tiebreak
    assert all(s.score == 2 for s in bivalue)


def test_enumerate_starters_dedupes_half_doubles():
    g = parse_grid(EASY_SOLUTION)
    for c in (1, 2):
        g.solved[c] = 0
    g.masks[1] = g.masks[2] = mask_of({3, 4})
    starters = enumerate_starters(g)
    # 3 is restricted to cells {1, 2} in row 0, box 0 *and* nowhere else:
    # the half double must appear exactly once
    hd3 = [s for s in starters if s.kind == "half_double" and s.digits == (3,)]
    assert len(hd3) == 1 and set(hd3[0].cells) == {1, 2}


def test_enumerate_starters_orders_by_score():
    g = at_fixpoint(HARD)
    starters = enumerate_starters(g)
    assert starters == sorted(starters, key=lambda s: -s.score, reverse=False) or \
        all(a.score >= b.score for a, b in zip(starters, starters[1:]))


def reference_starters(grid: Grid) -> list[tuple]:
    """The starter list by the definition, with sets: every bivalue cell and
    every digit with exactly two candidate cells in a structure, scored by
    the bivalue cells in the union of the structures covering the starter."""
    masks = grid.masks
    bivalue = {c for c in range(81) if not grid.solved[c] and masks[c].bit_count() == 2}

    def score(cells):
        common = set.intersection(*(set(STRUCTS_OF[c]) for c in cells))
        return len(set().union(*(CELLS_OF[s] for s in common)) & bivalue)

    out = [("bivalue", (c,), DIGITS_OF[masks[c]], None, score((c,)))
           for c in sorted(bivalue)]
    seen = set()
    for s in range(27):
        for d in range(1, 10):
            occ = tuple(c for c in CELLS_OF[s] if masks[c] & BIT[d])
            if len(occ) == 2 and (occ, d) not in seen:
                seen.add((occ, d))
                out.append(("half_double", occ, (d,), STRUCTURES[s], score(occ)))
    out.sort(key=lambda st: (-st[4], min(st[1]), st[2][0], max(st[1]),
                             0 if st[0] == "bivalue" else 1))
    return out


def enumerated(grid: Grid) -> list[tuple]:
    return [(st.kind, st.cells, st.digits, st.structure, st.score)
            for st in enumerate_starters(grid)]


def test_enumerate_starters_matches_reference(hard_corpus):
    grids = [at_fixpoint(p) for p in hard_corpus]
    rng = random.Random(41)
    for _ in range(40):
        chars = list(random_solution(rng))
        for c in rng.sample(range(81), rng.randrange(20, 60)):
            chars[c] = "."
        g = parse_grid("".join(chars))
        grids.append(g.copy())
        step3_fixpoint(g)
        grids.append(g)
    # a half double vanishes as soon as one of its candidates is erased
    g = Grid()
    for c in CELLS_OF[0]:
        if c not in (3, 5):
            g.masks[c] &= ~BIT[9]
    grids.append(g.copy())
    assert ("half_double", (3, 5), (9,), Structure("row", 0)) in \
        [st[:4] for st in enumerated(g)]
    g.masks[3] &= ~BIT[9]
    grids.append(g)
    assert not [st for st in enumerated(g) if st[2] == (9,) and st[3] == Structure("row", 0)]
    for g in grids:
        assert enumerated(g) == reference_starters(g)


def test_no_starters_on_blank_grid():
    assert enumerate_starters(Grid()) == []


def test_starters_exist_across_hard_corpus(hard_corpus):
    for puzzle in hard_corpus:
        g = at_fixpoint(puzzle)
        assert not g.is_complete()  # hard tier means Step 3 cannot finish it
        assert enumerate_starters(g)


# --- hypothesis views -----------------------------------------------------

def test_init_hypotheses_asserts_both_choices():
    g = at_fixpoint(HARD)
    starter = enumerate_starters(g)[0]
    state = init_hypotheses(g, starter)
    (c1, d1), (c2, d2) = starter.choices()
    if state.circle.alive:
        assert state.circle.shadow.solved[c1] == d1
    if state.square.alive:
        assert state.square.shadow.solved[c2] == d2
    assert state.circle.alive or state.square.alive


def test_half_double_starter_places_digit_in_each_cell():
    g = at_fixpoint(HARD)
    starter = next(s for s in enumerate_starters(g) if s.kind == "half_double")
    state = init_hypotheses(g, starter)
    (a, d), (b, _) = starter.choices()
    if state.circle.alive:
        assert state.circle.shadow.solved[a] == d
    if state.square.alive:
        assert state.square.shadow.solved[b] == d


def assert_live_views_narrow(base: Grid, state: MinuetState) -> None:
    """The invariant that lets a view be developed once: every live view's
    solved cells agree with the base, and it retains no digit the base lost."""
    for view in (state.circle, state.square):
        if not view.alive:
            continue
        for c in range(81):
            if base.solved[c]:
                assert view.shadow.solved[c] == base.solved[c]
            base_mask = BIT[base.solved[c]] if base.solved[c] else base.masks[c]
            assert view.retained(c) & ~base_mask == 0


def test_views_only_narrow_the_base():
    g = at_fixpoint(STALL)
    state = two_view_state(g, enumerate_starters(g)[0])
    assert_live_views_narrow(g, state)


def test_dance_alone_is_noop_at_fixpoint():
    g = at_fixpoint(STALL)
    state = two_view_state(g, enumerate_starters(g)[0])
    snap = state.circle.shadow.copy()
    events = []
    dance_alone(state.circle, set(), events)
    assert events == []
    assert state.circle.alive
    assert state.circle.shadow == snap


def test_dance_alone_records_a_step3_contradiction():
    # cells 0 and 1 may only hold 4, so a naked single inks 4 at cell 0 and
    # Rule 19 empties cell 1: the view is contradicted, and nothing is raised
    view = HypothesisView("circle", Grid())
    view.shadow.masks[0] = view.shadow.masks[1] = BIT[4]
    events = []
    dance_alone(view, {0, 1}, events)
    assert not view.alive
    assert view.reason.kind == "empty_cell" and view.reason.cell == 1
    assert [(ev.step, ev.rule, ev.view, ev.inked) for ev in events] == [
        ("3.1", "naked single", "circle", ((0, 4),))]


def test_true_choice_view_never_contradicts():
    g = at_fixpoint(HARD)
    truth = brute_solve(parse_grid(HARD))
    for starter in enumerate_starters(g)[:5]:
        state = init_hypotheses(g.copy(), starter)
        (c1, d1), _ = starter.choices()
        true_view = state.circle if truth.solved[c1] == d1 else state.square
        assert true_view.alive


# --- dance together: the joint elimination tricks ---------------------------

def test_trick_a_erases_union_complement():
    base = Grid()
    base.masks[0] = mask_of({2, 5, 9})
    circle = HypothesisView("circle", base.copy())
    square = HypothesisView("square", base.copy())
    circle.shadow.masks[0] = mask_of({5})
    square.shadow.masks[0] = mask_of({5, 9})
    state = MinuetState(Starter("bivalue", (1,), (1, 2), None, 0), circle, square)
    changed = dance_together(state, base)
    assert changed
    assert base.candidates(0) == {5, 9}


def test_trick_a_special_case_inks_agreed_single():
    base = Grid()
    circle = HypothesisView("circle", base.copy())
    square = HypothesisView("square", base.copy())
    place_ink(circle.shadow, 0, 7)
    place_ink(square.shadow, 0, 7)
    state = MinuetState(Starter("bivalue", (1,), (1, 2), None, 0), circle, square)
    events = []
    dance_together(state, base, events)
    assert base.solved[0] == 7
    assert any(ev.rule == "trick (a) single" for ev in events)


def test_double_blocked_candidate_is_erased_from_intersection():
    base = Grid()
    circle = HypothesisView("circle", base.copy())
    square = HypothesisView("square", base.copy())
    place_ink(circle.shadow, 3, 4)   # 4 in row 0 (circle)
    place_ink(square.shadow, 36, 4)  # 4 in column 0 (square)
    state = MinuetState(Starter("bivalue", (50,), (1, 2), None, 0), circle, square)
    dance_together(state, base)
    assert 4 not in base.candidates(0)  # row 0 meets column 0 at cell 0


def test_trick_b_lemma_holds_on_dug_puzzles(monkeypatch):
    # the lemma dance_together relies on to leave trick (b) to trick (a):
    # in a live view, no peer of a solved cell keeps or inks its digit; and
    # the invariant that lets views be developed once: each live view still
    # narrows the base after the joint eliminations
    checked = []
    real_dance_together = minuet.dance_together

    def dance_together(state, base, *args, **kwargs):
        changed = real_dance_together(state, base, *args, **kwargs)
        for view in (state.circle, state.square):
            if not view.alive:
                continue
            shadow = view.shadow
            for c in range(81):
                d = shadow.solved[c]
                if d:
                    for p in PEERS[c]:
                        assert shadow.solved[p] != d
                        assert not shadow.masks[p] & BIT[d]
        assert_live_views_narrow(base, state)
        checked.append(1)
        return changed

    monkeypatch.setattr(minuet, "dance_together", dance_together)
    for seed in range(80):
        puzzle = dig_minimal(random.Random(seed))
        outcome = solve(puzzle)
        if outcome.status == "solved":
            assert outcome.grid.solved == brute_solve(parse_grid(puzzle)).solved
        else:
            assert outcome.status == "conjecture_failure"
            validate_report(outcome.report)
    assert checked  # some of these puzzles reach dance_together


def test_commits_count_only_minuets_that_commit(monkeypatch):
    commits, endings = [], []
    real_commit, real_run = minuet.commit_retained, minuet.run_minuet

    def commit(*args, **kwargs):
        commits.append(1)
        return real_commit(*args, **kwargs)

    def run(*args, **kwargs):
        result = real_run(*args, **kwargs)
        endings.append(result[0])
        return result

    monkeypatch.setattr(minuet, "commit_retained", commit)
    monkeypatch.setattr(minuet, "run_minuet", run)
    outcome = solve(TRICKY)
    assert outcome.status == "solved"
    # one of TRICKY's minuets progresses by trick (a) alone, with no commit
    assert sorted(e for e in endings if e != "stuck") == ["commit", "commit", "joint"]
    assert outcome.stats.commits == len(commits) == 2


def test_commit_leaves_base_equal_to_a_survivor_at_its_fixpoint(hard_corpus,
                                                               monkeypatch):
    """The premise that lets a commit skip Step 3: afterwards the base is the
    survivor's shadow, and a full Step-3 fixpoint of it finds nothing."""
    commits = []
    real_commit = minuet.commit_retained

    def commit(state, base, *args, **kwargs):
        real_commit(state, base, *args, **kwargs)
        survivor = state.circle if state.circle.alive else state.square
        assert base == survivor.shadow
        events = []
        step3_fixpoint(base.copy(), trace=events)
        assert events == []
        commits.append(1)

    monkeypatch.setattr(minuet, "commit_retained", commit)
    counted = sum(solve(puzzle).stats.commits for puzzle in hard_corpus)
    assert len(commits) == counted > 0


def test_union_soundness_on_fixture_puzzles(monkeypatch):
    real_dance_together = minuet.dance_together
    for puzzle, solution in ((HARD, HARD_SOLUTION), (TRICKY, TRICKY_SOLUTION)):
        checked = []

        def dance_together(state, base, *args, solution=solution, checked=checked,
                           **kwargs):
            changed = real_dance_together(state, base, *args, **kwargs)
            circle, square = state.circle, state.square
            for c in range(81):
                true_d = int(solution[c])
                if base.solved[c]:
                    assert base.solved[c] == true_d
                    continue
                if circle.alive and square.alive:
                    assert (circle.retained(c) | square.retained(c)) & BIT[true_d]
            checked.append(1)
            return changed

        monkeypatch.setattr(minuet, "dance_together", dance_together)
        outcome = solve(puzzle)
        assert outcome.status == "solved"
        if puzzle is TRICKY:
            assert checked  # joint eliminations ran here, so the check ran


# --- commit and run --------------------------------------------------------

def test_commit_requires_exactly_one_survivor():
    base = Grid()
    circle = HypothesisView("circle", base.copy())
    square = HypothesisView("square", base.copy())
    state = MinuetState(Starter("bivalue", (0,), (1, 2), None, 0), circle, square)
    with pytest.raises(ValueError):
        commit_retained(state, base)
    circle.reason = square.reason = ContradictionFound("empty_cell", cell=0)
    with pytest.raises(BothContradicted):
        commit_retained(state, base)


def test_commit_inks_survivor_solves_and_narrows():
    base = Grid()
    base.masks[0] = mask_of({1, 2})
    circle = HypothesisView("circle", base.copy())
    square = HypothesisView("square", base.copy())
    place_ink(circle.shadow, 0, 1)
    square.reason = ContradictionFound("empty_cell", cell=0)
    state = MinuetState(Starter("bivalue", (0,), (1, 2), None, 0), circle, square)
    commit_retained(state, base)
    assert base.solved[0] == 1
    assert all(1 not in base.candidates(p) or base.solved[p]
               for p in range(1, 9))


def test_run_minuet_progress_records_new_ink():
    g = at_fixpoint(HARD)
    before = g.inked_count()
    ending, _ = run_minuet(g, enumerate_starters(g)[0])
    assert ending in ("commit", "adopt", "joint")
    assert g.inked_count() > before


def test_run_minuet_stuck_leaves_base_bit_identical():
    g = at_fixpoint(STALL)
    snap = g.copy()
    for starter in enumerate_starters(g):
        ending, _ = run_minuet(g, starter)
        assert ending == "stuck"
        assert g == snap


def test_each_minuet_dances_together_at_most_once(hard_corpus, monkeypatch):
    """One dance together is the whole iteration (run_minuet's lemma), so
    minuet_rounds counts one per starter danced; a minuet is "stuck" exactly
    when it leaves the base unchanged (the lemma solve() relies on); and
    each other ending names what happened: "commit" exactly when one view is
    contradicted, "adopt" exactly when both views are alive and one shadow
    is complete, "joint" exactly when dance_together changed the base.
    solve() counts its commits, and logs adoptions, from the endings."""
    dances = []  # the values dance_together returned, per run_minuet call
    endings = []  # run_minuet's endings within the current solve
    real_dance_together, real_run = minuet.dance_together, minuet.run_minuet

    def dance_together(*args, **kwargs):
        changed = real_dance_together(*args, **kwargs)
        dances[-1].append(changed)
        return changed

    def run(base, *args, **kwargs):
        dances.append([])
        before = base.copy()
        ending, state = real_run(base, *args, **kwargs)
        circle, square = state.circle, state.square
        assert (ending != "stuck") == (base != before)
        assert (ending == "commit") == (circle.alive != square.alive)
        assert (ending == "adopt") == (circle.alive and square.alive and (
            circle.shadow.is_complete() or square.shadow.is_complete()))
        assert (ending == "joint") == (dances[-1] == [True])
        endings.append(ending)
        return ending, state

    monkeypatch.setattr(minuet, "dance_together", dance_together)
    monkeypatch.setattr(minuet, "run_minuet", run)
    seen = set()
    for puzzle in hard_corpus + stall_puzzles():
        endings.clear()
        outcome = solve(puzzle)
        assert outcome.status in ("solved", "conjecture_failure"), puzzle
        assert outcome.stats.minuet_rounds == outcome.stats.starters_danced, puzzle
        assert outcome.stats.commits == endings.count("commit"), puzzle
        adopted = any(ev.rule.startswith("adopt ") for ev in outcome.trace)
        assert adopted == ("adopt" in endings), puzzle
        seen.update(endings)
    assert max(map(len, dances)) == 1
    assert seen == {"commit", "adopt", "joint", "stuck"}


# --- solve ------------------------------------------------------------------

def test_solve_easy_without_minuet():
    outcome = solve(EASY)
    assert outcome.status == "solved"
    assert serialize_grid(outcome.grid) == EASY_SOLUTION
    assert outcome.stats.starters_danced == 0


@pytest.mark.parametrize("puzzle,solution", [(HARD, HARD_SOLUTION),
                                             (TRICKY, TRICKY_SOLUTION)])
def test_solve_hard_matches_oracle(puzzle, solution):
    outcome = solve(puzzle)
    assert outcome.status == "solved"
    assert serialize_grid(outcome.grid) == solution
    assert outcome.stats.starters_danced >= 1


def test_solve_leaves_the_callers_grid_alone():
    for puzzle in (EASY, HARD):
        g = parse_grid(puzzle)
        snap = g.copy()
        outcome = solve(g)
        assert outcome.status == "solved"
        assert g == snap
        assert outcome.grid is not g and outcome.start is not g


def test_solve_reads_only_the_ink_of_a_grid():
    """A grid's pencil marks do not reach the solver: masks left wide open
    or narrowed past the solution solve exactly like the puzzle text, and
    conflicting ink is rejected before any work."""
    expected = solve(HARD)
    wide = parse_grid(HARD)
    wide.masks = [0 if d else ALL_DIGITS for d in wide.solved]
    narrowed = parse_grid(HARD)
    for c in range(81):
        if not narrowed.solved[c]:
            narrowed.masks[c] &= ~BIT[int(HARD_SOLUTION[c])]
    for grid in (wide, narrowed):
        outcome = solve(grid)
        assert outcome.status == "solved"
        assert outcome.trace == expected.trace and outcome.grid == expected.grid
        assert outcome.start == parse_grid(HARD)
    clash = Grid()
    clash.solved[:2] = [5, 5]
    with pytest.raises(InconsistentGivens):
        solve(clash)


def test_solve_builds_a_grid_without_the_text_round_trip(monkeypatch):
    """``solve()`` rebuilds a ``Grid`` from its ink directly: the puzzle
    text is neither written nor parsed."""
    grid = parse_grid(HARD)
    expected = solve(HARD)

    def boom(*args):
        raise AssertionError("text round trip")

    monkeypatch.setattr(minuet, "parse_grid", boom)
    monkeypatch.setattr(minuet, "serialize_grid", boom)
    outcome = solve(grid)
    assert outcome.trace == expected.trace and outcome.grid == expected.grid


def test_tricky_fixture_exercises_joint_eliminations():
    outcome = solve(TRICKY)
    assert any(ev.step == "4a" for ev in outcome.trace)


def test_solve_trace_replays_to_final_grid():
    for puzzle in (EASY, MEDIUM, HARD, TRICKY):
        outcome = solve(puzzle)
        replayed = replay_trace(outcome.start.copy(), outcome.trace)
        assert replayed == outcome.grid


def test_solve_reports_conjecture_failure_with_validated_report():
    outcome = solve(STALL)
    assert outcome.status == "conjecture_failure"
    assert outcome.reason == "all_starters_stuck"
    report = outcome.report
    assert report.oracle_status == "well_posed"
    assert report.puzzle == serialize_grid(parse_grid(STALL))
    assert len(report.starters_tried) >= 1
    validate_report(report)  # raises if the residual lost the solution


def test_solve_commutes_with_isomorphs(hard_corpus):
    """Status, answer, residual ink and residual candidates map across a
    relabelling, band/stack/row/column shuffle and transposition.  The
    starters danced may differ, since starter ties break by cell index."""
    rng = random.Random(606)
    for puzzle in hard_corpus[::20] + [STALL]:
        src = solve(puzzle)
        for _ in range(3):
            iso = random_isomorph(rng)
            img = solve(iso.apply(puzzle))
            source = [9 * c + r if iso.transpose else 9 * r + c
                      for r in iso.rows for c in iso.cols]
            relabel = [0] + [BIT[iso.digits[d - 1]] for d in range(1, 10)]
            assert img.status == src.status, puzzle
            assert serialize_grid(img.grid) == iso.apply(serialize_grid(src.grid))
            assert img.grid.masks == [sum(relabel[d] for d in DIGITS_OF[src.grid.masks[c]])
                                      for c in source]
            if src.report is not None:
                assert img.report.reason == src.report.reason
                assert img.report.residual == iso.apply(src.report.residual)


@pytest.fixture(scope="module")
def lemma_cases(hard_corpus):
    """(puzzle, verdict, plain outcome) for every 4th hard puzzle, the golden
    stall set and the climb stalls."""
    cases = []
    for puzzle in hard_corpus[::4] + stall_puzzles() + list(CLIMB_STALLS):
        wp = verify_well_posed(parse_grid(puzzle))
        outcome = solve(puzzle, verdict=wp)
        cases.append((puzzle, wp, (outcome.status, outcome.grid.solved, outcome.grid.masks)))
    return cases


def run_minuet_without_adoption(base, starter, *, trace=None):
    """``minuet.run_minuet`` without its adopt branch: a dance whose views
    both live goes on to ``dance_together`` even when a shadow is complete."""
    events = trace if trace is not None else []
    state = init_hypotheses(base, starter, events)
    if not (state.circle.alive and state.square.alive):
        commit_retained(state, base, events)
        return "commit", state
    return ("joint" if dance_together(state, base, events) else "stuck"), state


@pytest.mark.parametrize("variant", ["reversed", "shuffled", "no_phase1", "no_adoption"])
def test_outcome_is_a_function_of_the_puzzle(lemma_cases, monkeypatch, variant):
    """The lemma of ``solve()``: the status, ink and masks do not depend on
    the order of the starters or on Phase I, and adoption only shortens a
    solve.  Traces and ``SolveStats`` follow the path and are not compared."""
    real = minuet.enumerate_starters
    rng = random.Random(2206)

    def shuffled(grid):
        starters = real(grid)
        rng.shuffle(starters)
        return starters

    if variant == "reversed":
        monkeypatch.setattr(minuet, "enumerate_starters", lambda grid: real(grid)[::-1])
    elif variant == "shuffled":
        monkeypatch.setattr(minuet, "enumerate_starters", shuffled)
    elif variant == "no_adoption":
        monkeypatch.setattr(minuet, "run_minuet", run_minuet_without_adoption)
    else:
        monkeypatch.setattr(minuet, "step1_fixpoint", lambda *a, **kw: Phase1Run())
        monkeypatch.setattr(minuet, "step2_fill", lambda *a, **kw: None)
    for puzzle, wp, plain in lemma_cases:
        outcome = solve(puzzle, verdict=wp)
        assert (outcome.status, outcome.grid.solved, outcome.grid.masks) == plain, puzzle
    statuses = [plain[0] for _, _, plain in lemma_cases]
    assert statuses.count("conjecture_failure") == 25 + len(CLIMB_STALLS)
    assert statuses.count("solved") == len(statuses) - statuses.count("conjecture_failure")


def test_solve_no_starters_reason_on_blank_grid():
    # the method stalls without a starter, but the oracle finds many
    # solutions: an ill-posed input, not a conjecture failure
    outcome = solve("." * 81)
    assert outcome.status == "ill_posed"
    assert outcome.reason == "no_starters; oracle says multiple_solutions"
    assert outcome.report is None


def test_solve_adopts_a_completion_only_of_a_well_posed_puzzle(hard_corpus, monkeypatch):
    """An adoption takes one view's completion without looking at the other,
    which is sound only when the puzzle has one solution.  On hard puzzles
    with one given dropped, solve() says solved only when the oracle says
    well-posed, and a caller's verdict stands in for the oracle.

    Every other step keeps every solution, so without adoption no puzzle
    with several solutions is completed: each of them comes back ill-posed."""
    adopted = 0
    for puzzle in hard_corpus[::10]:
        i = puzzle.index(next(ch for ch in puzzle if ch != "."))
        dropped = puzzle[:i] + "." + puzzle[i + 1:]
        wp = verify_well_posed(parse_grid(dropped))
        outcome = solve(dropped)
        if not wp.is_well_posed:
            assert outcome.status == "ill_posed", dropped
            adopted += any(ev.rule.startswith("adopt ") for ev in outcome.trace)
            with monkeypatch.context() as m:
                m.setattr(minuet, "run_minuet", run_minuet_without_adoption)
                assert solve(dropped, verdict=wp).status == "ill_posed", dropped
    assert adopted  # the adoption path was exercised on an ill-posed puzzle

    multiple = "7......544........8...9.2.......13....3.7....51.2.......752...8...1.4.2....9..1.."
    verdict = verify_well_posed(parse_grid(multiple))
    with monkeypatch.context() as m:
        m.setattr(minuet, "run_minuet", run_minuet_without_adoption)
        assert solve(multiple, verdict=verdict).status == "ill_posed"
    monkeypatch.setattr(minuet.oracle, "verify_well_posed", None)
    outcome = solve(multiple, verdict=verdict)
    assert any(ev.rule.startswith("adopt ") for ev in outcome.trace)
    assert outcome.status == "ill_posed"
    assert outcome.reason == "adopted a completion; oracle says multiple_solutions"


def test_solve_detects_unsolvable_grid():
    # cell r1c1 sees all nine digits: five in its row, four in its column
    puzzle = (".12345..."
              "6........"
              "7........"
              "8........"
              "9........" + "." * 36)
    outcome = solve(puzzle)
    assert outcome.status == "ill_posed"

