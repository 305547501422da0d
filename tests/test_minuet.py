import pytest

from minuet_sudoku import (BothContradicted,
                           HalfDoubleRegistry, NoStarters, SolveConfig, Starter,
                           brute_solve, commit_retained, dance_alone,
                           dance_together, enumerate_starters, init_hypotheses,
                           parse_grid, place_ink, replay_trace, run_minuet,
                           serialize_grid, solve, step1_fixpoint, step2_fill,
                           step3_fixpoint, validate_report)
from minuet_sudoku.grid import BIT, Grid, mask_of
from minuet_sudoku.minuet import MinuetState, HypothesisView

from puzzles import (EASY, EASY_SOLUTION, HARD, HARD_SOLUTION, MEDIUM, STALL,
                     TRICKY, TRICKY_SOLUTION)


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
        g.given[c] = False
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
        g.given[c] = False
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


def test_no_starters_on_blank_grid():
    with pytest.raises(NoStarters):
        enumerate_starters(Grid())


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


def test_views_only_narrow_the_base():
    g = at_fixpoint(STALL)
    state = two_view_state(g, enumerate_starters(g)[0])
    for view in (state.circle, state.square):
        for c in range(81):
            base_mask = BIT[g.solved[c]] if g.solved[c] else g.masks[c]
            assert view.retained(c) & ~base_mask == 0


def test_dance_alone_is_noop_at_fixpoint():
    g = at_fixpoint(STALL)
    state = two_view_state(g, enumerate_starters(g)[0])
    snap = state.circle.shadow.fingerprint()
    dance_alone(state.circle, g)
    assert state.circle.shadow.fingerprint() == snap


def test_dance_alone_contradicts_when_base_kills_last_candidate():
    base = Grid()
    view = HypothesisView("circle", Grid())
    view.shadow.masks[0] = BIT[4]
    base.masks[0] = mask_of({5, 6})
    dance_alone(view, base)
    assert view.status == "contradicted"
    assert view.reason.kind == "empty_cell"


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


def test_trick_b_machinery_with_sparse_view_marks():
    # solved marks written without per-cell propagation, as a hand-solver
    # would: only the double-blocking trick can see these eliminations
    base = Grid()
    circle = HypothesisView("circle", base.copy())
    square = HypothesisView("square", base.copy())
    circle.shadow.solved[3] = 4
    square.shadow.solved[36] = 4
    state = MinuetState(Starter("bivalue", (50,), (1, 2), None, 0), circle, square)
    events = []
    dance_together(state, base, events)
    assert 4 not in base.candidates(0)
    assert any(ev.rule == "trick (b)" and ev.digits == (4,) for ev in events)


def test_trick_b_special_case_same_structure():
    base = Grid()
    circle = HypothesisView("circle", base.copy())
    square = HypothesisView("square", base.copy())
    circle.shadow.solved[0] = 4  # both in row 0, sparse marks
    square.shadow.solved[8] = 4
    state = MinuetState(Starter("bivalue", (50,), (1, 2), None, 0), circle, square)
    events = []
    dance_together(state, base, events)
    for c in range(1, 8):
        assert 4 not in base.candidates(c)
    assert any(ev.rule == "trick (b)" for ev in events)


def test_union_soundness_on_fixture_puzzles():
    for puzzle, solution in ((HARD, HARD_SOLUTION), (TRICKY, TRICKY_SOLUTION)):
        checked = []

        def monitor(base, circle, square, solution=solution, checked=checked):
            for c in range(81):
                true_d = int(solution[c])
                if base.solved[c]:
                    assert base.solved[c] == true_d
                    continue
                if circle.alive and square.alive:
                    assert (circle.retained(c) | square.retained(c)) & BIT[true_d]
            checked.append(1)

        outcome = solve(puzzle, SolveConfig(monitor=monitor))
        assert outcome.status == "solved"
        if puzzle is TRICKY:
            assert checked  # joint eliminations ran here, so the monitor fired


# --- commit and run --------------------------------------------------------

def test_commit_requires_exactly_one_survivor():
    base = Grid()
    circle = HypothesisView("circle", base.copy())
    square = HypothesisView("square", base.copy())
    state = MinuetState(Starter("bivalue", (0,), (1, 2), None, 0), circle, square)
    with pytest.raises(ValueError):
        commit_retained(state, base)
    circle.status = square.status = "contradicted"
    with pytest.raises(BothContradicted):
        commit_retained(state, base)


def test_commit_inks_survivor_solves_and_narrows():
    base = Grid()
    base.masks[0] = mask_of({1, 2})
    circle = HypothesisView("circle", base.copy())
    square = HypothesisView("square", base.copy())
    place_ink(circle.shadow, 0, 1)
    square.status = "contradicted"
    state = MinuetState(Starter("bivalue", (0,), (1, 2), None, 0), circle, square)
    commit_retained(state, base)
    assert base.solved[0] == 1
    assert all(1 not in base.candidates(p) or base.solved[p]
               for p in range(1, 9))


def test_run_minuet_progress_records_new_ink():
    g = at_fixpoint(HARD)
    before = g.inked_count()
    outcome, state = run_minuet(g, enumerate_starters(g)[0])
    assert outcome in ("progress", "solved")
    assert g.inked_count() > before
    assert state.rounds >= 1


def test_run_minuet_stuck_leaves_base_bit_identical():
    g = at_fixpoint(STALL)
    snap = g.fingerprint()
    for starter in enumerate_starters(g):
        outcome, _ = run_minuet(g, starter)
        assert outcome == "stuck"
        assert g.fingerprint() == snap


def test_run_minuet_round_cap_returns_stuck():
    g = at_fixpoint(HARD)
    snap = g.fingerprint()
    outcome, _ = run_minuet(g, enumerate_starters(g)[0], round_cap=0)
    assert outcome == "stuck"
    assert g.fingerprint() == snap


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


def test_tricky_fixture_exercises_joint_eliminations():
    outcome = solve(TRICKY)
    assert any(ev.step in ("4a", "4b") for ev in outcome.trace)


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


def test_solve_no_starters_reason_on_blank_grid():
    outcome = solve("." * 81)
    assert outcome.status == "conjecture_failure"
    assert outcome.reason == "no_starters"
    assert outcome.report.oracle_status == "multiple_solutions"


def test_solve_detects_unsolvable_grid():
    # cell r1c1 sees all nine digits: five in its row, four in its column
    puzzle = (".12345..."
              "6........"
              "7........"
              "8........"
              "9........" + "." * 36)
    outcome = solve(puzzle)
    assert outcome.status == "ill_posed"


def test_solve_max_starters_cap():
    outcome = solve(STALL, SolveConfig(max_starters=3))
    assert outcome.status == "conjecture_failure"
    assert len(outcome.report.starters_tried) == 3
