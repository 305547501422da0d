import ast
import random
from pathlib import Path

import pytest

from minuet_sudoku import (Grid, NotWellPosed, brute_solve, count_solutions,
                           parse_grid, serialize_grid, verify_well_posed)
from minuet_sudoku import generate, oracle
from minuet_sudoku.grid import (ALL_DIGITS, BIT, CELLS_OF, DIGITS_OF, PEERS, STRUCT_SET_OF,
                                mask_of)
from minuet_sudoku.generate import STALL, dig_minimal, random_solution

from puzzles import EASY, EASY_SOLUTION, HARD, MEDIUM
from test_golden_trace import stall_puzzles


def obeys_the_rules(grid: Grid) -> bool:
    """No digit is inked twice in one row, column or box."""
    for unit in CELLS_OF:
        inked = [grid.solved[c] for c in unit if grid.solved[c]]
        if len(inked) != len(set(inked)):
            return False
    return True


def test_count_solved_grid_is_one():
    assert count_solutions(parse_grid(EASY_SOLUTION), 2) == 1


def test_count_conflicted_grid_is_zero():
    g = Grid()
    g.solved[0] = 5
    g.solved[1] = 5
    assert count_solutions(g, 2) == 0


def test_count_empty_grid_hits_cap():
    assert count_solutions(parse_grid("." * 81), 2) == 2
    assert count_solutions(parse_grid("." * 81), 5) == 5


def test_count_rejects_bad_cap():
    with pytest.raises(ValueError):
        count_solutions(Grid(), 0)


def naive_count(text: str, cap: int) -> int:
    """min(cap, completions of ``text``): plain backtracking, no propagation.

    The empty cells are visited in one fixed order, fewest candidates among
    the givens first (row-major order takes seconds on some 25-clue grids).
    """
    units = [(r, 9 + c, 18 + 3 * (r // 3) + c // 3) for r in range(9) for c in range(9)]
    used = [0] * 27  # bit d set: digit d is placed in the unit
    for i, ch in enumerate(text):
        for u in units[i] if ch != "." else ():
            used[u] |= 1 << int(ch)

    def options(i: int) -> list[int]:
        taken = used[units[i][0]] | used[units[i][1]] | used[units[i][2]]
        return [d for d in range(1, 10) if not taken >> d & 1]

    order = sorted((i for i in range(81) if text[i] == "."), key=lambda i: len(options(i)))

    def count(k: int, budget: int) -> int:
        if k == len(order):
            return 1
        n = 0
        for d in options(order[k]):
            for u in units[order[k]]:
                used[u] ^= 1 << d
            n += count(k + 1, budget - n)
            for u in units[order[k]]:
                used[u] ^= 1 << d
            if n >= budget:
                break
        return n

    return count(0, cap)


def dug_grids(seed: int, n: int, clues: tuple[int, int]) -> list[tuple[str, str]]:
    """(puzzle, source grid) pairs: ``n`` seeded full grids dug to a clue count in ``clues``."""
    rng = random.Random(seed)
    out = []
    for _ in range(n):
        full = random_solution(rng)
        chars = list(full)
        for c in rng.sample(range(81), 81 - rng.randint(*clues)):
            chars[c] = "."
        out.append(("".join(chars), full))
    return out


def with_one_given_changed(rng: random.Random, puzzle: str) -> str:
    """The puzzle with one given replaced by another digit none of its peers holds."""
    chars = list(puzzle)
    for i in rng.sample(range(81), 81):
        if chars[i] == ".":
            continue
        held = {chars[p] for p in PEERS[i]} | {chars[i]}
        free = [d for d in "123456789" if d not in held]
        if free:
            chars[i] = rng.choice(free)
            return "".join(chars)
    raise AssertionError("no given can change without a conflict")


def test_count_matches_naive_counter():
    cases = dug_grids(5, 48, (22, 60))
    rng = random.Random(6)
    broken = [with_one_given_changed(rng, p) for p, _ in dug_grids(7, 16, (45, 60))]
    seen = set()
    for puzzle, source in cases + [(p, None) for p in broken]:
        g = parse_grid(puzzle)
        counts = [count_solutions(g, cap) for cap in (1, 2, 3)]
        assert counts == [naive_count(puzzle, cap) for cap in (1, 2, 3)], puzzle
        seen.add(counts[-1])
        if source is not None and counts[-1] == 1:
            assert serialize_grid(brute_solve(g)) == source
    assert seen == {0, 1, 2, 3}  # no solution, unique, and many all occur


def full_scan_propagate(cand: list[int], todo: list[int]) -> bool:
    """Naked and hidden singles to a fixpoint, scanning all 27 units for
    hidden singles every round: the reference for ``oracle._propagate``.

    Its dead ends are ``_propagate``'s.  The two-digit dead end is checked
    on every cell, also on one that holds just those two digits: skipping
    that cell lets further narrowing hide the dead end, and the fixpoint
    would then depend on the scan order."""
    while True:
        while todo:
            cell = todo.pop()
            b = cand[cell]
            for p in PEERS[cell]:
                m = cand[p]
                if m & b:
                    m ^= b
                    if not m:
                        return False
                    cand[p] = m
                    if not m & (m - 1):
                        todo.append(p)
        for unit in CELLS_OF:
            seen = twice = 0
            for c in unit:
                m = cand[c]
                twice |= seen & m
                seen |= m
            if seen != ALL_DIGITS:
                return False
            once = seen & ~twice
            if once:
                for c in unit:
                    m = cand[c] & once
                    if m & (m - 1):
                        return False
                    if m and m != cand[c]:
                        cand[c] = m
                        todo.append(c)
        if not todo:
            return True


def test_propagate_matches_full_scan_reference():
    """Rescanning only the dirty units reaches the full scan's verdict and,
    when it is True, the same masks: at the root, and for every branch on a
    few unsolved cells of each root fixpoint."""
    rng = random.Random(31)
    cases = [p for p, _ in dug_grids(30, 24, (18, 40))]
    cases += [dig_minimal(rng) for _ in range(4)]
    cases += [with_one_given_changed(rng, p) for p in cases[:14]]
    verdicts = []
    for puzzle in cases:
        values = [0 if ch == "." else int(ch) for ch in puzzle]
        cand = [BIT[d] if d else ALL_DIGITS for d in values]
        givens = [i for i in range(81) if values[i]]
        ref = cand.copy()
        ok = oracle._propagate(cand, givens.copy(), (1 << 27) - 1)
        assert ok == full_scan_propagate(ref, givens.copy()), puzzle
        verdicts.append(ok)
        if not ok:
            continue
        assert cand == ref, puzzle
        for c in [c for c in range(81) if cand[c] & (cand[c] - 1)][:4]:
            for d in DIGITS_OF[cand[c]]:
                child, ref = cand.copy(), cand.copy()
                child[c] = ref[c] = BIT[d]
                ok = oracle._propagate(child, [c], STRUCT_SET_OF[c])
                assert ok == full_scan_propagate(ref, [c]), (puzzle, c, d)
                verdicts.append(ok)
                if ok:
                    assert child == ref, (puzzle, c, d)
    assert verdicts.count(True) > 100 and verdicts.count(False) > 20


def peerwise_root(values: list[int]) -> list[int] | None:
    """``oracle._root`` as it was before its unit-union pass: every given
    goes into ``todo``, and ``_propagate`` erases it from its 20 peers, so
    the first of two equal givens in a unit empties the second.  The
    reference for the root's masks."""
    cand = [BIT[d] if d else ALL_DIGITS for d in values]
    if oracle._propagate(cand, [i for i in range(81) if values[i]], (1 << 27) - 1):
        return cand
    return None


def with_a_digit_given_twice(rng: random.Random, puzzle: str, kind: int) -> str:
    """The puzzle with one given's digit written again into an empty cell of
    its row (``kind`` 0), its column (1) or its box (2); for the box, one
    in another row and column, so that only the box holds the digit twice."""
    givens = [i for i in range(81) if puzzle[i] != "."]
    for i in rng.sample(givens, len(givens)):
        box = 3 * (i // 27) + i % 9 // 3
        unit = CELLS_OF[(i // 9, 9 + i % 9, 18 + box)[kind]]
        free = [j for j in unit if puzzle[j] == "."
                and (kind < 2 or (j // 9 != i // 9 and j % 9 != i % 9))]
        if free:
            chars = list(puzzle)
            chars[rng.choice(free)] = puzzle[i]
            return "".join(chars)
    raise AssertionError("no empty cell beside a given")


def test_root_matches_the_peerwise_root(full_corpus):
    """The unit-union root gives the peerwise root's masks, or None on both
    sides: on the corpus, the golden stall set, minimal puzzles, seeded
    consistent grids of 17-40 givens, grids of fewer than 17 givens, and
    grids with a digit given twice in a row, a column or a box."""
    rng = random.Random(52)
    consistent = [p for p, _ in dug_grids(50, 200, (17, 40))]
    sparse = [p for p, _ in dug_grids(51, 30, (0, 16))] + planted_dead_ends(53, 20)
    twice = [with_a_digit_given_twice(rng, p, kind) for p in consistent[:12] for kind in range(3)]
    cases = full_corpus + stall_puzzles() + consistent + sparse + twice
    cases += [dig_minimal(random.Random(seed)) for seed in range(61000, 61040)]
    dead = set()
    for puzzle in cases:
        values = [0 if ch == "." else int(ch) for ch in puzzle]
        root = oracle._root(values)
        assert root == peerwise_root(values), puzzle
        if root is None:
            dead.add(puzzle)
    assert dead > set(twice) and len(dead) < len(cases) // 4


def fewest_candidates_search(values: list[int], cap: int) -> tuple[int, list[int] | None]:
    """``oracle._search`` as it was before ``_branch_cell``: each node
    branches on the first cell with the fewest candidates, stopping at the
    first bivalue cell.  The reference for the search order; it shares
    ``oracle._propagate``, which the order leaves unchanged."""
    first: list[list[int]] = []

    def dfs(cand: list[int], budget: int) -> int:
        pick, best = -1, 10
        for i, m in enumerate(cand):
            if m & (m - 1):
                n = m.bit_count()
                if n < best:
                    pick, best = i, n
                    if n == 2:
                        break
        if pick < 0:
            if not first:
                first.append([DIGITS_OF[m][0] for m in cand])
            return 1
        count = 0
        for d in DIGITS_OF[cand[pick]]:
            child = cand.copy()
            child[pick] = BIT[d]
            if oracle._propagate(child, [pick], STRUCT_SET_OF[pick]):
                count += dfs(child, budget - count)
                if count >= budget:
                    break
        return count

    cand = peerwise_root(values)
    if cand is None:
        return 0, None
    n = dfs(cand, cap)
    return n, (first[0] if first else None)


def one_swap_neighbours(rng: random.Random, n: int) -> list[str]:
    """``n`` seeded one-swap neighbours of ``STALL``: one given dropped and a
    digit none of its peers holds written into a cell ``STALL`` leaves empty."""
    empty = [i for i in range(81) if STALL[i] in ".0"]
    givens = [i for i in range(81) if i not in empty]
    out = []
    while len(out) < n:
        chars = list(STALL)
        chars[rng.choice(givens)] = "."
        c = rng.choice(empty)
        free = sorted(set("123456789") - {chars[p] for p in PEERS[c]})
        if free:
            chars[c] = rng.choice(free)
            out.append("".join(chars))
    return out


def test_search_order_matches_fewest_candidates_reference(full_corpus):
    """Branching on the best-linked bivalue cell gives the counts of the
    fewest-candidates order for caps 1, 2 and 3, and the same solution when
    it is unique: on the corpus, the golden stall set, minimal puzzles, dug
    grids with one given changed and one-swap neighbours of ``STALL``."""
    rng = random.Random(41)
    cases = full_corpus + stall_puzzles()
    cases += [dig_minimal(random.Random(seed)) for seed in range(60000, 60012)]
    cases += [with_one_given_changed(rng, p) for p, _ in dug_grids(42, 40, (24, 60))]
    cases += one_swap_neighbours(rng, 60)
    seen = set()
    for puzzle in cases:
        g = parse_grid(puzzle)
        ref = [fewest_candidates_search(g.solved, cap) for cap in (1, 2, 3)]
        assert [count_solutions(g, cap) for cap in (1, 2, 3)] == [n for n, _ in ref], puzzle
        seen.add(ref[-1][0])
        if ref[-1][0] == 1:
            assert brute_solve(g).solved == ref[-1][1], puzzle
    assert seen == {0, 1, 2, 3}


def test_branch_cell_prefers_the_best_linked_bivalue_cell():
    cand = [BIT[1]] * 81
    cand[1] = mask_of((1, 2, 3))  # more candidates than any pair
    cand[0] = mask_of((1, 2))  # a pair with no bivalue peer
    cand[40] = cand[41] = mask_of((4, 5))  # row 4: two linked pairs, one peer each
    assert oracle._branch_cell(cand) == 40
    cand[44] = mask_of((6, 7))  # row 4: 40, 41 and 44 tie at two peers each
    assert oracle._branch_cell(cand) == 40
    cand[53] = mask_of((6, 8))  # column 8 and box 5: a peer of 44 alone
    assert oracle._branch_cell(cand) == 44


def test_branch_cell_falls_back_to_the_fewest_candidates():
    cand = [BIT[1]] * 81
    assert oracle._branch_cell(cand) == -1
    cand[3] = mask_of((1, 2, 3, 4))
    cand[7] = cand[60] = mask_of((5, 6, 7))
    assert oracle._branch_cell(cand) == 7
    cand[2] = mask_of((1, 8, 9))
    assert oracle._branch_cell(cand) == 2


def test_golden_stall_searches_stay_small(monkeypatch):
    """Each search of the golden stall set makes at most 300 propagations
    (the root's included), 5,863 in all.  The fewest-candidates order made
    up to 769.  A cheaper node must leave the tree as it is."""
    calls = []
    real = oracle._propagate

    def spy(*args):
        calls.append(1)
        return real(*args)

    monkeypatch.setattr(oracle, "_propagate", spy)
    sizes = []
    for puzzle in stall_puzzles():
        calls.clear()
        assert count_solutions(parse_grid(puzzle)) == 1
        sizes.append(len(calls))
    assert max(sizes) <= 300, sizes
    assert sum(sizes) == 5863


def linked_pairs_branch_cell(cand: list[int]) -> int:
    """``oracle._branch_cell`` as one loop over the masks: the reference for
    its pick.  Bivalue cells go into an 81-bit board, the fewest-candidates
    cell is kept on the way, and then each pair is scored by its bivalue
    peers, ties to the lowest index."""
    pairs = 0
    pick, best = -1, 10
    for i, m in enumerate(cand):
        if m & (m - 1):
            n = m.bit_count()
            if n == 2:
                pairs |= 1 << i
            elif n < best:
                pick, best = i, n
    if not pairs:
        return pick
    best = -1
    rest = pairs
    while rest:
        c = (rest & -rest).bit_length() - 1
        rest &= rest - 1
        score = (pairs & oracle.PEER_BITS[c]).bit_count()
        if score > best:
            pick, best = c, score
    return pick


def test_golden_stall_nodes_match_the_references(monkeypatch):
    """At every node of the golden stall searches, ``_propagate`` reaches the
    full scan's verdict and masks, and ``_branch_cell`` picks the reference
    loop's cell."""
    real_propagate, real_branch = oracle._propagate, oracle._branch_cell
    propagations, branches = [], []

    def check_propagate(cand, todo, dirty):
        ref, ref_todo = cand.copy(), todo.copy()
        ok = real_propagate(cand, todo, dirty)
        assert ok == full_scan_propagate(ref, ref_todo)
        assert not ok or cand == ref
        propagations.append(ok)
        return ok

    def check_branch(cand):
        pick = real_branch(cand)
        assert pick == linked_pairs_branch_cell(cand)
        branches.append(pick)
        return pick

    monkeypatch.setattr(oracle, "_propagate", check_propagate)
    monkeypatch.setattr(oracle, "_branch_cell", check_branch)
    for puzzle in stall_puzzles():
        assert count_solutions(parse_grid(puzzle)) == 1
    assert len(propagations) == 5863 and propagations.count(False) > 1000
    assert branches.count(-1) == 25  # one leaf per search: its unique solution


def test_brute_solve_identity_on_solved_grid():
    assert serialize_grid(brute_solve(parse_grid(EASY_SOLUTION))) == EASY_SOLUTION


def test_brute_solve_forced_last_digit():
    chars = list(EASY_SOLUTION)
    chars[40] = "."
    assert serialize_grid(brute_solve(parse_grid("".join(chars)))) == EASY_SOLUTION


@pytest.mark.parametrize("puzzle", [EASY, MEDIUM, HARD, STALL])
def test_brute_solve_returns_valid_completion(puzzle):
    g = parse_grid(puzzle)
    sol = brute_solve(g)
    assert sol.is_complete()
    assert obeys_the_rules(sol)
    assert all(sol.solved[c] == g.solved[c] for c in range(81) if g.solved[c])


def test_brute_solve_rejects_ill_posed():
    with pytest.raises(NotWellPosed):
        brute_solve(parse_grid("." * 81))


def sixteen_given_puzzle() -> str:
    chars = ["."] * 81
    for c in range(16):
        chars[c] = EASY_SOLUTION[c]
    return "".join(chars)


def test_fast_path_sixteen_givens_skips_search(monkeypatch):
    g = parse_grid(sixteen_given_puzzle())
    assert obeys_the_rules(g)

    def boom(*args, **kwargs):
        raise AssertionError("search invoked on the <17-given fast path")

    monkeypatch.setattr(oracle, "_search", boom)
    assert verify_well_posed(g).status == "multiple_solutions"


NINE_GIVEN_DEAD_END = "12345678." + "........9" + "." * 63  # r1c9 sees all nine digits


def test_verify_dead_end_below_17_givens_is_no_solution(monkeypatch):
    g = parse_grid(NINE_GIVEN_DEAD_END)
    assert count_solutions(g) == 0

    def boom(*args, **kwargs):
        raise AssertionError("search invoked on the <17-given fast path")

    monkeypatch.setattr(oracle, "_search", boom)
    assert verify_well_posed(g).status == "no_solution"


def planted_dead_ends(seed: int, n: int) -> list[str]:
    """``n`` seeded grids of at most 16 givens whose singles dead-end: the
    eight givens of one row of a full grid beside its empty cell ``c``,
    ``c``'s digit inked elsewhere in its column (one given changed), and
    more givens of the full grid that conflict with neither."""
    rng = random.Random(seed)
    out = []
    for _ in range(n):
        full = random_solution(rng)
        c = rng.randrange(81)
        chars = ["."] * 81
        for i in CELLS_OF[c // 9]:
            if i != c:
                chars[i] = full[i]
        chars[rng.choice([i for i in CELLS_OF[9 + c % 9] if i != c])] = full[c]
        for i in rng.sample(range(81), rng.randint(0, 7)):
            if chars[i] == "." and i != c and all(chars[p] != full[i] for p in PEERS[i]):
                chars[i] = full[i]
        out.append("".join(chars))
    return out


def test_sparse_no_solution_verdicts_have_no_solution():
    """Below 17 givens, a NoSolution verdict is never wrong and no grid has
    exactly one completion: over seeded dug grids, the same grids with one
    given changed, and planted dead ends."""
    rng = random.Random(17)
    cases = planted_dead_ends(16, 30)
    for puzzle, _ in dug_grids(15, 40, (8, 16)):
        cases += [puzzle, with_one_given_changed(rng, puzzle)]
    seen = set()
    for puzzle in cases:
        g = parse_grid(puzzle)
        assert g.inked_count() < oracle.MIN_CLUES_FOR_UNIQUE, puzzle
        status = verify_well_posed(g).status
        n = count_solutions(g)
        assert n != 1, puzzle
        if status == "no_solution":
            assert n == 0, puzzle
        seen.add(status)
    assert seen == {"no_solution", "multiple_solutions"}


def test_seventeen_givens_do_invoke_search(monkeypatch):
    chars = ["."] * 81
    for c in range(17):
        chars[c] = EASY_SOLUTION[c]
    calls = []
    real = oracle._search

    def spy(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(oracle, "_search", spy)
    verify_well_posed(parse_grid("".join(chars)))
    assert calls


def test_verify_conflict_is_no_solution():
    g = Grid()
    g.solved[0] = 5
    g.solved[1] = 5
    assert verify_well_posed(g).status == "no_solution"


def test_verify_reads_only_the_ink():
    g = parse_grid(EASY)
    g.masks[g.solved.index(0)] = 0
    assert count_solutions(g) == 1
    assert verify_well_posed(g).status == "well_posed"


@pytest.mark.parametrize("puzzle", [EASY, MEDIUM, HARD])
def test_verify_fixture_puzzles_well_posed(puzzle):
    wp = verify_well_posed(parse_grid(puzzle))
    assert wp.is_well_posed
    assert wp.solution.is_complete()
    assert obeys_the_rules(wp.solution)


def test_verify_pins_every_fixed_input(full_corpus, solutions):
    """Every corpus puzzle and STALL is well-posed, with a completion that keeps
    the givens and obeys the rules."""
    for puzzle in full_corpus + [STALL]:
        wp = verify_well_posed(parse_grid(puzzle))
        assert wp.status == "well_posed", puzzle
        assert wp.solution.is_complete() and obeys_the_rules(wp.solution), puzzle
        sol = serialize_grid(wp.solution)
        assert all(ch == s or ch in ".0" for ch, s in zip(puzzle, sol)), puzzle
        if puzzle in solutions:
            assert sol == solutions[puzzle]  # brute_solve gives the same completion


def imports_of(module) -> tuple[set[str], set[str]]:
    """The modules ``module`` imports, package modules with a leading dot, and
    the names it imports from ``.grid``."""
    imported = set()
    from_grid = set()
    for node in ast.walk(ast.parse(Path(module.__file__).read_text())):
        if isinstance(node, ast.ImportFrom):
            imported.add("." * node.level + (node.module or ""))
            if node.level == 1 and node.module == "grid":
                from_grid.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
    return imported, from_grid


def test_oracle_imports_nothing_from_the_deduction_modules():
    """The oracle imports from the package only ``.grid``, and from it only the
    grid type and the topology and bit tables: no checker of the grid's own."""
    imported, from_grid = imports_of(oracle)
    assert imported == {"__future__", "dataclasses", ".grid"}
    assert from_grid == {"Grid", "ALL_DIGITS", "BIT", "CELLS_OF", "DIGITS_OF", "PEERS",
                         "STRUCT_SET_OF"}


def test_generate_imports_from_the_package_only_grid_and_oracle():
    """Generated puzzles do not depend on the deduction modules they test."""
    imported, _ = imports_of(generate)
    assert {m for m in imported if m.startswith(".")} == {".grid", ".oracle"}
