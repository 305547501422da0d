"""Tests of the benchmark's own code: the output checks, the stall isomorphs
and the tracer.  Run with `python3 -m pytest perfbench`."""

from collections import Counter

import pytest

import check
import inputs
from tracing import Tracer

pkg = inputs.import_package()


@pytest.fixture(scope="module")
def stall_solution():
    return pkg.serialize_grid(pkg.verify_well_posed(pkg.parse_grid(inputs.STALL)).solution)


@pytest.fixture(scope="module")
def easy():
    puzzle = pkg.load_corpus(inputs.CORPORA / "easy.txt").entries[0].text
    return puzzle, pkg.serialize_grid(pkg.brute_solve(pkg.parse_grid(puzzle)))


def test_checker_accepts_the_solution(stall_solution):
    assert check.solution_error(stall_solution, inputs.STALL, stall_solution) is None


def test_checker_rejects_two_swapped_cells(stall_solution):
    open_cells = [i for i in range(9) if inputs.STALL[i] in ".0"]
    a, b = open_cells[0], open_cells[1]
    swapped = list(stall_solution)
    swapped[a], swapped[b] = swapped[b], swapped[a]
    swapped = "".join(swapped)
    assert swapped != stall_solution
    assert check.completion_error(swapped, inputs.STALL) is not None
    assert check.solution_error(swapped, inputs.STALL, stall_solution) is not None


def test_checker_rejects_a_changed_given(easy):
    puzzle, solution = easy
    given = next(i for i, ch in enumerate(puzzle) if ch != ".")
    relabel = str.maketrans("123456789", "234567891")
    other = solution.translate(relabel)  # still 1-9 everywhere, givens differ
    assert check.completion_error(other, puzzle) == (
        f"given {puzzle[given]} at cell {given} was changed")


def test_report_of_the_stall_puzzle_passes(stall_solution):
    outcome = pkg.solve(inputs.STALL)
    assert outcome.status == "conjecture_failure"
    assert check.report_error(outcome.report, inputs.STALL, stall_solution) is None


def test_checker_rejects_a_residual_that_lost_a_solution_digit(stall_solution):
    data = pkg.solve(inputs.STALL).report.to_dict()
    residual, cands = data["residual"], list(data["residual_candidates"])
    assert check.residual_error(residual, cands, inputs.STALL, stall_solution) is None
    cell = residual.index(".")
    cands[cell] = cands[cell].replace(stall_solution[cell], "")
    assert check.residual_error(residual, cands, inputs.STALL, stall_solution) == (
        f"residual cell {cell} lost the solution digit {stall_solution[cell]}")


def test_checker_rejects_a_residual_inked_wrong(stall_solution):
    data = pkg.solve(inputs.STALL).report.to_dict()
    residual = list(data["residual"])
    cell = residual.index(".")
    residual[cell] = "1" if stall_solution[cell] != "1" else "2"
    assert check.residual_error("".join(residual), data["residual_candidates"],
                                inputs.STALL, stall_solution) is not None


def test_stall_isomorphs_stay_well_posed_with_the_transformed_solution(stall_solution):
    _, _, batch = inputs.stall_isomorphs(5)
    for iso in batch[:4] + batch[-2:]:
        verdict = pkg.verify_well_posed(pkg.parse_grid(iso.apply(inputs.STALL)))
        assert verdict.status == "well_posed"
        assert pkg.serialize_grid(verdict.solution) == iso.apply(stall_solution)


def test_every_isomorph_maps_a_solution_to_a_solution(easy):
    puzzle, solution = easy
    full, _, _ = inputs.stall_isomorphs(1)
    for iso in full:
        image = iso.apply(puzzle)
        assert check.solution_error(iso.apply(solution), image,
                                    pkg.serialize_grid(pkg.brute_solve(pkg.parse_grid(image)))) is None


def test_stall_sets_hold_fixed_class_mixes_and_follow_the_seed():
    full, subset, batch = inputs.stall_isomorphs(3)
    assert len(full) == 108 and len(subset) == 36 and len(batch) == 12

    def coarse(iso):
        return (tuple(r // 3 for r in iso.rows[::3]),
                tuple(c // 3 for c in iso.cols[::3]), iso.transpose)

    assert len({coarse(iso) for iso in full if iso not in subset}) == 72
    assert len({coarse(iso)[:2] for iso in subset}) == 36
    assert sum(iso.transpose for iso in subset) == 18
    assert all(iso in subset for iso in batch) and sum(iso.transpose for iso in batch) == 6
    for part in (0, 1):
        assert Counter(coarse(iso)[part] for iso in batch) == Counter(
            {order: 2 for order in inputs.BAND_ORDERS})
    other = inputs.stall_isomorphs(4)
    assert [coarse(iso) for iso in other[1]] == [coarse(iso) for iso in subset]
    assert other[0] != full
    assert inputs.stall_isomorphs(3) == (full, subset, batch)


def test_tracer_restores_functions_and_self_times_add_up():
    minuet, oracle = pkg.minuet, pkg.oracle
    before = (minuet.step3_fixpoint, minuet.dance_alone, oracle.verify_well_posed)
    puzzle = pkg.load_corpus(inputs.CORPORA / "hard.txt").entries[0].text
    tracer = Tracer(pkg)
    with tracer:
        c = tracer.phase("solve")
        outcome, ns = tracer.root("minuet.solve", pkg.solve, puzzle)
    assert (minuet.step3_fixpoint, minuet.dance_alone, oracle.verify_well_posed) == before
    assert outcome.solved
    assert sum(v for k, v in c.items() if k.endswith(".self_ns")) == ns == c["root.dur_ns"]
    assert c["phase1.step1_fixpoint.calls"] == 1
    assert c["minuet.run_minuet.calls"] == outcome.stats.starters_danced
    assert c["phase2.step3_fixpoint.view.calls"] > 0
