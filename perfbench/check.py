"""Output checks written against the rules of Sudoku, not against the package.

Every function returns None for a correct output and a one-line reason
otherwise.  For a well-posed puzzle any completion that keeps the givens and
holds 1-9 in every row, column and box is the unique solution, so a solved
answer is checked on its own and then compared with the reference.
"""

from __future__ import annotations

DIGITS = "123456789"
UNITS = ([[9 * r + c for c in range(9)] for r in range(9)]
         + [[9 * r + c for r in range(9)] for c in range(9)]
         + [[9 * (3 * (b // 3) + i) + 3 * (b % 3) + j for i in range(3) for j in range(3)]
            for b in range(9)])


def completion_error(answer: str, puzzle: str) -> str | None:
    """Why `answer` is not a valid completion of `puzzle`, or None."""
    if len(answer) != 81 or any(ch not in DIGITS for ch in answer):
        return "answer is not 81 digits"
    for unit in UNITS:
        if sorted(answer[i] for i in unit) != list(DIGITS):
            return f"cells {unit[0]}..{unit[-1]} do not hold 1-9"
    for i, ch in enumerate(puzzle):
        if ch in DIGITS and answer[i] != ch:
            return f"given {ch} at cell {i} was changed"
    return None


def solution_error(answer: str, puzzle: str, reference: str) -> str | None:
    """A solved answer must be a valid completion and equal the reference."""
    err = completion_error(answer, puzzle)
    if err is None and answer != reference:
        err = "answer differs from the oracle's solution"
    return err


def residual_error(residual: str, candidates: list[str], puzzle: str,
                   reference: str) -> str | None:
    """A stalled grid must keep every given, ink only solution digits, and
    keep the solution digit among the candidates of every open cell."""
    if len(residual) != 81 or len(candidates) != 81:
        return "residual is not 81 cells"
    for i in range(81):
        truth = reference[i]
        if puzzle[i] in DIGITS and residual[i] != puzzle[i]:
            return f"residual lost the given at cell {i}"
        if residual[i] in DIGITS:
            if residual[i] != truth:
                return f"residual inked {residual[i]} at cell {i}, solution has {truth}"
        elif truth not in candidates[i]:
            return f"residual cell {i} lost the solution digit {truth}"
    return None


def report_error(report, puzzle: str, reference: str) -> str | None:
    """Check a FailureReport through its published form, `to_dict()`."""
    if report is None:
        return "conjecture failure without a report"
    data = report.to_dict()
    if data["oracle_status"] != "well_posed":
        return f"report says the puzzle is {data['oracle_status']}"
    if data["puzzle"].replace("0", ".") != puzzle.replace("0", "."):
        return "report is about another puzzle"
    return residual_error(data["residual"], data["residual_candidates"], puzzle, reference)


def outcome_error(status: str, answer: str | None, report, puzzle: str,
                  reference: str, may_stall: bool) -> str | None:
    """Solved with the right answer, or (where allowed) a validated stall."""
    if status == "solved":
        return solution_error(answer or "", puzzle, reference)
    if status in ("conjecture_failure", "failure") and may_stall:
        return report_error(report, puzzle, reference)
    return f"unexpected outcome {status}"
