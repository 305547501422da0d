import pytest

from minuet_sudoku import (AlreadySolved, BadChar, Grid, GridError, InconsistentGivens,
                           NotACandidate, Structure, WrongLength, brute_solve,
                           count_solutions, parse_grid, place_ink, serialize_grid,
                           solve, verify_well_posed)
from minuet_sudoku.grid import CELLS_OF, PEERS, STRUCTS_OF, STRUCTURES, grid_from_ink

from puzzles import EASY, EASY_SOLUTION, HARD, MEDIUM


def test_parse_empty_grid():
    g = parse_grid("." * 81)
    assert g.inked_count() == 0
    assert all(g.candidates(c) == set(range(1, 10)) for c in range(81))


def test_parse_accepts_zero_and_whitespace():
    text = "\n".join("0" * 9 for _ in range(9)) + "\n"
    g = parse_grid(text)
    assert serialize_grid(g) == "." * 81


def test_parse_wrong_length():
    with pytest.raises(WrongLength):
        parse_grid("." * 80)


def test_parse_bad_char():
    with pytest.raises(BadChar):
        parse_grid("x" + "." * 80)


def test_parse_inconsistent_givens():
    with pytest.raises(InconsistentGivens):
        parse_grid("55" + "." * 79)


@pytest.mark.parametrize("text,error,message", [
    ("x" + "." * 79 + "y", BadChar, "invalid character 'x'"),  # the first bad one
    ("." * 40 + "?" + "." * 39 + "!", BadChar, "invalid character '?'"),
    ("." * 10 + "x", BadChar, "invalid character 'x'"),  # BadChar before WrongLength
    ("." * 90 + "-", BadChar, "invalid character '-'"),
    ("５" + "." * 80, BadChar, "invalid character '５'"),  # fullwidth digit five
    ("." * 80 + "٣", BadChar, "invalid character '٣'"),  # Arabic-Indic digit three
    ("\t." * 80, WrongLength, "expected 81 significant characters, got 80"),
    ("." * 82 + "\r\n", WrongLength, "expected 81 significant characters, got 82"),
    ("", WrongLength, "expected 81 significant characters, got 0"),
], ids=["first_of_two", "first_of_two_inside", "short_bad", "long_bad", "fullwidth",
        "arabic_indic", "tabs_short", "crlf_long", "empty"])
def test_parse_errors_name_the_first_bad_character_then_the_length(text, error, message):
    with pytest.raises(error) as raised:
        parse_grid(text)
    assert type(raised.value) is error
    assert str(raised.value) == message


@pytest.mark.parametrize("layout", ["tabs", "crlf", "nbsp", "mixed"])
def test_parse_ignores_every_whitespace_and_reads_zero_and_dot_as_empty(layout):
    rows = [EASY[9 * r:9 * r + 9] for r in range(9)]
    rows = [row.replace("0", ".") if r % 2 else row for r, row in enumerate(rows)]
    text = {
        "tabs": "\t".join("\t".join(row) for row in rows),
        "crlf": "\r\n".join(rows) + "\r\n",
        "nbsp": "\xa0".join(rows),
        "mixed": " \x0b\x0c ".join(rows) + "　\n",
    }[layout]
    assert "." in text and "0" in text
    assert serialize_grid(parse_grid(text)) == EASY.replace("0", ".")
    assert parse_grid(text) == parse_grid(EASY)


def test_parse_excludes_inked_digits_from_candidates():
    g = parse_grid("5" + "." * 80)
    assert 5 not in g.candidates(1)   # same row
    assert 5 not in g.candidates(9)   # same column
    assert 5 not in g.candidates(10)  # same box
    assert 5 in g.candidates(80)


def test_grid_from_ink_builds_the_parsed_grid():
    for puzzle in (EASY, MEDIUM, HARD, "." * 81):
        ink = parse_grid(puzzle).solved
        g = grid_from_ink(ink)
        assert g == parse_grid(puzzle)
        assert g.solved is not ink
    with pytest.raises(InconsistentGivens, match="digit 5 appears twice in box 0"):
        grid_from_ink([5] + [0] * 9 + [5] + [0] * 70)
    row_conflict = [0] * 81
    row_conflict[27] = row_conflict[30] = 5
    with pytest.raises(InconsistentGivens, match="digit 5 appears twice in row 3"):
        grid_from_ink(row_conflict)


def malformed_inks() -> dict[str, tuple[list, type]]:
    """Malformed ink and the GridError it raises: EASY's ink with one cell
    made malformed, or cut or grown to a wrong length."""
    ink = parse_grid(EASY).solved
    nine, one = (next(i for i in range(81) if not ink[i] and EASY_SOLUTION[i] == d)
                 for d in "91")
    given = next(i for i in range(81) if ink[i])

    def at(cell: int, value, base: list = ink) -> list:
        out = base.copy()
        out[cell] = value
        return out

    return {
        "minus_one": (at(nine, -1), BadChar),  # BIT[-1] is digit 9's bit
        "ten": (at(nine, 10), BadChar),
        "true": (at(one, True), BadChar),
        "false": (at(one, False), BadChar),
        "float": (at(given, float(ink[given])), BadChar),
        "text": (at(given, str(ink[given])), BadChar),
        "clash_then_minus_one": (at(80, -1, [5, 5] + [0] * 79), GridError),
        "80_cells": (ink[:80], WrongLength),
        "82_cells": (ink + [0], WrongLength),
    }


MALFORMED = malformed_inks()


@pytest.mark.parametrize("case", MALFORMED)
def test_malformed_ink_raises_before_any_work(case):
    """Ink that is not 81 ints in 0-9 (a bool is not one) raises a GridError
    in ``grid_from_ink`` and ``solve``, and ValueError in the oracle."""
    ink, error = MALFORMED[case]
    with pytest.raises(error):
        grid_from_ink(ink)
    with pytest.raises(error):
        solve(Grid(ink))
    for check in (verify_well_posed, count_solutions, brute_solve):
        with pytest.raises(ValueError, match="81 cells|not a digit 0-9"):
            check(Grid(ink))


def test_serialize_empty_and_solved():
    assert serialize_grid(Grid()) == "." * 81
    g = parse_grid(EASY_SOLUTION)
    assert serialize_grid(g) == EASY_SOLUTION
    assert "." not in serialize_grid(g)


@pytest.mark.parametrize("puzzle", [EASY, MEDIUM, HARD])
def test_roundtrip_preserves_givens(puzzle):
    g = parse_grid(puzzle)
    back = parse_grid(serialize_grid(g))
    assert back.solved == g.solved


def test_roundtrip_over_corpus(full_corpus):
    for puzzle in full_corpus:
        assert serialize_grid(parse_grid(puzzle)) == puzzle


def test_cells_of_structure():
    assert list(CELLS_OF[STRUCTURES.index(Structure("row", 0))]) == list(range(9))
    assert set(CELLS_OF[STRUCTURES.index(Structure("box", 8))]) == {60, 61, 62, 69, 70, 71,
                                                                    78, 79, 80}
    assert set(CELLS_OF[STRUCTURES.index(Structure("col", 4))]) == {4, 13, 22, 31, 40, 49,
                                                                    58, 67, 76}


def test_structure_cover_is_threefold():
    count = [0] * 81
    for cells in CELLS_OF:
        assert len(cells) == 9
        for c in cells:
            count[c] += 1
    assert count == [3] * 81


def test_peer_symmetry_and_count():
    for c in range(81):
        assert len(PEERS[c]) == 20
        for p in PEERS[c]:
            assert c in PEERS[p]


def test_place_ink_eliminates_all_twenty_peers():
    g = Grid()
    ev = place_ink(g, 40, 7)
    assert g.solved[40] == 7 and g.masks[40] == 0
    assert len(ev.erased) == 20
    assert all(7 not in g.candidates(p) for p in PEERS[40])


def test_place_ink_skips_peers_without_the_digit():
    g = Grid()
    place_ink(g, 0, 7)
    ev = place_ink(g, 40, 7)  # shares no structure with cell 0
    overlap = set(PEERS[40]) & set(PEERS[0])
    assert overlap and len(ev.erased) == 20 - len(overlap)
    assert all(p not in overlap for p, _ in ev.erased)


def test_place_ink_errors():
    g = Grid()
    place_ink(g, 0, 7)
    with pytest.raises(AlreadySolved):
        place_ink(g, 0, 1)
    with pytest.raises(NotACandidate):
        place_ink(g, 1, 7)


def test_place_ink_of_true_digit_never_empties_peers():
    g = parse_grid(EASY)
    truth = brute_solve(g)
    for c in range(81):
        if g.solved[c]:
            continue
        trial = g.copy()
        place_ink(trial, c, truth.solved[c])
        assert all(trial.masks[p] or trial.solved[p] for p in PEERS[c])


def test_grid_equality_and_copy():
    g = parse_grid(EASY)
    h = g.copy()
    assert g == h
    c = next(i for i in range(81) if not h.solved[i])
    place_ink(h, c, min(h.candidates(c)))
    assert g != h


def test_every_cell_belongs_to_three_structures():
    for c in range(81):
        r, col, b = STRUCTS_OF[c]
        assert c in CELLS_OF[r] and c in CELLS_OF[col] and c in CELLS_OF[b]
