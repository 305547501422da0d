"""Frozen fixture puzzles with their solutions.

Each pair was generated with a seeded random dig and verified uniquely
solvable with the brute-force oracle; solutions were frozen from the oracle's
output.  Tiers: EASY solves in Phase I + singles, MEDIUM needs the full
Step-3 fixpoint, HARD needs the minuet, TRICKY exercises the joint
elimination tricks.  The puzzle that resists the whole method is
``minuet_sudoku.generate.STALL``.
"""

EASY = ("530070000600195000098000060800060003400803001"
        "700020006060000280000419005000080079")
EASY_SOLUTION = ("534678912672195348198342567859761423426853791"
                 "713924856961537284287419635345286179")

MEDIUM = ("....3.48..6......1..2.8...5.....1.7...4.6.91.3"
          ".......6.....3...4.5.9....2.9...7..")
MEDIUM_SOLUTION = ("951632487863574291742189635698451372524367918"
                   "317928546176243859485796123239815764")

HARD = (".9..2.6.....7...45.851......1..3.5...5.2...839"
        ".7......8.3.1...6.6........7...31..")
HARD_SOLUTION = ("794325618621798345385164279218439567456271983"
                 "937856421843912756169547832572683194")

TRICKY = (".4.9..7.1...4...86.25..1....7.............6..5"
          "91..4.....7.9...58....51....3.2...8")
TRICKY_SOLUTION = ("648953721139472586725681349276538914384719652"
                   "591264873417896235862345197953127468")

# Well-posed puzzles that defeat the method and are not isomorphs of STALL:
# found by a seeded guided climb from random minimal puzzles (keep the
# solution grid, drop a given and add a solution digit elsewhere while the
# puzzle stays unique and more candidates survive to the first starter
# enumeration), then minimised while they stayed unique and stalled.
CLIMB_STALLS = (
    ".42..58.....1...4...6.....5.9..46...........3...2....7.6..5...248..7.5..7...1..3.",
    "....764.874...2....9......52..5.71.9..5..1....7.8.....12...95.........9....2...8.",
    ".....14.7.4.6....2.2..97.5.8..2..1....1..36..4.......9.3.9..2..7.......1.........",
    "......9.1.4.3....5..9....8....71...61..8...9.6...34.....8...2....36.....42.1.8.69",
    "..798.3....85.6..2....1..5...2.3...53.5...81.61...............6....6..81...2.14..",
    "41..6.....56..2......4...8..7.1.83..........2....3..7...79..56.9..57...1..3...9..",
    "48.7....5........7....4.8.....5...2.35...7..1.6.3...4.57.8..1..........464..71...",
    "..8...7...6.......1..47..5....68........1.9.....5.2.3...2.6...35..7...1841....6..",
)
