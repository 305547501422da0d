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
