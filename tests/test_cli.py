import os

import pytest

from minuet_sudoku import cli, harness, minuet, solve
from minuet_sudoku.cli import main
from minuet_sudoku.generate import STALL

from puzzles import EASY, EASY_SOLUTION, HARD, MEDIUM


def test_solve_command_prints_solution(capsys):
    assert main(["solve", EASY]) == 0
    out = capsys.readouterr().out
    assert EASY_SOLUTION in out
    assert "solved:" in out


def test_solve_command_prints_starter_and_commit_counts(capsys):
    stats = solve(HARD).stats
    assert stats.starters_danced > 0
    assert main(["solve", HARD]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[-1] == (f"solved: {stats.starters_danced} minuet starter(s), "
                         f"{stats.commits} commit(s)")


@pytest.mark.parametrize("level", ["summary", "full"])
def test_solve_command_with_trace(capsys, level):
    assert main(["solve", EASY, "--trace", level]) == 0
    out = capsys.readouterr().out
    assert out.startswith("trace:") and "hidden single" in out
    assert (" at r" in out) == (level == "full")  # only full lists the cells of each event


@pytest.mark.parametrize("flags,expected", [([], False), (["--phase1-triples"], True)])
def test_solve_command_phase1_triples_reaches_solve(monkeypatch, flags, expected):
    configs = []
    real_solve = cli.solve
    monkeypatch.setattr(cli, "solve",
                        lambda grid, cfg=None: configs.append(cfg) or real_solve(grid, cfg))
    assert main(["solve", EASY, *flags]) == 0
    assert [c.phase1_triples for c in configs] == [expected]


def test_solve_command_from_file(tmp_path, capsys):
    path = tmp_path / "p.txt"
    path.write_text(EASY + "\n")
    assert main(["solve", str(path)]) == 0
    assert EASY_SOLUTION in capsys.readouterr().out


def test_solve_command_usage_error_on_short_puzzle(capsys):
    assert main(["solve", EASY[:80]]) == 1
    assert "error" in capsys.readouterr().err


def test_solve_command_conflicting_givens_exit_ill_posed(capsys):
    assert main(["solve", "55" + "." * 79]) == 3
    assert "ill-posed" in capsys.readouterr().err


def test_solve_command_conjecture_failure_exit(capsys):
    assert main(["solve", STALL]) == 2
    out = capsys.readouterr().out
    assert "CONJECTURE FAILURE REPORT" in out


def test_solve_command_stall_on_blank_grid_exits_ill_posed(capsys):
    assert main(["solve", "." * 81]) == 3
    out = capsys.readouterr().out
    assert "ill-posed: no_starters; oracle says multiple_solutions" in out
    assert "CONJECTURE FAILURE REPORT" not in out


def test_solve_command_adoption_on_multiple_solutions_exits_ill_posed(capsys):
    puzzle = "7......544........8...9.2.......13....3.7....51.2.......752...8...1.4.2....9..1.."
    assert main(["solve", puzzle]) == 3
    assert capsys.readouterr().out.strip() == (
        "ill-posed: adopted a completion; oracle says multiple_solutions")
    assert main(["verify", puzzle]) == 3


def test_verify_command(capsys):
    assert main(["verify", EASY]) == 0
    assert capsys.readouterr().out.strip() == "WellPosed"
    assert main(["verify", EASY[:16].ljust(81, ".")]) == 3
    assert capsys.readouterr().out.strip() == "MultipleSolutions"
    assert main(["verify", "55" + "." * 79]) == 3
    # nine givens, and r1c9 sees all nine digits: no completion
    assert main(["verify", "12345678." + "........9" + "." * 63]) == 3
    assert capsys.readouterr().out.strip() == "NoSolution"


def test_oracle_command(capsys):
    assert main(["oracle", EASY]) == 0
    assert capsys.readouterr().out.strip() == EASY_SOLUTION
    assert main(["oracle", "." * 81]) == 3


def test_batch_command(tmp_path, capsys):
    corpus = tmp_path / "corpus.txt"
    corpus.write_text(f"# tiny corpus\n{EASY}\n{MEDIUM}\n")
    assert main(["batch", str(corpus)]) == 0
    out = capsys.readouterr().out
    assert "solved:               2" in out
    assert "failure-rate upper bound" in out


def test_batch_command_failure_exit_and_reports(tmp_path, capsys):
    corpus = tmp_path / "corpus.txt"
    corpus.write_text(f"{EASY}\n{STALL}\n")
    outdir = tmp_path / "reports"
    assert main(["batch", str(corpus), "--report", str(outdir)]) == 2
    assert (outdir / "counterexample_line2.txt").exists()
    assert (outdir / "summary.txt").exists()
    assert "CONJECTURE FAILURE" in capsys.readouterr().out


def test_batch_command_checks_report_dir_before_solving(tmp_path, capsys, monkeypatch):
    calls = []
    monkeypatch.setattr(cli, "batch_solve", lambda *a, **kw: calls.append(a))
    corpus = tmp_path / "corpus.txt"
    corpus.write_text(f"{EASY}\n")
    taken = tmp_path / "taken"
    taken.write_text("a file, not a directory\n")
    assert main(["batch", str(corpus), "--report", str(taken)]) == 1
    assert "error:" in capsys.readouterr().err
    assert calls == []


def test_batch_command_reports_errors_and_exits_one(tmp_path, capsys, monkeypatch):
    def broken(grid, cfg=None, **kwargs):
        raise ValueError("no luck")

    monkeypatch.setattr(harness, "solve", broken)
    corpus = tmp_path / "corpus.txt"
    corpus.write_text(f"{EASY}\n{STALL}\n")
    assert main(["batch", str(corpus)]) == 1
    captured = capsys.readouterr()
    assert f"{corpus}:1: ValueError: no luck" in captured.err
    assert f"{corpus}:2: ValueError: no luck" in captured.err
    assert "errors:               2" in captured.out


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_batch_self_check_failure_exits_four(tmp_path, capsys, monkeypatch, jobs):
    """An unsound result aborts the batch with one stderr line and exit 4, in
    the parent process and from a worker alike."""
    def unsound(report, verdict=None):
        raise harness.SelfCheckFailed("residual cell 0 inked 1 but solution has 2")

    monkeypatch.setattr(harness, "validate_report", unsound)
    corpus = tmp_path / "corpus.txt"
    corpus.write_text(f"{EASY}\n{STALL}\n")
    assert main(["batch", str(corpus), "--jobs", jobs]) == 4
    captured = capsys.readouterr()
    assert captured.err == "self-check failed: residual cell 0 inked 1 but solution has 2\n"
    assert captured.out == ""


def test_batch_worker_that_dies_exits_one(tmp_path, capsys, monkeypatch):
    test_pid = os.getpid()
    real_run_entry = harness._run_entry

    def dies_on_line_2_in_a_child(entry):
        if entry.line_no == 2 and os.getpid() != test_pid:
            os._exit(7)
        return real_run_entry(entry)

    monkeypatch.setattr(harness, "_run_entry", dies_on_line_2_in_a_child)
    corpus = tmp_path / "corpus.txt"
    corpus.write_text(f"{EASY}\n{MEDIUM}\n")
    assert main(["batch", str(corpus), "--jobs", "2"]) == 1
    captured = capsys.readouterr()
    assert captured.err == ("error: batch worker exited with code 7 "
                            "before sending its results\n")
    assert captured.out == ""


def test_solve_command_inconsistent_solution_exits_four(capsys, monkeypatch):
    """A completed grid that breaks the rules is a failed self-check, not a
    usage error."""
    real = minuet.grid_from_ink

    def conflicted_when_complete(values):
        if all(values):
            raise minuet.InconsistentGivens("digit 1 twice in row 1")
        return real(values)

    monkeypatch.setattr(minuet, "grid_from_ink", conflicted_when_complete)
    assert main(["solve", EASY]) == 4
    captured = capsys.readouterr()
    assert captured.err == ("self-check failed: solver produced an inconsistent grid: "
                            "digit 1 twice in row 1\n")
    assert captured.out == ""


def test_batch_command_empty_corpus(tmp_path, capsys):
    corpus = tmp_path / "corpus.txt"
    corpus.write_text("# nothing\n")
    assert main(["batch", str(corpus)]) == 1


def test_usage_errors_exit_one_not_two(tmp_path, capsys):
    corpus = tmp_path / "corpus.txt"
    corpus.write_text(f"{EASY}\n")
    assert main(["solve", EASY, "--bogus"]) == 1
    assert "unrecognized arguments: --bogus" in capsys.readouterr().err
    assert main(["batch", str(corpus), "--jobs", "abc"]) == 1
    assert "invalid int value" in capsys.readouterr().err
    assert main(["solve", EASY, "--trace", "bogus"]) == 1
    assert "invalid choice: 'bogus'" in capsys.readouterr().err
    assert main([]) == 1


@pytest.mark.parametrize("flag,value", [("--jobs", "0"), ("--level", "0")])
def test_batch_bad_jobs_or_level_exit_one_before_solving(tmp_path, capsys, monkeypatch,
                                                         flag, value):
    """The bad option is the only error printed: the corpus, whose first line
    is malformed, is not even read."""
    calls = []
    monkeypatch.setattr(harness, "solve", lambda grid, cfg=None, **kw: calls.append(grid))
    corpus = tmp_path / "corpus.txt"
    corpus.write_text(f"{EASY[:80]}\n{EASY}\n{MEDIUM}\n")
    assert main(["batch", str(corpus), flag, value]) == 1
    captured = capsys.readouterr()
    assert captured.err == {"--jobs": "error: jobs must be >= 1, got 0\n",
                            "--level": "error: level must be in (0, 1), got 0.0\n"}[flag]
    assert captured.out == ""
    assert calls == []

