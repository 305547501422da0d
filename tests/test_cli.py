from minuet_sudoku import harness
from minuet_sudoku.cli import main

from puzzles import EASY, EASY_SOLUTION, MEDIUM, STALL


def test_solve_command_prints_solution(capsys):
    assert main(["solve", EASY]) == 0
    out = capsys.readouterr().out
    assert EASY_SOLUTION in out
    assert "solved:" in out


def test_solve_command_with_trace(capsys):
    assert main(["solve", EASY, "--trace", "summary"]) == 0
    out = capsys.readouterr().out
    assert "trace:" in out and "hidden single" in out


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


def test_verify_command(capsys):
    assert main(["verify", EASY]) == 0
    assert capsys.readouterr().out.strip() == "WellPosed"
    assert main(["verify", EASY[:16].ljust(81, ".")]) == 3
    assert capsys.readouterr().out.strip() == "MultipleSolutions"
    assert main(["verify", "55" + "." * 79]) == 3


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


def test_batch_command_reports_errors_and_exits_one(tmp_path, capsys, monkeypatch):
    def broken(grid, cfg=None):
        raise ValueError("no luck")

    monkeypatch.setattr(harness, "solve", broken)
    corpus = tmp_path / "corpus.txt"
    corpus.write_text(f"{EASY}\n{STALL}\n")
    assert main(["batch", str(corpus)]) == 1
    captured = capsys.readouterr()
    assert f"{corpus}:1: ValueError: no luck" in captured.err
    assert f"{corpus}:2: ValueError: no luck" in captured.err
    assert "errors:               2" in captured.out


def test_batch_command_empty_corpus(tmp_path, capsys):
    corpus = tmp_path / "corpus.txt"
    corpus.write_text("# nothing\n")
    assert main(["batch", str(corpus)]) == 1


def test_config_file_supplies_defaults(tmp_path, capsys):
    cfg = tmp_path / "minuet.cfg"
    cfg.write_text("trace = summary  # verbosity\nmax-starters = 5\n")
    assert main(["solve", EASY, "--config", str(cfg)]) == 0
    assert "trace:" in capsys.readouterr().out


def test_config_file_bad_key(tmp_path, capsys):
    cfg = tmp_path / "minuet.cfg"
    cfg.write_text("bogus = 1\n")
    assert main(["solve", EASY, "--config", str(cfg)]) == 1
