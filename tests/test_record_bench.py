import importlib.util
import json
import subprocess
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "record_bench.py"

FAKE_RUN = """\
import json, sys
args = dict(zip(sys.argv[1::2], sys.argv[2::2]))
print("summary line")
print(json.dumps({"correct": CORRECT, "attempted": 1, "failed": FAILED,
                  "metrics": {"args": args}}))
"""


def load_tool():
    spec = importlib.util.spec_from_file_location("record_bench", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def fake_checkout(root: Path, correct: bool, failed: int = 0) -> Path:
    (root / "perfbench").mkdir(parents=True)
    (root / "perfbench" / "run.py").write_text(
        FAKE_RUN.replace("CORRECT", str(correct)).replace("FAILED", str(failed)))
    return root


def test_record_bench_writes_every_workload_at_both_trace_levels(tmp_path, monkeypatch):
    tool = load_tool()
    monkeypatch.setattr(tool, "ROOT", tmp_path)
    checkout = fake_checkout(tmp_path / "checkout", True)
    assert tool.main(["7", "--checkout", str(checkout)]) == 0
    record = json.loads((tmp_path / "BENCH_7.json").read_text())
    assert record["label"] == "7" and record["seed"] == 4242 and record["seconds"] == 30.0
    assert record["python"] and record["cores"] >= 1
    assert [(r["workload"], r["trace"]) for r in record["runs"]] == [
        (w, t) for w in ("fixpoint", "minuet", "stall") for t in (0, 1)]
    assert record["runs"][5]["result"]["metrics"]["args"] == {
        "--workload": "stall", "--seed": "4242", "--seconds": "30.0", "--trace": "1"}


def test_record_bench_writes_nothing_after_a_wrong_answer(tmp_path, monkeypatch):
    tool = load_tool()
    monkeypatch.setattr(tool, "ROOT", tmp_path)
    checkout = fake_checkout(tmp_path / "checkout", False)
    with pytest.raises(SystemExit, match="wrong answers"):
        tool.main(["7", "--checkout", str(checkout)])
    assert not (tmp_path / "BENCH_7.json").exists()


def test_record_bench_writes_nothing_after_a_raised_operation(tmp_path, monkeypatch):
    """perfbench counts a raised operation in ``failed``, not as a wrong answer."""
    tool = load_tool()
    monkeypatch.setattr(tool, "ROOT", tmp_path)
    checkout = fake_checkout(tmp_path / "checkout", True, failed=1)
    with pytest.raises(SystemExit, match="1 operation\\(s\\) raised"):
        tool.main(["7", "--checkout", str(checkout)])
    assert not (tmp_path / "BENCH_7.json").exists()


def git(repo: Path, *args: str) -> str:
    out = subprocess.run(["git", "-c", "user.name=t", "-c", "user.email=t@t", *args],
                         cwd=repo, capture_output=True, text=True, check=True)
    return out.stdout.strip()


def test_commit_of_marks_a_tree_with_edited_tracked_files_dirty(tmp_path):
    tool = load_tool()
    repo = tmp_path / "repo"
    repo.mkdir()
    git(repo, "init", "-q")
    (repo / "a.txt").write_text("one\n")
    git(repo, "add", "a.txt")
    git(repo, "commit", "-q", "-m", "one")
    sha = git(repo, "rev-parse", "HEAD")
    assert tool.commit_of(repo) == sha
    (repo / "new.txt").write_text("untracked\n")
    assert tool.commit_of(repo) == sha
    (repo / "a.txt").write_text("two\n")
    assert tool.commit_of(repo) == f"{sha}-dirty"


def test_readme_names_every_bench_record():
    readme = (ROOT / "README.md").read_text()
    records = sorted(p.name for p in ROOT.glob("BENCH_*.json"))
    assert records
    assert [name for name in records if f"`{name}`" not in readme] == []


FAKE_PAIR_RUN = """\
import json, sys
args = dict(zip(sys.argv[1::2], sys.argv[2::2]))
with open(LOG, "a") as f:
    f.write(f"{SIDE} {args['--seed']} {args['--seconds']} {args['--trace']}\\n")
value = BASE + int(args["--seed"]) % 7
print(json.dumps({"correct": CORRECT, "attempted": 1, "failed": 0,
                  "metrics": {name: {"value": value, "unit": "u"} for name in NAMES}}))
"""


def load_pairs_tool(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "tools"))
    spec = importlib.util.spec_from_file_location("bench_pairs", ROOT / "tools" / "bench_pairs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def fake_side(root: Path, side: str, base: float, log: Path, correct: bool = True) -> Path:
    """A checkout whose run.py logs each call and reads ``base`` plus the
    seed modulo 7 on every end-to-end metric of BENCHMARK.json."""
    names = [m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]]
    (root / "perfbench").mkdir(parents=True)
    (root / "perfbench" / "run.py").write_text(
        FAKE_PAIR_RUN.replace("LOG", repr(str(log))).replace("SIDE", repr(side))
        .replace("BASE", str(base)).replace("CORRECT", str(correct))
        .replace("NAMES", repr(names)))
    return root


def test_bench_pairs_alternates_sides_and_counts_wins(tmp_path, monkeypatch, capsys):
    tool = load_pairs_tool(monkeypatch)
    log = tmp_path / "log"
    parent = fake_side(tmp_path / "parent", "parent", 10.0, log)
    change = fake_side(tmp_path / "change", "change", 8.0, log)
    assert tool.main(["stall", "--parent", str(parent), "--change", str(change),
                      "--seed", "900", "--pairs", "3"]) == 0
    assert log.read_text().splitlines() == [
        "parent 900 30.0 0", "change 900 30.0 0",
        "change 901 30.0 0", "parent 901 30.0 0",
        "parent 902 30.0 0", "change 902 30.0 0"]
    rows = {line.split()[0]: line for line in capsys.readouterr().out.splitlines()}
    # seeds 900-902 add 4, 5 and 6: parent 14, 15, 16 and change 12, 13, 14,
    # so the per-pair ratios are 12/14, 13/15 and 14/16
    assert rows["oracle_ms_p50"].split() == [
        "oracle_ms_p50", "15", "[14.5,", "15.5]", "13", "[12.5,", "13.5]", "1", "-13.3%",
        "0.867", "[0.862,", "0.871]", "3/3"]
    assert rows["solve_puzzles_per_s"].endswith("0/3")  # higher is better there
    assert rows["oracle_ms_p50:"] == "  oracle_ms_p50: 14->12  15->13  16->14"


def test_bench_pairs_stops_at_a_wrong_answer(tmp_path, monkeypatch):
    tool = load_pairs_tool(monkeypatch)
    log = tmp_path / "log"
    parent = fake_side(tmp_path / "parent", "parent", 10.0, log)
    change = fake_side(tmp_path / "change", "change", 8.0, log, correct=False)
    with pytest.raises(SystemExit, match="wrong answers"):
        tool.main(["minuet", "--parent", str(parent), "--change", str(change),
                   "--seed", "1", "--pairs", "4"])
    assert log.read_text().splitlines() == ["parent 1 30.0 0", "change 1 30.0 0"]


def test_bench_pairs_ratios_see_through_drift_that_both_sides_share(monkeypatch):
    """The parent drifts 1.5x between the first five pairs and the last five,
    and every change run is 20% below its pair's parent run.  The per-pair
    ratios read 0.800 on every pair, while the verdict, which compares the
    two sides' spreads as the benchmark's gain test does, stays unresolved."""
    tool = load_pairs_tool(monkeypatch)
    parent = [10.0] * 5 + [15.0] * 5
    runs = [({"setup_s": {"value": p}}, {"setup_s": {"value": 0.8 * p}}) for p in parent]
    lines = tool.summarize(runs, {"setup_s": ("lower", 0.25)})
    row = next(line for line in lines if line.startswith("setup_s "))
    # parent 12.5 [10, 15], change 10 [8, 12]: the median gap 2.5 is under
    # the parent's IQR 5, and 5 is over 25% of 12.5
    assert row.split() == ["setup_s", "12.5", "[10,", "15]", "10", "[8,", "12]", "5", "-20.0%",
                           "0.800", "[0.800,", "0.800]", "10/10"]
    assert lines[lines.index("verdicts:") + 1].split() == ["unresolved", "setup_s"]
    assert tool.verdict(parent, [0.8 * p for p in parent], -1, 0.25) == "unresolved"


@pytest.mark.parametrize("parent_base, change_base, seed, pairs, lower, higher", [
    # parent 14, 15, 16 against change 12, 13, 14: IQR 1, bound 25%
    (10.0, 8.0, 900, 3, "gain holds", "no change shown"),
    # change 24, 25, 26: 67% worse where lower is better
    (10.0, 20.0, 900, 3, "worse than bound", "gain holds"),
    # seeds 903-906 read 1, 2, 3, 4 on both sides: IQR 60% of the median
    (1.0, 1.0, 903, 4, "unresolved", "unresolved"),
])
def test_bench_pairs_gives_each_metric_a_verdict(tmp_path, monkeypatch, capsys, parent_base,
                                                 change_base, seed, pairs, lower, higher):
    tool = load_pairs_tool(monkeypatch)
    log = tmp_path / "log"
    parent = fake_side(tmp_path / "parent", "parent", parent_base, log)
    change = fake_side(tmp_path / "change", "change", change_base, log)
    assert tool.main(["fixpoint", "--parent", str(parent), "--change", str(change),
                      "--seed", str(seed), "--pairs", str(pairs)]) == 0
    out = capsys.readouterr().out.splitlines()
    verdicts = {line.split()[-1]: " ".join(line.split()[:-1])
                for line in out[out.index("verdicts:") + 1:]}
    better = {m["name"]: m["better"]
              for m in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]}
    assert verdicts == {name: lower if way == "lower" else higher for name, way in better.items()}
