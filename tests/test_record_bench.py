import importlib.util
import json
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


def test_readme_names_every_bench_record():
    readme = (ROOT / "README.md").read_text()
    records = sorted(p.name for p in ROOT.glob("BENCH_*.json"))
    assert records
    assert [name for name in records if f"`{name}`" not in readme] == []
