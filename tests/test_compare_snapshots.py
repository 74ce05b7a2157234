"""Tests for scripts/compare_snapshots.py on two snapshot directories."""

import importlib
import json
import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"

RECORD = {"kind": "converge", "rows": [{"n": 8, "total": 0.5, "lam": [5, 3]}],
          "passed": True, "note": None, "rate": -0.25}
TABLE = "n,total\n8,0.5\n16,0.25\n"


@pytest.fixture
def cs(monkeypatch):
    monkeypatch.syspath_prepend(str(SCRIPTS))
    return importlib.import_module("compare_snapshots")


def snapshot(folder: Path, cs, record=RECORD, table=TABLE, skip=()) -> Path:
    folder.mkdir()
    for name in cs.all_runs():
        if name not in skip:
            text = table if name.endswith(".csv") else json.dumps(record, indent=2)
            (folder / name).write_text(text)
    return folder


def run(cs, monkeypatch, capsys, old: Path, new: Path) -> tuple[int, dict[str, str]]:
    monkeypatch.setattr(sys, "argv", ["compare_snapshots.py", str(old), str(new)])
    code = cs.main()
    lines = capsys.readouterr().out.splitlines()
    return code, dict(line.split(": ", 1) for line in lines)


def test_sizes_float_differences(cs, monkeypatch, capsys, tmp_path):
    old = snapshot(tmp_path / "old", cs)
    moved = json.loads(json.dumps(RECORD))
    moved["rows"][0]["total"] = 0.5 + 3e-14
    new = snapshot(tmp_path / "new", cs, record=moved, table="n,total\n8,0.5\n16,0.2500000001\n")
    code, lines = run(cs, monkeypatch, capsys, old, new)
    assert code == 0
    assert len(lines) == len(cs.all_runs()) == 21
    assert lines["converge.json"] == (
        "max abs diff 3e-14 at .rows[0].total (0.5 against 0.50000000000003)")
    assert lines["converge.csv"] == (
        "max abs diff 1e-10 at [1].total (0.25 against 0.2500000001)")


def test_identical_and_reformatted(cs, monkeypatch, capsys, tmp_path):
    old = snapshot(tmp_path / "old", cs)
    new = snapshot(tmp_path / "new", cs)
    (new / "verify_dims.json").write_text(json.dumps(RECORD))
    code, lines = run(cs, monkeypatch, capsys, old, new)
    assert code == 0
    assert lines["verify_dims.json"] == "max abs diff 0 (floats equal, bytes not)"
    assert set(lines.values()) == {"identical", lines["verify_dims.json"]}


def test_nan_against_number(cs):
    nan = float("nan")
    gaps = [gap for gap, *_ in cs.differences([nan, 1.0, 2.0], [nan, nan, 2.5])]
    assert gaps == [0.0, float("inf"), 0.5]


def test_csv_int_against_float_is_a_number(cs, monkeypatch, capsys, tmp_path):
    # a float column prints an exact zero as "0", which parses as an int
    old = cs.parse("x.csv", "n,atypical\n8,0\n")
    new = cs.parse("x.csv", "n,atypical\n8,1.2e-17\n")
    assert list(cs.differences(old, new)) == [(1.2e-17, "[0].atypical", 0.0, 1.2e-17)]
    assert [gap for gap, *_ in cs.differences(new, old)] == [1.2e-17]
    with pytest.raises(cs.StructureError, match=r"\[0\]\.n: 8 against 9"):
        list(cs.differences(old, cs.parse("x.csv", "n,atypical\n9,0\n")))
    code, lines = run(cs, monkeypatch, capsys,
                      snapshot(tmp_path / "old", cs, table="n,atypical\n8,0\n"),
                      snapshot(tmp_path / "new", cs, table="n,atypical\n8,1.2e-17\n"))
    assert code == 0
    assert lines["converge.csv"] == "max abs diff 1.2e-17 at [0].atypical (0.0 against 1.2e-17)"


@pytest.mark.parametrize(
    "change, message",
    [
        (lambda r: r.update(extra=1), "top: keys"),
        (lambda r: r["rows"].append({}), ".rows: length 1 against 2"),
        (lambda r: r.update(kind="decompose"), ".kind: 'converge' against 'decompose'"),
        (lambda r: r["rows"][0].update(n=9), ".rows[0].n: 8 against 9"),
        (lambda r: r["rows"][0]["lam"].__setitem__(0, 5.0), ".rows[0].lam[0]: 5 against 5.0"),
        (lambda r: r.update(passed=False), ".passed: True against False"),
        (lambda r: r.update(note=0.0), ".note: None against 0.0"),
    ],
    ids=["keys", "length", "string", "int", "int-to-float", "bool", "null"],
)
def test_structure_fails(cs, monkeypatch, capsys, tmp_path, change, message):
    old = snapshot(tmp_path / "old", cs)
    other = json.loads(json.dumps(RECORD))
    change(other)
    new = snapshot(tmp_path / "new", cs, record=other)
    code, lines = run(cs, monkeypatch, capsys, old, new)
    assert code == 1
    assert lines["converge.json"].startswith(f"STRUCTURE {message}")


def test_missing_file_fails(cs, monkeypatch, capsys, tmp_path):
    old = snapshot(tmp_path / "old", cs)
    new = snapshot(tmp_path / "new", cs, skip={"decompose_d4_n15.json"})
    code, lines = run(cs, monkeypatch, capsys, old, new)
    assert code == 1
    assert lines["decompose_d4_n15.json"] == f"STRUCTURE missing from {new}"
    assert sum(line.startswith("STRUCTURE") for line in lines.values()) == 1
