"""Smoke tests for the timing scripts: each one's smallest size, one repeat,
in a new Python process, as the scripts run their sizes themselves; the
commit their provenance line names; and the exit status and report of
scripts/verify_all.py over stub lemmas."""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from qlan import experiments as ex

ROOT = Path(__file__).resolve().parents[1]

ROW_KEYS = {
    "time_prepare_blocks.py": {"d", "n", "fock_cutoff", "blocks", "seconds"},
    "time_decompose.py": {"d", "n", "diagrams", "seconds", "median_s"},
    "time_cq_distance.py": {
        "d", "n", "fock_cutoff", "boxes", "solves", "real_solves",
        "solves_per_box", "eigvalsh_calls", "curve_pieces", "seconds", "median_s",
    },
}


@pytest.mark.parametrize("script", sorted(ROW_KEYS))
def test_first_size_row(script):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), OMP_NUM_THREADS="1",
               OPENBLAS_NUM_THREADS="1")
    done = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), "--size", "0", "1"],
        env=env, capture_output=True, text=True, check=True,
    )
    lines = done.stdout.splitlines()
    assert len(lines) == 1
    row = json.loads(lines[0])
    assert set(row) == ROW_KEYS[script] | {"peak_rss_mb"}
    assert len(row["seconds"]) == 1


def test_provenance_follows_imported_qlan(tmp_path):
    # a copy of src outside any git tree has no commit, whatever checkout
    # the script itself lives in
    shutil.copytree(ROOT / "src", tmp_path / "src", ignore=shutil.ignore_patterns("__pycache__"))
    env = dict(os.environ, PYTHONPATH=str(tmp_path / "src"))
    code = (
        f"import sys, json; sys.path.insert(0, {str(ROOT / 'scripts')!r}); "
        "import time_prepare_blocks as t; print(json.dumps(t.provenance()))"
    )
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, cwd=tmp_path,
        capture_output=True, text=True, check=True,
    )
    row = json.loads(done.stdout)
    assert row["git_sha"] is None
    assert row["git_dirty"] is None


def _stub(lemma, passed):
    return lambda: {"lemma": lemma, "passed": passed, "values": {"defect": 0.25}}


@pytest.mark.parametrize("failing", [False, True], ids=["all-pass", "one-fails"])
def test_verify_all_status(failing, monkeypatch, capsys):
    monkeypatch.syspath_prepend(str(ROOT / "scripts"))
    import verify_all

    monkeypatch.setattr(ex, "VERIFIERS", {"alpha": _stub("alpha", True),
                                          "beta": _stub("beta", not failing)})
    assert verify_all.main() == (1 if failing else 0)
    out = capsys.readouterr().out.splitlines()
    assert out[:2] == [f"{'alpha':16s} PASS", f"{'beta':16s} {'FAIL' if failing else 'PASS'}"]
    assert out[2:] == (["  values: {'defect': 0.25}"] if failing else [])
