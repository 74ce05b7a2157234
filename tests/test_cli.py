"""Tests for the experiment configuration, runners, serialization, and the
command-line interface (exit codes, output formats, determinism)."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from qlan import cli
from qlan import experiments as ex


class TestConfig:
    def test_defaults_valid(self):
        cfg = ex.ExperimentConfig()
        assert cfg.spectrum().d == 2
        assert cfg.disp_value() == pytest.approx(2**-0.5)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"mu": (0.3, 0.7)},
            {"d": 3},
            {"u": (0.1, 0.2)},
            {"zeta": (0.1j, 0.2j)},
            {"disp_const": "three"},
            {"format": "yaml"},
            {"alpha": 0.5},
            {"alpha": 1.0},
            {"u": ()},
            {"alpha": 0.4},
            {"fock_cutoff": 0},
            {"n_list": (0, 8)},
            {"basis_cutoff": -1},
        ],
    )
    def test_invalid_rejected(self, kwargs):
        with pytest.raises(ValueError):
            ex.ExperimentConfig(**kwargs)

    def test_exponent_override(self):
        cfg = ex.ExperimentConfig(alpha=0.4, override_exponents=True)
        assert cfg.alpha == 0.4


class TestRunners:
    def test_decompose_two_samples(self):
        cfg = ex.ExperimentConfig(
            mu=(0.75, 0.25), u=(0.0,), zeta=(0j,), n_list=(2,)
        )
        result = ex.run_decompose(cfg)
        weights = {tuple(b["lam"]): b["weight"] for b in result["blocks"]}
        assert weights[(2,)] == pytest.approx(0.8125)
        assert weights[(1, 1)] == pytest.approx(0.1875)
        assert result["total_weight"] == pytest.approx(1.0)
        assert result["schema_version"] == 2

    def test_decompose_needs_single_n(self):
        with pytest.raises(ValueError):
            ex.run_decompose(ex.ExperimentConfig(n_list=(2, 3)))

    def test_converge_row_count_and_rate(self):
        cfg = ex.ExperimentConfig(n_list=(8, 16), fock_cutoff=20)
        result = ex.run_converge(cfg)
        assert len(result["rows"]) == 2
        assert result["rows"][0]["n"] == 8
        assert result["fitted_rate"] < 0

    def test_unknown_lemma(self):
        with pytest.raises(ValueError):
            ex.run_verify("nosuchlemma", ex.ExperimentConfig())

    def test_proportional_diagram(self):
        assert ex.proportional_diagram(13, (0.5, 0.3, 0.2)) == (7, 4, 2)
        assert ex.proportional_diagram(10, (0.5, 0.3, 0.2)) == (5, 3, 2)


class TestSerialization:
    def test_csv_columns(self):
        cfg = ex.ExperimentConfig(n_list=(8,), fock_cutoff=15)
        text = ex.to_csv(ex.run_converge(cfg))
        lines = text.strip().split("\n")
        assert lines[0] == "n,total,classical,quantum_sup,atypical,sn_total,trunc_budget"
        assert len(lines) == 2
        assert lines[1].split(",")[0] == "8"

    def test_csv_rejects_non_sweeps(self):
        with pytest.raises(ValueError):
            ex.to_csv({"kind": "verify"})

    def test_deterministic_output(self):
        cfg = ex.ExperimentConfig(n_list=(8, 12), fock_cutoff=15)
        a = ex.to_csv(ex.run_converge(cfg))
        b = ex.to_csv(ex.run_converge(cfg))
        assert a == b

    def test_sweep_matches_single_n_runs(self):
        # each n of a sweep is computed on its own: the sweep's CSV is the
        # single-n CSVs joined, byte for byte
        cfg = ex.ExperimentConfig(n_list=(8, 12), fock_cutoff=15)
        sweep = ex.to_csv(ex.run_converge(cfg)).splitlines()
        single = [
            ex.to_csv(ex.run_converge(ex.ExperimentConfig(n_list=(n,), fock_cutoff=15)))
            .splitlines()
            for n in cfg.n_list
        ]
        assert sweep == [single[0][0]] + [lines[1] for lines in single]

    def test_json_roundtrip(self):
        cfg = ex.ExperimentConfig(n_list=(8,), fock_cutoff=15)
        text = ex.to_json(ex.run_converge(cfg))
        data = json.loads(text)
        assert data["schema_version"] == 2
        assert data["kind"] == "converge"


class TestCli:
    def test_decompose_stdout(self, capsys):
        rc = cli.main(
            ["decompose", "--d", "2", "--mu", "0.75,0.25", "--u", "0",
             "--zeta", "0+0i", "--n-list", "2"]
        )
        assert rc == 0
        data = json.loads(capsys.readouterr().out)
        assert data["kind"] == "decompose"

    def test_converge_csv_file(self, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        rc = cli.main(
            ["converge", "--n-list", "8", "--fock-cutoff", "15",
             "--out", str(out)]
        )
        assert rc == 0
        assert out.read_text().startswith("n,total,")

    def test_validation_error_exit_2(self, capsys):
        rc = cli.main(["converge", "--mu", "0.3,0.7", "--n-list", "8"])
        assert rc == 2
        assert "error:" in capsys.readouterr().err

    def test_negative_basis_cutoff_exit_2(self, capsys):
        rc = cli.main(["converge", "--basis-cutoff", "-1", "--n-list", "8"])
        assert rc == 2
        assert "error: basis_cutoff must be >= 0" in capsys.readouterr().err

    def test_failing_verifier_exit_1(self, monkeypatch, capsys):
        def fake(config):
            return {
                "schema_version": 2,
                "kind": "verify",
                "lemma": "dims",
                "passed": False,
                "values": {},
                "config": config.metadata(),
            }

        monkeypatch.setitem(ex._VERIFIERS, "dims", fake)
        rc = cli.main(["verify", "dims"])
        assert rc == 1

    def test_import_leaves_sympy_unloaded(self):
        # numpy is the only runtime dependency
        src = str(Path(cli.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=src)
        code = "import sys, qlan.cli; assert 'sympy' not in sys.modules"
        subprocess.run([sys.executable, "-c", code], env=env, check=True)
