"""Tests for the experiment configuration, runners, serialization, and the
command-line interface (exit codes, output formats, determinism)."""

import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from qlan import channels as ch
from qlan import cli
from qlan import experiments as ex
from qlan import gaussian as gs
from qlan import metrics as mt
from qlan import models as md
from qlan import oracle as orc
from qlan import schur_weyl as sw
from qlan import tableaux as tb
from qlan.errors import DimensionError


class TestConfig:
    def test_defaults_valid(self):
        cfg = ex.ExperimentConfig()
        assert cfg.spectrum().d == 2

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"mu": (0.3, 0.7)},
            {"d": 3},
            {"u": (0.1, 0.2)},
            {"zeta": (0.1j, 0.2j)},
            {"mu": (0.8, 0.3)},
            {"n_list": (8, -4)},
            {"alpha": 0.5},
            {"alpha": 1.0},
            {"u": ()},
            {"alpha": 0.4},
            {"fock_cutoff": 0},
            {"n_list": (0, 8)},
            {"n_list": ()},
            {"mu": (float("nan"), float("nan"))},
            {"u": (float("nan"),)},
            {"u": (float("inf"),)},
            {"zeta": (complex(float("nan"), 0.0),)},
            {"n_list": (8, 8)},
            {"n_list": (8.0,)},
            {"n_list": (8.5,)},
            {"n_list": (True,)},
            {"d": 2.0},
            {"fock_cutoff": 2.5},
            {"fock_cutoff": 2.0},
            {"fock_cutoff": True},
            {"alpha": True, "override_exponents": True},
            {"u": (True,)},
            {"zeta": (True,)},
            {"alpha": float("nan"), "override_exponents": True},
            {"alpha": float("inf"), "override_exponents": True},
            {"alpha": float("-inf"), "override_exponents": True},
        ],
    )
    def test_invalid_rejected(self, kwargs):
        with pytest.raises(ValueError):
            ex.ExperimentConfig(**kwargs)

    def test_non_integer_n_message(self):
        for n_list in [(8.0,), (16, 8.5), (True,)]:
            with pytest.raises(ValueError, match="^n_list entries must be positive integers$"):
                ex.ExperimentConfig(n_list=n_list)

    def test_non_integer_d_and_cutoff_message(self):
        with pytest.raises(ValueError, match=r"^d must be an integer, got 2\.0$"):
            ex.ExperimentConfig(d=2.0)
        for cutoff in (2.5, True, 0):
            with pytest.raises(ValueError, match=(
                    rf"^fock_cutoff must be an integer >= 1, got {cutoff!r}$")):
                ex.ExperimentConfig(fock_cutoff=cutoff)

    def test_bool_entries_message(self):
        with pytest.raises(ValueError, match=r"^alpha must be a number, got True$"):
            ex.ExperimentConfig(alpha=True, override_exponents=True)
        with pytest.raises(ValueError, match=r"^u entries must be numbers, got \(False,\)$"):
            ex.ExperimentConfig(u=(False,))

    def test_metadata_writes_floats(self):
        # one model gives the same JSON bytes however its numbers are typed
        typed = [
            ex.ExperimentConfig(mu=(0.75, 0.25), u=(0,), zeta=(1,), alpha=1, override_exponents=True),
            ex.ExperimentConfig(mu=(0.75, 0.25), u=(0.0,), zeta=(1 + 0j,), alpha=1.0,
                                override_exponents=True),
        ]
        texts = [json.dumps(cfg.metadata(), sort_keys=True) for cfg in typed]
        assert texts[0] == texts[1]
        assert json.loads(texts[0])["zeta"] == [[1.0, 0.0]]
        assert '"u": [0.0]' in texts[0] and '"alpha": 1.0' in texts[0]

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
        assert result["schema_version"] == 4

    @pytest.mark.parametrize("zeta", [0j, 0.5 + 0.3j])
    def test_decompose_builds_no_block(self, zeta, monkeypatch):
        # the spectra come from the weights alone: no pairing transfer, basis,
        # block state or eigensolve
        def never(*args, **kwargs):
            raise AssertionError("decompose must not call this")

        for mod, name in [(sw, "pairing_matrices"), (sw, "block_bases"),
                          (md, "block_states"), (np.linalg, "eigh"),
                          (np.linalg, "eigvalsh")]:
            monkeypatch.setattr(mod, name, never)
        result = ex.run_decompose(ex.ExperimentConfig(zeta=(zeta,), n_list=(9,)))
        assert len(result["blocks"]) == 5
        assert result["total_weight"] == pytest.approx(1.0)

    @pytest.mark.parametrize(
        "d, mu, u, zeta, ns",
        [
            (2, (0.7, 0.3), (0.4,), (0.3 + 0.2j,), range(2, 9)),
            (3, (0.5, 0.3, 0.2), (0.1, 0.05), (0.2j, 0.1, 0.15 + 0.1j), range(2, 6)),
        ],
        ids=["d2", "d3"],
    )
    def test_decompose_matches_tensor_oracle(self, d, mu, u, zeta, ns):
        # the cases of acceptance criterion 2, through run_decompose
        spec = md.Spectrum(mu)
        theta = md.LocalParams(u, zeta)
        for n in ns:
            cfg = ex.ExperimentConfig(d=d, mu=mu, u=u, zeta=zeta, n_list=(n,))
            blocks = ex.run_decompose(cfg)["blocks"]
            oracle = orc.brute_force_blocks(orc.rho_theta(spec, theta, n), n)
            assert [tuple(b["lam"]) for b in blocks] == [lam for lam, _, _ in oracle]
            for b, (_lam, w, spectrum) in zip(blocks, oracle):
                assert b["weight"] == pytest.approx(w, abs=1e-9)
                np.testing.assert_allclose(b["spectrum"], spectrum, rtol=0, atol=1e-9)

    def test_decompose_matches_rotated_block_states(self):
        # reference: eigvalsh of the rotated block state on the untruncated
        # basis, at d=3 n=10 with every zeta component nonzero
        mu, u = (0.5, 0.3, 0.2), (0.5, 0.0)
        zeta = (0.5 + 0.3j, 0.2 - 0.1j, 0.1 + 0.2j)
        n = 10
        cfg = ex.ExperimentConfig(d=3, mu=mu, u=u, zeta=zeta, n_list=(n,))
        blocks = ex.run_decompose(cfg)["blocks"]
        lams = [tuple(b["lam"]) for b in blocks]
        bases = [sw.block_bases([lam], 3, max_weight=n)[0] for lam in lams]
        _, states = md.block_states(bases, cfg.spectrum(), cfg.theta(), n)
        for b, state in zip(blocks, states):
            reference = np.linalg.eigvalsh(state.matrix)[::-1]
            np.testing.assert_allclose(b["spectrum"], reference, rtol=0, atol=1e-12)

    @pytest.mark.parametrize(
        "model, n",
        [
            ({}, 48),
            ({}, 512),
            (dict(d=3, mu=(0.5, 0.3, 0.2), u=(0.5, 0.0),
                  zeta=(0.5 + 0.3j, 0.2 - 0.1j, 0.1 + 0.2j)), 10),
            (dict(d=4, mu=(0.4, 0.3, 0.2, 0.1), u=(0.2, 0.1, -0.1), zeta=(0j,) * 6), 9),
        ],
        ids=["d2-n48", "d2-n512", "d3-n10", "d4-n9"],
    )
    def test_decompose_blocks_match_per_diagram_forms(self, model, n):
        # the one array pass over all diagrams gives each block the bits of
        # block_weight and of weight_eigenvalues on its diagram alone
        cfg = ex.ExperimentConfig(n_list=(n,), **model)
        spec, u = cfg.spectrum(), cfg.theta().u
        vals = md.perturbed_spectrum(spec, u, n)
        for b in ex.run_decompose(cfg)["blocks"]:
            lam = tuple(b["lam"])
            assert b["weight"] == md.block_weight(lam, spec, u, n)
            _, log_s = md.block_weights([lam], vals, n)
            evs = md.weight_eigenvalues([lam], *tb.m_vector_rows([lam], cfg.d), vals, log_s)
            assert b["spectrum"] == np.sort(evs / evs.sum())[::-1].tolist()

    def test_decompose_typical_flags_match_converge_window(self):
        # 32**0.6 rounds to 7.999999999999999 while 16 + 32**0.6 rounds to
        # 24.0: the window converge prepares blocks from admits lambda_1 = 24
        # at mu_1 n = 16, and decompose must flag those blocks typical too
        cfg = ex.ExperimentConfig(d=3, mu=(0.5, 0.3, 0.2), u=(0.0, 0.0),
                                  zeta=(0j, 0j, 0j), n_list=(32,))
        flags = {tuple(b["lam"]): b["typical"] for b in ex.run_decompose(cfg)["blocks"]}
        window = set(ch.typical_diagrams(32, cfg.spectrum(), cfg.alpha))
        assert flags == {lam: lam in window for lam in flags}
        edge = [(24, 8), (24, 7, 1), (24, 6, 2), (24, 5, 3), (24, 4, 4)]
        assert all(flags[lam] for lam in edge)

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
            ex.run_verify("nosuchlemma")

    def test_proportional_diagram(self):
        assert ex.proportional_diagram(13, (0.5, 0.3, 0.2)) == (7, 4, 2)
        assert ex.proportional_diagram(10, (0.5, 0.3, 0.2)) == (5, 3, 2)


class TestVerifierFaults:
    """Each retargeted lemma reads the production function it checks: a
    fault seeded there makes it fail, or moves what it reads."""

    def test_formdet_fails_under_perturbed_pairing(self, monkeypatch):
        rng = np.random.default_rng(1)
        orig = sw.pairing_matrices

        def perturbed(*args):
            return [W * (1 + 1e-8 * rng.standard_normal(W.shape)) for W in orig(*args)]

        monkeypatch.setattr(sw, "pairing_matrices", perturbed)
        result = ex.run_verify("formdet")
        assert not result["passed"]
        assert result["values"]["max_abs_error"] > 1e-10

    def test_nonorth_fails_under_cross_class_gram_entry(self, monkeypatch):
        orig = sw.block_bases

        def leaky(*args, **kwargs):
            out = []
            for b in orig(*args, **kwargs):
                if b.size > 1:
                    # rows 0 and 1 are m = 0 and one brick: different weights
                    G = b.gram.copy()
                    G[0, 1] = 1e-12
                    b = dataclasses.replace(b, gram=G)
                out.append(b)
            return out

        monkeypatch.setattr(sw, "block_bases", leaky)
        result = ex.run_verify("nonorth")
        assert not result["passed"]
        assert not result["values"]["selection_rule_exact"]

    def test_dims_fails_under_misowned_rows(self, monkeypatch):
        orig = tb.m_vector_rows

        def misowned(lams, d, max_weight=None):
            owner, ms = orig(lams, d, max_weight)
            if len(lams) > 1:
                # each later diagram's first row is credited to the one before
                owner = owner.copy()
                owner[np.searchsorted(owner, np.arange(1, len(lams)))] -= 1
            return owner, ms

        monkeypatch.setattr(tb, "m_vector_rows", misowned)
        result = ex.run_verify("dims")
        assert not result["passed"]
        assert result["values"]["identity_failures"] == []
        assert not result["values"]["semistandard_count_ok"]

    def test_lconcentration_fails_under_scaled_weights(self, monkeypatch):
        orig = md.block_weights

        def scaled(*args):
            weights, log_s = orig(*args)
            return [w * (1 + 1e-9) for w in weights], log_s

        monkeypatch.setattr(md, "block_weights", scaled)
        assert not ex.run_verify("lconcentration")["passed"]

    def test_len0_reads_heaviest_prepared_block(self, monkeypatch):
        seen = []
        orig = mt.trace_distance
        monkeypatch.setattr(mt, "trace_distance", lambda a, b: seen.append(a) or orig(a, b))
        ex.run_verify("len0")
        spec = md.Spectrum((0.7, 0.3))
        theta = md.LocalParams((0.5,), (0j,))
        fock = gs.FockSpec(2, ex.FOCK_CUTOFF)
        heaviest = []
        for n, phi in zip((25, 200), seen, strict=True):
            bd = max(ch.prepare_blocks(spec, theta, n, fock, ex.ALPHA), key=lambda b: b.weight)
            cell = bd.isometry @ bd.state.matrix @ bd.isometry.conj().T
            np.testing.assert_array_equal(phi, cell / float(np.trace(cell).real))
            heaviest.append(bd.lam)
        # at u = 0 the heaviest blocks are (18, 7) and (141, 59)
        assert heaviest == [(21, 4), (148, 52)]


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

        def reject(name):  # NaN and Infinity are not JSON
            raise ValueError(f"non-JSON constant {name}")

        data = json.loads(text, parse_constant=reject)
        assert data["schema_version"] == 4
        assert data["kind"] == "converge"
        assert data["fitted_rate"] is None  # no slope through a single n


class TestCli:
    def test_decompose_stdout(self, capsys):
        rc = cli.main(
            ["decompose", "--d", "2", "--mu", "0.75,0.25", "--u", "0",
             "--zeta", "0+0i", "--n-list", "2"]
        )
        assert rc == 0
        data = json.loads(capsys.readouterr().out)
        assert data["kind"] == "decompose"
        # untruncated bases: the Fock cutoff is not part of the run
        assert sorted(data["config"]) == [
            "alpha", "d", "mu", "override_exponents", "u", "zeta"
        ]

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

    def test_dimension_error_exit_2(self, monkeypatch, capsys):
        # DimensionError is a ValueError: the CLI reports it as one
        def too_small(basis, fock):
            raise DimensionError(f"no isometry for {basis.lam}")

        monkeypatch.setattr(ch, "build_isometry", too_small)
        rc = cli.main(["converge", "--n-list", "8", "--fock-cutoff", "15"])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: no isometry for (")
        assert err.count("\n") == 1 and err.endswith("\n")

    def test_non_finite_u_exit_2(self, capsys):
        rc = cli.main(["converge", "--u", "nan", "--n-list", "8"])
        assert rc == 2
        assert capsys.readouterr().err.startswith("error: u must be finite")

    def test_repeated_n_exit_2(self, monkeypatch, capsys):
        # a slope fitted through equal n is meaningless: refused before the
        # sweep runs
        def never(*args):
            raise AssertionError("a block was prepared")

        monkeypatch.setattr(ch, "prepare_blocks", never)
        rc = cli.main(["converge", "--n-list", "8,8", "--format", "json"])
        assert rc == 2
        assert capsys.readouterr().err == "error: n_list entries must be distinct\n"

    def test_empty_window_exit_2(self, capsys):
        # a window of n**-1 boxes holds no diagram: the forward channel
        # reports the whole mass as neglected
        rc = cli.main(["converge", "--alpha", "-1", "--override-exponents",
                       "--n-list", "64"])
        assert rc == 2
        assert capsys.readouterr().err.startswith(
            "error: neglected diagram mass 1.000 exceeds 0.5")

    @pytest.mark.parametrize("alpha", ["nan", "inf", "-inf"])
    def test_non_finite_alpha_exit_2(self, alpha, monkeypatch, capsys):
        # refused even under the override, before any block is prepared
        def never(*args):
            raise AssertionError("a block was prepared")

        monkeypatch.setattr(ch, "prepare_blocks", never)
        rc = cli.main(["converge", f"--alpha={alpha}", "--override-exponents",
                       "--n-list", "8"])
        assert rc == 2
        assert capsys.readouterr().err == f"error: exponent alpha must be finite, got {alpha}\n"

    def test_huge_alpha_is_the_whole_window(self, capsys):
        # a window of 8**1e308 boxes holds what a window of 8 does
        for alpha in ("1", "1e308"):
            rc = cli.main(["converge", "--alpha", alpha, "--override-exponents",
                           "--n-list", "8", "--fock-cutoff", "4"])
            assert rc == 0
        whole, huge = capsys.readouterr().out.split("n,total")[1:]
        assert whole == huge

    def test_d4_default_cutoff_exit_2(self, monkeypatch, capsys):
        # 31^6 Fock states at the default cutoff: refused before any block
        # is prepared, so nothing large is allocated
        def never(*args):
            raise AssertionError("a block was prepared")

        monkeypatch.setattr(ch, "prepare_blocks", never)
        rc = cli.main(["converge", "--d", "4", "--mu", "0.4,0.3,0.2,0.1",
                       "--u", "0,0,0", "--zeta", "0,0,0,0,0,0", "--n-list", "8"])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: Fock dimension 887503681 ")
        assert "cutoff 30" in err

    def test_oversized_transfer_exit_2(self, monkeypatch, capsys):
        # the one-row block of n=8, typical here, pairs on a 9 x 9 simplex pair
        monkeypatch.setattr(sw, "MAX_TRANSFER_ENTRIES", 80)
        rc = cli.main(["converge", "--n-list", "8", "--fock-cutoff", "15"])
        assert rc == 2
        assert capsys.readouterr().err == (
            "error: the pairing transfer of (8,) needs 81 complex entries, "
            "more than 80; lower n or the basis cutoff\n"
        )

    def test_oversized_block_exit_2(self, monkeypatch, capsys):
        # every dimension is checked before the m-vector walk: (4096,) is the
        # first diagram at d=2 n=4096, one box past the bound, while at d=3
        # n=42 and d=4 n=16 the first oversized diagram comes after 12 and 4
        # blocks within it
        def never(*args, **kwargs):
            raise AssertionError("no block may be enumerated before the bound holds")

        monkeypatch.setattr(tb, "m_vector_rows", never)
        cases = [
            ([], 4096, "(4096,) has dimension 4097"),
            (["--d", "3", "--mu", "0.5,0.3,0.2", "--u", "0,0", "--zeta", "0,0,0"],
             42, "(36, 6) has dimension 4123"),
            (["--d", "4", "--mu", "0.4,0.3,0.2,0.1", "--u", "0,0,0",
              "--zeta", "0,0,0,0,0,0"], 16, "(13, 3) has dimension 4400"),
        ]
        for model, n, block in cases:
            rc = cli.main(["decompose", *model, "--n-list", str(n)])
            assert rc == 2
            assert capsys.readouterr().err == (
                f"error: the block of {block}, more than 4096; lower n\n"
            )

    @pytest.mark.parametrize("d, n", [(3, 41), (4, 15)])
    def test_block_bound_admits_range(self, d, n):
        # the largest block at the last admitted n is within the bound, and
        # one box more takes a block past it
        def largest(n):
            return max(tb.dim_irrep(lam, d) for lam in tb.enumerate_diagrams(n, d))

        assert largest(n) <= ex.MAX_BLOCK_DIM < largest(n + 1)

    def test_block_bound_admits_transfer_range(self):
        # at d=2 the dimension lambda_1 - lambda_2 + 1 peaks at the one-row
        # diagram; every n the pairing transfer admitted for untruncated
        # bases (4,095 at d=2, 35 at d=3, 11 at d=4) stays admitted
        assert tb.dim_irrep((4095,), 2) == ex.MAX_BLOCK_DIM
        for d, n in [(3, 35), (4, 11)]:
            assert all(tb.dim_irrep(lam, d) <= ex.MAX_BLOCK_DIM
                       for lam in tb.enumerate_diagrams(n, d))

    def test_unwritable_out_exit_2(self, tmp_path, capsys):
        out = tmp_path / "missing" / "x.csv"
        rc = cli.main(["converge", "--n-list", "8", "--fock-cutoff", "15",
                       "--out", str(out)])
        assert rc == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert not out.exists()

    def test_format_is_converge_only(self, monkeypatch, capsys):
        # argparse rejects the flag before any lemma runs
        def never():
            raise AssertionError("the lemma ran")

        monkeypatch.setitem(ex.VERIFIERS, "dims", never)
        with pytest.raises(SystemExit) as exc:
            cli.main(["verify", "dims", "--format", "csv"])
        assert exc.value.code == 2
        assert "--format" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv, flag",
        [
            (["verify", "len0", "--mu", "0.6,0.4"], "--mu"),
            (["verify", "lconcentration", "--alpha", "0.9"], "--alpha"),
            (["decompose", "--fock-cutoff", "1"], "--fock-cutoff"),
        ],
        ids=["verify-mu", "verify-alpha", "decompose-fock-cutoff"],
    )
    def test_unread_flag_exit_2(self, argv, flag, monkeypatch, capsys):
        # verify takes only the lemma and --out, decompose has no Fock
        # cutoff: argparse rejects the flag before any runner starts
        def never(*args):
            raise AssertionError("the runner ran")

        for lemma in ex.VERIFIERS:
            monkeypatch.setitem(ex.VERIFIERS, lemma, never)
        monkeypatch.setattr(ex, "run_decompose", never)
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 2
        assert flag in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["converge", "decompose"])
    def test_defaults_are_config_defaults(self, command, monkeypatch, capsys):
        # with no model flags the runner gets ExperimentConfig(), the Fock
        # cutoff included for converge
        seen = []

        def capture(config):
            seen.append(config)
            raise ValueError("captured")

        monkeypatch.setattr(ex, f"run_{command}", capture)
        assert cli.main([command]) == 2
        assert seen == [ex.ExperimentConfig()]

    def test_converge_json(self, capsys):
        rc = cli.main(["converge", "--n-list", "8,12", "--fock-cutoff", "15",
                       "--format", "json"])
        assert rc == 0
        data = json.loads(capsys.readouterr().out)
        assert [r["n"] for r in data["rows"]] == [8, 12]
        assert data["fitted_rate"] < 0
        assert sorted(data["config"]) == [
            "alpha", "d", "fock_cutoff", "mu", "override_exponents", "u", "zeta"
        ]

    def test_failing_verifier_exit_1(self, monkeypatch, capsys):
        def fake():
            return {
                "schema_version": 4,
                "kind": "verify",
                "lemma": "dims",
                "passed": False,
                "values": {},
            }

        monkeypatch.setitem(ex.VERIFIERS, "dims", fake)
        rc = cli.main(["verify", "dims"])
        assert rc == 1

    def test_import_leaves_sympy_unloaded(self):
        # numpy is the only runtime dependency
        src = str(Path(cli.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=src)
        code = "import sys, qlan.cli; assert 'sympy' not in sys.modules"
        subprocess.run([sys.executable, "-c", code], env=env, check=True)
