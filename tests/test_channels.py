"""Tests for the forward and reverse channels: lattice kernels, block
isometries, mass accounting, and the round-trip identity."""

import math

import numpy as np
import pytest

from qlan import channels as ch
from qlan import experiments as ex
from qlan import gaussian as gs
from qlan import metrics as mt
from qlan import models as md
from qlan import schur_weyl as sw
from qlan import tableaux as tb
from qlan.errors import TruncationError

SPEC2 = md.Spectrum((0.7, 0.3))
SPEC3 = md.Spectrum((0.5, 0.3, 0.2))


class TestKernels:
    def test_sigma_inverts_tau(self):
        # the rows round(sqrt(n) x + n mu) of a box centre x give back lambda
        for n, spec in ((50, SPEC2), (60, SPEC3)):
            root = math.sqrt(n)
            for lam in ch.typical_diagrams(n, spec, 0.6):
                lo, hi = ch.box_of(lam, n, spec)
                center = (lo + hi) / 2
                rows = [round(root * x + n * m) for x, m in zip(center, spec.mu)]
                rows.append(n - sum(rows))
                assert tuple(r for r in rows if r > 0) == lam

    def test_boxes_partition(self):
        # adjacent typical boxes tile the axis without overlap
        n, spec = 49, SPEC2
        edges = sorted(
            ch.box_of(lam, n, spec)[0][0] for lam in ch.typical_diagrams(n, spec, 0.6)
        )
        widths = np.diff(edges)
        assert np.allclose(widths, 1.0 / math.sqrt(n))

    def test_typical_diagrams_flags(self):
        n = 100
        for lam in ch.typical_diagrams(n, SPEC2, 0.6):
            assert all(
                abs(tb.row(lam, i) - n * SPEC2.mu[i - 1]) <= n**0.6 for i in (1, 2)
            )
        # most probable diagram is inside the window
        best = max(
            tb.enumerate_diagrams(20, 2),
            key=lambda lam: md.block_weight(lam, SPEC2, (0.0,), 20),
        )
        assert best in ch.typical_diagrams(20, SPEC2, 0.6)

    @pytest.mark.parametrize("mu,n,alpha", [
        ((0.7, 0.3), n, alpha) for n in (1, 7, 49, 100, 257) for alpha in (0.51, 0.6, 0.99)
    ] + [
        ((0.5, 0.3, 0.2), 32, 0.6), ((0.5, 0.3, 0.2), 60, 0.55),
        ((0.8, 0.15, 0.05), 45, 0.75), ((0.4, 0.3, 0.2, 0.1), 24, 0.6),
    ])
    def test_window_is_the_row_rule(self, mu, n, alpha):
        # the window admits exactly the diagrams of n whose every row lies in
        # [ceil(n mu_i - w), floor(n mu_i + w)]; at d=3 n=32 alpha=0.6, w is
        # 7.999999999999999 and floor(16 + w) = 24 admits lambda_1 = 24
        spec = md.Spectrum(mu)
        w = n ** min(alpha, 1.0)
        expected = [
            lam for lam in tb.enumerate_diagrams(n, spec.d)
            if all(math.ceil(n * m - w) <= tb.row(lam, i) <= math.floor(n * m + w)
                   for i, m in enumerate(mu, start=1))
        ]
        assert ch.typical_diagrams(n, spec, alpha) == expected
        assert ch.typical_mask(tb.enumerate_diagrams(n, spec.d), n, spec, alpha).sum() \
            == len(expected)

    @pytest.mark.parametrize("alpha", [1.0, 1e308])
    def test_window_past_n_admits_every_diagram(self, alpha):
        # every row lies within n of n mu_i, so a window of n or more holds
        # every diagram; n**1e308 itself would overflow
        spec4 = md.Spectrum((0.4, 0.3, 0.2, 0.1))
        for n, spec in ((1, SPEC2), (8, SPEC2), (97, SPEC2), (12, SPEC3), (9, spec4)):
            assert ch.typical_diagrams(n, spec, alpha) == tb.enumerate_diagrams(n, spec.d)


class TestIsometry:
    @pytest.mark.parametrize(
        "d,lam,cutoff",
        [(2, (70, 30), 20), (2, (15, 5), 10), (3, (30, 18, 12), 6)],
    )
    def test_exact_isometry(self, d, lam, cutoff):
        (basis,) = sw.block_bases([lam], d, max_weight=cutoff)
        fock = gs.FockSpec(d, cutoff)
        V = ch.build_isometry(basis, fock)
        assert np.abs(V.conj().T @ V - np.eye(basis.size)).max() < 1e-10

    def test_number_basis_rows(self):
        # for two rows the Gram is the identity, so the isometry sends the
        # basis vector m to the Fock number state |m>
        lam = (40, 20)
        (basis,) = sw.block_bases([lam], 2, max_weight=10)
        fock = gs.FockSpec(2, 10)
        V = ch.build_isometry(basis, fock)
        # no contraction and no completion: the columns are the number states
        assert np.array_equal(basis.gram, np.eye(basis.size))
        assert np.count_nonzero(V.any(axis=1)) == basis.size
        for k, m in enumerate(basis.mvectors):
            col = V @ basis.sqrt_gram[:, k]
            expect = np.zeros(fock.dim)
            expect[fock.index(m)] = 1.0
            assert np.abs(col - expect).max() < 1e-10


class TestForwardChannel:
    def test_mass_accounting(self):
        theta = md.LocalParams((0.5,), (0.5 + 0.3j,))
        blocks = ch.prepare_blocks(SPEC2, theta, 50, gs.FockSpec(2, 25), alpha=0.6)
        out = ch.forward_channel(SPEC2, 50, blocks)
        covered = sum(c.weight for c in out.cells)
        assert covered + out.neglected_mass == pytest.approx(1.0, abs=1e-9)

    def test_quantum_parts_positive(self):
        theta = md.LocalParams((0.2,), (0.1j,))
        blocks = ch.prepare_blocks(SPEC2, theta, 30, gs.FockSpec(2, 20), alpha=0.6)
        out = ch.forward_channel(SPEC2, 30, blocks)
        for c in out.cells:
            evs = np.linalg.eigvalsh(c.quantum)
            assert evs.min() > -1e-10
            assert np.trace(c.quantum).real == pytest.approx(1.0, abs=1e-8)

    def test_low_coverage_raises(self):
        theta = md.LocalParams((0.0,), (0j,))
        blocks = ch.prepare_blocks(SPEC2, theta, 400, gs.FockSpec(2, 20), alpha=0.1)
        with pytest.raises(TruncationError):
            ch.forward_channel(SPEC2, 400, blocks)


class TestPrepareBlocks:
    """Block preparation runs one transfer per unitary for all blocks of a
    sweep point: the identity for the bases, the local rotation for the
    states."""

    @staticmethod
    def count_transfers(monkeypatch):
        calls = []
        real = sw.pairing_matrices

        def counting(lams, U, mss):
            calls.append("identity" if np.array_equal(U, np.eye(len(U))) else "rotation")
            return real(lams, U, mss)

        monkeypatch.setattr(sw, "pairing_matrices", counting)
        return calls

    @pytest.mark.parametrize("d", [2, 3])
    def test_one_transfer_per_unitary(self, d, monkeypatch):
        spec, zeta = (SPEC2, (0.5 + 0.3j,)) if d == 2 else (SPEC3, (0.3j, 0.2, 0.1 + 0.1j))
        theta = md.LocalParams((0.0,) * (d - 1), zeta)
        calls = self.count_transfers(monkeypatch)
        blocks = ch.prepare_blocks(spec, theta, 40, gs.FockSpec(d, 4), alpha=0.6)
        assert len(blocks) > 1
        assert calls == ["identity", "rotation"]

    def test_no_rotation_transfer_at_zero_zeta(self, monkeypatch):
        theta = md.LocalParams((0.5,), (0j,))
        calls = self.count_transfers(monkeypatch)
        ch.prepare_blocks(SPEC2, theta, 40, gs.FockSpec(2, 10), alpha=0.6)
        assert calls == ["identity"]

    def test_successive_calls_each_transfer(self, monkeypatch):
        # no result outlives a call: the second call transfers again and
        # gets the same bits
        theta = md.LocalParams((0.5,), (0.5 + 0.3j,))
        calls = self.count_transfers(monkeypatch)
        first = ch.prepare_blocks(SPEC2, theta, 40, gs.FockSpec(2, 10), alpha=0.6)
        second = ch.prepare_blocks(SPEC2, theta, 40, gs.FockSpec(2, 10), alpha=0.6)
        assert calls == ["identity", "rotation"] * 2
        for a, b in zip(first, second):
            assert np.array_equal(a.state.matrix, b.state.matrix)

    @pytest.mark.parametrize("d", [2, 3])
    def test_matches_per_block_preparation(self, d):
        spec, zeta = (SPEC2, (0.5 + 0.3j,)) if d == 2 else (SPEC3, (0.3j, 0.2, 0.1 + 0.1j))
        theta = md.LocalParams((0.2,) * (d - 1), zeta)
        n, fock = 40, gs.FockSpec(d, 4)
        for bd in ch.prepare_blocks(spec, theta, n, fock, alpha=0.6):
            (basis,) = sw.block_bases([bd.lam], d, max_weight=fock.cutoff)
            _, (state,) = md.block_states([basis], spec, theta, n)
            assert np.array_equal(bd.basis.sqrt_gram, basis.sqrt_gram)
            assert np.array_equal(bd.state.matrix, state.matrix)
            assert bd.state.truncation_defect == state.truncation_defect

    def test_one_schur_poly_per_block(self, monkeypatch):
        # at the default config's n=64, one block_weights call over every
        # block's diagram gives each log s_lambda once, and it serves both
        # the block's weight and its spectrum
        cfg, n = ex.ExperimentConfig(), 64
        spec, theta, fock = cfg.spectrum(), cfg.theta(), cfg.fock()
        calls = []
        real = md.block_weights

        def counting(lams, vals, n):
            calls.append(list(lams))
            return real(lams, vals, n)

        monkeypatch.setattr(md, "block_weights", counting)
        blocks = ch.prepare_blocks(spec, theta, n, fock, cfg.alpha)
        monkeypatch.undo()
        assert len(blocks) == 24
        assert calls == [[bd.lam for bd in blocks]]
        for bd in blocks:
            assert bd.weight == md.block_weight(bd.lam, spec, theta.u, n)
            (basis,) = sw.block_bases([bd.lam], cfg.d, max_weight=fock.cutoff)
            _, (state,) = md.block_states([basis], spec, theta, n)
            assert np.array_equal(bd.state.matrix, state.matrix)


class TestReverseChannel:
    def test_round_trip_block_identity(self):
        # the reverse block map is an exact left inverse of the forward one
        theta = md.LocalParams((0.3,), (0.2 + 0.1j,))
        blocks = ch.prepare_blocks(SPEC2, theta, 60, gs.FockSpec(2, 25), alpha=0.6)
        for bd in blocks[:5]:
            phi = bd.isometry @ bd.state.matrix @ bd.isometry.conj().T
            back = ch.reverse_block_map(phi, bd.basis, bd.isometry)
            assert np.abs(back - bd.state.matrix).max() < 1e-10

    def test_reverse_channel_mass(self):
        theta = md.LocalParams((0.5,), (0j,))
        n = 50
        fock = gs.FockSpec(2, 20)
        blocks = ch.prepare_blocks(SPEC2, theta, n, fock, alpha=0.6)
        limit = gs.limit_state(SPEC2, theta, fock)
        masses = mt.cq_distance(ch.forward_channel(SPEC2, n, blocks), limit).box_masses
        recon, unplaced = ch.reverse_channel(masses, limit.quantum, blocks)
        assert sum(w for w, _ in recon) + unplaced == pytest.approx(1.0, abs=1e-9)
        for w, rho in recon:
            assert np.trace(rho).real == pytest.approx(1.0, abs=1e-8)
            assert np.linalg.eigvalsh(rho).min() > -1e-8

    def test_single_row_block_absorbs_leftover(self):
        # at the default model with n=16, (n,) is typical: the mass no box
        # holds is placed on its block and nothing is returned unplaced
        n = 16
        config = ex.ExperimentConfig(n_list=(n,))
        spec, theta, fock = config.spectrum(), config.theta(), config.fock()
        blocks = ch.prepare_blocks(spec, theta, n, fock, config.alpha)
        idx = [bd.lam for bd in blocks].index((n,))
        limit = gs.limit_state(spec, theta, fock)
        masses = mt.cq_distance(ch.forward_channel(spec, n, blocks), limit).box_masses
        recon, unplaced = ch.reverse_channel(masses, limit.quantum, blocks)
        assert unplaced == 0.0
        assert recon[idx][0] == masses[idx] + max(0.0, 1.0 - sum(masses))
        assert sum(w for w, _ in recon) == pytest.approx(1.0, abs=1e-12)

    def test_fallback_builds_no_basis(self, monkeypatch):
        # (n,) is not typical here: the mass no box holds comes back
        # unplaced, with no block basis built for it
        theta = md.LocalParams((0.5,), (0j,))
        n = 50
        fock = gs.FockSpec(2, 20)
        blocks = ch.prepare_blocks(SPEC2, theta, n, fock, alpha=0.6)
        assert (n,) not in [bd.lam for bd in blocks]
        limit = gs.limit_state(SPEC2, theta, fock)
        masses = mt.cq_distance(ch.forward_channel(SPEC2, n, blocks), limit).box_masses
        calls = []
        real = sw.block_bases

        def counting(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(sw, "block_bases", counting)
        recon, unplaced = ch.reverse_channel(masses, limit.quantum, blocks)
        assert calls == []
        assert len(recon) == len(blocks)
        assert unplaced > 0.0
        assert sum(w for w, _ in recon) + unplaced == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize(
        "config",
        [
            ex.ExperimentConfig(n_list=(64, 128)),
            ex.ExperimentConfig(
                d=3, mu=(0.5, 0.3, 0.2), u=(0.5, 0.0),
                zeta=(0.5 + 0.3j, 0.2 - 0.1j, 0.1 + 0.2j), fock_cutoff=3, n_list=(8, 10),
            ),
        ],
        ids=["d2", "d3"],
    )
    def test_places_the_distance_box_masses(self, config, monkeypatch):
        # one box rule per prepared block and sweep point: the reverse
        # channel places the masses cq_distance integrated, bit for bit
        seen = {"rules": 0, "blocks": [], "reports": [], "recons": []}

        def recorded(fn, key):
            def wrapper(*args, **kwargs):
                result = fn(*args, **kwargs)
                seen[key].append(result)
                return result
            return wrapper

        box_rule = gs.box_rule

        def counted(*args):
            seen["rules"] += 1
            return box_rule(*args)

        monkeypatch.setattr(gs, "box_rule", counted)
        monkeypatch.setattr(ch, "prepare_blocks", recorded(ch.prepare_blocks, "blocks"))
        monkeypatch.setattr(mt, "cq_distance", recorded(mt.cq_distance, "reports"))
        monkeypatch.setattr(ch, "reverse_channel", recorded(ch.reverse_channel, "recons"))
        ex.run_converge(config)
        assert seen["rules"] == sum(len(blocks) for blocks in seen["blocks"])
        assert seen["rules"] == {2: 60, 3: 21}[config.d]
        for rep, (recon, unplaced) in zip(seen["reports"], seen["recons"], strict=True):
            assert tuple(w for w, _ in recon) == rep.box_masses
            inside = 0.0
            for mass in rep.box_masses:  # summed in order, as both channels do
                inside += mass
            assert unplaced == max(0.0, 1.0 - inside)

    def test_gaussian_box_mass_1d_matches_erf(self):
        lo, hi = np.array([0.1]), np.array([0.7])
        mean, cov = np.array([0.3]), np.array([[0.21]])
        sd = math.sqrt(0.21)
        expect = 0.5 * (
            math.erf((0.7 - 0.3) / (sd * math.sqrt(2)))
            - math.erf((0.1 - 0.3) / (sd * math.sqrt(2)))
        )
        got = gs.box_integral(lambda t: t, gs.box_rule(lo, hi, mean, cov))
        assert got == pytest.approx(expect)

    def test_gaussian_box_mass_2d_product(self):
        lo, hi = np.array([-0.2, 0.0]), np.array([0.3, 0.4])
        mean = np.array([0.0, 0.1])
        cov = np.diag([0.2, 0.15])
        expect = 1.0
        for i in range(2):
            sd = math.sqrt(cov[i, i])
            expect *= 0.5 * (
                math.erf((hi[i] - mean[i]) / (sd * math.sqrt(2)))
                - math.erf((lo[i] - mean[i]) / (sd * math.sqrt(2)))
            )
        got = gs.box_integral(lambda t: t, gs.box_rule(lo, hi, mean, cov))
        assert got == pytest.approx(expect, abs=1e-10)
