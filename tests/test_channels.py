"""Tests for the forward and reverse channels: lattice kernels, block
isometries, mass accounting, and the round-trip identity."""

import math

import numpy as np
import pytest

from qlan import channels as ch
from qlan import gaussian as gs
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
            assert tb.is_typical(lam, n, SPEC2.mu, 0.6)
        # most probable diagram is inside the window
        best = max(
            tb.enumerate_diagrams(20, 2),
            key=lambda lam: md.block_weight(lam, SPEC2, (0.0,), 20),
        )
        assert best in ch.typical_diagrams(20, SPEC2, 0.6)


class TestIsometry:
    @pytest.mark.parametrize(
        "d,lam,cutoff",
        [(2, (70, 30), 20), (2, (15, 5), 10), (3, (30, 18, 12), 6)],
    )
    def test_exact_isometry(self, d, lam, cutoff):
        basis = sw.block_basis(lam, d, max_weight=cutoff)
        fock = gs.FockSpec(d, cutoff)
        iso = ch.build_isometry(basis, fock)
        V = iso.matrix
        assert np.abs(V.conj().T @ V - np.eye(basis.size)).max() < 1e-10

    def test_number_basis_rows(self):
        # for two rows the Gram is the identity, so the isometry sends the
        # basis vector m to the Fock number state |m>
        lam = (40, 20)
        basis = sw.block_basis(lam, 2, max_weight=10)
        fock = gs.FockSpec(2, 10)
        iso = ch.build_isometry(basis, fock)
        for m in basis.mvectors:
            col = iso.matrix @ basis.coords(m)
            expect = np.zeros(fock.dim)
            expect[fock.index(m)] = 1.0
            assert np.abs(col * iso.contraction_scale**0.0 - expect).max() < 1e-10


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
            ch.forward_channel(SPEC2, 400, blocks, coverage_bound=0.5)


class TestReverseChannel:
    def test_round_trip_block_identity(self):
        # the reverse block map is an exact left inverse of the forward one
        theta = md.LocalParams((0.3,), (0.2 + 0.1j,))
        blocks = ch.prepare_blocks(SPEC2, theta, 60, gs.FockSpec(2, 25), alpha=0.6)
        for bd in blocks[:5]:
            phi = bd.isometry.matrix @ bd.state.matrix @ bd.isometry.matrix.conj().T
            back = ch.reverse_block_map(phi, bd.basis, bd.isometry)
            assert np.abs(back - bd.state.matrix).max() < 1e-10

    def test_reverse_channel_mass(self):
        theta = md.LocalParams((0.5,), (0j,))
        n = 50
        fock = gs.FockSpec(2, 20)
        blocks = ch.prepare_blocks(SPEC2, theta, n, fock, alpha=0.6)
        limit = gs.limit_state(SPEC2, theta, fock)
        recon = ch.reverse_channel(limit, SPEC2, n, blocks)
        assert sum(w for _, w, _ in recon) == pytest.approx(1.0, abs=1e-9)
        for _, w, rho in recon:
            assert np.trace(rho).real == pytest.approx(1.0, abs=1e-8)
            assert np.linalg.eigvalsh(rho).min() > -1e-8

    def test_fallback_builds_no_basis(self, monkeypatch):
        # (n,) is not typical here: the fallback block gets the leftover mass
        # as a 1x1 state, with no block basis built for it
        theta = md.LocalParams((0.5,), (0j,))
        n = 50
        fock = gs.FockSpec(2, 20)
        blocks = ch.prepare_blocks(SPEC2, theta, n, fock, alpha=0.6)
        assert (n,) not in [bd.lam for bd in blocks]
        limit = gs.limit_state(SPEC2, theta, fock)
        calls = []
        real = sw.block_basis

        def counting(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(sw, "block_basis", counting)
        recon = ch.reverse_channel(limit, SPEC2, n, blocks)
        assert calls == []
        assert recon[-1][0] == (n,)

    def test_gaussian_box_mass_1d_matches_erf(self):
        lo, hi = np.array([0.1]), np.array([0.7])
        mean, cov = np.array([0.3]), np.array([[0.21]])
        sd = math.sqrt(0.21)
        expect = 0.5 * (
            math.erf((0.7 - 0.3) / (sd * math.sqrt(2)))
            - math.erf((0.1 - 0.3) / (sd * math.sqrt(2)))
        )
        assert ch.gaussian_box_mass(lo, hi, mean, cov) == pytest.approx(expect)

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
        got = ch.gaussian_box_mass(lo, hi, mean, cov)
        assert got == pytest.approx(expect, abs=1e-10)
