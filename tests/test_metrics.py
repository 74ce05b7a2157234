"""Tests for the distance computations: trace norm, classical L1 quadrature,
and the combined classical-quantum distance report."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qlan import channels as ch
from qlan import gaussian as gs
from qlan import metrics as mt
from qlan import models as md

SPEC2 = md.Spectrum((0.7, 0.3))


def random_density(dim, rng):
    A = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = A @ A.conj().T
    return rho / np.trace(rho).real


class TestTraceDistance:
    def test_identical(self):
        rho = np.diag([0.6, 0.4])
        assert mt.trace_distance(rho, rho) == 0.0

    def test_orthogonal_pure(self):
        a = np.diag([1.0, 0.0])
        b = np.diag([0.0, 1.0])
        assert mt.trace_distance(a, b) == pytest.approx(2.0)

    def test_diagonal_example(self):
        a = np.diag([0.8, 0.2])
        b = np.diag([0.6, 0.4])
        assert mt.trace_distance(a, b) == pytest.approx(0.4)

    @given(st.integers(0, 1000))
    @settings(max_examples=25, deadline=None)
    def test_metric_properties(self, seed):
        rng = np.random.default_rng(seed)
        a, b, c = (random_density(4, rng) for _ in range(3))
        dab = mt.trace_distance(a, b)
        assert dab == pytest.approx(mt.trace_distance(b, a), abs=1e-10)
        assert dab <= mt.trace_distance(a, c) + mt.trace_distance(c, b) + 1e-10
        assert mt.trace_distance(a, a) < 1e-10
        assert -1e-12 <= dab <= 2.0 + 1e-12


def make_cells(n, spec, u, alpha=0.6):
    cells = []
    for lam in ch.typical_diagrams(n, spec, alpha):
        lo, hi = ch.box_of(lam, n, spec)
        w = md.block_weight(lam, spec, u, n)
        cells.append(ch.Cell(lam, lo, hi, w, None))
    return cells


class TestClassicalL1:
    def test_disjoint_supports(self):
        cells = [ch.Cell((1,), np.array([100.0]), np.array([101.0]), 1.0, None)]
        mean, cov = np.array([0.0]), np.array([[1.0]])
        assert mt.classical_l1(cells, mean, cov) == pytest.approx(2.0, abs=1e-8)

    def test_exact_discretization_small(self):
        # boxes whose masses are the exact Gaussian masses leave only the
        # in-box variation of the density
        mean, cov = np.array([0.0]), np.array([[1.0]])
        edges = np.linspace(-5, 5, 201)
        cells = []
        for a, b in zip(edges[:-1], edges[1:]):
            lo, hi = np.array([a]), np.array([b])
            w = ch.gaussian_box_mass(lo, hi, mean, cov)
            cells.append(ch.Cell((1,), lo, hi, w, None))
        assert mt.classical_l1(cells, mean, cov) < 0.02

    def test_overlapping_boxes_rejected(self):
        cells = [
            ch.Cell((2,), np.array([0.0]), np.array([1.0]), 0.5, None),
            ch.Cell((1,), np.array([0.5]), np.array([1.5]), 0.5, None),
        ]
        with pytest.raises(ValueError):
            mt.classical_l1(cells, np.array([0.0]), np.array([[1.0]]))

    def test_decreasing_in_n(self):
        mean, cov = np.array([0.5]), md.covariance(SPEC2)
        vals = [
            mt.classical_l1(make_cells(n, SPEC2, (0.5,)), mean, cov)
            for n in (25, 400)
        ]
        assert vals[1] < vals[0]


@pytest.fixture(scope="module")
def small_run():
    theta = md.LocalParams((0.5,), (0.5 + 0.3j,))
    fock = gs.FockSpec(2, 20)
    blocks = ch.prepare_blocks(SPEC2, theta, 16, fock, alpha=0.6)
    out = ch.forward_channel(SPEC2, 16, blocks)
    limit = gs.limit_state(SPEC2, theta, fock)
    return mt.cq_distance(out, limit)


class TestCqDistance:
    def test_total_bounded_by_components(self, small_run):
        rep = small_run
        assert rep.total <= rep.components_sum() + 1e-8

    def test_components_nonnegative(self, small_run):
        rep = small_run
        for v in (rep.total, rep.classical, rep.quantum_sup, rep.atypical):
            assert v >= 0.0

    def test_self_distance_small(self):
        # the limit state discretized onto the same boxes compares to itself
        # within the discretization residual
        theta = md.LocalParams((0.5,), (0j,))
        fock = gs.FockSpec(2, 20)
        n = 100
        limit = gs.limit_state(SPEC2, theta, fock)
        cells = []
        for lam in ch.typical_diagrams(n, SPEC2, 0.6):
            lo, hi = ch.box_of(lam, n, SPEC2)
            w = ch.gaussian_box_mass(lo, hi, limit.mean, limit.cov)
            cells.append(ch.Cell(lam, lo, hi, w, limit.quantum))
        out = ch.ClassicalQuantumState(n, 2, tuple(cells), 0.0, 0.0)
        rep = mt.cq_distance(out, limit)
        assert rep.quantum_sup < 1e-10
        assert rep.total < 0.1  # in-box density variation + window tail


class TestSnDistance:
    def test_identical_states_zero(self):
        theta = md.LocalParams((0.3,), (0.1j,))
        blocks = ch.prepare_blocks(SPEC2, theta, 30, gs.FockSpec(2, 15), alpha=0.6)
        recon = [(bd.lam, bd.weight, bd.state.matrix) for bd in blocks]
        assert mt.sn_distance(recon, blocks) < 1e-12

    def test_unmatched_diagram_contributes_weight(self):
        theta = md.LocalParams((0.3,), (0j,))
        blocks = ch.prepare_blocks(SPEC2, theta, 30, gs.FockSpec(2, 15), alpha=0.6)
        recon = [(bd.lam, bd.weight, bd.state.matrix) for bd in blocks]
        recon.append(((30,), 0.25, np.eye(1, dtype=complex)))
        if all(bd.lam != (30,) for bd in blocks):
            assert mt.sn_distance(recon, blocks) == pytest.approx(0.25, abs=1e-12)

    def test_decreasing_in_n(self):
        theta = md.LocalParams((0.5,), (0.5 + 0.3j,))
        fock = gs.FockSpec(2, 25)
        vals = []
        for n in (16, 64):
            blocks = ch.prepare_blocks(SPEC2, theta, n, fock, alpha=0.6)
            limit = gs.limit_state(SPEC2, theta, fock)
            recon = ch.reverse_channel(limit, SPEC2, n, blocks)
            vals.append(mt.sn_distance(recon, blocks))
        assert vals[1] < vals[0]
