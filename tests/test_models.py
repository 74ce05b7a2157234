"""Tests for the parametric family: spectra, local rotations, block weights,
and conditional block states."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qlan import channels as ch
from qlan import models as md
from qlan import oracle as orc
from qlan import schur_weyl as sw
from qlan import tableaux as tb


class TestSpectrum:
    def test_valid(self):
        s = md.Spectrum((0.5, 0.3, 0.2))
        assert s.d == 3

    @pytest.mark.parametrize(
        "mu",
        [(0.3, 0.7), (0.5, 0.5), (0.7, 0.2), (1.0,), (0.8, 0.3, -0.1),
         (float("nan"), float("nan"))],
    )
    def test_invalid(self, mu):
        with pytest.raises(ValueError):
            md.Spectrum(mu)


class TestRotation:
    def test_unitary(self):
        spec = md.Spectrum((0.5, 0.3, 0.2))
        U = md.rotation_unitary(spec, (0.3 + 0.1j, 0.2j, 0.5), 50)
        assert np.allclose(U @ U.conj().T, np.eye(3), atol=1e-12)

    def test_zero_is_identity(self):
        spec = md.Spectrum((0.7, 0.3))
        U = md.rotation_unitary(spec, (0j,), 10)
        assert np.allclose(U, np.eye(2))

    def test_rho_theta_variants(self):
        spec = md.Spectrum((0.7, 0.3))
        theta = md.LocalParams((0.2,), (0.1 + 0.05j,))
        n = 10**6
        a = orc.rho_theta(spec, theta, n, variant="unitary")
        b = orc.rho_theta(spec, theta, n, variant="tilde")
        for rho in (a, b):
            assert np.allclose(rho, rho.conj().T)
            assert np.trace(rho).real == pytest.approx(1.0, abs=1e-12)
        # the direct variant carries conj(zeta)/sqrt(n) verbatim; the unitary
        # variant rescales the generator by 1/sqrt(mu1 - mu2)
        assert b[0, 1] == pytest.approx((0.1 - 0.05j) / math.sqrt(n))
        gap = 0.4
        assert a[0, 1] == pytest.approx(
            (0.1 - 0.05j) * math.sqrt(gap) / math.sqrt(n), rel=1e-3
        )

    def test_su_generators_traceless_hermitian(self):
        for d in (2, 3, 4):
            for G in md.su_generators(d):
                assert abs(np.trace(G)) < 1e-14
                assert np.allclose(G, G.conj().T)


class TestWeights:
    @pytest.mark.parametrize("d,lam", [(2, (3, 1)), (3, (3, 2, 1)), (3, (4, 2))])
    def test_schur_poly_matches_enumeration(self, d, lam):
        vals = tuple(v / (d * (d + 1) / 2) for v in range(d, 0, -1))
        assert math.exp(md.log_schur_poly(lam, vals)) == pytest.approx(
            orc.schur_poly_enumerated(lam, vals), rel=1e-12
        )

    @pytest.mark.parametrize("d,n,mu", [(2, 8, (0.7, 0.3)), (3, 5, (0.5, 0.3, 0.2))])
    def test_weights_sum_to_one(self, d, n, mu):
        spec = md.Spectrum(mu)
        u = (0.1,) + (0.05,) * (d - 2)
        total = sum(
            md.block_weight(lam, spec, u, n) for lam in tb.enumerate_diagrams(n, d)
        )
        assert total == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("d,n", [(2, 6), (3, 5), (4, 4), (2, 200), (3, 60)])
    def test_log_prefactor_matches_exact(self, d, n):
        for lam in tb.enumerate_diagrams(n, d):
            exact = math.log(orc.multiplicity_product_form(lam, n, d))
            assert md.log_weight_prefactor(lam, n, d) == pytest.approx(exact, abs=1e-10)

    @pytest.mark.parametrize(
        "d,n,mu,u",
        [(2, 2048, (0.7, 0.3), (0.5,)), (3, 1024, (0.5, 0.3, 0.2), (0.5, 0.0))],
    )
    def test_large_n_matches_exact_rationals(self, d, n, mu, u):
        # here the alternant underflows in floating point; the weights of the
        # typical diagrams must stay finite, sum to nearly 1, and agree with
        # multiplicity x ratio of alternants in exact rational arithmetic
        spec = md.Spectrum(mu)
        typical = ch.typical_diagrams(n, spec, 0.6)
        total = sum(md.block_weight(lam, spec, u, n) for lam in typical)
        assert 0.99 < total <= 1.0
        xs = [Fraction(v) for v in md.perturbed_spectrum(spec, u, n)]
        for lam in typical[:: len(typical) // 4]:
            exps = [tb.row(lam, j) + d - j for j in range(1, d + 1)]
            alt = sum(
                sign * math.prod(xs[i] ** exps[p[i]] for i in range(d))
                for sign, p in sw.signed_permutations(d)
            )
            vdm = math.prod(xs[i] - xs[j] for i in range(d) for j in range(i + 1, d))
            exact = orc.multiplicity_product_form(lam, n, d) * alt / vdm
            log_exact = math.log(exact.numerator) - math.log(exact.denominator)
            got = math.log(md.block_weight(lam, spec, u, n))
            assert got == pytest.approx(log_exact, abs=1e-10)

    def test_two_sample_example(self):
        spec = md.Spectrum((0.75, 0.25))
        assert md.block_weight((2,), spec, (0.0,), 2) == pytest.approx(0.8125)
        assert md.block_weight((1, 1), spec, (0.0,), 2) == pytest.approx(0.1875)


class TestBlockState:
    def test_trace_one_and_positive(self):
        spec = md.Spectrum((0.7, 0.3))
        theta = md.LocalParams((0.5,), (0.5 + 0.3j,))
        lam = (60, 40)
        basis = sw.block_basis(lam, 2, max_weight=15)
        state = md.block_state(basis, spec, theta, 100)
        assert np.trace(state.matrix).real == pytest.approx(1.0, abs=1e-10)
        assert np.linalg.eigvalsh(state.matrix).min() > -1e-12

    def test_diagonal_case_spectrum(self):
        # with zeta = 0 the eigenvalues are the weight-class products
        spec = md.Spectrum((0.7, 0.3))
        theta = md.LocalParams((0.0,), (0j,))
        lam = (5, 1)
        basis = sw.block_basis(lam, 2, max_weight=6)
        state = md.block_state(basis, spec, theta, 6)
        expect = np.array([0.7 ** (6 - k) * 0.3**k for k in range(5)])
        expect = np.sort(expect / expect.sum())
        got = np.sort(np.linalg.eigvalsh(state.matrix))
        assert np.allclose(got, expect, atol=1e-12)

    @pytest.mark.parametrize(
        "d,lam,cutoff", [(3, (4, 2, 1), 4), (3, (30, 18, 12), 6), (4, (3, 2, 1), 3)]
    )
    def test_sqrt_gram_block_diagonal_over_weights(self, d, lam, cutoff):
        # block_state is diagonal because each weight class spans its own
        # orthonormal coordinates
        basis = sw.block_basis(lam, d, max_weight=cutoff)
        weights = [tb.total_multiplicities(lam, m, d) for m in basis.mvectors]
        cross = np.array([[wr != wc for wc in weights] for wr in weights])
        assert cross.any()
        assert np.abs(basis.sqrt_gram[cross]).max() < 1e-12


class TestClassicalPieces:
    def test_covariance_qubit(self):
        spec = md.Spectrum((0.7, 0.3))
        assert md.covariance(spec)[0, 0] == pytest.approx(0.21)

    def test_covariance_matches_multinomial(self):
        spec = md.Spectrum((0.5, 0.3, 0.2))
        V = md.covariance(spec)
        mu = spec.mu
        for i in range(2):
            for j in range(2):
                expect = mu[i] * (1 - mu[i]) if i == j else -mu[i] * mu[j]
                assert V[i, j] == pytest.approx(expect)

    def test_multinomial_pmf_sums_to_one(self):
        probs = (0.5, 0.3, 0.2)
        n = 6
        total = sum(
            md.multinomial_pmf((a, b, n - a - b), probs)
            for a in range(n + 1)
            for b in range(n + 1 - a)
        )
        assert total == pytest.approx(1.0)

    @given(st.floats(0.1, 0.45), st.integers(100, 2000))
    @settings(max_examples=30, deadline=None)
    def test_perturbed_spectrum_normalized(self, mu2, n):
        spec = md.Spectrum((1 - mu2, mu2))
        vals = md.perturbed_spectrum(spec, (0.3,), n)
        assert sum(vals) == pytest.approx(1.0, abs=1e-12)
        assert all(v > 0 for v in vals)
