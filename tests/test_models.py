"""Tests for the parametric family: spectra, local rotations, block weights,
and conditional block states."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qlan import channels as ch
from qlan import gaussian as gs
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

    @pytest.mark.parametrize(
        "mu", [(0.7, 0.3), (0.55, 0.45), (0.5, 0.3, 0.2), (0.4, 0.3, 0.2, 0.1)]
    )
    def test_matches_generator_sum_bitwise(self, mu):
        # the convention: exp(i H / sqrt(n)) with
        # H = sum (Re zeta_jk T_jk + Im zeta_jk T_kj) / sqrt(mu_j - mu_k),
        # T_jk = i (E_jk - E_kj) and T_kj = E_jk + E_kj, summed from explicit
        # matrices; zero and -0.0 parts of zeta included
        spec, d = md.Spectrum(mu), len(mu)
        rng = np.random.default_rng(d)
        parts = [0.0, -0.0, 0.3, -1.2, *rng.normal(size=4)]
        for _ in range(40):
            zeta = tuple(
                complex(re, im)
                for re, im in rng.choice(parts, size=(len(tb.pairs(d)), 2))
            )
            n = int(rng.choice([1, 64, 10**6]))
            H = np.zeros((d, d), dtype=complex)
            for (j, k), z in zip(tb.pairs(d), zeta):
                T_jk = np.zeros((d, d), dtype=complex)
                T_jk[j - 1, k - 1], T_jk[k - 1, j - 1] = 1j, -1j
                T_kj = np.zeros((d, d), dtype=complex)
                T_kj[j - 1, k - 1], T_kj[k - 1, j - 1] = 1.0, 1.0
                H += (z.real * T_jk + z.imag * T_kj) / math.sqrt(mu[j - 1] - mu[k - 1])
            expect = md.hermitian_exp_i(H / math.sqrt(n))
            got = md.rotation_unitary(spec, zeta, n)
            assert np.array_equal(got.view(np.uint64), expect.view(np.uint64)), zeta


class TestLocalParamLengths:
    def test_u_length(self):
        spec = md.Spectrum((0.7, 0.3))
        with pytest.raises(ValueError, match="u needs 1 components, got 2"):
            md.block_weight((40, 24), spec, (0.5, 0.1), 64)
        with pytest.raises(ValueError, match="u needs 1 components, got 0"):
            md.block_weight((40, 24), spec, (), 64)
        with pytest.raises(ValueError, match="u needs 2 components, got 1"):
            md.perturbed_spectrum(md.Spectrum((0.5, 0.3, 0.2)), (0.1,), 64)

    def test_zeta_length(self):
        # a length-1 zeta must not broadcast over the three pairs of d=3
        spec3 = md.Spectrum((0.5, 0.3, 0.2))
        with pytest.raises(ValueError, match="zeta needs 3 components, got 1"):
            md.rotation_unitary(spec3, (0.1,), 64)
        with pytest.raises(ValueError, match="zeta needs 1 components, got 2"):
            md.rotation_unitary(md.Spectrum((0.7, 0.3)), (0.5 + 0.3j, 0.2), 64)
        theta = md.LocalParams((0.5,), (0.5 + 0.3j, 0.2))
        with pytest.raises(ValueError, match="zeta needs 1 components, got 2"):
            ch.prepare_blocks(md.Spectrum((0.7, 0.3)), theta, 64, gs.FockSpec(2, 10), 0.6)


class TestWeights:
    @pytest.mark.parametrize(
        "d,lam", [(2, (3, 1)), (3, (3, 2, 1)), (3, (4, 2)), (4, (4, 2, 1, 1))]
    )
    def test_schur_poly_matches_enumeration(self, d, lam):
        vals = tuple(v / (d * (d + 1) / 2) for v in range(d, 0, -1))
        _, (log_s,) = md.block_weights([lam], vals, sum(lam))
        assert math.exp(log_s) == pytest.approx(
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
        # every weight over its s_lambda is the multiplicity, and the weight
        # is multiplicity x ratio of alternants in exact rational arithmetic
        mu = tuple(v / (d * (d + 1) / 2) for v in range(d, 0, -1))
        vals = md.perturbed_spectrum(md.Spectrum(mu), (0.1,) + (0.0,) * (d - 2), n)
        xs = [Fraction(v) for v in vals]
        vdm = math.prod(xs[i] - xs[j] for i in range(d) for j in range(i + 1, d))
        lams = tb.enumerate_diagrams(n, d)
        weights, log_s = md.block_weights(lams, vals, n)
        for lam, weight, ls, mult in zip(
            lams, weights, log_s, tb.multiplicities(lams, n, d), strict=True
        ):
            assert math.log(weight) - ls == pytest.approx(math.log(mult), abs=1e-10)
            exps = [tb.row(lam, j) + d - j for j in range(1, d + 1)]
            alt = sum(
                sign * math.prod(xs[i] ** exps[p[i]] for i in range(d))
                for sign, p in sw.signed_permutations(d)
            )
            exact = mult * alt / vdm
            log_exact = math.log(exact.numerator) - math.log(exact.denominator)
            assert math.log(weight) == pytest.approx(log_exact, abs=1e-10)

    @pytest.mark.parametrize(
        "d,n,mu,u",
        [(2, 4096, (0.7, 0.3), (0.5,)), (3, 41, (0.5, 0.3, 0.2), (0.5, 0.0)),
         (4, 40, (0.4, 0.3, 0.2, 0.1), (0.2, 0.1, -0.1))],
    )
    def test_batch_matches_single_bitwise(self, d, n, mu, u):
        # each diagram's weight and log s_lambda reduce along its own row, so
        # a batch, a reversed batch and the diagram alone agree bit for bit
        spec = md.Spectrum(mu)
        vals = md.perturbed_spectrum(spec, u, n)
        lams = tb.enumerate_diagrams(n, d)
        weights, log_s = md.block_weights(lams, vals, n)
        back_w, back_s = md.block_weights(lams[::-1], vals, n)
        assert weights == back_w[::-1]
        assert np.array_equal(log_s, back_s[::-1])
        for lam, weight, ls in zip(lams, weights, log_s, strict=True):
            (alone,), (alone_s,) = md.block_weights([lam], vals, n)
            assert alone == weight == md.block_weight(lam, spec, u, n)
            assert alone_s == ls

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
            (mult,) = tb.multiplicities([lam], n, d)
            exact = mult * alt / vdm
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
        (basis,) = sw.block_bases([lam], 2, max_weight=15)
        _, (state,) = md.block_states([basis], spec, theta, 100)
        assert np.trace(state.matrix).real == pytest.approx(1.0, abs=1e-10)
        assert np.linalg.eigvalsh(state.matrix).min() > -1e-12

    def test_diagonal_case_spectrum(self):
        # with zeta = 0 the eigenvalues are the weight-class products
        spec = md.Spectrum((0.7, 0.3))
        theta = md.LocalParams((0.0,), (0j,))
        lam = (5, 1)
        (basis,) = sw.block_bases([lam], 2, max_weight=6)
        _, (state,) = md.block_states([basis], spec, theta, 6)
        expect = np.array([0.7 ** (6 - k) * 0.3**k for k in range(5)])
        expect = np.sort(expect / expect.sum())
        got = np.sort(np.linalg.eigvalsh(state.matrix))
        assert np.allclose(got, expect, atol=1e-12)

    @pytest.mark.parametrize(
        "d,lam,cutoff", [(3, (4, 2, 1), 4), (3, (30, 18, 12), 6), (4, (3, 2, 1), 3)]
    )
    def test_sqrt_gram_block_diagonal_over_weights(self, d, lam, cutoff):
        # block_states is diagonal because each weight class spans its own
        # orthonormal coordinates
        (basis,) = sw.block_bases([lam], d, max_weight=cutoff)
        owner = np.zeros(basis.size, dtype=int)
        weights = tb.m_vector_weights([lam], d, owner, basis.mvectors)
        cross = (weights[:, None] != weights[None, :]).any(axis=2)
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

    @given(st.floats(0.1, 0.45), st.integers(100, 2000))
    @settings(max_examples=30, deadline=None)
    def test_perturbed_spectrum_normalized(self, mu2, n):
        spec = md.Spectrum((1 - mu2, mu2))
        vals = md.perturbed_spectrum(spec, (0.3,), n)
        assert sum(vals) == pytest.approx(1.0, abs=1e-12)
        assert all(v > 0 for v in vals)
