"""Tests for the truncated Fock-space limit model: thermal and displaced
states, Weyl operators, characteristic functions, and the product state."""

import math

import numpy as np
import pytest

from qlan import gaussian as gs
from qlan import models as md


class TestThermal:
    def test_large_beta_is_vacuum(self):
        rho = gs.thermal(50.0, 10)
        vac = np.zeros((11, 11))
        vac[0, 0] = 1.0
        assert np.abs(rho - vac).max() < 1e-20

    def test_geometric_weights(self):
        rho = gs.thermal(math.log(2), 20)
        p = np.diag(rho).real
        assert p[0] == pytest.approx(0.5, abs=1e-6)
        for k in range(10):
            assert p[k + 1] / p[k] == pytest.approx(0.5, rel=1e-12)

    def test_mean_photon_number(self):
        beta = 0.9
        N = 60
        rho = gs.thermal(beta, N)
        mean = float(np.diag(rho).real @ np.arange(N + 1))
        assert mean == pytest.approx(1.0 / (math.exp(beta) - 1.0), abs=1e-10)

    def test_rejects_nonpositive_beta(self):
        with pytest.raises(ValueError):
            gs.thermal(0.0, 10)


class TestWeyl:
    def test_zero_is_identity(self):
        assert np.allclose(gs.weyl(0.0, 15), np.eye(16))

    def test_unitary(self):
        W = gs.weyl(0.6 + 0.8j, 40)
        assert np.abs(W.conj().T @ W - np.eye(41)).max() < 1e-10

    @pytest.mark.parametrize("z", [0.5, -0.3 + 1.2j, 2.0, 1.5j])
    def test_coherent_expansion(self, z):
        psi = gs.weyl(z, 40)[:, 0]
        ms = np.arange(41)
        facts = np.array([float(math.factorial(int(m))) for m in ms])
        expect = np.exp(-abs(z) ** 2 / 2) * np.asarray(z, complex) ** ms / np.sqrt(facts)
        assert np.abs(psi - expect).max() < 1e-8

    def test_coherent_vector_matches_weyl_column(self):
        z = 0.7 - 0.4j
        assert np.abs(gs.coherent_vector(z, 35) - gs.weyl(z, 35)[:, 0]).max() < 1e-9


class TestDisplacedThermal:
    def test_zero_displacement(self):
        assert np.allclose(gs.displaced_thermal(1.0, 0.0, 20), gs.thermal(1.0, 20))

    def test_mean_is_minus_z(self):
        # the W* rho W convention shifts the mode amplitude to -z
        beta, z, N = 0.8, 0.4 + 0.2j, 50
        rho = gs.displaced_thermal(beta, z, N)
        a = gs.annihilation(N)
        assert np.trace(rho @ a) == pytest.approx(-z, abs=1e-10)

    def test_characteristic_function(self):
        beta, z, N = math.log(0.7 / 0.3), 0.5 - 0.25j, 60
        rho = gs.displaced_thermal(beta, z, N)
        for zp in (0.3, 0.7j, 0.4 + 0.9j, -1.1 + 0.2j):
            got = gs.char_fn(rho, zp)
            expect = np.exp(
                -abs(zp) ** 2 / (2 * math.tanh(beta / 2))
                + 2j * (np.conj(zp) * z).imag
            )
            assert abs(got - expect) < 1e-6

    def test_positive_trace_one(self):
        rho = gs.displaced_thermal(1.2, 1.0 + 0.5j, 40)
        assert np.trace(rho).real == pytest.approx(1.0, abs=1e-12)
        assert np.linalg.eigvalsh(rho).min() > -1e-12


class TestLimitState:
    def test_zeta_zero_is_thermal_product(self):
        spec = md.Spectrum((0.5, 0.3, 0.2))
        fock = gs.FockSpec(3, 6)
        rho = gs.limit_quantum_state(spec, (0j, 0j, 0j), fock)
        expect = gs.tensor_modes(
            [gs.thermal(b, 6) for b in gs.mode_betas(spec)]
        )
        assert np.abs(rho - expect).max() < 1e-14

    def test_trace_one_d3(self):
        spec = md.Spectrum((0.5, 0.3, 0.2))
        fock = gs.FockSpec(3, 12)
        rho = gs.limit_quantum_state(spec, (0.2 + 0.1j, 0.1j, 0.3), fock)
        assert np.trace(rho).real == pytest.approx(1.0, abs=1e-10)

    def test_mean_points_along_zeta(self):
        # the limit displacement must match the direction the finite-n blocks
        # rotate toward: first moment = +zeta / sqrt(2 gap)
        spec = md.Spectrum((0.7, 0.3))
        zeta = 0.5 + 0.3j
        fock = gs.FockSpec(2, 40)
        c = 1.0 / math.sqrt(2.0)
        rho = gs.limit_quantum_state(spec, (zeta,), fock)
        a = gs.annihilation(40)
        assert np.trace(rho @ a) == pytest.approx(
            c * zeta / math.sqrt(0.4), abs=1e-8
        )

    def test_partial_trace_factorization(self):
        spec = md.Spectrum((0.5, 0.3, 0.2))
        fock = gs.FockSpec(3, 5)
        zeta = (0.2 + 0.1j, 0.0j, 0.15)
        rho = gs.limit_quantum_state(spec, zeta, fock)
        c = gs.DISPLACEMENT
        for idx, (j, k) in enumerate(fock.modes):
            beta = math.log(spec.mu[j - 1] / spec.mu[k - 1])
            gap = spec.mu[j - 1] - spec.mu[k - 1]
            single = (
                gs.thermal(beta, 5)
                if zeta[idx] == 0
                else gs.displaced_thermal(beta, -c * zeta[idx] / math.sqrt(gap), 5)
            )
            red = gs.partial_trace_to_mode(rho, fock, idx)
            assert np.abs(red - single).max() < 1e-10

    def test_classical_part(self):
        spec = md.Spectrum((0.7, 0.3))
        theta = md.LocalParams((0.5,), (0j,))
        lim = gs.limit_state(spec, theta, gs.FockSpec(2, 10))
        assert lim.mean[0] == pytest.approx(0.5)
        assert lim.cov[0, 0] == pytest.approx(0.21)


class TestSmearing:
    def test_coherent_smearing_reproduces_thermal(self):
        # (e^b - 1)/pi * integral of exp(-(e^b - 1)|z|^2) |z><z| d^2z equals
        # the thermal state; radial Gauss-Laguerre x uniform angular grid
        beta, N = math.log(0.7 / 0.3), 25
        s = math.exp(beta) - 1.0
        nodes, weights = np.polynomial.laguerre.laggauss(60)
        M = 64
        phis = 2 * math.pi * np.arange(M) / M
        acc = np.zeros((N + 1, N + 1), dtype=complex)
        for t, w in zip(nodes, weights):
            r = math.sqrt(t / s)
            for phi in phis:
                z = r * complex(math.cos(phi), math.sin(phi))
                v = gs.coherent_vector(z, N)
                acc += w / M * np.outer(v, v.conj())
        assert np.abs(acc - gs.thermal(beta, N)).max() < 1e-4
