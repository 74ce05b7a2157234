"""Tests for the truncated Fock-space limit model: thermal and displaced
states, Weyl operators, characteristic functions, and the product state."""

import math

import numpy as np
import pytest

from qlan import gaussian as gs
from qlan import models as md
from qlan import oracle as orc


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

    @pytest.mark.parametrize("beta", [0.3, 0.8473, 2.0])
    @pytest.mark.parametrize("N", [1, 3, 5, 30])
    def test_zero_displacement_is_thermal_bitwise(self, beta, N):
        # limit_quantum_state displaces every mode, a zero zeta_jk by
        # -DISPLACEMENT * 0j, so its zero modes are thermal to the last bit
        expect = gs.thermal(beta, N)
        for z in (0j, -gs.DISPLACEMENT * 0j):
            rho = gs.displaced_thermal(beta, z, N)
            assert np.array_equal(rho, expect)
            assert np.array_equal(np.signbit(rho.real), np.signbit(expect.real))
            assert np.array_equal(np.signbit(rho.imag), np.signbit(expect.imag))

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
            got = orc.char_fn(rho, zp)
            expect = np.exp(
                -abs(zp) ** 2 / (2 * math.tanh(beta / 2))
                + 2j * (np.conj(zp) * z).imag
            )
            assert abs(got - expect) < 1e-6

    def test_positive_trace_one(self):
        rho = gs.displaced_thermal(1.2, 1.0 + 0.5j, 40)
        assert np.trace(rho).real == pytest.approx(1.0, abs=1e-12)
        assert np.linalg.eigvalsh(rho).min() > -1e-12


class TestFockIndex:
    def test_rows_and_wrong_occupations(self):
        fock = gs.FockSpec(3, 3)
        # a wrong mode count, and an occupation above the cutoff or below 0
        for bad in [(1,), (1, 0, 0, 0), (0, 0, 4), (0, -1, 0)]:
            with pytest.raises(ValueError):
                fock.index(bad)
        with pytest.raises(ValueError):
            fock.index(np.array([[0, 0, 1, 0]]))
        occs = [(0, 0, 0), (0, 0, 1), (1, 2, 3), (3, 3, 3)]
        assert [fock.index(o) for o in occs] == [0, 1, 27, 63]
        rows = np.array(occs, dtype=np.int32)
        assert fock.index(rows).tolist() == [fock.index(o) for o in occs]


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

    def test_zeta_length(self):
        spec = md.Spectrum((0.5, 0.3, 0.2))
        fock = gs.FockSpec(3, 2)
        for zeta in [(0.2,), (0.2, 0.1j, 0.3, 0.1)]:
            with pytest.raises(ValueError, match=f"zeta needs 3 components, got {len(zeta)}"):
                gs.limit_quantum_state(spec, zeta, fock)

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
            red = orc.partial_trace_to_mode(rho, fock, idx)
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


# A box and a Gaussian per box dimension; the mean sits off the box and the
# covariance is generic, so distinct points of the box have distinct densities
BOXES = {
    1: (np.array([0.2]), np.array([1.1]), np.array([-0.4]), np.array([[0.7]])),
    2: (
        np.array([0.2, -0.3]),
        np.array([1.1, 0.4]),
        np.array([-0.4, -0.9]),
        np.array([[0.7, 0.13], [0.13, 0.31]]),
    ),
}


def lobatto_grid_density(N, lo, hi, mean, cov):
    """Density at the tensor Chebyshev-Lobatto points cos(pi j / N) of the
    box, built without the box rule."""
    axis = np.cos(np.pi * np.arange(N + 1) / N)
    axes = [0.5 * (hi[i] + lo[i]) + 0.5 * (hi[i] - lo[i]) * axis for i in range(len(lo))]
    pts = np.stack([g.ravel() for g in np.meshgrid(*axes, indexing="ij")], axis=1)
    diff = pts - mean
    quad = np.einsum("ni,ij,nj->n", diff, np.linalg.inv(cov), diff)
    return np.exp(-0.5 * quad) / math.sqrt((2 * math.pi) ** len(lo) * np.linalg.det(cov))


class TestBoxRule:
    @pytest.mark.parametrize("dim", [1, 2])
    def test_levels_nest(self, dim):
        # the points handed out up to level N are the N-point Lobatto grid,
        # which holds the grid of the level before
        lo, hi, mean, cov = BOXES[dim]
        rule = gs.box_rule(lo, hi, mean, cov)
        assert len(rule) == len(gs.BOX_LEVELS)
        seen = np.empty(0)
        for N, (dens, _weights) in zip(gs.BOX_LEVELS, rule):
            seen = np.concatenate((seen, dens))
            want = lobatto_grid_density(N, lo, hi, mean, cov)
            assert len(seen) == (N + 1) ** dim
            assert np.allclose(np.sort(seen), np.sort(want), rtol=1e-13, atol=0.0)
        for coarse, fine in zip(gs.BOX_LEVELS, gs.BOX_LEVELS[1:]):
            inner = lobatto_grid_density(coarse, lo, hi, mean, cov)
            outer = lobatto_grid_density(fine, lo, hi, mean, cov)
            assert np.isin(inner, outer).all()

    @pytest.mark.parametrize("dim", [1, 2])
    def test_integral_evaluates_each_point_once(self, dim):
        lo, hi, mean, cov = BOXES[dim]
        rule = gs.box_rule(lo, hi, mean, cov)
        rng = np.random.default_rng(dim)
        for fn, reached in ((lambda t: rng.random(len(t)), 3), (np.ones_like, 2)):
            calls = []

            def recorded(t):
                calls.append(t.copy())
                return fn(t)

            gs.box_integral(recorded, rule)
            assert len(calls) == reached
            sizes = np.cumsum([len(t) for t in calls])
            assert list(sizes) == [(N + 1) ** dim for N in gs.BOX_LEVELS[:reached]]
            handed = np.concatenate(calls)
            assert len(np.unique(handed)) == len(handed)

    @pytest.mark.parametrize("dim", [1, 2])
    def test_weights_positive_sum_to_volume(self, dim):
        lo, hi, mean, cov = BOXES[dim]
        volume = float(np.prod(hi - lo))
        for N, (_dens, weights) in zip(gs.BOX_LEVELS, gs.box_rule(lo, hi, mean, cov)):
            assert len(weights) == (N + 1) ** dim
            assert (weights > 0).all()
            assert weights.sum() == pytest.approx(volume, rel=1e-13)

    def test_even_powers_exact(self):
        # level N integrates x^(2k) exactly for 2k <= N; x^2 is read back from
        # the density of a centred Gaussian, as box_integral's fn would
        var = 0.8
        lo, hi = np.array([-0.7]), np.array([1.3])
        rule = gs.box_rule(lo, hi, np.array([0.0]), np.array([[var]]))
        dens = np.empty(0)
        for N, (new, weights) in zip(gs.BOX_LEVELS, rule):
            dens = np.concatenate((dens, new))
            x2 = -2.0 * var * np.log(dens * math.sqrt(2 * math.pi * var))
            for k in range(N // 2 + 1):
                exact = (hi[0] ** (2 * k + 1) - lo[0] ** (2 * k + 1)) / (2 * k + 1)
                assert float(weights @ x2**k) == pytest.approx(exact, rel=1e-12), (N, k)

    def test_rule_arrays_read_only(self):
        levels = gs._nested_levels(2)
        with pytest.raises(ValueError):
            levels[0][1][0] = 1.0
