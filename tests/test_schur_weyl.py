"""Tests for the symmetrizer pairing engine, Gram matrices, and block
operators, cross-checked against direct orbit enumeration and the full
tensor-space oracle."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qlan import experiments as ex
from qlan import gaussian as gs
from qlan import models as md
from qlan import oracle as orc
from qlan import schur_weyl as sw
from qlan import tableaux as tb
from qlan.errors import NearSingularGramError


SMALL_BLOCKS = [
    (2, (3, 1)),
    (2, (4, 2)),
    (2, (5,)),
    (3, (3, 2, 1)),
    (3, (4, 2)),
    (3, (2, 1)),
    (4, (2, 1, 1)),
    (4, (3, 2, 1)),
]


def spin_representation(lam, U):
    """pi(U) on the d=2 block lam, in the orthonormal basis k = 0..lam1-lam2
    (k copies of 2 in row 1): exp(i dpi(H)) for U = exp(iH), with dpi the
    spin-(lam1-lam2)/2 representation of the generators times det^lam2.
    Its low-weight corner is a Wigner D-matrix block, built by one
    eigendecomposition and so free of the cancellation in pairing_matrix."""
    N, lam2 = lam[0] - lam[1], lam[1]
    vals, vecs = np.linalg.eig(U)
    H = (vecs * np.angle(vals)) @ np.linalg.inv(vecs)
    k = np.arange(N + 1)
    dH = np.diag(H[0, 0] * (N - k) + H[1, 1] * k + lam2 * np.trace(H))
    # E_12 |k> = sqrt(k (N - k + 1)) |k - 1>, and E_21 is its adjoint
    lower = np.sqrt(k[1:] * (N - k[1:] + 1.0))
    dH[k[:-1], k[1:]] += H[0, 1] * lower
    dH[k[1:], k[:-1]] += H[1, 0] * lower
    w, V = np.linalg.eigh((dH + dH.conj().T) / 2)
    return (V * np.exp(1j * w)) @ V.conj().T


def spin_oracle_error(n, U, cutoff=30):
    """Largest entry of block_unitary minus the spin-j corner, at the
    diagram with rows proportional to (0.7, 0.3)."""
    lam = ex.proportional_diagram(n, (0.7, 0.3))
    basis = sw.block_basis(lam, 2, max_weight=cutoff)
    B = sw.block_unitary(basis, U).matrix
    D = spin_representation(lam, U)[: basis.size, : basis.size]
    return float(np.abs(B - D).max())


def haar_special_unitary(rng):
    U = orc.haar_unitary(2, rng)
    return U / np.sqrt(np.linalg.det(U))


class TestPairingEngine:
    @pytest.mark.parametrize("d,lam", SMALL_BLOCKS)
    def test_matches_direct_orbit_enumeration_identity(self, d, lam):
        ms = tb.enumerate_m_vectors(lam, d, max_weight=3)
        W = sw.pairing_matrix(lam, d, np.eye(d), ms, ms)
        for i, m in enumerate(ms):
            for j, l in enumerate(ms):
                direct = orc.symmetrizer_pairing(lam, d, m, l)
                assert W[i, j] == pytest.approx(direct, rel=1e-12, abs=1e-12)

    @pytest.mark.parametrize("d,lam", SMALL_BLOCKS)
    def test_matches_direct_orbit_enumeration_unitary(self, d, lam):
        rng = np.random.default_rng(hash((d, lam)) % 2**32)
        U = orc.haar_unitary(d, rng)
        ms = tb.enumerate_m_vectors(lam, d, max_weight=2)
        W = sw.pairing_matrix(lam, d, U, ms, ms)
        for i, m in enumerate(ms):
            for j, l in enumerate(ms):
                direct = orc.symmetrizer_pairing(lam, d, m, l, U)
                assert W[i, j] == pytest.approx(direct, rel=1e-10, abs=1e-10)

    @pytest.mark.parametrize("d,lam", [(2, (5, 2)), (3, (4, 2, 1)), (4, (3, 2, 1))])
    def test_rectangular_matches_direct_orbit_enumeration(self, d, lam):
        # rows and columns from different m-vector lists, including a
        # single m against the zero m-vector
        rng = np.random.default_rng(sum(lam) + d)
        U = orc.haar_unitary(d, rng)
        ms = tb.enumerate_m_vectors(lam, d, max_weight=2)
        zero = ms[0]
        for ms_a, ms_b in [(ms[1:], [zero]), ([zero], ms[-3:]), (ms[-2:], ms[:3])]:
            W = sw.pairing_matrix(lam, d, U, ms_a, ms_b)
            assert W.shape == (len(ms_a), len(ms_b))
            for i, m in enumerate(ms_a):
                for j, l in enumerate(ms_b):
                    direct = orc.symmetrizer_pairing(lam, d, m, l, U)
                    assert W[i, j] == pytest.approx(direct, rel=1e-10, abs=1e-10)

    def test_scales_to_large_n(self):
        # the class-convolution evaluation must not enumerate orbits
        lam = (260, 140)
        ms = tb.enumerate_m_vectors(lam, 2, max_weight=8)
        G = sw.gram_matrix(lam, 2, ms)
        assert np.allclose(G, np.eye(len(ms)))

    def test_cached_maps_read_only(self):
        # every pairing with the same caps shares these arrays
        caps, wcap = (2, 1, 2), 3
        maps = [sw._simplex(caps, wcap), *sw._shift_map(caps, wcap, (1, 0, 1))]
        for a in maps:
            with pytest.raises(ValueError):
                a[0] = 1

    def test_rotation_reuses_gram_shift_maps(self):
        # the Gram pairing of block_basis fetches every shift map that the
        # rotation pairing of the same block needs
        basis = sw.block_basis((5, 2, 1), 3, max_weight=3)
        misses = sw._shift_map.cache_info().misses
        sw.block_unitary(basis, orc.haar_unitary(3, np.random.default_rng(5)))
        assert sw._shift_map.cache_info().misses == misses

    @pytest.mark.parametrize("unitary", ["identity", "haar"])
    @pytest.mark.parametrize(
        "d,lams,max_weight",
        [
            # caps below the cutoff and at it; (6, 6) has no columns of length 1
            (2, [(9, 5), (12, 3), (20, 2), (6, 6), (7,)], 10),
            # (4, 4, 3) starts at the class of length 2, (4, 4, 4) at 3
            (3, [(6, 3, 1), (5, 4, 2), (4, 4, 3), (7, 2), (4, 4, 4)], 3),
            (4, [(4, 2, 1, 1), (3, 3, 2), (5, 1), (2, 2, 2, 1)], 2),
        ],
        ids=["d2", "d3", "d4"],
    )
    def test_batch_matches_per_diagram_calls(self, d, lams, max_weight, unitary):
        # sharing the first class's powers over the union simplex changes
        # no bit of any pairing, square or rectangular
        U = np.eye(d) if unitary == "identity" else orc.haar_unitary(d, np.random.default_rng(d))
        sides = []
        for lam in lams:
            ms = tb.enumerate_m_vectors(lam, d, max_weight=max_weight)
            sides.append((ms, ms))
        ms = sides[1][0]
        sides.append((ms[1:], ms[:3]))
        lams = lams + [lams[1]]
        got = sw.pairing_matrices(lams, d, U, sides)
        assert len(got) == len(lams)
        for lam, (ms_a, ms_b), W in zip(lams, sides, got):
            assert np.array_equal(W, sw.pairing_matrix(lam, d, U, ms_a, ms_b))

    def test_batch_past_elision_size_matches_per_diagram_calls(self):
        # a union of 141 x 141 entries is past numpy's in-place size for
        # temporaries, where `val * PKS[src]` rounds as `PKS[src] * val`;
        # sharing it would change the last bit of the 81 x 81 and 51 x 51
        # blocks, so the batch pairs each diagram on its own
        lams = [(140, 60), (180, 40), (125, 75)]
        U = md.rotation_unitary(md.Spectrum((0.7, 0.3)), (0.5 + 0.3j,), 200)
        sides = []
        for lam in lams:
            ms = tb.enumerate_m_vectors(lam, 2, max_weight=140)
            sides.append((ms, ms))
        sizes = [len(ms) ** 2 for ms, _ in sides]
        assert sizes == [81**2, 141**2, 51**2]
        assert sizes[1] >= sw.ELIDED_ENTRIES > sizes[0]
        got = sw.pairing_matrices(lams, 2, U, sides)
        for lam, (ms_a, ms_b), W in zip(lams, sides, got):
            assert np.array_equal(W, sw.pairing_matrix(lam, 2, U, ms_a, ms_b))

    def test_batch_bases_and_unitaries_match_single_calls(self):
        lams = [(9, 5), (12, 3), (20, 2), (6, 6)]
        U = orc.haar_unitary(2, np.random.default_rng(7))
        bases = sw.block_bases(lams, 2, max_weight=10)
        for lam, basis, op in zip(lams, bases, sw.block_unitaries(bases, U)):
            single = sw.block_basis(lam, 2, max_weight=10)
            assert basis.mvectors == single.mvectors
            assert np.array_equal(basis.gram, single.gram)
            assert np.array_equal(basis.norms, single.norms)
            assert np.array_equal(op.matrix, sw.block_unitary(single, U).matrix)


class TestMinorDetProduct:
    def test_identity_zero_vector(self):
        # unmodified canonical tableau pairs with itself to 1 per column
        lam = (3, 2)
        t = orc.canonical_tableau(lam, (0, 0, 0), 3)
        assert orc.minor_det_product(np.eye(3), t, t) == pytest.approx(1.0)

    def test_agrees_with_column_antisymmetrization(self):
        rng = np.random.default_rng(3)
        for d, n, lam in [(2, 3, (2, 1)), (3, 4, (2, 1, 1)), (2, 4, (2, 2))]:
            U = orc.haar_unitary(d, rng)
            Um = gs.tensor_modes([U] * n)
            Q = orc.column_antisymmetrizer_matrix(lam, n, d)
            ms = tb.enumerate_m_vectors(lam, d, max_weight=n)
            for ma in ms[:3]:
                for mb in ms[:3]:
                    ta = orc.canonical_tableau(lam, ma, d)
                    tbb = orc.canonical_tableau(lam, mb, d)
                    va = np.zeros(d**n)
                    va[orc.tableau_vector_index(ta, d)] = 1.0
                    vb = np.zeros(d**n)
                    vb[orc.tableau_vector_index(tbb, d)] = 1.0
                    lhs = orc.minor_det_product(U, ta, tbb)
                    rhs = (Q @ va).conj() @ Um @ vb
                    assert abs(lhs - rhs) < 1e-10


class TestGram:
    @pytest.mark.parametrize("d,lam", SMALL_BLOCKS)
    def test_selection_rule_exact_zero(self, d, lam):
        ms = tb.enumerate_m_vectors(lam, d, max_weight=3)
        G = sw.gram_matrix(lam, d, ms)
        for i, m in enumerate(ms):
            for j, l in enumerate(ms):
                if tb.total_multiplicities(lam, m, d) != tb.total_multiplicities(
                    lam, l, d
                ):
                    assert G[i, j] == 0.0

    @pytest.mark.parametrize("d,lam", SMALL_BLOCKS)
    def test_positive_definite_unit_diagonal(self, d, lam):
        ms = tb.enumerate_m_vectors(lam, d, max_weight=3)
        G = sw.gram_matrix(lam, d, ms)
        assert np.allclose(np.diag(G), 1.0)
        assert np.linalg.eigvalsh(G).min() > 0

    def test_two_rows_gram_is_identity(self):
        # with two rows there is a single mode and one m per weight class
        ms = tb.enumerate_m_vectors((10, 4), 2, max_weight=6)
        G = sw.gram_matrix((10, 4), 2, ms)
        assert np.array_equal(G, np.eye(len(ms)))

    def test_orthonormalize_rejects_singular(self):
        G = np.array([[1.0, 1.0], [1.0, 1.0]])
        with pytest.raises(NearSingularGramError):
            sw.orthonormalize(G)

    @given(st.integers(2, 6), st.integers(0, 4))
    @settings(max_examples=20, deadline=None)
    def test_gram_symmetric(self, gap, lam3):
        lam = (lam3 + 2 * gap, lam3 + gap, lam3) if lam3 else (2 * gap, gap)
        d = len(lam)
        if any(r <= 0 for r in lam):
            return
        ms = tb.enumerate_m_vectors(lam, d, max_weight=2)
        G = sw.gram_matrix(lam, d, ms)
        assert np.array_equal(G, G.T)


class TestBlockOperators:
    def test_block_unitary_is_unitary_when_closed(self):
        # the whole 11-dimensional irrep fits under the weight cutoff, so the
        # representation matrix is exactly unitary with zero defect
        lam = (40, 30)
        basis = sw.block_basis(lam, 2, max_weight=12)
        assert basis.size == 11
        rng = np.random.default_rng(5)
        U = orc.haar_unitary(2, rng)
        B = sw.block_unitary(basis, U)
        assert np.allclose(B.matrix.conj().T @ B.matrix, np.eye(11), atol=1e-10)
        assert B.truncation_defect < 1e-10

    def test_mixed_overlap_identity_is_gram(self):
        lam = (4, 2, 1)
        basis = sw.block_basis(lam, 3, max_weight=3)
        M = sw.mixed_overlap_matrix(basis, np.eye(3))
        # identity overlaps reproduce the Gram matrix off the zero pattern
        mask = basis.gram != 0
        assert np.allclose(M.real[mask], basis.gram[mask], atol=1e-12)


class TestSpinOracle:
    """d=2 blocks against the spin-j representation, far past the reach of
    orbit enumeration and of the tensor-space oracle."""

    @pytest.mark.parametrize("n", [8, 64, 256, 1024])
    def test_local_rotation(self, n):
        # the rotation of the default converge sweep
        U = md.rotation_unitary(md.Spectrum((0.7, 0.3)), (0.5 + 0.3j,), n)
        assert spin_oracle_error(n, U) < 1e-12

    @pytest.mark.parametrize("n", [8, 16, 32, 64])
    def test_haar(self, n):
        rng = np.random.default_rng(n)
        for _ in range(3):
            assert spin_oracle_error(n, haar_special_unitary(rng)) < 1e-10

    @pytest.mark.xfail(
        strict=True,
        raises=AssertionError,
        reason="cancellation in the expanded power (v0 + P)^ncols: at Haar U "
        "the error grows to about 1e-6 at n=256",
    )
    def test_haar_n256(self):
        rng = np.random.default_rng(1)
        errs = [spin_oracle_error(256, haar_special_unitary(rng)) for _ in range(5)]
        assert max(errs) < 1e-10


class TestTensorOracle:
    def test_symmetrizer_rank_equals_dimension(self):
        for d, n, lam in [(2, 3, (2, 1)), (3, 3, (2, 1)), (2, 4, (3, 1))]:
            Y = orc.young_symmetrizer_matrix(lam, n, d)
            rank = np.linalg.matrix_rank(Y, tol=1e-9)
            assert rank == tb.dim_irrep(lam, d)

    def test_brute_force_blocks_two_samples(self):
        rho = np.diag([0.75, 0.25])
        blocks = orc.brute_force_blocks(rho, 2)
        got = {lam: w for lam, w, _ in blocks}
        assert got[(2,)] == pytest.approx(0.8125, abs=1e-12)
        assert got[(1, 1)] == pytest.approx(0.1875, abs=1e-12)

    def test_brute_force_blocks_weights_sum_to_one(self):
        rho = np.diag([0.5, 0.3, 0.2])
        blocks = orc.brute_force_blocks(rho, 3)
        assert sum(w for _, w, _ in blocks) == pytest.approx(1.0, abs=1e-10)

    def test_representation_overlap_matches_tensor_oracle(self):
        # <m,lam| pi(U) |l,lam> from the pairing ratio agrees with explicit
        # symmetrizer-image vectors on the tensor space
        d, n, lam = 2, 4, (3, 1)
        rng = np.random.default_rng(11)
        U = orc.haar_unitary(d, rng)
        Um = gs.tensor_modes([U] * n)
        Y = orc.young_symmetrizer_matrix(lam, n, d)
        ms = tb.enumerate_m_vectors(lam, d, max_weight=n)
        vecs = []
        for m in ms:
            t = orc.canonical_tableau(lam, m, d)
            e = np.zeros(d**n)
            e[orc.tableau_vector_index(t, d)] = 1.0
            v = Y @ e
            vecs.append(v / np.linalg.norm(v))
        basis = sw.block_basis(lam, d, max_weight=n)
        M = sw.mixed_overlap_matrix(basis, U)
        for i, vi in enumerate(vecs):
            for j, vj in enumerate(vecs):
                direct = vi.conj() @ Um @ vj
                assert abs(M[i, j] - direct) < 1e-9
