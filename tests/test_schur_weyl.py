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
from qlan.errors import NearSingularGramError, ResourceLimitError


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
    eigendecomposition and so free of the cancellation in pairing_matrices."""
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
    """Largest entry of block_unitaries minus the spin-j corner, at the
    diagram with rows proportional to (0.7, 0.3)."""
    lam = ex.proportional_diagram(n, (0.7, 0.3))
    (basis,) = sw.block_bases([lam], 2, max_weight=cutoff)
    (B,) = sw.block_unitaries([basis], U)
    D = spin_representation(lam, U)[: basis.size, : basis.size]
    return float(np.abs(B - D).max())


def overlaps(basis, U):
    """<m| pi(U) |l> of the normalized non-orthogonal vectors of the basis."""
    (W,) = sw.pairing_matrices([basis.lam], U, [basis.mvectors])
    return W / np.outer(basis.norms, basis.norms)


def haar_special_unitary(rng):
    U = orc.haar_unitary(2, rng)
    return U / np.sqrt(np.linalg.det(U))


def past_elision_batch():
    """Three d=2 diagrams at a sweep's rotation whose first-class union holds
    141 x 141 entries: (diagrams, U, m-vector lists)."""
    lams = [(140, 60), (180, 40), (125, 75)]
    U = md.rotation_unitary(md.Spectrum((0.7, 0.3)), (0.5 + 0.3j,), 200)
    return lams, U, [orc.enumerate_m_vectors(lam, 2, max_weight=140) for lam in lams]


def stepped_reference(lam, d, U, ms):
    """W(m, l; U) on one diagram with every column class stepped in long
    double, from the transfer's own terms: a check of rounding, not of the
    terms, which the orbit and tensor oracles check."""
    M = np.array(ms, dtype=np.intp).reshape(len(ms), -1)
    bounds = (tuple(int(c) for c in M.max(axis=0)), int(M.sum(axis=1).max()))
    ns = len(sw._simplex(*bounds))
    S = np.zeros(ns**2, dtype=np.clongdouble)
    S[0] = 1
    for L in range(1, d + 1):
        v0, terms = sw._class_terms(L, U, bounds)
        for _ in range(tb.row(lam, L) - tb.row(lam, L + 1)):
            nxt = np.clongdouble(v0) * S
            for src, dst, val in terms:
                np.add.at(nxt, dst, np.clongdouble(val) * S[src])
            S = nxt
    pos = sw._positions(*bounds, M)
    return S.reshape(ns, ns)[np.ix_(pos, pos)]


class TestPairingEngine:
    @pytest.mark.parametrize("d,lam", SMALL_BLOCKS)
    def test_matches_direct_orbit_enumeration_identity(self, d, lam):
        ms = orc.enumerate_m_vectors(lam, d, max_weight=3)
        (W,) = sw.pairing_matrices([lam], np.eye(d), [ms])
        for i, m in enumerate(ms):
            for j, l in enumerate(ms):
                direct = orc.symmetrizer_pairing(lam, d, m, l)
                assert W[i, j] == pytest.approx(direct, rel=1e-12, abs=1e-12)

    @pytest.mark.parametrize("d,lam", SMALL_BLOCKS)
    def test_matches_direct_orbit_enumeration_unitary(self, d, lam):
        rng = np.random.default_rng(hash((d, lam)) % 2**32)
        U = orc.haar_unitary(d, rng)
        ms = orc.enumerate_m_vectors(lam, d, max_weight=2)
        (W,) = sw.pairing_matrices([lam], U, [ms])
        for i, m in enumerate(ms):
            for j, l in enumerate(ms):
                direct = orc.symmetrizer_pairing(lam, d, m, l, U)
                assert W[i, j] == pytest.approx(direct, rel=1e-10, abs=1e-10)

    def test_scales_to_large_n(self):
        # the class-convolution evaluation must not enumerate orbits
        lam = (260, 140)
        G = sw.block_bases([lam], 2, max_weight=8)[0].gram
        assert np.allclose(G, np.eye(len(G)))

    def test_cached_maps_read_only(self):
        # every pairing with the same caps shares these arrays
        caps, wcap = (2, 1, 2), 3
        maps = [sw._simplex(caps, wcap), *sw._shift_map(caps, wcap, (1, 0, 1))]
        for a in maps:
            with pytest.raises(ValueError):
                a[0] = 1

    def test_rotation_reuses_gram_shift_maps(self):
        # the Gram pairing of block_bases fetches every shift map that the
        # rotation pairing of the same block needs
        bases = sw.block_bases([(5, 2, 1)], 3, max_weight=3)
        misses = sw._shift_map.cache_info().misses
        sw.block_unitaries(bases, orc.haar_unitary(3, np.random.default_rng(5)))
        assert sw._shift_map.cache_info().misses == misses

    @pytest.mark.parametrize("unitary", ["identity", "haar"])
    @pytest.mark.parametrize(
        "d,lams,max_weight",
        [
            # caps below the cutoff and at it; (6, 6) has no columns of length 1
            (2, [(9, 5), (12, 3), (20, 2), (6, 6), (7,)], 10),
            # first classes of more columns than twice the cutoff of 10, one
            # of them read below the union's caps
            (2, [(40, 6), (33, 10), (61, 2), (30,), (12, 5)], 10),
            # (4, 4, 3) starts at the class of length 2, (4, 4, 4) at 3
            (3, [(6, 3, 1), (5, 4, 2), (4, 4, 3), (7, 2), (4, 4, 4)], 3),
            (4, [(4, 2, 1, 1), (3, 3, 2), (5, 1), (2, 2, 2, 1)], 2),
        ],
        ids=["d2", "d2-long", "d3", "d4"],
    )
    def test_batch_matches_per_diagram_calls(self, d, lams, max_weight, unitary):
        # sharing the first class's steps over the union simplex changes
        # no bit of any pairing
        U = np.eye(d) if unitary == "identity" else orc.haar_unitary(d, np.random.default_rng(d))
        mss = [orc.enumerate_m_vectors(lam, d, max_weight=max_weight) for lam in lams]
        got = sw.pairing_matrices(lams, U, mss)
        assert len(got) == len(lams)
        for lam, ms, W in zip(lams, mss, got):
            assert np.array_equal(W, sw.pairing_matrices([lam], U, [ms])[0])

    def test_batch_past_elision_size_matches_per_diagram_calls(self):
        # a union of 141 x 141 entries is past numpy's in-place size for
        # temporaries (2**14 complex entries), where `val * PKS[src]` would
        # round as `PKS[src] * val`; the transfer's explicit operand order
        # keeps the 81 x 81 and 51 x 51 blocks bit-identical to their own calls
        lams, U, mss = past_elision_batch()
        sizes = [len(ms) ** 2 for ms in mss]
        assert sizes == [81**2, 141**2, 51**2]
        assert sizes[1] >= 2**14 > sizes[0]
        got = sw.pairing_matrices(lams, U, mss)
        for lam, ms, W in zip(lams, mss, got):
            assert np.array_equal(W, sw.pairing_matrices([lam], U, [ms])[0])

    def test_batch_past_elision_size_shares_first_class(self, monkeypatch):
        # the three diagrams start at the class of length 1, so it steps once
        # on the 141 x 141 union, read by all three; each runs its class of
        # length 2 alone, on its own simplex
        calls = []
        step_class = sw._step_class

        def counted_step(S, length, U, bounds, reads):
            calls.append(("step", length, len(S), len(reads)))
            return step_class(S, length, U, bounds, reads)

        monkeypatch.setattr(sw, "_step_class", counted_step)
        lams, U, mss = past_elision_batch()
        sw.pairing_matrices(lams, U, mss)
        assert calls == [
            ("step", 1, 141**2, 3),
            *[("step", 2, len(ms) ** 2, 1) for ms in mss],
        ]

    def test_batch_bases_and_unitaries_match_single_calls(self):
        lams = [(9, 5), (12, 3), (20, 2), (6, 6)]
        U = orc.haar_unitary(2, np.random.default_rng(7))
        bases = sw.block_bases(lams, 2, max_weight=10)
        for lam, basis, op in zip(lams, bases, sw.block_unitaries(bases, U)):
            (single,) = sw.block_bases([lam], 2, max_weight=10)
            assert np.array_equal(basis.mvectors, single.mvectors)
            assert np.array_equal(basis.gram, single.gram)
            assert np.array_equal(basis.norms, single.norms)
            (single_op,) = sw.block_unitaries([single], U)
            assert np.array_equal(op, single_op)

    def test_oversized_transfer_refused_before_any_class(self, monkeypatch):
        # (5, 2) fits at 3 x 3 positions; (7, 1) needs 7 x 7, so the list is
        # refused before the transfer of either diagram starts
        def never(*args):
            raise AssertionError("a class transfer ran")

        monkeypatch.setattr(sw, "MAX_TRANSFER_ENTRIES", 40)
        monkeypatch.setattr(sw, "_step_class", never)
        lams = [(5, 2), (7, 1)]
        mss = [orc.enumerate_m_vectors(lam, 2, max_weight=8) for lam in lams]
        with pytest.raises(ResourceLimitError, match=r"\(7, 1\) needs 49 complex entries"):
            sw.pairing_matrices(lams, np.eye(2), mss)

    def test_oversized_union_refused_before_any_class(self, monkeypatch):
        # at d=3, (3,) pairs on 10 x 10 positions and (4, 3) on 15 x 15, but
        # their union simplex holds 20 points: every block fits, the union not
        def never(*args):
            raise AssertionError("a class transfer ran")

        monkeypatch.setattr(sw, "MAX_TRANSFER_ENTRIES", 300)
        monkeypatch.setattr(sw, "_step_class", never)
        lams = [(3,), (4, 3)]
        mss = [orc.enumerate_m_vectors(lam, 3, max_weight=3) for lam in lams]
        with pytest.raises(
            ResourceLimitError,
            match=r"shared pairing transfer of \(3,\), \(4, 3\) needs 400 complex entries",
        ):
            sw.pairing_matrices(lams, np.eye(3), mss)

    @pytest.mark.parametrize(
        "lam,positions,admitted",
        # the largest untruncated d=3 blocks at n=35 and n=36
        [((26, 9), 3975, True), ((27, 9), 4300, False)],
    )
    def test_transfer_bound_at_d3(self, lam, positions, admitted, monkeypatch):
        class Reached(Exception):
            pass

        def reached(*args):
            raise Reached

        monkeypatch.setattr(sw, "_step_class", reached)
        ms = orc.enumerate_m_vectors(lam, 3, max_weight=sum(lam))
        expect = Reached if admitted else ResourceLimitError
        with pytest.raises(expect, match=None if admitted else f"{positions**2:,} complex"):
            sw.pairing_matrices([lam], np.eye(3), [ms])

    def test_class_without_modifiers_is_one_power(self):
        # the class of length d has no modifiers, so its 1,200 columns are
        # the one product det(U)^1200 S, the bits d=2 blocks have always had
        rng = np.random.default_rng(2)
        U = orc.haar_unitary(2, rng)
        bounds = ((10,), 10)
        v0, terms = sw._class_terms(2, U, bounds)
        assert terms == []
        S = rng.standard_normal(11**2) + 1j * rng.standard_normal(11**2)
        (got,) = sw._step_class(S, 2, U, bounds, [(1200, None)])
        assert np.array_equal(got, np.multiply(v0**1200, S))

    @pytest.mark.skipif(
        np.finfo(np.longdouble).eps >= np.finfo(float).eps,
        reason="long double is no wider than double here",
    )
    def test_later_class_at_d3_haar(self):
        # after 100 columns of length 1 come 180 of length 2; summed as the
        # binomial power (v0 + P)^180 they lose 1.5e-14 of the largest entry
        # at these draws, stepped at most 2e-15, a quarter of the bound
        lam, d = (300, 200, 20), 3
        ms = orc.enumerate_m_vectors(lam, d, max_weight=6)
        rng = np.random.default_rng(11)
        for _ in range(3):
            U = orc.haar_unitary(d, rng)
            ref = stepped_reference(lam, d, U, ms)
            (W,) = sw.pairing_matrices([lam], U, [ms])
            assert np.abs(W - ref).max() < 8e-15 * np.abs(ref).max()


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
            ms = orc.enumerate_m_vectors(lam, d, max_weight=n)
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
        owner, ms = tb.m_vector_rows([lam], d, max_weight=3)
        weights = tb.m_vector_weights([lam], d, owner, ms)
        G = sw.block_bases([lam], d, max_weight=3)[0].gram
        cross = (weights[:, None] != weights[None, :]).any(axis=2)
        assert (G[cross] == 0.0).all()

    @pytest.mark.parametrize("d,lam", SMALL_BLOCKS)
    def test_positive_definite_unit_diagonal(self, d, lam):
        G = sw.block_bases([lam], d, max_weight=3)[0].gram
        assert np.allclose(np.diag(G), 1.0)
        assert np.linalg.eigvalsh(G).min() > 0

    def test_two_rows_gram_is_identity(self):
        # with two rows there is a single mode and one m per weight class
        G = sw.block_bases([(10, 4)], 2, max_weight=6)[0].gram
        assert np.array_equal(G, np.eye(len(G)))

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
        G = sw.block_bases([lam], d, max_weight=2)[0].gram
        assert np.array_equal(G, G.T)


class TestBlockOperators:
    def test_block_unitary_is_unitary_when_closed(self):
        # the whole 11-dimensional irrep fits under the weight cutoff, so the
        # representation matrix is exactly unitary with zero defect
        lam = (40, 30)
        (basis,) = sw.block_bases([lam], 2, max_weight=12)
        assert basis.size == 11
        rng = np.random.default_rng(5)
        U = orc.haar_unitary(2, rng)
        (B,) = sw.block_unitaries([basis], U)
        assert np.allclose(B.conj().T @ B, np.eye(11), atol=1e-10)
        # no column loses norm to states outside the basis
        assert 1.0 - (np.linalg.norm(B, axis=0) ** 2).min() < 1e-10

    def test_mixed_overlap_identity_is_gram(self):
        lam = (4, 2, 1)
        (basis,) = sw.block_bases([lam], 3, max_weight=3)
        M = overlaps(basis, np.eye(3))
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

    # at n=256 and 1024 the expanded binomial power (v0 + P)^ncols of the
    # first class cancels down to 1e-6 and worse; its steps do not
    @pytest.mark.parametrize("n", [8, 16, 32, 64, 256, 1024])
    def test_haar(self, n):
        rng = np.random.default_rng(n)
        for _ in range(3):
            assert spin_oracle_error(n, haar_special_unitary(rng)) < 1e-10


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
        ms = orc.enumerate_m_vectors(lam, d, max_weight=n)
        vecs = []
        for m in ms:
            t = orc.canonical_tableau(lam, m, d)
            e = np.zeros(d**n)
            e[orc.tableau_vector_index(t, d)] = 1.0
            v = Y @ e
            vecs.append(v / np.linalg.norm(v))
        (basis,) = sw.block_bases([lam], d, max_weight=n)
        M = overlaps(basis, U)
        for i, vi in enumerate(vecs):
            for j, vj in enumerate(vecs):
                direct = vi.conj() @ Um @ vj
                assert abs(M[i, j] - direct) < 1e-9
