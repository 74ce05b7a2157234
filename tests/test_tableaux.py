import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qlan.errors import ResourceLimitError
from qlan import oracle as orc
from qlan import tableaux as tb


def brute_partition_count(n, d):
    def rec(rest, maxpart, nparts):
        if rest == 0:
            return 1
        if nparts == 0:
            return 0
        return sum(
            rec(rest - f, f, nparts - 1) for f in range(min(rest, maxpart), 0, -1)
        )

    return rec(n, n, d)


def diagrams(max_n=10, max_d=4):
    return st.integers(1, max_n).flatmap(
        lambda n: st.integers(2, max_d).map(
            lambda d: (n, d)
        )
    )


class TestEnumerateDiagrams:
    def test_small(self):
        assert tb.enumerate_diagrams(3, 2) == [(3,), (2, 1)]
        assert tb.enumerate_diagrams(2, 3) == [(2,), (1, 1)]

    def test_count_10_3(self):
        assert len(tb.enumerate_diagrams(10, 3)) == 14

    def test_invalid(self):
        with pytest.raises(ValueError):
            tb.enumerate_diagrams(0, 2)
        with pytest.raises(ValueError):
            tb.enumerate_diagrams(3, 1)

    @given(diagrams())
    @settings(max_examples=30)
    def test_count_matches_bruteforce(self, nd):
        n, d = nd
        out = tb.enumerate_diagrams(n, d)
        assert len(out) == brute_partition_count(n, d)
        assert len(set(out)) == len(out)
        assert out == sorted(out, reverse=True)
        for lam in out:
            assert sum(lam) == n and len(lam) <= d


class TestHooks:
    def test_533_display(self):
        # hooks of (5,3,3) row by row: 76521 / 432 / 321
        expect = {1: (7, 6, 5, 2, 1), 2: (4, 3, 2), 3: (3, 2, 1)}
        for i, hooks in expect.items():
            for j, h in enumerate(hooks, start=1):
                assert tb.hook_length((5, 3, 3), i, j) == h

    def test_trivial(self):
        assert tb.hook_length((1,), 1, 1) == 1

    def test_outside(self):
        with pytest.raises(ValueError):
            tb.hook_length((2, 1), 2, 2)


class TestDimensions:
    def test_dim_examples(self):
        assert tb.dim_irrep((5, 3, 3), 3) == 6
        assert tb.dim_irrep((2, 1), 3) == 8
        for n in range(1, 9):
            assert tb.dim_irrep((n,), 2) == n + 1

    def test_multiplicity_examples(self):
        assert tb.multiplicity((1, 1), 2, 2) == 1
        assert tb.multiplicity((2, 1), 3, 3) == 2
        for n in (1, 4, 9):
            assert tb.multiplicity((n,), n, 4) == 1

    def test_multiplicity_forms_agree(self):
        for n in range(1, 13):
            for d in (2, 3, 4):
                for lam in tb.enumerate_diagrams(n, d):
                    assert tb.multiplicity(lam, n, d) == orc.multiplicity_product_form(
                        lam, n, d
                    )

    def test_dimension_identity_small(self):
        for n in range(1, 11):
            for d in (2, 3):
                total = sum(
                    tb.dim_irrep(lam, d) * tb.multiplicity(lam, n, d)
                    for lam in tb.enumerate_diagrams(n, d)
                )
                assert total == d**n

    def test_dim_counts_m_vectors(self):
        for n in range(1, 8):
            for d in (2, 3):
                for lam in tb.enumerate_diagrams(n, d):
                    assert len(tb.enumerate_m_vectors(lam, d)) == tb.dim_irrep(lam, d)


class TestMVectors:
    def test_symmetric_row(self):
        assert tb.enumerate_m_vectors((2,), 2) == [(0,), (1,), (2,)]

    def test_antisymmetric(self):
        assert tb.enumerate_m_vectors((1, 1), 2) == [(0,)]

    def test_adjoint(self):
        assert len(tb.enumerate_m_vectors((2, 1), 3)) == 8

    def test_roundtrip(self):
        for lam, d in [((3, 2), 3), ((4, 2, 1), 3), ((2, 2, 1, 1), 4)]:
            ms = tb.enumerate_m_vectors(lam, d)
            tableaux = [orc.canonical_tableau(lam, m, d) for m in ms]
            assert all(orc.is_semistandard(t) for t in tableaux)
            assert len(set(tableaux)) == len(ms)

    def test_zero_vector(self):
        t = orc.canonical_tableau((3, 2), (0, 0, 0), 3)
        assert t == ((1, 1, 1), (2, 2))

    def test_matches_tableau_filter(self):
        # the direct column test agrees with building each canonical
        # tableau, over every m-vector within the row capacities
        for d in (2, 3, 4):
            for n in range(1, 11):
                for lam in tb.enumerate_diagrams(n, d):
                    cands = [()]
                    for k, (i, _j) in enumerate(tb.pairs(d)):
                        rest = (0,) * (len(tb.pairs(d)) - k)
                        cands = [
                            m + (c,)
                            for m in cands
                            for c in range(tb.row(lam, i) - tb.row_loads(m + rest, d)[i - 1] + 1)
                        ]
                    ms = tb.enumerate_m_vectors(lam, d)
                    assert ms == sorted(m for m in cands if orc.fits(lam, m, d))
                    assert len(ms) == tb.dim_irrep(lam, d)

    def test_max_weight_filter(self):
        full = tb.enumerate_m_vectors((6, 2), 2)
        cut = tb.enumerate_m_vectors((6, 2), 2, max_weight=2)
        assert cut == [m for m in full if sum(m) <= 2]

    def test_total_multiplicities(self):
        # filling 11233/23/3 has totals (2, 2, 4)
        lam, d = (5, 2, 1), 3
        m_map = {(1, 2): 1, (1, 3): 2, (2, 3): 1}
        m = tuple(m_map.get(p, 0) for p in tb.pairs(d))
        assert tb.total_multiplicities(lam, m, d) == (2, 2, 4)


class TestPredicates:
    def test_semistandard_true(self):
        assert orc.is_semistandard(((1, 1, 2, 2, 3), (2, 3, 3), (3,)))

    def test_semistandard_false(self):
        assert not orc.is_semistandard(((2, 2, 1), (2, 1)))

    def test_single_row(self):
        assert orc.is_semistandard(((1, 2, 2, 3),))

    def test_admissible(self):
        assert not orc.is_admissible(((2, 2, 1), (2, 1)))
        assert orc.is_admissible(((2, 1), (1, 2)))
        # every semistandard tableau is admissible
        for m in tb.enumerate_m_vectors((3, 2, 1), 3):
            assert orc.is_admissible(orc.canonical_tableau((3, 2, 1), m, 3))


class TestOrbit:
    def test_two_element(self):
        out = list(orc.orbit((2,), (1,), 2))
        assert sorted(out) == [((1, 2),), ((2, 1),)]

    def test_admissible_filter(self):
        # shape (2,1), d=2, one 2 in row 1: "12/2" admissible, "21/2" not
        out = list(orc.orbit((2, 1), (1,), 2, admissible_only=True))
        assert out == [((1, 2), (2,))]

    def test_zero_orbit(self):
        assert list(orc.orbit((3, 1), (0,), 2)) == [((1, 1, 1), (2,))]

    def test_size_formula(self):
        for lam, d in [((3, 2), 3), ((4, 1), 2)]:
            for m in tb.enumerate_m_vectors(lam, d):
                got = len(list(orc.orbit(lam, m, d)))
                assert got == orc.orbit_size(lam, m, d)

    @pytest.mark.parametrize(
        "row", [(), (1,), (1, 1, 1), (2, 1), (1, 2, 2, 3), (3, 1, 2, 1, 3)]
    )
    def test_row_orderings_lexicographic(self, row):
        # orbit lists each row's distinct orderings in lexicographic order
        got = list(orc.multiset_permutations(row))
        assert got == sorted(set(itertools.permutations(row)))

    def test_budget(self):
        with pytest.raises(ResourceLimitError):
            list(orc.orbit((20, 10), (10,), 2, budget=10))


class TestGamma:
    def test_canonical_spread(self):
        # one substitution per distinct column: gamma = 0
        t = ((1, 2, 3), (2,))  # wait: row 2 entry 2 is identity
        t = ((1, 1, 2), (2,))
        assert orc.gamma(t) == 0

    def test_two_bricks_one_column(self):
        # column 1 carries entries (2, 3): two bricks, one modified column
        t = ((2, 1), (3, 2))
        assert orc.gamma(t) == 1

    def test_vacuum(self):
        t = orc.canonical_tableau((3, 2), (0, 0, 0), 3)
        assert orc.gamma(t) == 0

    def test_gamma_nonnegative(self):
        for m in tb.enumerate_m_vectors((4, 2), 3):
            for t in orc.orbit((4, 2), m, 3, admissible_only=True):
                assert orc.gamma(t) >= 0


class TestCountGamma0:
    def test_vacuum(self):
        assert orc.count_gamma0((3, 1), (0,), 2) == 1

    def test_single_brick(self):
        assert orc.count_gamma0((4, 2), (1,), 2) == 2

    def test_bounds(self):
        lam, d = (6, 3, 1), 3
        m = tuple(
            {(1, 2): 1, (2, 3): 1}.get(p, 0) for p in tb.pairs(d)
        )
        cnt = orc.count_gamma0(lam, m, d)
        lo, hi = orc.gamma0_bounds(lam, m, d)
        assert lo <= cnt <= hi

    @given(st.sampled_from([(5, 2), (6, 3), (7, 1)]), st.integers(1, 2))
    @settings(max_examples=10, deadline=None)
    def test_bounds_d2(self, lam, w):
        if lam[0] - lam[1] <= w:
            return
        cnt = orc.count_gamma0(lam, (w,), 2)
        lo, hi = orc.gamma0_bounds(lam, (w,), 2)
        assert lo <= cnt <= hi


class TestTypical:
    def test_rounded_mean(self):
        n, mu = 100, (0.7, 0.3)
        lam = (70, 30)
        assert tb.is_typical(lam, n, mu, 0.6)

    def test_single_row_atypical(self):
        assert not tb.is_typical((100,), 100, (0.7, 0.3), 0.6)

    def test_boundary_inclusive(self):
        n, mu, alpha = 100, (0.5, 0.5), 0.5
        lam = (60, 40)  # |60 - 50| = 10 = 100^0.5
        assert tb.is_typical(lam, n, mu, alpha)
