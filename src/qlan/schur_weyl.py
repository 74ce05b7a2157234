"""Linear algebra of the irreducible blocks.

The non-orthogonal basis vector labelled by an m-vector is the (normalized)
image of the row-sorted filling under the Young symmetrizer q p of the
row-reading standard tableau.  Every overlap used here reduces to orbit sums

    W(m, l; U) = sum over row rearrangements a of m, b of l
                 of <f_a| q U^(x n) f_b>,

with <f_a| q U^(x n) f_b> = prod over columns c of det U[a-entries, b-entries]
(columns with a repeated entry contribute zero).  Then

    <m| pi(U) |l> = W(m, l; U) / sqrt(W(m, m; I) W(l, l; I)),

all symmetrizer scale factors cancelling in the ratio.

The orbit sums are evaluated without enumerating orbits, whose size explodes
combinatorially.  A column of length L is either the identity column 1..L,
or one of its modifiers (bricks (i, j) replacing entry i by j > i), on the
a side and on the b side independently.  Record the bricks of a tableau pair
as monomials x^va y^vb, va and vb counting bricks per pair (i, j) as
m-vectors do.  An identity pair contributes v0_L = det U[1..L, 1..L]; a pair
of types (va, vb) contributes val = det U[a-entries, b-entries] x^va y^vb.
The ncols = lambda_L - lambda_{L+1} columns of length L are independent, so
their generating function is (v0_L + P_L(x, y))^ncols with P_L the sum over
the non-trivial pair types, and

    W(m, l; U) = [x^m y^l] prod over L of (v0_L + P_L)^ncols.

`pairing_matrix` evaluates this product on one complex array S[a, b], with a
running over the exponent vectors at most the largest requested m (per pair
and in total weight) and b likewise, applying each class as the binomial sum
of C(ncols, K) v0^(ncols-K) P^K S over K.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache
from itertools import permutations, product

import numpy as np

from .errors import NearSingularGramError, ResourceLimitError
from . import tableaux as tb

DEFAULT_PAIR_BUDGET = 10**7

# ---------------------------------------------------------------------------
# determinants of tiny matrices, exact on integer entries


@cache
def signed_permutations(k: int) -> tuple[tuple[int, tuple[int, ...]], ...]:
    """(sign, permutation) for every permutation of range(k)."""
    out = []
    for p in permutations(range(k)):
        inv = sum(1 for i in range(k) for j in range(i + 1, k) if p[i] > p[j])
        out.append((-1 if inv % 2 else 1, p))
    return tuple(out)


def small_det(M) -> complex:
    """Leibniz determinant; exact for 0/1 matrices up to size ~6."""
    k = len(M)
    return sum(
        sign * math.prod(M[i][p[i]] for i in range(k))
        for sign, p in signed_permutations(k)
    )


def minor_det_product(U: np.ndarray, t_a: tb.Tableau, t_b: tb.Tableau) -> complex:
    """Product over columns c of det U[t_a-column entries, t_b-column entries];
    equals the overlap of f_a with the column-antisymmetrized U^(x n) f_b."""
    if tuple(len(r) for r in t_a) != tuple(len(r) for r in t_b):
        raise ValueError("tableaux must share a shape")
    out = 1.0 + 0.0j
    for ca, cb in zip(tb.columns_of(t_a), tb.columns_of(t_b)):
        M = [[U[i - 1, j - 1] for j in cb] for i in ca]
        out *= small_det(M)
        if out == 0:
            return 0.0 if _is_real(U) else 0.0 + 0.0j
    return out


def _is_real(U: np.ndarray) -> bool:
    return not np.iscomplexobj(U)


# ---------------------------------------------------------------------------
# column modifiers and the class transfer


@cache
def column_modifiers(length: int, d: int) -> tuple[tuple[tuple[tuple[int, int], ...], tuple[int, ...]], ...]:
    """Non-trivial ways to rewrite an identity column of the given length:
    each modifier is (bricks, column entries), a brick (i, j) replacing the
    entry i of row i <= length by some j > i, all resulting entries distinct.
    """
    rows = list(range(1, length + 1))
    out = []
    for mask in range(1, 2**length):
        sources = [r for r in rows if mask & (1 << (r - 1))]
        target_choices = [range(s + 1, d + 1) for s in sources]
        for targets in product(*target_choices):
            entries = list(range(1, length + 1))
            for s, t in zip(sources, targets):
                entries[s - 1] = t
            if len(set(entries)) != length:
                continue
            bricks = tuple(sorted(zip(sources, targets)))
            out.append((bricks, tuple(entries)))
    return tuple(out)


def _brick_vector(bricks, d: int) -> tuple[int, ...]:
    ps = tb.pairs(d)
    v = [0] * len(ps)
    for b in bricks:
        v[ps.index(b)] += 1
    return tuple(v)


def _simplex(ms: list[tb.MVector], npairs: int) -> dict[tuple[int, ...], int]:
    """Positions of the exponent vectors that partial products can carry on
    their way to the m in ms (bricks are only ever added): componentwise at
    most the largest m[k], in total at most the largest |m|.  Lexicographic,
    so the zero vector comes first."""
    wcap = max((sum(m) for m in ms), default=0)
    pts: list[tuple[int, ...]] = [()]
    for k in range(npairs):
        cap = max((m[k] for m in ms), default=0)
        pts = [p + (c,) for p in pts for c in range(min(cap, wcap - sum(p)) + 1)]
    return {a: i for i, a in enumerate(pts)}


def _shift_map(index: dict[tuple[int, ...], int], v: tuple[int, ...]):
    """Positions a and a + v for every a with both in the simplex."""
    src, dst = [], []
    for a, i in index.items():
        j = index.get(tuple(x + y for x, y in zip(a, v)))
        if j is not None:
            src.append(i)
            dst.append(j)
    return np.array(src, dtype=np.intp), np.array(dst, dtype=np.intp)


def pairing_matrix(
    lam: tb.Diagram,
    d: int,
    U: np.ndarray,
    ms_a: list[tb.MVector],
    ms_b: list[tb.MVector],
) -> np.ndarray:
    """Matrix of orbit sums W(m, l; U) for m in ms_a, l in ms_b: the
    coefficients of prod over L of (v0_L + P_L)^ncols described in the module
    docstring, truncated to the exponents that ms_a and ms_b can reach."""
    lam = tb.check_diagram(lam, d)
    npairs = len(tb.pairs(d))
    index_a = _simplex(ms_a, npairs)
    index_b = _simplex(ms_b, npairs)
    # every non-trivial pair type raises |a| + |b|, so P^K S = 0 for larger K
    max_power = max(map(sum, index_a)) + max(map(sum, index_b))
    shifts_a: dict[tuple[int, ...], tuple[np.ndarray, np.ndarray]] = {}
    shifts_b: dict[tuple[int, ...], tuple[np.ndarray, np.ndarray]] = {}

    S = np.zeros((len(index_a), len(index_b)), dtype=complex)
    S[0, 0] = 1.0
    for length in range(1, d + 1):
        ncols = tb.row(lam, length) - tb.row(lam, length + 1)
        if ncols <= 0:
            continue
        v0 = complex(small_det([[U[i, j] for j in range(length)] for i in range(length)]))
        idcol = tuple(range(1, length + 1))
        sides = [(tuple([0] * npairs), idcol)] + [
            (_brick_vector(bricks, d), entries)
            for bricks, entries in column_modifiers(length, d)
        ]
        # P as a list of (source, destination, value): P S adds
        # val * S[a, b] at [a + va, b + vb]
        terms = []
        for va, ea in sides:
            if va not in shifts_a:
                shifts_a[va] = _shift_map(index_a, va)
            src_a, dst_a = shifts_a[va]
            if not src_a.size:
                continue
            for vb, eb in sides:
                if not (any(va) or any(vb)):
                    continue
                if vb not in shifts_b:
                    shifts_b[vb] = _shift_map(index_b, vb)
                src_b, dst_b = shifts_b[vb]
                if not src_b.size:
                    continue
                val = complex(small_det([[U[i - 1, j - 1] for j in eb] for i in ea]))
                if val != 0:
                    terms.append((np.ix_(src_a, src_b), np.ix_(dst_a, dst_b), val))

        out = v0**ncols * S
        PKS = S
        for K in range(1, min(ncols, max_power) + 1):
            nxt = np.zeros_like(S)
            for src, dst, val in terms:
                nxt[dst] += val * PKS[src]
            PKS = nxt
            if not PKS.any():
                break
            out += math.comb(ncols, K) * v0 ** (ncols - K) * PKS
        S = out

    rows = [index_a[m] for m in ms_a]
    cols = [index_b[l] for l in ms_b]
    return S[np.ix_(rows, cols)]


# ---------------------------------------------------------------------------
# direct orbit-sum evaluation (small cases; cross-checks the transfer)


def symmetrizer_pairing(
    lam: tb.Diagram,
    d: int,
    m: tb.MVector,
    l: tb.MVector,
    U: np.ndarray | None = None,
    budget: int = DEFAULT_PAIR_BUDGET,
) -> complex:
    """Orbit sum W(m, l; U) by explicit double enumeration of admissible
    row rearrangements.  With U omitted (identity), pairs whose column
    contents mismatch are skipped wholesale."""
    lam = tb.check_diagram(lam, d)
    size = tb.orbit_size(lam, m, d) * tb.orbit_size(lam, l, d)
    if size > budget:
        raise ResourceLimitError(f"orbit pair count {size} exceeds budget {budget}")
    orb_a = list(tb.orbit(lam, m, d, admissible_only=True, budget=None))
    orb_b = list(tb.orbit(lam, l, d, admissible_only=True, budget=None))
    if U is None:
        by_content: dict[tuple, list[tb.Tableau]] = {}
        for t in orb_b:
            key = tuple(frozenset(c) for c in tb.columns_of(t))
            by_content.setdefault(key, []).append(t)
        ident = np.eye(d)
        total = 0.0
        for ta in orb_a:
            key = tuple(frozenset(c) for c in tb.columns_of(ta))
            for tbl in by_content.get(key, ()):
                total += minor_det_product(ident, ta, tbl).real
        return total
    total = 0.0 + 0.0j
    for ta in orb_a:
        for tbl in orb_b:
            total += minor_det_product(U, ta, tbl)
    return total


# ---------------------------------------------------------------------------
# block basis, Gram matrix, block operators


def gram_matrix(lam: tb.Diagram, d: int, basis: list[tb.MVector]) -> np.ndarray:
    """Overlap matrix of the normalized symmetrizer-image vectors; the
    identity pairing makes entries across different total-multiplicity
    classes exactly zero (the selection rule)."""
    return _gram_and_norms(lam, d, list(basis))[0]


def _gram_and_norms(
    lam: tb.Diagram, d: int, ms: list[tb.MVector]
) -> tuple[np.ndarray, np.ndarray]:
    """The Gram matrix and the norms sqrt(W(m, m; I)) of the unnormalized
    vectors that it divides out, from one identity pairing."""
    W = pairing_matrix(lam, d, np.eye(d), ms, ms).real
    norms = np.sqrt(np.diag(W))
    G = W / np.outer(norms, norms)
    np.fill_diagonal(G, 1.0)
    return (G + G.T) / 2, norms


def orthonormalize(G: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Symmetric square root and inverse square root of a positive definite
    Gram matrix, from one eigendecomposition."""
    vals, vecs = np.linalg.eigh(G)
    if vals.min() <= 1e-12:
        raise NearSingularGramError(
            f"smallest Gram eigenvalue {vals.min():.3e}; "
            "reduce the basis cutoff or increase n"
        )
    roots = np.sqrt(vals)
    return (vecs * roots) @ vecs.T, (vecs * (1.0 / roots)) @ vecs.T


@dataclass(frozen=True)
class BlockBasis:
    """Truncated basis of one irreducible block with its Gram data.

    Coordinates used everywhere downstream are the symmetrically
    orthonormalized ones: the vector labelled m has coordinates
    sqrt_gram[:, index[m]].  `norms` holds sqrt(W(m, m; I)), which turns
    orbit sums into overlaps of the normalized vectors.

    Vectors of different total multiplicities (weights) are orthogonal, so
    gram, and with it sqrt_gram and inv_sqrt_gram, are block-diagonal over
    the weight classes: each class spans exactly the coordinates of its own
    m-vectors, on which a function of the weight is diagonal.
    """

    lam: tb.Diagram
    d: int
    mvectors: tuple[tb.MVector, ...]
    gram: np.ndarray
    inv_sqrt_gram: np.ndarray
    sqrt_gram: np.ndarray
    norms: np.ndarray

    @property
    def size(self) -> int:
        return len(self.mvectors)

    def index(self, m: tb.MVector) -> int:
        return self.mvectors.index(m)

    def coords(self, m: tb.MVector) -> np.ndarray:
        """Orthonormal coordinates of the basis vector labelled m."""
        return self.sqrt_gram[:, self.index(m)].copy()


def block_basis(lam: tb.Diagram, d: int, max_weight: int | None = None) -> BlockBasis:
    lam = tb.check_diagram(lam, d)
    ms = tb.enumerate_m_vectors(lam, d, max_weight=max_weight)
    G, norms = _gram_and_norms(lam, d, ms)
    sqrt, inv_sqrt = orthonormalize(G)
    return BlockBasis(lam, d, tuple(ms), G, inv_sqrt, sqrt, norms)


@dataclass(frozen=True)
class BlockOperator:
    """Matrix of an operator in the orthonormal coordinates of a BlockBasis,
    with the mass lost to basis truncation (for unitaries)."""

    lam: tb.Diagram
    matrix: np.ndarray
    truncation_defect: float


def mixed_overlap_matrix(
    lam: tb.Diagram, d: int, U: np.ndarray, basis: BlockBasis
) -> np.ndarray:
    """Overlaps <m| pi(U) |l> of the normalized non-orthogonal vectors."""
    ms = list(basis.mvectors)
    W = pairing_matrix(lam, d, U, ms, ms)
    return W / np.outer(basis.norms, basis.norms)


def block_unitary(lam: tb.Diagram, U: np.ndarray, basis: BlockBasis) -> BlockOperator:
    """Representation matrix of the d x d unitary U on the truncated block, in
    orthonormal coordinates; columns lose norm where the true image leaks
    outside the truncated basis."""
    M = mixed_overlap_matrix(lam, basis.d, U, basis)
    mat = basis.inv_sqrt_gram @ M @ basis.inv_sqrt_gram
    colnorms = np.linalg.norm(mat, axis=0) ** 2
    defect = float(max(0.0, 1.0 - colnorms.min()))
    return BlockOperator(tb.check_diagram(lam, basis.d), mat, defect)


# ---------------------------------------------------------------------------
# full tensor-space oracle


def _digit_table(n: int, d: int) -> np.ndarray:
    D = d**n
    idx = np.arange(D)
    digits = np.zeros((D, n), dtype=np.int64)
    for k in range(n - 1, -1, -1):
        digits[:, k] = idx % d
        idx = idx // d
    return digits


def _perm_index_map(sigma: tuple[int, ...], digits: np.ndarray, d: int) -> np.ndarray:
    """Index map of the operator permuting tensor factors: factor k of the
    output is factor sigma^{-1}(k) of the input (0-based positions)."""
    n = digits.shape[1]
    inv = [0] * n
    for k, s in enumerate(sigma):
        inv[s] = k
    newdigits = digits[:, inv]
    powers = d ** np.arange(n - 1, -1, -1)
    return newdigits @ powers


def _standard_tableau_positions(lam: tb.Diagram) -> list[list[int]]:
    """0-based factor positions per row under row-reading numbering."""
    rows, k = [], 0
    for li in lam:
        rows.append(list(range(k, k + li)))
        k += li
    return rows


def _group_elements(blocks: list[list[int]], n: int):
    """All products of per-block permutations, as position maps sigma with
    sigma[k] = image of position k, plus the permutation sign."""
    out = [(list(range(n)), 1)]
    for block in blocks:
        nxt = []
        for perm in permutations(block):
            inv_count = sum(
                1
                for i in range(len(block))
                for j in range(i + 1, len(block))
                if perm[i] > perm[j]
            )
            sign = -1 if inv_count % 2 else 1
            for base, bsign in out:
                sigma = list(base)
                for src, dst in zip(block, perm):
                    sigma[src] = base[dst]
                nxt.append((sigma, bsign * sign))
        out = nxt
    return out


def row_symmetrizer_matrix(lam: tb.Diagram, n: int, d: int) -> np.ndarray:
    digits = _digit_table(n, d)
    rows = _standard_tableau_positions(lam)
    D = d**n
    P = np.zeros((D, D))
    src = np.arange(D)
    for sigma, _ in _group_elements(rows, n):
        P[_perm_index_map(tuple(sigma), digits, d), src] += 1.0
    return P


def column_antisymmetrizer_matrix(lam: tb.Diagram, n: int, d: int) -> np.ndarray:
    digits = _digit_table(n, d)
    rows = _standard_tableau_positions(lam)
    ncols = lam[0]
    cols = [
        [rows[i][c] for i in range(len(lam)) if c < lam[i]] for c in range(ncols)
    ]
    D = d**n
    Q = np.zeros((D, D))
    src = np.arange(D)
    for sigma, sign in _group_elements(cols, n):
        Q[_perm_index_map(tuple(sigma), digits, d), src] += sign
    return Q


def young_symmetrizer_matrix(lam: tb.Diagram, n: int, d: int) -> np.ndarray:
    return column_antisymmetrizer_matrix(lam, n, d) @ row_symmetrizer_matrix(
        lam, n, d
    )


def tableau_vector_index(t: tb.Tableau, d: int) -> int:
    """Tensor basis index of the product vector whose factor at box (i, c)
    (row-reading order) is the tableau entry."""
    idx = 0
    for trow in t:
        for e in trow:
            idx = idx * d + (e - 1)
    return idx


def brute_force_blocks(
    rho: np.ndarray, n: int, limit: int = 6561
) -> list[tuple[tb.Diagram, float, np.ndarray]]:
    """Decompose rho^(x n) on the full tensor space: for each diagram, build
    the Young symmetrizer explicitly, restrict rho^(x n) to its range (one
    copy of the irreducible block) and read off weight and spectrum."""
    d = rho.shape[0]
    if d**n > limit:
        raise ResourceLimitError(f"tensor dimension {d**n} exceeds limit {limit}")
    rho_n = rho
    for _ in range(n - 1):
        rho_n = np.kron(rho_n, rho)
    out = []
    for lam in tb.enumerate_diagrams(n, d):
        Y = young_symmetrizer_matrix(lam, n, d)
        dim = tb.dim_irrep(lam, d)
        Uleft, svals, _ = np.linalg.svd(Y)
        rank = int((svals > 1e-9 * svals[0]).sum())
        assert rank == dim, (lam, rank, dim)
        B = Uleft[:, :rank]
        block = B.conj().T @ rho_n @ B
        raw_trace = float(np.trace(block).real)
        weight = tb.multiplicity(lam, n, d) * raw_trace
        spectrum = np.sort(np.linalg.eigvalsh(block / raw_trace))[::-1]
        out.append((lam, weight, spectrum))
    return out
