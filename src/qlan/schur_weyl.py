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

`pairing_matrix` evaluates this product on one flat complex vector S over
the positions a * |b-simplex| + b, with a running over the exponent vectors
at most the largest requested m (per pair and in total weight) and b
likewise, applying each class as the binomial sum of C(ncols, K)
v0^(ncols-K) P^K S over K.  Each term of P is a gather and scatter between
flat positions, built from one shift map per side; the simplices and shift
maps depend only on the caps, so they are cached and shared, read-only, by
a block's Gram and rotation pairings and by every block with the same caps.

The first non-empty class acts on the unit vector e0 (S before any class),
so its powers P^K e0 depend on U, the class length and the simplex, and not
on lambda: only the weights C(ncols, K) v0^(ncols-K) differ between blocks.
`pairing_matrices` therefore pairs many diagrams at one U (all blocks of a
sweep point share the local unitary) and runs that sequence once on the
union simplex, whose caps are the largest of the batch; a block reads the
powers at its own simplex, which is down-closed in the union (bricks only
raise exponents, so nothing outside it feeds into it), sums its own
binomial series, and runs its remaining classes on its own simplex.  Each
entry sees the operations of a block on its own, in the same order, with
one caveat: numpy evaluates `val * PKS[src]` as `PKS[src] * val` once the
gathered temporary holds ELIDED_ENTRIES = 2**14 complex entries (it reuses
the temporary), and with fused multiply-adds the operand order can change
the last bit.  A term could cross that size between the union and a
block's own simplex, so blocks share the union only while it has fewer
entries (the sweeps' simplex pairs have about 10**3) and pair one at a time
beyond; the result then matches the per-diagram calls bit for bit.
`run_decompose`, whose untruncated blocks differ widely in size, pairs one
diagram at a time.  `pairing_matrix` is the batch of one.

The references this module is checked against, orbit sums by enumeration
and Young symmetrizers on the full tensor space, live in `qlan.oracle`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache
from itertools import permutations, product

import numpy as np

from .errors import NearSingularGramError
from . import tableaux as tb

# complex entries (256 KiB) from which numpy computes `val * PKS[src]` in
# place on the temporary, operands swapped (see the module docstring)
ELIDED_ENTRIES = 2**14

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


def _frozen(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


@cache
def _simplex(caps: tuple[int, ...], wcap: int) -> np.ndarray:
    """The exponent vectors that partial products can carry on their way to
    an m with m[k] <= caps[k] and |m| <= wcap (bricks are only ever added),
    as the rows of a read-only array.  Lexicographic, so the zero vector
    comes first."""
    pts: list[tuple[int, ...]] = [()]
    for cap in caps:
        pts = [p + (c,) for p in pts for c in range(min(cap, wcap - sum(p)) + 1)]
    return _frozen(np.array(pts, dtype=np.intp).reshape(len(pts), len(caps)))


def _positions(caps: tuple[int, ...], wcap: int, vectors: np.ndarray) -> np.ndarray:
    """Row positions in the simplex of the given rows inside it: the
    mixed-radix key over the caps increases in lexicographic order."""
    dims = tuple(c + 1 for c in caps)
    keys = np.ravel_multi_index(_simplex(caps, wcap).T, dims)
    return np.searchsorted(keys, np.ravel_multi_index(vectors.T, dims))


@cache
def _shift_map(caps: tuple[int, ...], wcap: int, v: tuple[int, ...]):
    """Positions a and a + v for every a with both in the simplex, as two
    read-only arrays."""
    pts = _simplex(caps, wcap)
    moved = pts + v
    inside = (moved <= caps).all(axis=1) & (moved.sum(axis=1) <= wcap)
    return _frozen(np.flatnonzero(inside)), _frozen(_positions(caps, wcap, moved[inside]))


def _side(ms: list[tb.MVector], npairs: int):
    """Per-pair caps, total-weight cap and the m-vectors as rows."""
    M = np.array(ms, dtype=np.intp).reshape(len(ms), npairs)
    caps = tuple(int(c) for c in M.max(axis=0, initial=0))
    return caps, int(M.sum(axis=1).max(initial=0)), M


def _class_terms(length: int, d: int, U: np.ndarray, side_a, side_b):
    """v0 = det U[1..L, 1..L] and P for the columns of length L, as a list of
    (source, destination, value) over the flat positions a * nb + b of the
    simplex pair: P S adds val * S[a, b] at [a + va, b + vb]."""
    npairs = len(tb.pairs(d))
    nb = len(_simplex(*side_b))
    v0 = complex(small_det([[U[i, j] for j in range(length)] for i in range(length)]))
    idcol = tuple(range(1, length + 1))
    sides = [(tuple([0] * npairs), idcol)] + [
        (_brick_vector(bricks, d), entries) for bricks, entries in column_modifiers(length, d)
    ]
    terms = []
    for va, ea in sides:
        src_a, dst_a = _shift_map(*side_a, va)
        if not src_a.size:
            continue
        for vb, eb in sides:
            if not (any(va) or any(vb)):
                continue
            src_b, dst_b = _shift_map(*side_b, vb)
            if not src_b.size:
                continue
            val = complex(small_det([[U[i - 1, j - 1] for j in eb] for i in ea]))
            if val != 0:
                src = (src_a[:, None] * nb + src_b).ravel()
                dst = (dst_a[:, None] * nb + dst_b).ravel()
                terms.append((src, dst, val))
    return v0, terms


def _apply_class(S, length: int, d: int, U: np.ndarray, sides, series) -> list[np.ndarray]:
    """(v0 + P)^ncols S for the columns of length L on the simplex pair
    `sides`, as the binomial sum of C(ncols, K) v0^(ncols-K) P^K S over K,
    for each (ncols, limit, pos) of the series: one sequence of powers
    P^K S, each sum stopping at K = limit and read at the flat positions
    pos (None: all of them).  A term's destinations are distinct, so
    `np.add.at` adds exactly what `nxt[dst] += ...` would, without the
    gathered copy of nxt[dst]."""
    v0, terms = _class_terms(length, d, U, *sides)
    outs = [v0**ncols * (S if pos is None else S[pos]) for ncols, _, pos in series]
    PKS = S
    for K in range(1, max(limit for _, limit, _ in series) + 1):
        nxt = np.zeros_like(S)
        for src, dst, val in terms:
            np.add.at(nxt, dst, val * PKS[src])
        PKS = nxt
        if not PKS.any():
            break
        for out, (ncols, limit, pos) in zip(outs, series):
            if K > limit:
                continue
            own = PKS if pos is None else PKS[pos]
            # the early stop of a sum on its own positions
            if pos is None or own.any():
                out += math.comb(ncols, K) * v0 ** (ncols - K) * own
    return outs


def _union(sides):
    """The smallest (caps, wcap) whose simplex holds every given simplex."""
    caps, wcaps = zip(*sides)
    return tuple(map(max, zip(*caps))), max(wcaps)


def _restriction(union, pair):
    """Flat positions of the simplex pair inside the union pair, or None when
    they coincide."""
    if pair == union:
        return None
    rows = _positions(*union[0], _simplex(*pair[0]))
    cols = _positions(*union[1], _simplex(*pair[1]))
    return (rows[:, None] * len(_simplex(*union[1])) + cols).ravel()


def pairing_matrices(
    lams: list[tb.Diagram],
    d: int,
    U: np.ndarray,
    sides: list[tuple[list[tb.MVector], list[tb.MVector]]],
) -> list[np.ndarray]:
    """pairing_matrix(lams[i], d, U, *sides[i]) for every i, at one U.

    A diagram's first non-empty column class acts on the unit vector e0, so
    its powers P^K e0 depend on U, the class length and the simplex only.
    The diagrams whose first class has the same length share one sequence of
    powers on the union of their simplices, if it has fewer than
    ELIDED_ENTRIES entries; each reads it on its own simplex (down-closed in
    the union, and bricks only raise exponents, so the rest of the union
    never feeds into it) and sums its own binomial series.  The remaining
    classes run per diagram on its own simplex."""
    npairs = len(tb.pairs(d))
    pairs, rows, classes, groups = [], [], [], {}
    for i, (lam, (ms_a, ms_b)) in enumerate(zip(lams, sides)):
        lam = tb.check_diagram(lam, d)
        caps_a, wcap_a, M_a = _side(ms_a, npairs)
        caps_b, wcap_b, M_b = _side(ms_b, npairs)
        pairs.append(((caps_a, wcap_a), (caps_b, wcap_b)))
        rows.append((M_a, M_b))
        # every non-trivial pair type raises |a| + |b|, so P^K S = 0 for
        # larger K; the heaviest simplex vector weighs min(wcap, sum of caps)
        max_power = min(wcap_a, sum(caps_a)) + min(wcap_b, sum(caps_b))
        ncols = [tb.row(lam, L) - tb.row(lam, L + 1) for L in range(1, d + 1)]
        # (length, ncols, largest K) per class; the empty diagram gets one
        # class of no columns, which leaves S = e0
        classes.append(
            [(L, nc, min(nc, max_power)) for L, nc in enumerate(ncols, 1) if nc > 0]
            or [(1, 0, 0)]
        )
        groups.setdefault(classes[i][0][0], []).append(i)

    batches = []
    for length, members in groups.items():
        union = _union([pairs[i][0] for i in members]), _union([pairs[i][1] for i in members])
        if len(_simplex(*union[0])) * len(_simplex(*union[1])) < ELIDED_ENTRIES:
            batches.append((length, members, union))
        else:
            batches += [(length, [i], pairs[i]) for i in members]
    S = {}
    for length, members, union in batches:
        e0 = np.zeros(len(_simplex(*union[0])) * len(_simplex(*union[1])), dtype=complex)
        e0[0] = 1.0
        series = [(*classes[i][0][1:], _restriction(union, pairs[i])) for i in members]
        S.update(zip(members, _apply_class(e0, length, d, U, union, series)))
        del e0  # the remaining classes run without it

    out = []
    for i, ((side_a, side_b), (M_a, M_b)) in enumerate(zip(pairs, rows)):
        for length, ncols, limit in classes[i][1:]:
            S[i] = _apply_class(S[i], length, d, U, pairs[i], [(ncols, limit, None)])[0]
        nb = len(_simplex(*side_b))
        cells = np.ix_(_positions(*side_a, M_a), _positions(*side_b, M_b))
        out.append(S[i].reshape(-1, nb)[cells])
    return out


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
    return pairing_matrices([lam], d, U, [(ms_a, ms_b)])[0]


# ---------------------------------------------------------------------------
# block basis, Gram matrix, block operators


def gram_matrix(lam: tb.Diagram, d: int, basis: list[tb.MVector]) -> np.ndarray:
    """Overlap matrix of the normalized symmetrizer-image vectors; the
    identity pairing makes entries across different total-multiplicity
    classes exactly zero (the selection rule)."""
    ms = list(basis)
    return _gram_and_norms(pairing_matrix(lam, d, np.eye(d), ms, ms))[0]


def _gram_and_norms(W: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The Gram matrix and the norms sqrt(W(m, m; I)) of the unnormalized
    vectors that it divides out, from the identity pairing W."""
    W = W.real
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


def _block_basis(lam: tb.Diagram, d: int, ms: list[tb.MVector], W: np.ndarray) -> BlockBasis:
    G, norms = _gram_and_norms(W)
    sqrt, inv_sqrt = orthonormalize(G)
    return BlockBasis(lam, d, tuple(ms), G, inv_sqrt, sqrt, norms)


def block_basis(lam: tb.Diagram, d: int, max_weight: int | None = None) -> BlockBasis:
    lam = tb.check_diagram(lam, d)
    ms = tb.enumerate_m_vectors(lam, d, max_weight=max_weight)
    return _block_basis(lam, d, ms, pairing_matrix(lam, d, np.eye(d), ms, ms))


def block_bases(
    lams: list[tb.Diagram], d: int, max_weight: int | None = None
) -> list[BlockBasis]:
    """block_basis of every diagram, from one identity transfer."""
    lams = [tb.check_diagram(lam, d) for lam in lams]
    mss = [tb.enumerate_m_vectors(lam, d, max_weight=max_weight) for lam in lams]
    Ws = pairing_matrices(lams, d, np.eye(d), [(ms, ms) for ms in mss])
    return [_block_basis(lam, d, ms, W) for lam, ms, W in zip(lams, mss, Ws)]


@dataclass(frozen=True)
class BlockOperator:
    """Matrix of an operator in the orthonormal coordinates of a BlockBasis,
    with the mass lost to basis truncation (for unitaries)."""

    lam: tb.Diagram
    matrix: np.ndarray
    truncation_defect: float


def mixed_overlap_matrix(basis: BlockBasis, U: np.ndarray) -> np.ndarray:
    """Overlaps <m| pi(U) |l> of the normalized non-orthogonal vectors."""
    ms = list(basis.mvectors)
    W = pairing_matrix(basis.lam, basis.d, U, ms, ms)
    return W / np.outer(basis.norms, basis.norms)


def _block_operator(basis: BlockBasis, M: np.ndarray) -> BlockOperator:
    """The block operator with overlaps M, in orthonormal coordinates."""
    mat = basis.inv_sqrt_gram @ M @ basis.inv_sqrt_gram
    colnorms = np.linalg.norm(mat, axis=0) ** 2
    defect = float(max(0.0, 1.0 - colnorms.min()))
    return BlockOperator(basis.lam, mat, defect)


def block_unitary(basis: BlockBasis, U: np.ndarray) -> BlockOperator:
    """Representation matrix of the d x d unitary U on the truncated block, in
    orthonormal coordinates; columns lose norm where the true image leaks
    outside the truncated basis."""
    return _block_operator(basis, mixed_overlap_matrix(basis, U))


def block_unitaries(bases: list[BlockBasis], U: np.ndarray) -> list[BlockOperator]:
    """block_unitary of every basis, from one transfer at U."""
    sides = [(list(b.mvectors), list(b.mvectors)) for b in bases]
    Ws = pairing_matrices([b.lam for b in bases], len(U), U, sides)
    return [_block_operator(b, W / np.outer(b.norms, b.norms)) for b, W in zip(bases, Ws)]
