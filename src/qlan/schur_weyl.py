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

`pairing_matrices` evaluates this product, per diagram, on one flat complex
vector S over the positions a * |simplex| + b, with a and b running over
the exponent vectors at most the largest requested m (per pair and in total
weight).  Each term of P is a gather and scatter between flat positions,
built from one shift map per side; the simplex and its shift maps depend
only on the caps, so they are cached and shared, read-only, by a block's
Gram and rotation pairings and by every block with the same caps.  A
simplex pair of more than MAX_TRANSFER_ENTRIES positions is refused before
anything is allocated.

Every class is stepped, S <- v0 S + P S, one column at a time.  A step
multiplies by the factor itself, so no terms cancel; the expanded sum of
C(ncols, K) v0^(ncols-K) P^K S over K loses up to 1e-6 at a Haar-random U
and n=256 at d=2, and 1.6e-14 of the largest entry at d=3 and lambda =
(300, 200, 20), where steps lose 2e-15.  A class with no modifiers (P = 0:
the full-length class) is the scalar v0^ncols, one product, not ncols
steps.  The first non-empty
class acts on the unit vector e0 (S before any class), so (v0 + P)^ncols e0
depends on U, the class length, the simplex and ncols, and on lambda
through ncols alone.  `pairing_matrices` therefore pairs a list of
diagrams at one U (all blocks of a sweep point share the local unitary)
and steps that class once on the union simplex, whose caps are the largest
of the list, each block reading S at its own simplex after its own ncols
steps.  Its simplex is down-closed in the union (bricks only raise
exponents), so nothing outside it feeds into it.  A block's remaining
classes act on its own vector, on its own simplex.  Each entry sees the
operations of a block on its own, in the same order, and every
scalar-array product is an explicit `np.multiply(scalar, array)`, whose
operand order numpy keeps at every size, so a block gets the same bits
alone or in any batch.

The references this module is checked against, orbit sums by enumeration
and Young symmetrizers on the full tensor space, live in `qlan.oracle`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache
from itertools import permutations, product

import numpy as np

from .errors import NearSingularGramError, ResourceLimitError
from . import tableaux as tb

# complex entries of the largest simplex pair, a block's or a shared union's,
# that a transfer may allocate (one such vector is 256 MiB, and a transfer
# holds several); experiments.MAX_FOCK_DIM keeps the CLI's pairs at 2**20, so
# this guards library callers that pass a larger max_weight
MAX_TRANSFER_ENTRIES = 2**24

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


def _class_terms(length: int, U: np.ndarray, bounds):
    """v0 = det U[1..L, 1..L] and P for the columns of length L, d = len(U),
    as a list of (source, destination, value) over the flat positions
    a * ns + b, ns the size of the simplex of `bounds`: P S adds
    val * S[a, b] at [a + va, b + vb]."""
    d = len(U)
    npairs = len(tb.pairs(d))
    ns = len(_simplex(*bounds))
    v0 = complex(small_det([[U[i, j] for j in range(length)] for i in range(length)]))
    idcol = tuple(range(1, length + 1))
    columns = [(tuple([0] * npairs), idcol)] + [
        (_brick_vector(bricks, d), entries) for bricks, entries in column_modifiers(length, d)
    ]
    terms = []
    for va, ea in columns:
        src_a, dst_a = _shift_map(*bounds, va)
        if not src_a.size:
            continue
        for vb, eb in columns:
            if not (any(va) or any(vb)):
                continue
            src_b, dst_b = _shift_map(*bounds, vb)
            if not src_b.size:
                continue
            val = complex(small_det([[U[i - 1, j - 1] for j in eb] for i in ea]))
            if val != 0:
                src = (src_a[:, None] * ns + src_b).ravel()
                dst = (dst_a[:, None] * ns + dst_b).ravel()
                terms.append((src, dst, val))
    return v0, terms


def _step_class(S, length: int, U: np.ndarray, bounds, reads) -> list[np.ndarray]:
    """(v0 + P)^ncols S for the columns of length L on the simplex pair of
    `bounds`, for each (ncols, pos) of `reads` in increasing ncols: S steps
    to v0 S + P S once per column, and after ncols steps is read at the flat
    positions pos (None: all of them).  A step never changes S in place, so
    a read shares nothing that a later step writes.  A term's destinations
    are distinct, so `np.add.at` adds exactly what `nxt[dst] += ...` would,
    without the gathered copy of nxt[dst].  Without terms (P = 0) each read
    is the one product v0^ncols S."""
    v0, terms = _class_terms(length, U, bounds)
    if not terms:
        return [np.multiply(v0**ncols, S if pos is None else S[pos]) for ncols, pos in reads]
    outs, steps = [], 0
    for ncols, pos in reads:
        for _ in range(steps, ncols):
            # np.multiply(scalar, array) keeps its operand order at every size
            nxt = np.multiply(v0, S)
            for src, dst, val in terms:
                np.add.at(nxt, dst, np.multiply(val, S[src]))
            S = nxt
        steps = ncols
        outs.append(S if pos is None else S[pos])
    return outs


def _union(bounds):
    """The smallest (caps, wcap) whose simplex holds every given simplex."""
    caps, wcaps = zip(*bounds)
    return tuple(map(max, zip(*caps))), max(wcaps)


def _restriction(union, bounds):
    """Flat positions of the simplex pair of `bounds` inside that of
    `union`, or None when they coincide."""
    if bounds == union:
        return None
    pos = _positions(*union, _simplex(*bounds))
    return (pos[:, None] * len(_simplex(*union)) + pos).ravel()


def _check_size(what: str, bounds) -> None:
    """Refuse a transfer on a simplex pair of more than MAX_TRANSFER_ENTRIES."""
    entries = len(_simplex(*bounds)) ** 2
    if entries > MAX_TRANSFER_ENTRIES:
        raise ResourceLimitError(
            f"{what} needs {entries:,} complex entries, "
            f"more than {MAX_TRANSFER_ENTRIES:,}; lower n or the basis cutoff"
        )


def pairing_matrices(
    lams: list[tb.Diagram],
    U: np.ndarray,
    mss: list[list[tb.MVector] | np.ndarray],
) -> list[np.ndarray]:
    """For every i, the matrix of orbit sums W(m, l; U) for m, l in mss[i]
    (tuples, or the rows of an array) on the diagram lams[i], of at most
    d = len(U) rows: the coefficients of prod over L of (v0_L + P_L)^ncols
    described in the module docstring, truncated to the exponents that
    mss[i] can reach.

    A diagram's first non-empty column class acts on the unit vector e0, so
    (v0 + P)^ncols e0 depends on U, the class length, the simplex and ncols
    only.  The diagrams whose first class has the same length, in
    increasing ncols, share one sequence of steps S <- v0 S + P S on the
    union of their simplices; each copies S at its own simplex (down-closed
    in the union, and bricks only raise exponents, so the rest of the union
    never feeds into it) once the steps reach its ncols.  The remaining
    classes step per diagram on its own simplex.  A diagram whose simplex
    pair, or a union whose pair, has more than MAX_TRANSFER_ENTRIES
    positions raises ResourceLimitError before any transfer runs."""
    d = len(U)
    npairs = len(tb.pairs(d))
    lams = [tb.check_diagram(lam, d) for lam in lams]
    bounds, rows, classes, groups = [], [], [], {}
    for i, (lam, ms) in enumerate(zip(lams, mss)):
        # the m-vectors as rows, their per-pair caps and total-weight cap
        M = np.array(ms, dtype=np.intp).reshape(len(ms), npairs)
        caps = tuple(int(c) for c in M.max(axis=0, initial=0))
        wcap = int(M.sum(axis=1).max(initial=0))
        _check_size(f"the pairing transfer of {lam}", (caps, wcap))
        bounds.append((caps, wcap))
        rows.append(M)
        ncols = [tb.row(lam, L) - tb.row(lam, L + 1) for L in range(1, d + 1)]
        # (length, ncols) per class; the empty diagram gets one class of no
        # columns, which leaves S = e0
        classes.append([(L, nc) for L, nc in enumerate(ncols, 1) if nc > 0] or [(1, 0)])
        groups.setdefault(classes[i][0][0], []).append(i)

    unions = [_union([bounds[i] for i in members]) for members in groups.values()]
    for members, union in zip(groups.values(), unions):
        # at d >= 3 a union can be larger than each of its simplices
        names = ", ".join(str(lams[i]) for i in members)
        _check_size(f"the shared pairing transfer of {names}", union)
    S = {}
    for (length, members), union in zip(groups.items(), unions):
        e0 = np.zeros(len(_simplex(*union)) ** 2, dtype=complex)
        e0[0] = 1.0
        members.sort(key=lambda i: classes[i][0][1])
        reads = [(classes[i][0][1], _restriction(union, bounds[i])) for i in members]
        S.update(zip(members, _step_class(e0, length, U, union, reads)))
        del e0  # the remaining classes run without it

    out = []
    for i, (own, M) in enumerate(zip(bounds, rows)):
        for length, ncols in classes[i][1:]:
            (S[i],) = _step_class(S[i], length, U, own, [(ncols, None)])
        pos = _positions(*own, M)
        out.append(S[i].reshape(-1, len(_simplex(*own)))[np.ix_(pos, pos)])
    return out


# ---------------------------------------------------------------------------
# block basis, Gram matrix, block operators


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

    `mvectors` is the read-only slice of the tb.m_vector_rows walk that
    labels the basis, in its lexicographic order, so the zero m-vector (the
    lowest-weight vector) is row 0.  Coordinates used everywhere downstream
    are the symmetrically orthonormalized ones: the vector labelled by row k
    has coordinates sqrt_gram[:, k].  `norms` holds sqrt(W(m, m; I)), which
    turns orbit sums into overlaps of the normalized vectors.

    Vectors of different total multiplicities (weights) are orthogonal, so
    gram, and with it sqrt_gram and inv_sqrt_gram, are block-diagonal over
    the weight classes: each class spans exactly the coordinates of its own
    m-vectors, on which a function of the weight is diagonal.
    """

    lam: tb.Diagram
    d: int
    mvectors: np.ndarray
    gram: np.ndarray
    inv_sqrt_gram: np.ndarray
    sqrt_gram: np.ndarray
    norms: np.ndarray

    @property
    def size(self) -> int:
        return len(self.mvectors)

    @property
    def lowest_weight(self) -> np.ndarray:
        """Orthonormal coordinates of the lowest-weight vector, as complex."""
        return self.sqrt_gram[:, 0].astype(complex)


def block_bases(lams: list[tb.Diagram], d: int, max_weight: int) -> list[BlockBasis]:
    """The basis of every diagram, truncated to total weight |m| <=
    max_weight, from one identity transfer."""
    lams = [tb.check_diagram(lam, d) for lam in lams]
    owner, ms = tb.m_vector_rows(lams, d, max_weight)
    ms.flags.writeable = False
    mss = np.split(ms, np.searchsorted(owner, np.arange(1, len(lams))))
    out = []
    for lam, ms, W in zip(lams, mss, pairing_matrices(lams, np.eye(d), mss)):
        G, norms = _gram_and_norms(W)
        sqrt, inv_sqrt = orthonormalize(G)
        out.append(BlockBasis(lam, d, ms, G, inv_sqrt, sqrt, norms))
    return out


@dataclass(frozen=True)
class BlockOperator:
    """A normalized block state in the orthonormal coordinates of a
    BlockBasis, with the mass lost to basis truncation."""

    matrix: np.ndarray
    truncation_defect: float


def block_unitaries(bases: list[BlockBasis], U: np.ndarray) -> list[np.ndarray]:
    """Representation matrix of the d x d unitary U on every truncated
    block, in orthonormal coordinates, from one transfer at U: the overlaps
    <m| pi(U) |l> of the normalized vectors between two inverse square
    roots of the Gram matrix.  Columns lose norm where the true image leaks
    outside the truncated basis."""
    Ws = pairing_matrices([b.lam for b in bases], U, [b.mvectors for b in bases])
    return [
        b.inv_sqrt_gram @ (W / np.outer(b.norms, b.norms)) @ b.inv_sqrt_gram
        for b, W in zip(bases, Ws)
    ]
