"""Young diagram and tableau combinatorics.

Diagrams are tuples of non-increasing positive integers (trailing zeros
stripped).  Basis labels are "m-vectors": occupation counts m[i,j] of entry j
in row i (1 <= i < j <= d), aligned with `pairs(d)`, stored as the rows of
one integer array for a list of diagrams (`m_vector_rows`).  The flat-tuple
form of one diagram's m-vectors (`enumerate_m_vectors`), tableaux
themselves, their orbits and gamma counts live in `qlan.oracle`.
"""

from __future__ import annotations

import math
from functools import cache
from itertools import accumulate
from typing import Iterator

import numpy as np

Diagram = tuple[int, ...]
MVector = tuple[int, ...]


def check_diagram(lam: Diagram, d: int | None = None) -> Diagram:
    rows = list(lam)
    while rows and rows[-1] == 0:
        rows.pop()
    if any(x != int(x) or x <= 0 for x in rows):
        raise ValueError(f"rows must be positive integers before the trailing zeros: {lam}")
    lam = tuple(int(x) for x in rows)
    if any(lam[i] < lam[i + 1] for i in range(len(lam) - 1)):
        raise ValueError(f"rows must be non-increasing: {lam}")
    if d is not None and len(lam) > d:
        raise ValueError(f"{lam} has more than {d} rows")
    return lam


def row(lam: Diagram, i: int) -> int:
    """Row length lambda_i (1-based), zero past the last row."""
    return lam[i - 1] if i <= len(lam) else 0


def row_array(lams: list[Diagram], d: int) -> np.ndarray:
    """The rows lambda_1..lambda_d of each diagram in lams, zero past its
    last row, as the rows of an int32 array."""
    return np.array([[row(lam, i) for i in range(1, d + 1)] for lam in lams],
                    dtype=np.int32).reshape(len(lams), d)


@cache
def pairs(d: int) -> tuple[tuple[int, int], ...]:
    """Index pairs (i, j), i < j, in lexicographic order; shared by m-vectors
    and Fock modes."""
    return tuple((i, j) for i in range(1, d) for j in range(i + 1, d + 1))


def enumerate_diagrams(
    n: int, d: int, lo: list[int] | None = None, hi: list[int] | None = None
) -> list[Diagram]:
    """All partitions of n into at most d parts, in the descending
    lexicographic order the recursion yields them; with per-row bounds, only
    those whose every row lambda_i (zero past the last row) has
    lo[i-1] <= lambda_i <= hi[i-1], walking no row outside its bounds."""
    if n <= 0 or d < 2:
        raise ValueError(f"need n >= 1 and d >= 2, got n={n}, d={d}")
    lo = [0] * d if lo is None else lo
    hi = [n] * d if hi is None else hi

    def rec(i: int, rest: int, maxpart: int) -> Iterator[tuple[int, ...]]:
        if i == d:
            if rest == 0:
                yield ()
            return
        # the d - i rows left, each at most first, must hold rest
        for first in range(min(rest, maxpart, hi[i]), max(-(-rest // (d - i)), lo[i]) - 1, -1):
            for tail in rec(i + 1, rest - first, first):
                # a zero row is followed by zero rows only, which are stripped
                yield (first, *tail) if first else tail

    return list(rec(0, n, n))


def dim_irrep(lam: Diagram, d: int) -> int:
    """Dimension of the irreducible SU(d) block, by Weyl's formula
    prod_{i<j} (lambda_i - lambda_j + j - i) / (j - i), exact."""
    lam = check_diagram(lam, d)
    num = math.prod(row(lam, i) - row(lam, j) + j - i for i, j in pairs(d))
    return num // math.prod(j - i for i, j in pairs(d))


def multiplicities(lams: list[Diagram], n: int, d: int) -> list[int]:
    """Dimension of the S(n) multiplicity space of each diagram of n (as
    check_diagram returns them), by Frobenius' form of n! / prod of hooks:
    n! prod_{i<j} (l_i - l_j) / prod_i l_i!, with l_i = lambda_i + d - i.
    The l_i sum to n + D, D = d(d-1)/2, so that is prod_{i<j} (l_i - l_j)
    prod_k C(l_1 + ... + l_k, l_k) / ((n+1)...(n+D)): no factorials."""
    rising = math.prod(range(n + 1, n + len(pairs(d)) + 1))
    out = []
    for lam in lams:
        ls = [row(lam, i) + d - i for i in range(1, d + 1)]
        num = math.prod(ls[i - 1] - ls[j - 1] for i, j in pairs(d))
        num *= math.prod(math.comb(top, li) for top, li in zip(accumulate(ls), ls))
        mult, rest = divmod(num, rising)
        assert rest == 0
        out.append(mult)
    return out


def m_vector_rows(
    lams: list[Diagram], d: int, max_weight: int | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """The m-vectors of every diagram in lams (as check_diagram returns
    them), from one walk: the index into lams that owns each row, and the
    m-vectors as the rows of an integer array.  Each diagram's rows are
    contiguous, in the order of lams, and in lexicographic order; they are
    those whose canonical filling is semistandard, restricted to total
    weight |m| <= max_weight if given (all dim_irrep(lam, d) of them if
    not).

    Walks Gelfand-Tsetlin patterns: with lambda^(k)_i the number of entries
    <= k in row i (lambda^(d) = lam), the filling is semistandard iff each
    lambda^(k-1) interlaces lambda^(k), lambda^(k)_i >= lambda^(k-1)_i >=
    lambda^(k)_(i+1), and then m[i,k] = lambda^(k)_i - lambda^(k-1)_i.  Each
    of the d(d-1)/2 steps chooses one entry of lambda^(d-1), ..., lambda^(1)
    for every partial pattern at once, within those bounds and the weight
    left, so every branch ends in an m-vector.  Row i of a pattern is
    overwritten in place: step i still reads lambda^(k)_(i+1)."""
    slot = {p: k for k, p in enumerate(pairs(d))}
    # int32 halves the walk's memory; an m-vector entry is at most n
    owner = np.arange(len(lams), dtype=np.int32)
    pattern = row_array(lams, d)
    # no m-vector of lam weighs more than |lam|
    left = np.array([sum(lam) if max_weight is None else min(max_weight, sum(lam))
                     for lam in lams], dtype=np.int32)
    M = np.zeros((len(lams), len(slot)), dtype=np.int32)
    for k in range(d, 1, -1):
        for i in range(k - 1):
            # m[i+1,k] = c for c = 0..min(lambda^(k)_i - lambda^(k)_(i+1), left)
            count = np.maximum(np.minimum(pattern[:, i] - pattern[:, i + 1], left) + 1, 0)
            parent = np.repeat(np.arange(len(owner), dtype=np.int32), count)
            c = np.arange(len(parent), dtype=np.int32)
            c -= np.repeat(np.cumsum(count, dtype=np.int32) - count, count)
            owner, pattern, left, M = owner[parent], pattern[parent], left[parent], M[parent]
            left -= c
            pattern[:, i] -= c
            M[:, slot[i + 1, k]] = c
    if len(slot) == 1:
        # one step: each diagram's rows already come in increasing order
        return owner, M
    order = np.lexsort((*M.T[::-1], owner))
    return owner[order], M[order]


def m_vector_weights(
    lams: list[Diagram], d: int, owner: np.ndarray, ms: np.ndarray
) -> np.ndarray:
    """The weight of each m-vector row of ms on the diagram lams[owner[row]]
    (the rows of m_vector_rows), as the rows of an integer array: the count
    of each entry 1..d in the canonical filling, lambda_v less each m[v,j]
    plus each m[i,v]."""
    shift = [[(v == j) - (v == i) for v in range(1, d + 1)] for i, j in pairs(d)]
    weights = ms.reshape(len(owner), len(shift)) @ np.array(shift, dtype=ms.dtype)
    weights += row_array(lams, d)[owner]
    return weights

