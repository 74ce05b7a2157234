"""Young diagram and tableau combinatorics.

Diagrams are tuples of non-increasing positive integers (trailing zeros
stripped).  Basis labels are "m-vectors": occupation counts m[i,j] of entry j
in row i (1 <= i < j <= d), stored as flat tuples aligned with `pairs(d)`.
Tableaux themselves, their orbits and gamma counts live in `qlan.oracle`.
"""

from __future__ import annotations

import math
from functools import cache
from typing import Iterator

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


@cache
def pairs(d: int) -> tuple[tuple[int, int], ...]:
    """Index pairs (i, j), i < j, in lexicographic order; shared by m-vectors
    and Fock modes."""
    return tuple((i, j) for i in range(1, d) for j in range(i + 1, d + 1))


def enumerate_diagrams(n: int, d: int) -> list[Diagram]:
    """All partitions of n into at most d parts, descending lexicographic."""
    if n <= 0 or d < 2:
        raise ValueError(f"need n >= 1 and d >= 2, got n={n}, d={d}")

    def rec(rest: int, maxpart: int, nparts: int) -> Iterator[tuple[int, ...]]:
        if rest == 0:
            yield ()
            return
        # the nparts rows left, each at most first, must hold rest
        for first in range(min(rest, maxpart), -(-rest // nparts) - 1, -1):
            for tail in rec(rest - first, first, nparts - 1):
                yield (first, *tail)

    return sorted(rec(n, n, d), reverse=True)


def dim_irrep(lam: Diagram, d: int) -> int:
    """Dimension of the irreducible SU(d) block, by Weyl's formula
    prod_{i<j} (lambda_i - lambda_j + j - i) / (j - i), exact."""
    lam = check_diagram(lam, d)
    num = math.prod(row(lam, i) - row(lam, j) + j - i for i, j in pairs(d))
    return num // math.prod(j - i for i, j in pairs(d))


def multiplicity(lam: Diagram, n: int, d: int) -> int:
    """Dimension of the S(n) multiplicity space, by Frobenius' form of
    n! / prod of hooks: n! prod_{i<j} (l_i - l_j) / prod_i l_i!, with
    l_i = lambda_i + d - i."""
    lam = check_diagram(lam, d)
    if sum(lam) != n:
        raise ValueError(f"{lam} is not a partition of {n}")
    ls = [row(lam, i) + d - i for i in range(1, d + 1)]
    num = math.factorial(n) * math.prod(ls[i - 1] - ls[j - 1] for i, j in pairs(d))
    out, rest = divmod(num, math.prod(math.factorial(li) for li in ls))
    assert rest == 0
    return out


def row_loads(m: MVector, d: int) -> tuple[int, ...]:
    """Number of off-diagonal entries sum_j m[i,j] carried by each row i."""
    loads = [0] * d
    for (i, _j), cnt in zip(pairs(d), m):
        loads[i - 1] += cnt
    return tuple(loads)


def total_multiplicities(lam: Diagram, m: MVector, d: int) -> tuple[int, ...]:
    """Total count of each entry value 1..d in the canonical filling."""
    loads = row_loads(m, d)
    totals = [row(lam, i) - loads[i - 1] for i in range(1, d + 1)]
    for (i, j), cnt in zip(pairs(d), m):
        totals[j - 1] += cnt
    return tuple(totals)


def enumerate_m_vectors(
    lam: Diagram, d: int, max_weight: int | None = None
) -> list[MVector]:
    """All m-vectors whose canonical filling is semistandard, optionally
    restricted to total weight |m| <= max_weight; full count equals
    dim_irrep(lam, d).

    Walks Gelfand-Tsetlin patterns: with lambda^(k)_i the number of entries
    <= k in row i (lambda^(d) = lam), the filling is semistandard iff each
    lambda^(k-1) interlaces lambda^(k), lambda^(k)_i >= lambda^(k-1)_i >=
    lambda^(k)_(i+1), and then m[i,k] = lambda^(k)_i - lambda^(k-1)_i.  The
    rows of lambda^(d-1), ..., lambda^(1) are chosen in turn, each within
    those bounds and the weight left, so every branch ends in an m-vector."""
    lam = check_diagram(lam, d)
    slot = {p: k for k, p in enumerate(pairs(d))}
    m = [0] * len(slot)
    out: list[MVector] = []

    def rec(upper: tuple[int, ...], lower: list[int], left: int) -> None:
        # choose row i of lambda^(k-1) below lambda^(k) = upper, k = len(upper)
        k, i = len(upper), len(lower)
        if k == 2:
            # the last entry, m[1,2], is the first of the flat m-vector
            rest = tuple(m[1:])
            out.extend((c,) + rest for c in range(min(upper[0] - upper[1], left) + 1))
            return
        if i == k - 1:
            rec(tuple(lower), [], left)
            return
        top = upper[i]
        for v in range(top, max(upper[i + 1], top - left) - 1, -1):
            m[slot[i + 1, k]] = top - v
            lower.append(v)
            rec(upper, lower, left - (top - v))
            lower.pop()

    rows = tuple(row(lam, i) for i in range(1, d + 1))
    rec(rows, [], sum(lam) if max_weight is None else max_weight)
    return sorted(out)
