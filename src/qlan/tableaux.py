"""Young diagram and tableau combinatorics.

Diagrams are tuples of non-increasing positive integers (trailing zeros
stripped).  Basis labels are "m-vectors": occupation counts m[i,j] of entry j
in row i (1 <= i < j <= d), stored as flat tuples aligned with `pairs(d)`.
Tableaux themselves, their orbits and gamma counts live in `qlan.oracle`.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cache
from typing import Iterator

Diagram = tuple[int, ...]
MVector = tuple[int, ...]


def check_diagram(lam: Diagram, d: int | None = None) -> Diagram:
    lam = tuple(int(x) for x in lam if x != 0)
    if any(x < 0 for x in lam):
        raise ValueError(f"negative row in {lam}")
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
        if nparts == 0:
            return
        for first in range(min(rest, maxpart), 0, -1):
            for tail in rec(rest - first, first, nparts - 1):
                yield (first, *tail)

    return sorted(rec(n, n, d), reverse=True)


def hook_length(lam: Diagram, i: int, j: int) -> int:
    """1 + boxes below + boxes to the right of box (i, j), 1-based."""
    lam = check_diagram(lam)
    if not (1 <= i <= len(lam) and 1 <= j <= lam[i - 1]):
        raise ValueError(f"box ({i},{j}) outside {lam}")
    below = sum(1 for r in range(i, len(lam)) if lam[r] >= j)
    right = lam[i - 1] - j
    return 1 + below + right


def dim_irrep(lam: Diagram, d: int) -> int:
    """Dimension of the irreducible SU(d) block: prod over boxes of
    (j + d - i) / hook(i, j), exact."""
    lam = check_diagram(lam, d)
    out = Fraction(1)
    for i in range(1, len(lam) + 1):
        for j in range(1, lam[i - 1] + 1):
            out *= Fraction(j + d - i, hook_length(lam, i, j))
    assert out.denominator == 1
    return out.numerator


def multiplicity(lam: Diagram, n: int, d: int) -> int:
    """Dimension of the S(n) multiplicity space: n! / prod of hooks, exact."""
    lam = check_diagram(lam, d)
    if sum(lam) != n:
        raise ValueError(f"{lam} is not a partition of {n}")
    out = Fraction(math.factorial(n))
    for i in range(1, len(lam) + 1):
        for j in range(1, lam[i - 1] + 1):
            out /= hook_length(lam, i, j)
    assert out.denominator == 1
    return out.numerator


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


def _columns_strict(lam: Diagram, m: MVector, d: int) -> bool:
    """True iff the columns of the canonical filling of m strictly increase
    (its rows are sorted by construction).  For sorted rows that holds iff,
    for each row i and value v, row i+1 has no more entries <= v than row i
    has entries < v; m must respect the row capacities."""
    # counts[i][v]: copies of entry v + 1 in row i + 1
    counts = [[0] * d for _ in range(d)]
    for (i, j), cnt in zip(pairs(d), m):
        counts[i - 1][j - 1] = cnt
    for i, load in enumerate(row_loads(m, d)):
        counts[i][i] = row(lam, i + 1) - load
    for i in range(d - 1):
        upper = lower = 0
        for v in range(i + 1, d):
            upper += counts[i][v - 1]
            lower += counts[i + 1][v]
            if lower > upper:
                return False
    return True


def enumerate_m_vectors(
    lam: Diagram, d: int, max_weight: int | None = None
) -> list[MVector]:
    """All m-vectors whose canonical filling is semistandard, optionally
    restricted to total weight |m| <= max_weight; full count equals
    dim_irrep(lam, d)."""
    lam = check_diagram(lam, d)
    ps = pairs(d)
    out: list[MVector] = []

    def rec(k: int, partial: list[int], loads: list[int], weight: int) -> None:
        if k == len(ps):
            m = tuple(partial)
            if _columns_strict(lam, m, d):
                out.append(m)
            return
        i, _j = ps[k]
        cap = row(lam, i) - loads[i - 1]
        if max_weight is not None:
            cap = min(cap, max_weight - weight)
        for cnt in range(cap + 1):
            partial.append(cnt)
            loads[i - 1] += cnt
            rec(k + 1, partial, loads, weight + cnt)
            loads[i - 1] -= cnt
            partial.pop()

    rec(0, [], [0] * d, 0)
    return sorted(out)


def is_typical(lam: Diagram, n: int, mu: tuple[float, ...], alpha: float) -> bool:
    """True iff every row satisfies |lambda_i - n mu_i| <= n^alpha."""
    d = len(mu)
    bound = n**alpha
    return all(abs(row(lam, i) - n * mu[i - 1]) <= bound for i in range(1, d + 1))
