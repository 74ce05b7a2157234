"""Young diagram and tableau combinatorics.

Diagrams are tuples of non-increasing positive integers (trailing zeros
stripped).  Basis labels are "m-vectors": occupation counts m[i,j] of entry j
in row i (1 <= i < j <= d), stored as flat tuples aligned with `pairs(d)`.
Tableaux are tuples of row tuples, entries in 1..d.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cache
from itertools import product
from typing import Iterator

from .errors import ResourceLimitError

DEFAULT_ORBIT_BUDGET = 10**7

Diagram = tuple[int, ...]
MVector = tuple[int, ...]
Tableau = tuple[tuple[int, ...], ...]


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


def multiplicity_product_form(lam: Diagram, n: int, d: int) -> int:
    """Same dimension via the multinomial * spacing-ratio product."""
    lam = check_diagram(lam, d)
    if sum(lam) != n:
        raise ValueError(f"{lam} is not a partition of {n}")
    rows = [row(lam, i) for i in range(1, d + 1)]
    out = Fraction(math.factorial(n))
    for lk in rows:
        out /= math.factorial(lk)
    for l in range(d):
        for k in range(l + 1, d):
            out *= Fraction(rows[l] - rows[k] + k - l, rows[l] + k - l)
    assert out.denominator == 1
    return out.numerator


def row_loads(m: MVector, d: int) -> tuple[int, ...]:
    """Number of off-diagonal entries sum_j m[i,j] carried by each row i."""
    loads = [0] * d
    for (i, _j), cnt in zip(pairs(d), m):
        loads[i - 1] += cnt
    return tuple(loads)


def canonical_tableau(lam: Diagram, m: MVector, d: int) -> Tableau:
    """Row-sorted filling: row i holds (lambda_i - load_i) copies of i followed
    by m[i,j] copies of each j > i in increasing order."""
    lam = check_diagram(lam, d)
    loads = row_loads(m, d)
    rows = []
    for i in range(1, len(lam) + 1):
        li = lam[i - 1]
        if loads[i - 1] > li:
            raise ValueError(f"row {i} capacity {li} exceeded by m={m}")
        entries = [i] * (li - loads[i - 1])
        for (a, b), cnt in zip(pairs(d), m):
            if a == i:
                entries.extend([b] * cnt)
        rows.append(tuple(entries))
    return tuple(rows)


def total_multiplicities(lam: Diagram, m: MVector, d: int) -> tuple[int, ...]:
    """Total count of each entry value 1..d in the canonical filling."""
    loads = row_loads(m, d)
    totals = [row(lam, i) - loads[i - 1] for i in range(1, d + 1)]
    for (i, j), cnt in zip(pairs(d), m):
        totals[j - 1] += cnt
    return tuple(totals)


def columns_of(t: Tableau) -> list[tuple[int, ...]]:
    ncols = len(t[0]) if t else 0
    return [tuple(r[c] for r in t if c < len(r)) for c in range(ncols)]


def is_semistandard(t: Tableau) -> bool:
    """Rows non-decreasing, columns strictly increasing."""
    for trow in t:
        if any(trow[k] > trow[k + 1] for k in range(len(trow) - 1)):
            return False
    for col in columns_of(t):
        if any(col[k] >= col[k + 1] for k in range(len(col) - 1)):
            return False
    return True


def is_admissible(t: Tableau) -> bool:
    """No column carries a repeated entry."""
    return all(len(set(col)) == len(col) for col in columns_of(t))


def fits(lam: Diagram, m: MVector, d: int) -> bool:
    """True iff the canonical filling of m is a semistandard tableau."""
    loads = row_loads(m, d)
    for i in range(1, d + 1):
        if loads[i - 1] > row(lam, i):
            return False
        if row(lam, i) > 0 and i > len(check_diagram(lam, d)):
            return False
    if any(loads[i - 1] > 0 and row(lam, i) == 0 for i in range(1, d + 1)):
        return False
    return is_semistandard(canonical_tableau(lam, m, d))


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


def orbit_size(lam: Diagram, m: MVector, d: int) -> int:
    """Number of row rearrangements of the canonical filling: product of
    per-row multinomials."""
    t = canonical_tableau(lam, m, d)
    size = 1
    for trow in t:
        size *= math.factorial(len(trow))
        for v in set(trow):
            size //= math.factorial(trow.count(v))
    return size


def multiset_permutations(items) -> Iterator[tuple]:
    """Distinct orderings of items in lexicographic order (next-permutation
    steps from the sorted sequence)."""
    a = sorted(items)
    while True:
        yield tuple(a)
        i = len(a) - 2
        while i >= 0 and a[i] >= a[i + 1]:
            i -= 1
        if i < 0:
            return
        j = len(a) - 1
        while a[j] <= a[i]:
            j -= 1
        a[i], a[j] = a[j], a[i]
        a[i + 1 :] = reversed(a[i + 1 :])


def orbit(
    lam: Diagram,
    m: MVector,
    d: int,
    admissible_only: bool = False,
    budget: int | None = DEFAULT_ORBIT_BUDGET,
) -> Iterator[Tableau]:
    """All tableaux obtained by permuting entries within rows of the canonical
    filling of m, optionally filtered to admissible ones."""
    t = canonical_tableau(lam, m, d)
    size = orbit_size(lam, m, d)
    if budget is not None and size > budget:
        raise ResourceLimitError(f"orbit size {size} exceeds budget {budget}")
    row_choices = [list(multiset_permutations(trow)) for trow in t]
    for rows in product(*row_choices):
        if admissible_only and not is_admissible(rows):
            continue
        yield rows


def gamma(t: Tableau) -> int:
    """Excess-brick count: (entries off their row index) minus (modified
    columns); zero iff every modified column is a single substitution."""
    if not is_admissible(t):
        raise ValueError("gamma is defined for admissible tableaux only")
    bricks = sum(
        1 for i, trow in enumerate(t, start=1) for e in trow if e != i
    )
    modified = sum(
        1
        for c, col in enumerate(columns_of(t))
        if any(col[i] != i + 1 for i in range(len(col)))
    )
    return bricks - modified


def count_gamma0(
    lam: Diagram,
    m: MVector,
    d: int,
    budget: int | None = DEFAULT_ORBIT_BUDGET,
) -> int:
    """Number of admissible tableaux in the orbit of m with gamma = 0."""
    return sum(
        1
        for t in orbit(lam, m, d, admissible_only=True, budget=budget)
        if gamma(t) == 0
    )


def gamma0_bounds(lam: Diagram, m: MVector, d: int) -> tuple[float, float]:
    """Lower/upper bounds on count_gamma0: products over bricks (i, j) of
    ((lambda_i - lambda_j - |m|)_+)^m_ij / m_ij! and
    (lambda_i - lambda_j)^m_ij / m_ij!."""
    w = sum(m)
    lo = hi = 1.0
    for (i, j), cnt in zip(pairs(d), m):
        gap = row(lam, i) - row(lam, j)
        lo *= max(gap - w, 0) ** cnt / math.factorial(cnt)
        hi *= gap**cnt / math.factorial(cnt)
    return lo, hi


def is_typical(lam: Diagram, n: int, mu: tuple[float, ...], alpha: float) -> bool:
    """True iff every row satisfies |lambda_i - n mu_i| <= n^alpha."""
    d = len(mu)
    bound = n**alpha
    return all(abs(row(lam, i) - n * mu[i - 1]) <= bound for i in range(1, d + 1))
