"""Reference constructions the production path is checked against, read
only by the tests and the `formdet` lemma verifier (which checks the block
bases and the pairing transfer against the Young-symmetrizer images of
the canonical fillings): one diagram's m-vectors as tuples, tableaux
(tuples of row tuples, entries in 1..d) and their orbits, orbit sums by
explicit enumeration, explicit Young symmetrizers on the full tensor space,
the hook formulas, and direct forms of the model and of its Gaussian
limit."""

from __future__ import annotations

import math
from itertools import product
from typing import Iterator

import numpy as np

from . import models as md
from . import schur_weyl as sw
from . import tableaux as tb
from .errors import ResourceLimitError
from .gaussian import FockSpec, tensor_modes, weyl

# Largest number of tableaux (or tableau pairs) an orbit enumeration visits.
DEFAULT_ORBIT_BUDGET = 10**7

Tableau = tuple[tuple[int, ...], ...]


# ---------------------------------------------------------------------------
# tableaux and orbits


def hook_length(lam: tb.Diagram, i: int, j: int) -> int:
    """1 + boxes below + boxes to the right of box (i, j), 1-based."""
    lam = tb.check_diagram(lam)
    if not (1 <= i <= len(lam) and 1 <= j <= lam[i - 1]):
        raise ValueError(f"box ({i},{j}) outside {lam}")
    below = sum(1 for r in range(i, len(lam)) if lam[r] >= j)
    return 1 + below + lam[i - 1] - j


def _boxes(lam: tb.Diagram) -> list[tuple[int, int]]:
    return [(i, j) for i in range(1, len(lam) + 1) for j in range(1, lam[i - 1] + 1)]


def _hook_product(lam: tb.Diagram) -> int:
    return math.prod(hook_length(lam, i, j) for i, j in _boxes(lam))


def dim_irrep_hooks(lam: tb.Diagram, d: int) -> int:
    """The hook-content formula: prod over boxes of (d + j - i) / hook(i, j)."""
    lam = tb.check_diagram(lam, d)
    out, rest = divmod(math.prod(d + j - i for i, j in _boxes(lam)), _hook_product(lam))
    assert rest == 0
    return out


def multiplicity_hooks(lam: tb.Diagram, n: int) -> int:
    """The hook length formula: n! / prod of hooks."""
    lam = tb.check_diagram(lam)
    if sum(lam) != n:
        raise ValueError(f"{lam} is not a partition of {n}")
    out, rest = divmod(math.factorial(n), _hook_product(lam))
    assert rest == 0
    return out


def row_loads(m: tb.MVector, d: int) -> tuple[int, ...]:
    """Number of off-diagonal entries sum_j m[i,j] carried by each row i."""
    loads = [0] * d
    for (i, _j), cnt in zip(tb.pairs(d), m):
        loads[i - 1] += cnt
    return tuple(loads)


def canonical_tableau(lam: tb.Diagram, m: tb.MVector, d: int) -> Tableau:
    """Row-sorted filling: row i holds (lambda_i - load_i) copies of i followed
    by m[i,j] copies of each j > i in increasing order."""
    lam = tb.check_diagram(lam, d)
    loads = row_loads(m, d)
    rows = []
    for i in range(1, len(lam) + 1):
        li = lam[i - 1]
        if loads[i - 1] > li:
            raise ValueError(f"row {i} capacity {li} exceeded by m={m}")
        entries = [i] * (li - loads[i - 1])
        for (a, b), cnt in zip(tb.pairs(d), m):
            if a == i:
                entries.extend([b] * cnt)
        rows.append(tuple(entries))
    return tuple(rows)


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


def fits(lam: tb.Diagram, m: tb.MVector, d: int) -> bool:
    """True iff the canonical filling of m is a semistandard tableau."""
    lam = tb.check_diagram(lam, d)
    if any(load > tb.row(lam, i) for i, load in enumerate(row_loads(m, d), 1)):
        return False
    return is_semistandard(canonical_tableau(lam, m, d))


def enumerate_m_vectors(
    lam: tb.Diagram, d: int, max_weight: int | None = None
) -> list[tb.MVector]:
    """The m-vectors of one diagram as sorted tuples: m_vector_rows of
    [lam]."""
    lam = tb.check_diagram(lam, d)
    return [tuple(m) for m in tb.m_vector_rows([lam], d, max_weight)[1].tolist()]


def orbit_size(lam: tb.Diagram, m: tb.MVector, d: int) -> int:
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
    lam: tb.Diagram,
    m: tb.MVector,
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
    lam: tb.Diagram,
    m: tb.MVector,
    d: int,
    budget: int | None = DEFAULT_ORBIT_BUDGET,
) -> int:
    """Number of admissible tableaux in the orbit of m with gamma = 0."""
    return sum(
        1
        for t in orbit(lam, m, d, admissible_only=True, budget=budget)
        if gamma(t) == 0
    )


def gamma0_bounds(lam: tb.Diagram, m: tb.MVector, d: int) -> tuple[float, float]:
    """Lower/upper bounds on count_gamma0: products over bricks (i, j) of
    ((lambda_i - lambda_j - |m|)_+)^m_ij / m_ij! and
    (lambda_i - lambda_j)^m_ij / m_ij!."""
    w = sum(m)
    lo = hi = 1.0
    for (i, j), cnt in zip(tb.pairs(d), m):
        gap = tb.row(lam, i) - tb.row(lam, j)
        lo *= max(gap - w, 0) ** cnt / math.factorial(cnt)
        hi *= gap**cnt / math.factorial(cnt)
    return lo, hi


# ---------------------------------------------------------------------------
# orbit sums by enumeration, and the full tensor space (small cases; they
# cross-check the transfer of schur_weyl)


def minor_det_product(U: np.ndarray, t_a: Tableau, t_b: Tableau) -> complex:
    """Product over columns c of det U[t_a-column entries, t_b-column entries];
    equals the overlap of f_a with the column-antisymmetrized U^(x n) f_b."""
    if tuple(len(r) for r in t_a) != tuple(len(r) for r in t_b):
        raise ValueError("tableaux must share a shape")
    out = 1.0 + 0.0j
    for ca, cb in zip(columns_of(t_a), columns_of(t_b)):
        out *= sw.small_det([[U[i - 1, j - 1] for j in cb] for i in ca])
    return out


def symmetrizer_pairing(
    lam: tb.Diagram,
    d: int,
    m: tb.MVector,
    l: tb.MVector,
    U: np.ndarray | None = None,
    budget: int = DEFAULT_ORBIT_BUDGET,
) -> complex:
    """Orbit sum W(m, l; U) by explicit double enumeration of admissible
    row rearrangements.  With U omitted (identity), pairs whose column
    contents mismatch are skipped wholesale."""
    lam = tb.check_diagram(lam, d)
    size = orbit_size(lam, m, d) * orbit_size(lam, l, d)
    if size > budget:
        raise ResourceLimitError(f"orbit pair count {size} exceeds budget {budget}")
    orb_a = list(orbit(lam, m, d, admissible_only=True, budget=None))
    orb_b = list(orbit(lam, l, d, admissible_only=True, budget=None))
    if U is None:
        by_content: dict[tuple, list[Tableau]] = {}
        for t in orb_b:
            key = tuple(frozenset(c) for c in columns_of(t))
            by_content.setdefault(key, []).append(t)
        ident = np.eye(d)
        total = 0.0
        for ta in orb_a:
            key = tuple(frozenset(c) for c in columns_of(ta))
            for tbl in by_content.get(key, ()):
                total += minor_det_product(ident, ta, tbl).real
        return total
    total = 0.0 + 0.0j
    for ta in orb_a:
        for tbl in orb_b:
            total += minor_det_product(U, ta, tbl)
    return total

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
    sigma[k] = image of position k, plus the permutation sign (blocks are
    increasing, so the sign is that of the permuted block order)."""
    out = [(list(range(n)), 1)]
    for block in blocks:
        nxt = []
        for sign, perm in sw.signed_permutations(len(block)):
            for base, bsign in out:
                sigma = list(base)
                for src, i in zip(block, perm):
                    sigma[src] = base[block[i]]
                nxt.append((sigma, bsign * sign))
        out = nxt
    return out


def _permutation_sum(blocks: list[list[int]], n: int, d: int, signed: bool) -> np.ndarray:
    """Sum of the operators permuting tensor factors within each block, each
    weighted by its sign if `signed`."""
    digits = _digit_table(n, d)
    D = d**n
    out = np.zeros((D, D))
    src = np.arange(D)
    for sigma, sign in _group_elements(blocks, n):
        out[_perm_index_map(tuple(sigma), digits, d), src] += sign if signed else 1.0
    return out


def row_symmetrizer_matrix(lam: tb.Diagram, n: int, d: int) -> np.ndarray:
    return _permutation_sum(_standard_tableau_positions(lam), n, d, signed=False)


def column_antisymmetrizer_matrix(lam: tb.Diagram, n: int, d: int) -> np.ndarray:
    rows = _standard_tableau_positions(lam)
    ncols = lam[0]
    cols = [
        [rows[i][c] for i in range(len(lam)) if c < lam[i]] for c in range(ncols)
    ]
    return _permutation_sum(cols, n, d, signed=True)


def young_symmetrizer_matrix(lam: tb.Diagram, n: int, d: int) -> np.ndarray:
    return column_antisymmetrizer_matrix(lam, n, d) @ row_symmetrizer_matrix(
        lam, n, d
    )


def haar_unitary(d: int, rng) -> np.ndarray:
    """Haar-random d x d unitary: the Q of a complex Gaussian matrix, with
    the phases of R's diagonal moved into it."""
    Z = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    Q, R = np.linalg.qr(Z)
    return Q * (np.diag(R) / np.abs(np.diag(R)))


def tableau_vector_index(t: Tableau, d: int) -> int:
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
    rho_n = tensor_modes([rho] * n)
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
        weight = multiplicity_hooks(lam, n) * raw_trace
        spectrum = np.sort(np.linalg.eigvalsh(block / raw_trace))[::-1]
        out.append((lam, weight, spectrum))
    return out


# ---------------------------------------------------------------------------
# the model and its limit


def schur_poly_enumerated(lam: tb.Diagram, vals: tuple[float, ...]) -> float:
    """s_lambda(vals) as the sum over semistandard fillings of prod_v
    vals_v^(count of v), each filling's counts tallied on its tableau."""
    d = len(vals)
    total = 0.0
    for m in enumerate_m_vectors(lam, d):
        entries = [v for trow in canonical_tableau(lam, m, d) for v in trow]
        total += math.prod(x ** entries.count(v) for v, x in enumerate(vals, 1))
    return total


def rho_theta(
    spec: md.Spectrum,
    theta: md.LocalParams,
    n: int,
    variant: str = "unitary",
) -> np.ndarray:
    """Local family member at theta/sqrt(n): either the rotated diagonal
    state or the direct off-diagonal perturbation."""
    vals = md.perturbed_spectrum(spec, theta.u, n)
    D = np.diag(np.array(vals, dtype=complex))
    if variant == "unitary":
        U = md.rotation_unitary(spec, theta.zeta, n)
        return U @ D @ U.conj().T
    if variant == "tilde":
        root = math.sqrt(n)
        rho = D.copy()
        for idx, (j, k) in enumerate(tb.pairs(spec.d)):
            z = theta.zeta[idx]
            rho[j - 1, k - 1] = np.conj(z) / root
            rho[k - 1, j - 1] = z / root
        if np.linalg.eigvalsh(rho).min() <= 0:
            raise ValueError("parameters out of range: state not positive")
        return rho
    raise ValueError(f"unknown variant {variant!r}")


def char_fn(rho: np.ndarray, z: complex) -> complex:
    """Characteristic function Tr[rho W(z)] on the truncation of rho."""
    N = rho.shape[0] - 1
    return complex(np.trace(rho @ weyl(z, N)))


def partial_trace_to_mode(rho: np.ndarray, fock: FockSpec, mode_idx: int) -> np.ndarray:
    """Reduce a multimode state to a single mode."""
    dims = [fock.cutoff + 1] * fock.nmodes
    T = rho.reshape(dims + dims)
    for m in reversed(range(fock.nmodes)):
        if m == mode_idx:
            continue
        T = np.trace(T, axis1=m, axis2=T.ndim // 2 + m)
    return T
