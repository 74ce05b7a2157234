"""Channels between the n-sample model and the Gaussian limit: the classical
lattice kernels, the per-block isometries into Fock space, and the forward /
reverse channels built from them."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import gaussian as gs
from . import models as md
from . import schur_weyl as sw
from . import tableaux as tb
from .errors import DimensionError, TruncationError


# ---------------------------------------------------------------------------
# classical kernels


def box_of(lam: tb.Diagram, n: int, spec: md.Spectrum) -> tuple[np.ndarray, np.ndarray]:
    """Axis-aligned box {x : |sqrt(n) x_i + n mu_i - lambda_i| <= 1/2} for the
    first d-1 coordinates."""
    d = spec.d
    root = math.sqrt(n)
    lo = np.array([(tb.row(lam, i) - n * spec.mu[i - 1] - 0.5) / root for i in range(1, d)])
    hi = lo + 1.0 / root
    return lo, hi


def typical_diagrams(n: int, spec: md.Spectrum, alpha: float) -> list[tb.Diagram]:
    """All diagrams of n with every row within n^alpha of n mu_i, descending
    lexicographic."""
    d = spec.d
    w = n**alpha
    out: list[tb.Diagram] = []

    def rec(i: int, prefix: list[int], remaining: int, prev: int) -> None:
        target = n * spec.mu[i - 1]
        if i == d:
            if abs(remaining - target) <= w and 0 <= remaining <= prev:
                rows = prefix + [remaining]
                out.append(tuple(r for r in rows if r > 0))
            return
        lo = max(0, math.ceil(target - w))
        hi = min(prev, remaining, math.floor(target + w))
        for li in range(hi, lo - 1, -1):
            rec(i + 1, prefix + [li], remaining - li, li)

    rec(1, [], n, n)
    return out


# ---------------------------------------------------------------------------
# block isometries


@dataclass(frozen=True)
class BlockIsometry:
    """Isometry from orthonormal block coordinates into Fock coordinates.

    Built as a contraction A mapping the basis vector labelled m onto the
    number state |m> (scaled by 1/sqrt(s) so A*A = G/s <= 1), completed by
    R = I' sqrt(1 - A*A) on spare number states orthogonal to Range(A)."""

    lam: tb.Diagram
    matrix: np.ndarray
    contraction_scale: float
    completion_rank: int


def build_isometry(basis: sw.BlockBasis, fock: gs.FockSpec) -> BlockIsometry:
    if basis.d != fock.d:
        raise ValueError("basis and Fock space dimension mismatch")
    K = basis.size
    rows = [fock.index(m) for m in basis.mvectors]
    s = max(1.0, float(np.linalg.eigvalsh(basis.gram).max()))
    A = np.zeros((fock.dim, K))
    A[rows, :] = basis.sqrt_gram / math.sqrt(s)

    M = np.eye(K) - basis.gram / s
    vals, vecs = np.linalg.eigh(M)
    vals = np.clip(vals, 0.0, None)
    keep = vals > 1e-12
    rank = int(keep.sum())
    V = A.astype(complex)
    if rank:
        used = set(rows)
        spare = [i for i in range(fock.dim) if i not in used][:rank]
        if len(spare) < rank:
            raise DimensionError(
                f"Fock dimension {fock.dim} cannot host completion rank {rank}"
            )
        R = np.zeros((fock.dim, K), dtype=complex)
        R[spare, :] = (vecs[:, keep] * np.sqrt(vals[keep])).T
        V = V + R
    err = np.abs(V.conj().T @ V - np.eye(K)).max()
    if err > 1e-10:
        raise AssertionError(f"isometry defect {err:.2e}")
    return BlockIsometry(basis.lam, V, s, rank)


# ---------------------------------------------------------------------------
# forward channel


@dataclass(frozen=True)
class Cell:
    """One output cell: lattice box, classical weight, Fock-space state."""

    lam: tb.Diagram
    lo: np.ndarray
    hi: np.ndarray
    weight: float
    quantum: np.ndarray


@dataclass(frozen=True)
class ClassicalQuantumState:
    """Piecewise-constant classical density paired with per-cell quantum
    states; weights of cells sum to 1 - neglected_mass."""

    n: int
    d: int
    cells: tuple[Cell, ...]
    neglected_mass: float
    truncation_budget: float


@dataclass(frozen=True)
class BlockData:
    """Per-diagram machinery shared by the forward and reverse channels."""

    lam: tb.Diagram
    weight: float
    basis: sw.BlockBasis
    isometry: BlockIsometry
    state: sw.BlockOperator


def prepare_blocks(
    spec: md.Spectrum,
    theta: md.LocalParams,
    n: int,
    fock: gs.FockSpec,
    alpha: float,
    max_weight: int | None = None,
) -> list[BlockData]:
    if max_weight is None:
        max_weight = fock.cutoff
    out = []
    for lam in typical_diagrams(n, spec, alpha):
        basis = sw.block_basis(lam, spec.d, max_weight=min(max_weight, fock.cutoff))
        iso = build_isometry(basis, fock)
        state = md.block_state(lam, spec, theta, n, basis)
        weight = md.block_weight(lam, spec, theta.u, n)
        out.append(BlockData(lam, weight, basis, iso, state))
    return out


def forward_channel(
    spec: md.Spectrum, n: int, blocks: list[BlockData], coverage_bound: float = 0.5
) -> ClassicalQuantumState:
    """Map the n-sample state to (lattice box density) x (Fock state per box)
    over the prepared blocks (see prepare_blocks), reporting the neglected
    atypical mass."""
    cells = []
    covered = 0.0
    budget = 0.0
    for bd in blocks:
        lo, hi = box_of(bd.lam, n, spec)
        phi = bd.isometry.matrix @ bd.state.matrix @ bd.isometry.matrix.conj().T
        cells.append(Cell(bd.lam, lo, hi, bd.weight, phi))
        covered += bd.weight
        budget = max(budget, bd.state.truncation_defect)
    neglected = max(0.0, 1.0 - covered)
    if neglected > coverage_bound:
        raise TruncationError(
            f"neglected diagram mass {neglected:.3f} exceeds {coverage_bound}; "
            "increase alpha"
        )
    return ClassicalQuantumState(n, spec.d, tuple(cells), neglected, budget)


# ---------------------------------------------------------------------------
# reverse channel


def gaussian_box_mass(
    lo: np.ndarray, hi: np.ndarray, mean: np.ndarray, cov: np.ndarray
) -> float:
    """Gaussian mass of an axis-aligned box: error-function difference in one
    dimension, tensor Gauss-Legendre quadrature of the density otherwise
    (boxes have side n^{-1/2}, so low order is already exact to ~1e-12)."""
    if len(lo) == 1:
        sd = math.sqrt(cov[0, 0])
        a = (lo[0] - mean[0]) / (sd * math.sqrt(2))
        b = (hi[0] - mean[0]) / (sd * math.sqrt(2))
        return 0.5 * (math.erf(b) - math.erf(a))
    pts, wgrid = gs.box_nodes(lo, hi, 12)
    return float((gs.gaussian_density(pts, mean, cov) * wgrid).sum())


def reverse_block_map(
    phi: np.ndarray, basis: sw.BlockBasis, iso: BlockIsometry
) -> np.ndarray:
    """V* phi V plus the missing trace on the lowest-weight vector; exact
    left inverse of the forward block map."""
    out = iso.matrix.conj().T @ phi @ iso.matrix
    missing = 1.0 - float(np.trace(out).real)
    zero = tuple([0] * len(tb.pairs(basis.d)))
    v0 = basis.coords(zero).astype(complex)
    return out + missing * np.outer(v0, v0.conj())


def reverse_channel(
    limit: gs.LimitState,
    spec: md.Spectrum,
    n: int,
    blocks: list[BlockData],
) -> list[tuple[tb.Diagram, float, np.ndarray]]:
    """Map the Gaussian limit state back to block form: Gaussian box masses
    through the lattice kernel (the single-row fallback absorbing the tails)
    and the reverse block map on the quantum part."""
    out = []
    total = 0.0
    fallback_idx = None
    for bd in blocks:
        lo, hi = box_of(bd.lam, n, spec)
        w = gaussian_box_mass(lo, hi, limit.mean, limit.cov)
        total += w
        rho = reverse_block_map(limit.quantum, bd.basis, bd.isometry)
        out.append((bd.lam, w, rho))
        if bd.lam == (n,):
            fallback_idx = len(out) - 1
    leftover = max(0.0, 1.0 - total)
    if fallback_idx is None:
        out.append(((n,), leftover, np.ones((1, 1), dtype=complex)))
    else:
        lam, w, rho = out[fallback_idx]
        out[fallback_idx] = (lam, w + leftover, rho)
    return out
