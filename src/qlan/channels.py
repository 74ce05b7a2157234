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


def typical_bounds(n: int, spec: md.Spectrum, alpha: float) -> tuple[list[int], list[int]]:
    """The typical window's row rule: each row i of a typical diagram of n
    has lo[i-1] = ceil(n mu_i - w) <= lambda_i <= floor(n mu_i + w) =
    hi[i-1], with w = n^min(alpha, 1).  Each bound is rounded before the
    rows are compared: at mu = (0.5, 0.3, 0.2), alpha = 0.6, n = 32, w =
    32**0.6 = 7.999999999999999 and floor(16 + w) = 24 admits lambda_1 = 24,
    which |lambda_1 - 16| <= w would not."""
    # no row is farther than n from n mu_i; n**alpha overflows at a huge alpha
    w = n ** min(alpha, 1.0)
    return [math.ceil(n * m - w) for m in spec.mu], [math.floor(n * m + w) for m in spec.mu]


def typical_mask(lams: list[tb.Diagram], n: int, spec: md.Spectrum, alpha: float) -> np.ndarray:
    """Whether each diagram of n in lams lies in the typical window
    (typical_bounds)."""
    lo, hi = typical_bounds(n, spec, alpha)
    rows = tb.row_array(lams, spec.d)
    return ((rows >= lo) & (rows <= hi)).all(axis=1)


def typical_diagrams(n: int, spec: md.Spectrum, alpha: float) -> list[tb.Diagram]:
    """The diagrams of n in the typical window (typical_bounds), descending
    lexicographic: enumerate_diagrams walks only the window's rows."""
    return tb.enumerate_diagrams(n, spec.d, *typical_bounds(n, spec, alpha))


# ---------------------------------------------------------------------------
# block isometries


def build_isometry(basis: sw.BlockBasis, fock: gs.FockSpec) -> np.ndarray:
    """Isometry V from orthonormal block coordinates into Fock coordinates.

    Built as a contraction A mapping the basis vector labelled m onto the
    number state |m> (scaled by 1/sqrt(s) so A*A = G/s <= 1), completed by
    R = I' sqrt(1 - A*A) on spare number states orthogonal to Range(A)."""
    if basis.d != fock.d:
        raise ValueError("basis and Fock space dimension mismatch")
    K = basis.size
    rows = fock.index(basis.mvectors)
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
    return V


# ---------------------------------------------------------------------------
# forward channel


# Largest atypical diagram mass the forward channel may leave out.
COVERAGE_BOUND = 0.5


@dataclass(frozen=True)
class Cell:
    """One output cell: lattice box, classical weight, Fock-space state."""

    lo: np.ndarray
    hi: np.ndarray
    weight: float
    quantum: np.ndarray


@dataclass(frozen=True)
class ClassicalQuantumState:
    """Piecewise-constant classical density paired with per-cell quantum
    states, one cell per block in order; weights sum to 1 - neglected_mass."""

    cells: tuple[Cell, ...]
    neglected_mass: float


@dataclass(frozen=True)
class BlockData:
    """Per-diagram machinery shared by the forward and reverse channels."""

    lam: tb.Diagram
    weight: float
    basis: sw.BlockBasis
    isometry: np.ndarray
    state: sw.BlockOperator


def prepare_blocks(
    spec: md.Spectrum, theta: md.LocalParams, n: int, fock: gs.FockSpec, alpha: float
) -> list[BlockData]:
    """Block data for every typical diagram, each basis truncated at the Fock
    cutoff (its m-vectors are the number states the isometry maps onto).
    All bases come from one identity transfer and, when zeta != 0, all
    rotations from one transfer at the local unitary, which every block
    shares."""
    lams = typical_diagrams(n, spec, alpha)
    bases = sw.block_bases(lams, spec.d, max_weight=fock.cutoff)
    weights, states = md.block_states(bases, spec, theta, n)
    return [
        BlockData(lam, weight, basis, build_isometry(basis, fock), state)
        for lam, weight, basis, state in zip(lams, weights, bases, states)
    ]


def forward_channel(
    spec: md.Spectrum, n: int, blocks: list[BlockData]
) -> ClassicalQuantumState:
    """Map the n-sample state to (lattice box density) x (Fock state per box)
    over the prepared blocks (see prepare_blocks), reporting the neglected
    atypical mass."""
    cells = []
    covered = 0.0
    for bd in blocks:
        lo, hi = box_of(bd.lam, n, spec)
        phi = bd.isometry @ bd.state.matrix @ bd.isometry.conj().T
        cells.append(Cell(lo, hi, bd.weight, phi))
        covered += bd.weight
    neglected = max(0.0, 1.0 - covered)
    if neglected > COVERAGE_BOUND:
        raise TruncationError(
            f"neglected diagram mass {neglected:.3f} exceeds {COVERAGE_BOUND}; "
            "increase alpha"
        )
    return ClassicalQuantumState(tuple(cells), neglected)


# ---------------------------------------------------------------------------
# reverse channel


def reverse_block_map(phi: np.ndarray, basis: sw.BlockBasis, iso: np.ndarray) -> np.ndarray:
    """V* phi V plus the missing trace on the lowest-weight vector; exact
    left inverse of the forward block map."""
    out = iso.conj().T @ phi @ iso
    missing = 1.0 - float(np.trace(out).real)
    v0 = basis.lowest_weight
    return out + missing * np.outer(v0, v0.conj())


def reverse_channel(
    box_masses: tuple[float, ...], quantum: np.ndarray, blocks: list[BlockData]
) -> tuple[list[tuple[float, np.ndarray]], float]:
    """Map the Gaussian limit back to block form: each block's box mass, as
    metrics.cq_distance integrated it (in block order), paired with the
    reverse block map of the limit's quantum state, and the mass no box
    holds.  The single-row block (n,) absorbs that mass when it is prepared;
    otherwise it is returned unplaced."""
    out = []
    total = 0.0
    fallback_idx = None
    for idx, (w, bd) in enumerate(zip(box_masses, blocks, strict=True)):
        total += w
        out.append((w, reverse_block_map(quantum, bd.basis, bd.isometry)))
        if len(bd.lam) == 1:
            fallback_idx = idx
    leftover = max(0.0, 1.0 - total)
    if fallback_idx is None:
        return out, leftover
    w, rho = out[fallback_idx]
    out[fallback_idx] = (w + leftover, rho)
    return out, 0.0
