"""Truncated Fock-space limit model: thermal and displaced thermal states,
Weyl operators, and the classical-quantum Gaussian product state, with the
box rule: the one quadrature by which every integral of a function of the
classical Gaussian density over a lattice box is taken.  Its levels are
nested tensor Clenshaw-Curtis rules, so a box that needs a finer level
reuses every value of the coarser ones.

One oscillator mode per eigenvalue pair (j, k), j < k, ordered like
tableaux.pairs(d), so mode occupation numbers and block basis labels share
the same indexing.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import tableaux as tb
from .models import Spectrum, LocalParams, covariance, hermitian_exp_i

# Limit displacement per unit zeta_jk / sqrt(mu_j - mu_k): fixed by the
# theorem, the amplitude the finite-n block rotations converge to.
DISPLACEMENT = 1.0 / math.sqrt(2.0)


@dataclass(frozen=True)
class FockSpec:
    """Multimode truncated Fock space: one mode per pair (j, k)."""

    d: int
    cutoff: int

    def __post_init__(self):
        if self.cutoff < 1:
            raise ValueError("cutoff must be >= 1")

    @property
    def modes(self) -> tuple[tuple[int, int], ...]:
        return tb.pairs(self.d)

    @property
    def nmodes(self) -> int:
        return len(self.modes)

    @property
    def dim(self) -> int:
        return (self.cutoff + 1) ** self.nmodes

    def index(self, occupation) -> int | np.ndarray:
        """Flat index of the number state of one occupation tuple, or of
        each row of an array of them; ValueError for a wrong mode count or
        an occupation outside 0..cutoff."""
        occ = np.asarray(occupation)
        idx = np.ravel_multi_index(occ.T, (self.cutoff + 1,) * self.nmodes)
        return int(idx) if occ.ndim == 1 else idx


def annihilation(N: int) -> np.ndarray:
    a = np.zeros((N + 1, N + 1), dtype=complex)
    for k in range(1, N + 1):
        a[k - 1, k] = math.sqrt(k)
    return a


def thermal(beta: float, N: int) -> np.ndarray:
    """Geometric mixture of number states at inverse temperature beta,
    renormalized on the truncation."""
    if beta <= 0:
        raise ValueError("beta must be positive")
    p = np.exp(-beta * np.arange(N + 1))
    return np.diag(p / p.sum()).astype(complex)


def weyl(z: complex, N: int) -> np.ndarray:
    """Displacement operator exp(z a^dag - conj(z) a) on the truncation."""
    a = annihilation(N)
    gen = z * a.conj().T - np.conj(z) * a
    return hermitian_exp_i(-1j * gen)


def coherent_vector(z: complex, N: int) -> np.ndarray:
    """Coefficients e^{-|z|^2/2} z^m / sqrt(m!) of the displaced vacuum."""
    ks = np.arange(N + 1)
    logs = ks * np.log(np.abs(z)) if z != 0 else np.where(ks == 0, 0.0, -np.inf)
    half_lfact = np.array([math.lgamma(k + 1) / 2 for k in ks])
    mags = np.exp(-abs(z) ** 2 / 2 + logs - half_lfact)
    phases = np.exp(1j * np.angle(z) * ks) if z != 0 else np.ones(N + 1)
    return mags * phases


def displaced_thermal(beta: float, z: complex, N: int) -> np.ndarray:
    """W(z)* thermal W(z); its first-moment is -z in this convention."""
    W = weyl(z, N)
    return W.conj().T @ thermal(beta, N) @ W


def tensor_modes(mats: list[np.ndarray]) -> np.ndarray:
    out = mats[0]
    for M in mats[1:]:
        out = np.kron(out, M)
    return out


def mode_betas(spec_mu: Spectrum) -> tuple[float, ...]:
    """Inverse temperatures ln(mu_j / mu_k) per mode."""
    return tuple(
        math.log(spec_mu.mu[j - 1] / spec_mu.mu[k - 1])
        for j, k in tb.pairs(spec_mu.d)
    )


def limit_quantum_state(
    spec_mu: Spectrum, zeta: tuple[complex, ...], fock: FockSpec
) -> np.ndarray:
    """Product over modes of displaced thermal states with amplitude
    DISPLACEMENT * zeta_jk / sqrt(mu_j - mu_k)."""
    if spec_mu.d != fock.d:
        raise ValueError("spectrum and Fock space dimension mismatch")
    if len(zeta) != fock.nmodes:
        raise ValueError(f"zeta needs {fock.nmodes} components, got {len(zeta)}")
    mats = []
    for idx, ((j, k), beta) in enumerate(zip(fock.modes, mode_betas(spec_mu))):
        gap = spec_mu.mu[j - 1] - spec_mu.mu[k - 1]
        # displaced_thermal(beta, z) has first moment -z, so negate to put
        # the mean along +zeta, the direction the finite-n blocks rotate to
        z = -DISPLACEMENT * zeta[idx] / math.sqrt(gap)
        mats.append(displaced_thermal(beta, z, fock.cutoff))
    return tensor_modes(mats)


@dataclass(frozen=True)
class LimitState:
    """Gaussian limit: classical N(u, V(mu)) paired with the multimode
    displaced thermal state."""

    mean: np.ndarray
    cov: np.ndarray
    quantum: np.ndarray


def limit_state(spec_mu: Spectrum, theta: LocalParams, fock: FockSpec) -> LimitState:
    quantum = limit_quantum_state(spec_mu, theta.zeta, fock)
    return LimitState(
        mean=np.array(theta.u, dtype=float),
        cov=covariance(spec_mu),
        quantum=quantum,
    )


# The box rule: nested tensor Clenshaw-Curtis levels on the Chebyshev-Lobatto
# points cos(pi j / N) per axis, N in BOX_LEVELS, tried in turn until two
# successive values differ by at most BOX_TOL.  Each level holds every point
# of the level before it, so no point is evaluated twice.
BOX_LEVELS = (8, 16, 32)
BOX_TOL = 1e-6


def _clenshaw_curtis_weights(N: int) -> np.ndarray:
    """Clenshaw-Curtis weights of the points cos(pi j / N), j = 0..N, on
    [-1, 1]: positive and summing to 2 (Trefethen, SIAM Rev. 50, 67-87)."""
    theta = np.pi * np.arange(N + 1) / N
    k = np.arange(1, N // 2 + 1)
    b = np.where(2 * k == N, 1.0, 2.0)
    w = (1.0 - (b / (4.0 * k * k - 1.0)) @ np.cos(2.0 * np.outer(k, theta))) / N
    w[1:-1] *= 2.0
    return w


@functools.cache
def _nested_levels(dim: int) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
    """Per BOX_LEVELS level on [-1, 1]^dim: the points that level adds, and
    the tensor weights of every point so far, in the order the points were
    added.  Computed once per dimension and read-only, since every caller
    shares them."""
    finest = BOX_LEVELS[-1]
    axis = np.cos(np.pi * np.arange(finest + 1) / finest)
    shape = (finest + 1,) * dim
    seen = np.zeros(shape, dtype=bool)
    order = np.empty(0, dtype=np.intp)  # flat index of each point so far
    levels = []
    for N in BOX_LEVELS:
        step = finest // N
        grid = np.zeros(shape, dtype=bool)
        grid[(slice(None, None, step),) * dim] = True
        new = np.flatnonzero(grid & ~seen)
        seen |= grid
        order = np.concatenate((order, new))
        pts = axis[np.stack(np.unravel_index(new, shape), axis=1)]
        w1 = _clenshaw_curtis_weights(N)
        weights = functools.reduce(
            np.multiply, [w1[i // step] for i in np.unravel_index(order, shape)]
        )
        pts.flags.writeable = False
        weights.flags.writeable = False
        levels.append((pts, weights))
    return tuple(levels)


def box_rule(
    lo: np.ndarray, hi: np.ndarray, mean: np.ndarray, cov: np.ndarray
) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
    """The box rule on [lo, hi] for N(mean, cov): per BOX_LEVELS level, the
    density at the points that level adds, and the weights of every point so
    far, in the order the points were added; they sum to the box volume."""
    lo, hi = np.asarray(lo, dtype=float), np.asarray(hi, dtype=float)
    inv = np.linalg.inv(cov)
    norm = math.sqrt((2 * math.pi) ** len(lo) * np.linalg.det(cov))
    half = 0.5 * (hi - lo)
    centre = 0.5 * (hi + lo)
    scale = float(np.prod(half))
    rule = []
    for pts, weights in _nested_levels(len(lo)):
        diff = centre + half * pts - mean
        dens = np.exp(-0.5 * np.einsum("ni,ij,nj->n", diff, inv, diff)) / norm
        rule.append((dens, weights * scale))
    return tuple(rule)


def box_integral(fn, rule) -> float:
    """Integral over the box of fn(density), at the first level of the rule
    whose value is within BOX_TOL of the previous level's, else at the last
    level.  fn maps an array of densities to an array of integrand values and
    is called once per level, on the points that level adds."""
    vals = np.empty(0)
    prev = None
    for dens, weights in rule:
        vals = np.concatenate((vals, fn(dens)))
        val = float((vals * weights).sum())
        if prev is not None and abs(val - prev) <= BOX_TOL:
            return val
        prev = val
    return prev
