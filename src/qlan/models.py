"""The finite-n quantum statistical model: local families around a fixed
diagonal state, block weights and block states of the tensor-power
decomposition, and the classical reference quantities."""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from . import schur_weyl as sw
from . import tableaux as tb


@dataclass(frozen=True)
class Spectrum:
    """Strictly decreasing probability vector mu."""

    mu: tuple[float, ...]

    def __post_init__(self):
        mu = tuple(float(x) for x in self.mu)
        object.__setattr__(self, "mu", mu)
        if len(mu) < 2:
            raise ValueError("need at least two distinct eigenvalues")
        if not all(math.isfinite(x) for x in mu):
            raise ValueError(f"mu must be finite: {mu}")
        if any(x <= 0 for x in mu):
            raise ValueError(f"eigenvalues must be positive: {mu}")
        if any(mu[i] <= mu[i + 1] for i in range(len(mu) - 1)):
            raise ValueError(f"eigenvalues must be strictly decreasing: {mu}")
        if abs(sum(mu) - 1.0) > 1e-12:
            raise ValueError(f"eigenvalues must sum to 1: {mu}")

    @property
    def d(self) -> int:
        return len(self.mu)


@dataclass(frozen=True)
class LocalParams:
    """Local parameters theta = (u, zeta): diagonal deviations u (length
    d-1) and off-diagonal deviations zeta indexed by pairs(d)."""

    u: tuple[float, ...]
    zeta: tuple[complex, ...]

    def __post_init__(self):
        object.__setattr__(self, "u", tuple(float(x) for x in self.u))
        object.__setattr__(self, "zeta", tuple(complex(z) for z in self.zeta))
        if not all(math.isfinite(x) for x in self.u):
            raise ValueError(f"u must be finite: {self.u}")
        if not all(cmath.isfinite(z) for z in self.zeta):
            raise ValueError(f"zeta must be finite: {self.zeta}")


def perturbed_spectrum(spec: Spectrum, u: tuple[float, ...], n: int) -> tuple[float, ...]:
    """Eigenvalues mu_i + u_i/sqrt(n), the last one absorbing -sum(u)."""
    if len(u) != spec.d - 1:
        raise ValueError(f"u needs {spec.d - 1} components, got {len(u)}")
    root = math.sqrt(n)
    vals = [m + ui / root for m, ui in zip(spec.mu, u)]
    vals.append(spec.mu[-1] - sum(u) / root)
    vals = tuple(vals)
    if any(v <= 0 or v >= 1 for v in vals) or any(
        vals[i] <= vals[i + 1] for i in range(len(vals) - 1)
    ):
        raise ValueError(f"perturbed spectrum invalid at n={n}: {vals}")
    return vals


def hermitian_exp_i(H: np.ndarray) -> np.ndarray:
    """exp(iH) for Hermitian H, from its eigendecomposition."""
    vals, vecs = np.linalg.eigh(H)
    return (vecs * np.exp(1j * vals)) @ vecs.conj().T


def rotation_unitary(spec: Spectrum, zeta: tuple[complex, ...], n: int) -> np.ndarray:
    """exp(i H / sqrt(n)) with H_jk = i conj(zeta_jk) / sqrt(mu_j - mu_k) and
    H_kj its conjugate for each pair j < k: the generator
    sum (Re zeta_jk T_jk + Im zeta_jk T_kj) / sqrt(mu_j - mu_k), where
    T_jk = i (E_jk - E_kj) and T_kj = E_jk + E_kj."""
    ps = tb.pairs(spec.d)
    if len(zeta) != len(ps):
        raise ValueError(f"zeta needs {len(ps)} components, got {len(zeta)}")
    j, k = np.array(ps).T - 1
    mu = np.array(spec.mu)
    if (mu[j] <= mu[k]).any():
        raise ValueError("degenerate spectrum")
    h = 1j * np.conj(np.array(zeta, dtype=complex)) / np.sqrt(mu[j] - mu[k])
    # added onto zeros, as a sum of generators would be, so no entry is -0.0
    H = np.zeros((spec.d, spec.d), dtype=complex)
    H[j, k] += h
    H[k, j] += np.conj(h)
    return hermitian_exp_i(H / math.sqrt(n))


# ---------------------------------------------------------------------------
# block weights


def block_weights(
    lams: list[tb.Diagram], vals: tuple[float, ...], n: int
) -> tuple[list[float], np.ndarray]:
    """Probability of the block of each diagram of n at the spectrum vals,
    and log s_lambda(vals), which its spectrum divides by (see
    weight_eigenvalues), in one array pass over all diagrams.

    With l_i = lambda_i + d - i and vals sorted decreasing, the weight is
    the multiplicity n! prod_{i<j} (l_i - l_j) / prod_i l_i! times
    s_lambda(vals) = det[vals_i^l_j] / prod_{i<j} (vals_i - vals_j), in log
    space, each Leibniz term relative to the diagonal one prod_i vals_i^l_i:
    no ratio exceeds 1, so nothing overflows at any n (far-atypical weights
    underflow to 0).  Each sum runs along one diagram's row (no matmul), so
    a diagram gets the same bits in any batch."""
    d = len(vals)
    v = np.sort(vals)[::-1]
    logs = np.log(v)
    ls = tb.row_array(lams, d) + np.arange(d - 1, -1, -1)
    signs, perms = zip(*sw.signed_permutations(d))
    i, j = np.array(tb.pairs(d)).T - 1
    # the log of each Leibniz ratio: sum_i l_i (log vals_sigma(i) - log vals_i)
    rel = np.exp((ls[:, None, :] * (logs[np.array(perms)] - logs)).sum(axis=2))
    log_s = (ls * logs).sum(axis=1) + np.log((rel * signs).sum(axis=1))
    log_s -= np.log(v[i] - v[j]).sum()
    # numpy has no lgamma: log l_i! is the one per-entry call
    log_facts = np.array([math.lgamma(l + 1) for l in ls.ravel().tolist()])
    log_mult = math.lgamma(n + 1) + np.log(ls[:, i] - ls[:, j]).sum(axis=1)
    log_mult -= log_facts.reshape(ls.shape).sum(axis=1)
    return np.exp(log_mult + log_s).tolist(), log_s


def block_weight(lam: tb.Diagram, spec: Spectrum, u: tuple[float, ...], n: int) -> float:
    """block_weights of the one diagram lam at the perturbed spectrum;
    independent of the off-diagonal parameters by construction."""
    lam = tb.check_diagram(lam, spec.d)
    if sum(lam) != n:
        raise ValueError(f"{lam} is not a partition of {n}")
    (weight,), _ = block_weights([lam], perturbed_spectrum(spec, u, n), n)
    return weight


# ---------------------------------------------------------------------------
# block states


def weight_eigenvalues(
    lams: list[tb.Diagram],
    owner: np.ndarray,
    ms: np.ndarray,
    vals: tuple[float, ...],
    log_s: np.ndarray,
) -> np.ndarray:
    """prod_i vals_i^{w_i} / s_lambda(vals) for each m-vector row of ms, of
    weight w on the diagram lams[owner[row]] (the rows of tb.m_vector_rows):
    the block spectrum of diag(vals)^(x n) over its trace, each at most 1.
    log_s holds log s_lambda(vals) per diagram (see block_weights)."""
    weights = tb.m_vector_weights(lams, len(vals), owner, ms)
    out = weights @ np.log(vals)
    out -= log_s[owner]
    return np.exp(out, out=out)


def block_states(
    bases: list[sw.BlockBasis], spec: Spectrum, theta: LocalParams, n: int
) -> tuple[list[float], list[sw.BlockOperator]]:
    """The block_weights of every basis's diagram, and the normalized block
    of the tensor-power state on every basis, in orthonormal coordinates.

    The diagonal-parameter part is diagonal, weight_eigenvalues at the
    perturbed spectrum, as each weight class spans its own orthonormal
    coordinates (see BlockBasis).  The off-diagonal parameters enter by
    conjugation with the block rotation, all rotations from one transfer."""
    if not bases:
        return [], []
    rotations = [None] * len(bases)
    if any(theta.zeta):
        rotations = sw.block_unitaries(bases, rotation_unitary(spec, theta.zeta, n))
    vals = perturbed_spectrum(spec, theta.u, n)
    lams = [basis.lam for basis in bases]
    weights, log_s = block_weights(lams, vals, n)
    sizes = [basis.size for basis in bases]
    owner = np.repeat(np.arange(len(bases)), sizes)
    ms = np.concatenate([basis.mvectors for basis in bases])
    evss = np.split(weight_eigenvalues(lams, owner, ms, vals, log_s), np.cumsum(sizes)[:-1])
    states = []
    for evs, rotation in zip(evss, rotations):
        covered = float(evs.sum())
        loss = max(0.0, 1.0 - covered)
        rho = np.diag(evs / covered).astype(complex)
        if rotation is not None:
            rho = rotation @ rho @ rotation.conj().T
            tr = float(np.trace(rho).real)
            loss = max(loss, 1.0 - tr)
            rho = rho / tr
        states.append(sw.BlockOperator(rho, float(loss)))
    return weights, states


# ---------------------------------------------------------------------------
# classical reference quantities


def covariance(spec: Spectrum) -> np.ndarray:
    """Limit Gaussian covariance: delta_ij mu_i - mu_i mu_j (inverse Fisher)."""
    d = spec.d
    mu = np.array(spec.mu[: d - 1])
    return np.diag(mu) - np.outer(mu, mu)

