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
    root = math.sqrt(n)
    vals = [m + ui / root for m, ui in zip(spec.mu, u)]
    vals.append(spec.mu[-1] - sum(u) / root)
    vals = tuple(vals)
    if any(v <= 0 or v >= 1 for v in vals) or any(
        vals[i] <= vals[i + 1] for i in range(len(vals) - 1)
    ):
        raise ValueError(f"perturbed spectrum invalid at n={n}: {vals}")
    return vals


def su_generators(d: int) -> list[np.ndarray]:
    """Traceless Hermitian generators: the d-1 diagonal differences followed
    by the two off-diagonal generators of each pair (j, k), j < k."""
    gens = []
    for j in range(d - 1):
        H = np.zeros((d, d), dtype=complex)
        H[j, j], H[j + 1, j + 1] = 1.0, -1.0
        gens.append(H)
    for j, k in tb.pairs(d):
        T1 = np.zeros((d, d), dtype=complex)
        T1[j - 1, k - 1], T1[k - 1, j - 1] = 1j, -1j
        gens.append(T1)
        T2 = np.zeros((d, d), dtype=complex)
        T2[j - 1, k - 1], T2[k - 1, j - 1] = 1.0, 1.0
        gens.append(T2)
    return gens


def hermitian_exp_i(H: np.ndarray) -> np.ndarray:
    """exp(iH) for Hermitian H, from its eigendecomposition."""
    vals, vecs = np.linalg.eigh(H)
    return (vecs * np.exp(1j * vals)) @ vecs.conj().T


def rotation_unitary(spec: Spectrum, zeta: tuple[complex, ...], n: int) -> np.ndarray:
    """exp(i sum (Re zeta_jk T_jk + Im zeta_jk T_kj) / sqrt(n (mu_j - mu_k)))."""
    d = spec.d
    gens = su_generators(d)
    H = np.zeros((d, d), dtype=complex)
    for idx, (j, k) in enumerate(tb.pairs(d)):
        gap = spec.mu[j - 1] - spec.mu[k - 1]
        if gap <= 0:
            raise ValueError("degenerate spectrum")
        z = zeta[idx]
        T1, T2 = gens[d - 1 + 2 * idx], gens[d + 2 * idx]
        H += (z.real * T1 + z.imag * T2) / math.sqrt(gap)
    return hermitian_exp_i(H / math.sqrt(n))


# ---------------------------------------------------------------------------
# block weights


def log_weight_prefactor(lam: tb.Diagram, n: int, d: int) -> float:
    """Natural log of the block multiplicity in the product form of
    oracle.multiplicity_product_form, in which the lambda_l! cancel:
    log n! + sum_l [sum_{k>l} log(lambda_l - lambda_k + k - l)
    - log (lambda_l + d - l)!]."""
    rows = [tb.row(lam, i) for i in range(1, d + 1)]
    out = math.lgamma(n + 1)
    for l in range(1, d + 1):
        ll = rows[l - 1]
        for k in range(l + 1, d + 1):
            out += math.log(ll - rows[k - 1] + k - l)
        out -= math.lgamma(ll + d - l + 1)
    return out


def log_schur_poly(lam: tb.Diagram, vals: tuple[float, ...]) -> float:
    """Natural log of the Schur polynomial s_lambda(vals) for distinct
    positive vals, by the ratio of alternants
    det[vals_i^e_j] / prod_{i<j}(vals_i - vals_j), e_j = lambda_j + d - j,
    with vals sorted decreasing (s_lambda is symmetric).  The determinant's
    Leibniz terms are taken relative to the diagonal one, prod_i vals_i^e_i:
    each ratio prod_i (vals_sigma(i) / vals_i)^e_i is at most 1, so no power
    of vals over- or underflows for any n."""
    d = len(vals)
    lam = tb.check_diagram(lam, d)
    vals = sorted(vals, reverse=True)
    exps = [tb.row(lam, j) + d - j for j in range(1, d + 1)]
    logs = [math.log(v) for v in vals]
    rel = 0.0
    for sign, p in sw.signed_permutations(d):
        rel += sign * math.exp(sum(e * (logs[p[i]] - logs[i]) for i, e in enumerate(exps)))
    out = sum(e * lv for e, lv in zip(exps, logs)) + math.log(rel)
    for i in range(d):
        for j in range(i + 1, d):
            out -= math.log(vals[i] - vals[j])
    return out


def block_weight(lam: tb.Diagram, spec: Spectrum, u: tuple[float, ...], n: int) -> float:
    """Probability of the block at the perturbed spectrum; independent of the
    off-diagonal parameters by construction.  Computed in log space, so it
    stays finite at any n (far-atypical blocks underflow to 0)."""
    lam = tb.check_diagram(lam, spec.d)
    if sum(lam) != n:
        raise ValueError(f"{lam} is not a partition of {n}")
    vals = perturbed_spectrum(spec, u, n)
    return math.exp(log_weight_prefactor(lam, n, spec.d) + log_schur_poly(lam, vals))


# ---------------------------------------------------------------------------
# block states


def block_state(
    basis: sw.BlockBasis, spec: Spectrum, theta: LocalParams, n: int
) -> sw.BlockOperator:
    """Normalized block of the tensor-power state in orthonormal coordinates.

    The diagonal-parameter part takes the value prod_i (mu_i^{u,n})^{w_i} on
    each vector of weight w (total multiplicities); the weight classes span
    their own orthonormal coordinates (see BlockBasis), so it is diagonal.
    The off-diagonal parameters enter by conjugation with the block
    rotation."""
    rotation = None
    if any(theta.zeta):
        rotation = sw.block_unitary(basis, rotation_unitary(spec, theta.zeta, n))
    return _block_state(basis, spec, theta.u, n, rotation)


def block_states(
    bases: list[sw.BlockBasis], spec: Spectrum, theta: LocalParams, n: int
) -> list[sw.BlockOperator]:
    """block_state of every basis, with one rotation transfer for all."""
    rotations = [None] * len(bases)
    if any(theta.zeta):
        rotations = sw.block_unitaries(bases, rotation_unitary(spec, theta.zeta, n))
    return [_block_state(b, spec, theta.u, n, r) for b, r in zip(bases, rotations)]


def _block_state(
    basis: sw.BlockBasis,
    spec: Spectrum,
    u: tuple[float, ...],
    n: int,
    rotation: sw.BlockOperator | None,
) -> sw.BlockOperator:
    vals = perturbed_spectrum(spec, u, n)
    logs = [math.log(v) for v in vals]
    log_full = log_schur_poly(basis.lam, vals)
    weights = [tb.total_multiplicities(basis.lam, m, basis.d) for m in basis.mvectors]
    # eigenvalues relative to the block trace s_lambda, each at most 1
    evs = np.array(
        [math.exp(sum(k * lv for k, lv in zip(w, logs)) - log_full) for w in weights]
    )
    covered = float(evs.sum())
    loss = max(0.0, 1.0 - covered)
    rho = np.diag(evs / covered).astype(complex)
    if rotation is not None:
        rho = rotation.matrix @ rho @ rotation.matrix.conj().T
        tr = float(np.trace(rho).real)
        loss = max(loss, 1.0 - tr)
        rho = rho / tr
    return sw.BlockOperator(basis.lam, rho, float(loss))


# ---------------------------------------------------------------------------
# classical reference quantities


def covariance(spec: Spectrum) -> np.ndarray:
    """Limit Gaussian covariance: delta_ij mu_i - mu_i mu_j (inverse Fisher)."""
    d = spec.d
    mu = np.array(spec.mu[: d - 1])
    return np.diag(mu) - np.outer(mu, mu)


def multinomial_pmf(counts: tuple[int, ...], probs: tuple[float, ...]) -> float:
    n = sum(counts)
    coef = math.factorial(n)
    for c in counts:
        coef //= math.factorial(c)
    return coef * math.prod(p**c for p, c in zip(probs, counts))
