"""The finite-n quantum statistical model: local families around a fixed
diagonal state, block weights and block states of the tensor-power
decomposition, and the classical reference quantities."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import schur_weyl as sw
from . import tableaux as tb


@dataclass(frozen=True)
class Spectrum:
    """Strictly decreasing probability vector mu with its spectral gap."""

    mu: tuple[float, ...]

    def __post_init__(self):
        mu = tuple(float(x) for x in self.mu)
        object.__setattr__(self, "mu", mu)
        if len(mu) < 2:
            raise ValueError("need at least two distinct eigenvalues")
        if any(x <= 0 for x in mu):
            raise ValueError(f"eigenvalues must be positive: {mu}")
        if any(mu[i] <= mu[i + 1] for i in range(len(mu) - 1)):
            raise ValueError(f"eigenvalues must be strictly decreasing: {mu}")
        if abs(sum(mu) - 1.0) > 1e-12:
            raise ValueError(f"eigenvalues must sum to 1: {mu}")

    @property
    def d(self) -> int:
        return len(self.mu)

    @property
    def gap(self) -> float:
        diffs = [self.mu[i] - self.mu[i + 1] for i in range(self.d - 1)]
        return min(diffs + [self.mu[-1]])


@dataclass(frozen=True)
class LocalParams:
    """Local parameters theta = (u, zeta): diagonal deviations u (length
    d-1) and off-diagonal deviations zeta indexed by pairs(d)."""

    u: tuple[float, ...]
    zeta: tuple[complex, ...]

    def __post_init__(self):
        object.__setattr__(self, "u", tuple(float(x) for x in self.u))
        object.__setattr__(self, "zeta", tuple(complex(z) for z in self.zeta))


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


def _hermitian_exp_i(H: np.ndarray) -> np.ndarray:
    vals, vecs = np.linalg.eigh(H)
    return (vecs * np.exp(1j * vals)) @ vecs.conj().T


def rotation_unitary(
    spec: Spectrum, zeta: tuple[complex, ...], n: int | None = None
) -> np.ndarray:
    """exp(i sum (Re zeta_jk T_jk + Im zeta_jk T_kj) / sqrt(mu_j - mu_k)),
    the argument divided by sqrt(n) when n is given."""
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
    if n is not None:
        H = H / math.sqrt(n)
    return _hermitian_exp_i(H)


def rho_theta(
    spec: Spectrum,
    theta: LocalParams,
    n: int,
    variant: str = "unitary",
) -> np.ndarray:
    """Local family member at theta/sqrt(n): either the rotated diagonal
    state or the direct off-diagonal perturbation."""
    vals = perturbed_spectrum(spec, theta.u, n)
    D = np.diag(np.array(vals, dtype=complex))
    if variant == "unitary":
        U = rotation_unitary(spec, theta.zeta, n)
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


# ---------------------------------------------------------------------------
# block weights


def weight_prefactor(lam: tb.Diagram, n: int, d: int) -> int:
    """Combinatorial prefactor of the block weight: multinomial(n; lambda)
    times prod_l lambda_l! prod_{k>l}(lambda_l - lambda_k + k - l) /
    (lambda_l + d - l)!; equals the multiplicity of the block.  Exact; the
    weights use log_weight_prefactor."""
    from fractions import Fraction

    rows = [tb.row(lam, i) for i in range(1, d + 1)]
    out = Fraction(math.factorial(n))
    for lk in rows:
        out /= math.factorial(lk)
    for l in range(1, d + 1):
        ll = rows[l - 1]
        num = Fraction(math.factorial(ll))
        for k in range(l + 1, d + 1):
            num *= ll - rows[k - 1] + k - l
        out *= num / math.factorial(ll + d - l)
    assert out.denominator == 1
    return out.numerator


def log_weight_prefactor(lam: tb.Diagram, n: int, d: int) -> float:
    """Natural log of weight_prefactor, in which the lambda_l! cancel:
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


def schur_poly_enumerated(lam: tb.Diagram, vals: tuple[float, ...]) -> float:
    d = len(vals)
    total = 0.0
    for m in tb.enumerate_m_vectors(lam, d):
        mult = tb.total_multiplicities(lam, m, d)
        total += math.prod(v**k for v, k in zip(vals, mult))
    return total


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
    lam: tb.Diagram,
    spec: Spectrum,
    theta: LocalParams,
    n: int,
    basis: sw.BlockBasis,
) -> sw.BlockOperator:
    """Normalized block of the tensor-power state in orthonormal coordinates.

    The diagonal-parameter part takes the value prod_i (mu_i^{u,n})^{w_i} on
    each vector of weight w (total multiplicities); the weight classes span
    their own orthonormal coordinates (see BlockBasis), so it is diagonal.
    The off-diagonal parameters enter by conjugation with the block
    rotation."""
    vals = perturbed_spectrum(spec, theta.u, n)
    logs = [math.log(v) for v in vals]
    log_full = log_schur_poly(lam, vals)
    weights = [tb.total_multiplicities(basis.lam, m, basis.d) for m in basis.mvectors]
    # eigenvalues relative to the block trace s_lambda, each at most 1
    evs = np.array(
        [math.exp(sum(k * lv for k, lv in zip(w, logs)) - log_full) for w in weights]
    )
    covered = float(evs.sum())
    loss = max(0.0, 1.0 - covered)
    rho = np.diag(evs / covered).astype(complex)
    if any(theta.zeta):
        U = rotation_unitary(spec, theta.zeta, n)
        bu = sw.block_unitary(lam, U, basis)
        rho = bu.matrix @ rho @ bu.matrix.conj().T
        tr = float(np.trace(rho).real)
        loss = max(loss, 1.0 - tr)
        rho = rho / tr
    return sw.BlockOperator(tb.check_diagram(lam, spec.d), rho, float(loss))


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
