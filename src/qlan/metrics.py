"""Distances: trace norm, classical L1 against the Gaussian by quadrature,
the exact classical-quantum distance over box cells, and the blockwise
distance for the reverse channel."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import channels as ch
from . import gaussian as gs
from . import tableaux as tb


def trace_distance(A: np.ndarray, B: np.ndarray) -> float:
    """Sum of absolute eigenvalues of the Hermitian difference."""
    return float(np.abs(np.linalg.eigvalsh(A - B)).sum())


def _adaptive_box_integral(fn, lo, hi, tol=1e-6, orders=(8, 16, 32)) -> float:
    prev = None
    for order in orders:
        pts, wgrid = gs.box_nodes(lo, hi, order)
        val = float((fn(pts) * wgrid).sum())
        if prev is not None and abs(val - prev) <= tol:
            return val
        prev = val
    return prev


def _check_disjoint(cells) -> None:
    boxes = sorted(((tuple(c.lo), tuple(c.hi)) for c in cells))
    for a in range(len(boxes)):
        for b in range(a + 1, len(boxes)):
            lo_a, hi_a = boxes[a]
            lo_b, hi_b = boxes[b]
            if lo_b[0] >= hi_a[0] - 1e-15:
                break
            if all(lo_b[k] < hi_a[k] - 1e-15 and lo_a[k] < hi_b[k] - 1e-15
                   for k in range(len(lo_a))):
                raise ValueError(f"overlapping boxes {boxes[a]} and {boxes[b]}")


def _cell_classical(c, mean: np.ndarray, cov: np.ndarray, tol: float) -> tuple[float, float]:
    """Quadrature of |height - density| over one cell's box, and the
    Gaussian mass of that box."""
    volume = math.prod(float(h - l) for l, h in zip(c.lo, c.hi))
    height = c.weight / volume
    l1 = _adaptive_box_integral(
        lambda pts: np.abs(height - gs.gaussian_density(pts, mean, cov)),
        c.lo,
        c.hi,
        tol=tol,
    )
    return l1, ch.gaussian_box_mass(c.lo, c.hi, mean, cov)


def classical_l1(
    cells, mean: np.ndarray, cov: np.ndarray, tol: float = 1e-6
) -> float:
    """L1 distance between the piecewise-constant box mixture and the
    Gaussian: per-box quadrature of |height - density| plus the Gaussian mass
    outside all boxes."""
    _check_disjoint(cells)
    total = 0.0
    inside = 0.0
    for c in cells:
        l1, mass = _cell_classical(c, mean, cov, tol)
        total += l1
        inside += mass
    return total + max(0.0, 1.0 - inside)


@dataclass(frozen=True)
class DistanceReport:
    """Total distance with its named diagnostic components; the components
    dominate the total by the triangle inequality."""

    total: float
    classical: float
    quantum_sup: float
    atypical: float
    truncation_budget: float

    def components_sum(self) -> float:
        return self.classical + self.quantum_sup + self.atypical


def cq_distance(out: ch.ClassicalQuantumState, limit: gs.LimitState,
                tol: float = 1e-6) -> DistanceReport:
    """Exact trace-norm distance between the channel output and the Gaussian
    limit.  On each box only the scalar Gaussian density varies, so the
    integrand needs one Hermitian eigensolve per quadrature node."""
    _check_disjoint(out.cells)
    Phi = limit.quantum
    total = 0.0
    inside = 0.0
    classical = 0.0
    qsup = 0.0
    for c in out.cells:
        volume = math.prod(float(h - l) for l, h in zip(c.lo, c.hi))
        height = c.weight / volume
        B = height * c.quantum

        def integrand(pts):
            dens = gs.gaussian_density(pts, limit.mean, limit.cov)
            return np.array(
                [np.abs(np.linalg.eigvalsh(dv * Phi - B)).sum() for dv in dens]
            )

        total += _adaptive_box_integral(integrand, c.lo, c.hi, tol=tol)
        l1, mass = _cell_classical(c, limit.mean, limit.cov, tol)
        classical += l1
        inside += mass
        qsup = max(qsup, trace_distance(Phi, c.quantum / float(np.trace(c.quantum).real)))
    outside = max(0.0, 1.0 - inside)
    total += outside + out.neglected_mass
    classical += outside
    return DistanceReport(
        total=total,
        classical=classical,
        quantum_sup=qsup,
        atypical=out.neglected_mass,
        truncation_budget=out.truncation_budget,
    )


def sn_distance(
    recon: list[tuple[tb.Diagram, float, np.ndarray]],
    blocks: list[ch.BlockData],
) -> float:
    """Blockwise trace distance between the reconstructed state and the model:
    sum over diagrams of || w_lambda block - p_lambda rho_lambda ||_1, the
    multiplicity factors cancelling; diagrams absent from the enumerated set
    contribute their weight."""
    model = {bd.lam: (bd.weight, bd.state.matrix) for bd in blocks}
    seen = set()
    total = 0.0
    for lam, w, rho in recon:
        seen.add(lam)
        if lam in model:
            p, sigma = model[lam]
            total += float(np.abs(np.linalg.eigvalsh(w * rho - p * sigma)).sum())
        else:
            total += w
    for lam, (p, _sigma) in model.items():
        if lam not in seen:
            total += p
    return total
