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
from .errors import ResourceLimitError

# Piecewise Chebyshev curves: the nested Chebyshev-Lobatto degrees a piece
# is sampled at (each level reuses the previous level's points), the size of
# the last three coefficients, relative to max |f| on the piece, at which it
# is accepted, and the width, relative to the curve's range, below which a
# failing piece is not bisected again.
CURVE_DEGREES = (4, 8, 16, 32)
CURVE_TOL = 1e-10
CURVE_MIN_WIDTH = 1e-12


def _trace_norm(A: np.ndarray) -> float:
    return float(np.abs(np.linalg.eigvalsh(A)).sum())


def trace_distance(A: np.ndarray, B: np.ndarray) -> float:
    """Sum of absolute eigenvalues of the Hermitian difference."""
    return _trace_norm(A - B)


@dataclass(frozen=True)
class ChebyshevCurve:
    """Piecewise Chebyshev interpolant: coeffs[i] is the series of the piece
    [breaks[i], breaks[i + 1]] in the variable mapped onto [-1, 1]."""

    breaks: np.ndarray
    coeffs: tuple[np.ndarray, ...]

    def __call__(self, t: np.ndarray) -> np.ndarray:
        t = np.asarray(t, dtype=float)
        piece = np.searchsorted(self.breaks, t, side="right") - 1
        piece = np.clip(piece, 0, len(self.coeffs) - 1)
        out = np.empty(t.shape)
        for i, c in enumerate(self.coeffs):
            a, b = self.breaks[i], self.breaks[i + 1]
            sel = piece == i
            x = (2.0 * t[sel] - a - b) / (b - a)
            out[sel] = np.polynomial.chebyshev.chebval(x, c)
        return out


def _chebyshev_piece(f, a: float, b: float) -> np.ndarray | None:
    """Chebyshev coefficients of f on [a, b] at the first CURVE_DEGREES level
    whose last three coefficients pass CURVE_TOL, or None if none does."""
    vals = None
    for N in CURVE_DEGREES:
        j = np.arange(N + 1)
        ts = 0.5 * (a + b) + 0.5 * (b - a) * np.cos(np.pi * j / N)
        if vals is None:
            vals = np.array([f(t) for t in ts])
        else:
            # the previous level's points are the even ones of this level
            prev, vals = vals, np.empty(N + 1)
            vals[::2] = prev
            vals[1::2] = [f(t) for t in ts[1::2]]
        # DCT-I: the interpolant through the Lobatto values
        halved = vals.copy()
        halved[[0, N]] *= 0.5
        coeffs = (2.0 / N) * (np.cos(np.pi * np.outer(j, j) / N) @ halved)
        coeffs[[0, N]] *= 0.5
        if np.abs(coeffs[-3:]).max() <= CURVE_TOL * np.abs(vals).max():
            return coeffs
    return None


def chebyshev_curve(f, lo: float, hi: float, kinks) -> ChebyshevCurve:
    """Piecewise Chebyshev interpolant of the scalar function f on [lo, hi],
    cut at the kinks inside the range; a piece whose coefficients do not
    decay by the last degree is bisected.  Raises ResourceLimitError when a
    piece narrower than CURVE_MIN_WIDTH of the range still fails."""
    min_width = CURVE_MIN_WIDTH * (hi - lo)
    edges = [lo]
    for k in np.sort(kinks):
        # kinks closer together than the narrowest piece count as one
        if edges[-1] + min_width < k < hi - min_width:
            edges.append(float(k))
    edges.append(hi)
    todo = list(zip(edges[:-1], edges[1:]))[::-1]  # a stack, leftmost on top
    breaks, coeffs = [lo], []
    while todo:
        a, b = todo.pop()
        c = _chebyshev_piece(f, a, b)
        if c is None:
            if b - a <= min_width:
                raise ResourceLimitError(
                    f"Chebyshev curve does not converge on [{a:.17g}, {b:.17g}]"
                )
            m = 0.5 * (a + b)
            todo += [(m, b), (a, m)]
            continue
        breaks.append(b)
        coeffs.append(c)
    return ChebyshevCurve(np.array(breaks), tuple(coeffs))


def _inverse_sqrt(Phi: np.ndarray) -> np.ndarray:
    w, V = np.linalg.eigh(Phi)
    if w[0] <= 0:
        raise ResourceLimitError(
            f"limit state is not positive definite (smallest eigenvalue {w[0]:.3g})"
        )
    return (V / np.sqrt(w)) @ V.conj().T


def trace_norm_curve(
    Phi: np.ndarray, Phi_isqrt: np.ndarray, B: np.ndarray, lo: float, hi: float
) -> ChebyshevCurve:
    """f(t) = ||t Phi - B||_1 on [lo, hi] for positive definite Phi with
    inverse square root Phi_isqrt.  f is convex and analytic between its
    kinks, the generalised eigenvalues of the pencil (B, Phi), where an
    eigenvalue of t Phi - B crosses zero; one eigensolve finds them."""
    kinks = np.linalg.eigvalsh(Phi_isqrt @ B @ Phi_isqrt)
    return chebyshev_curve(lambda t: _trace_norm(t * Phi - B), lo, hi, kinks)


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


def _height(c) -> float:
    return c.weight / math.prod(float(h - l) for l, h in zip(c.lo, c.hi))


def _cell_classical(c, rule) -> tuple[float, float]:
    """|height - density| integrated over one cell's box, and the box's
    Gaussian mass, both by the box's rule."""
    height = _height(c)
    l1 = gs.box_integral(lambda t: np.abs(height - t), rule)
    return l1, gs.box_integral(lambda t: t, rule)


def classical_l1(cells, mean: np.ndarray, cov: np.ndarray) -> float:
    """L1 distance between the piecewise-constant box mixture and the
    Gaussian: per-box quadrature of |height - density| plus the Gaussian mass
    outside all boxes."""
    _check_disjoint(cells)
    total = 0.0
    inside = 0.0
    for c in cells:
        l1, mass = _cell_classical(c, gs.box_rule(c.lo, c.hi, mean, cov))
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


def cq_distance(out: ch.ClassicalQuantumState, limit: gs.LimitState) -> DistanceReport:
    """Exact trace-norm distance between the channel output and the Gaussian
    limit: on each box, the integral of ||rho(x) Phi - B||_1 with rho the
    Gaussian density, Phi the limit's quantum state and B the box's height
    times its state.  The integrand depends on x only through t = rho(x), so
    every term of a box is read from the densities of its one box rule.  On
    boxes with one axis (d = 2) the quantum term is one Hermitian eigensolve
    per quadrature point, since a 1-D rule already samples t along a line.
    On boxes with more axes, the curve f(t) = ||t Phi - B||_1 is built once
    per box over the density's range on every point of the rule
    (trace_norm_curve), and every point is read from it."""
    _check_disjoint(out.cells)
    mean, cov = limit.mean, limit.cov
    Phi = limit.quantum
    Phi_isqrt = _inverse_sqrt(Phi) if len(mean) > 1 else None
    total = 0.0
    inside = 0.0
    classical = 0.0
    qsup = 0.0
    for c in out.cells:
        rule = gs.box_rule(c.lo, c.hi, mean, cov)
        B = _height(c) * c.quantum
        if Phi_isqrt is None:
            def integrand(dens):
                return np.array([_trace_norm(t * Phi - B) for t in dens])
        else:
            tmin = min(dens.min() for dens, _ in rule)
            tmax = max(dens.max() for dens, _ in rule)
            integrand = trace_norm_curve(Phi, Phi_isqrt, B, tmin, tmax)
        total += gs.box_integral(integrand, rule)
        l1, mass = _cell_classical(c, rule)
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
            total += trace_distance(w * rho, p * sigma)
        else:
            total += w
    for lam, (p, _sigma) in model.items():
        if lam not in seen:
            total += p
    return total
