"""Distances: trace norm, classical L1 against the Gaussian by quadrature,
the exact classical-quantum distance over box cells, and the blockwise
distance for the reverse channel."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import channels as ch
from . import gaussian as gs
from .errors import ResourceLimitError

# Piecewise Chebyshev curves: the nested Chebyshev-Lobatto degrees a piece
# is sampled at (each level reuses the previous level's points), the share of
# gaussian.BOX_TOL a box's curve error may take once integrated over the box,
# and the width, relative to the curve's range, below which a failing piece
# is not bisected again.  A piece is accepted once its last two coefficients,
# summed, are within that share per unit volume: two consecutive coefficients
# hold one of each parity, so a piece odd or even about its midpoint, whose
# every other coefficient vanishes, cannot pass on a zero alone.
CURVE_DEGREES = (4, 8, 16, 32)
CURVE_SHARE = 1e-1
CURVE_MIN_WIDTH = 1e-12

# A phase-turned matrix whose imaginary part is at most this share of its
# largest entry is solved in real arithmetic (_phase_turn).
REAL_TOL = 1e-12


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
            # a zero-width piece is constant, so any x reads it
            x = (2.0 * t[sel] - a - b) / ((b - a) or 1.0)
            out[sel] = np.polynomial.chebyshev.chebval(x, c)
        return out


def _chebyshev_piece(f, a: float, b: float, tol: float, fa, fb):
    """Chebyshev coefficients of f on [a, b] at the first CURVE_DEGREES level
    whose last two coefficients sum in absolute value to at most tol (None if
    none does), and the values at that level's points, f(b) first and f(a)
    last.  Only the tail is tested, so a quadratic passes at degree 4; it is
    two coefficients, not one, because a piece odd or even about its
    midpoint has every other coefficient zero.  fa and fb are f(a) and f(b)
    when already known, else None."""
    vals = None
    for N in CURVE_DEGREES:
        j = np.arange(N + 1)
        ts = 0.5 * (a + b) + 0.5 * (b - a) * np.cos(np.pi * j / N)
        ts[[0, N]] = b, a  # exact ends, shared with the neighbouring pieces
        # f is called one point at a time: one stacked eigvalsh call per
        # level gained nothing on d=3's 64x64 complex solves (converge-d3
        # wall_ref 2.148 -> 2.178 over 6 pairs) and raised peak RSS by
        # 0.7 MB (1.5 MB at n=16, fock_cutoff 4; BENCH_stacked_levels.json),
        # unlike d=2's 31x31 real ones
        if vals is None:
            ends = (f(b) if fb is None else fb, f(a) if fa is None else fa)
            vals = np.array([ends[0], *map(f, ts[1:N]), ends[1]])
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
        if np.abs(coeffs[-2:]).sum() <= tol:
            return coeffs, vals
    return None, vals


def chebyshev_curve(f, lo: float, hi: float, kinks, tol: float) -> ChebyshevCurve:
    """Piecewise Chebyshev interpolant of the scalar function f on [lo, hi],
    cut at the kinks inside the range, a piece accepted once its last two
    coefficients sum in absolute value to at most the absolute tol (two, so
    that one of each parity is tested) and bisected if no level does; f is
    evaluated once at each end two pieces share.  A zero-width range
    (lo == hi) is one constant piece f(lo), from one evaluation.  Raises
    ResourceLimitError when a piece narrower than CURVE_MIN_WIDTH of the
    range still fails."""
    if lo == hi:
        return ChebyshevCurve(np.array([lo, hi]), (np.array([f(lo)]),))
    min_width = CURVE_MIN_WIDTH * (hi - lo)
    edges = [lo]
    for k in np.sort(kinks):
        # kinks closer together than the narrowest piece count as one
        if edges[-1] + min_width < k < hi - min_width:
            edges.append(float(k))
    edges.append(hi)
    # a stack of (a, b, f(b) or None), leftmost on top; fa: f(a) of the top, or None
    todo = [(a, b, None) for a, b in zip(edges[:-1], edges[1:])][::-1]
    breaks, coeffs, fa = [lo], [], None
    while todo:
        a, b, fb = todo.pop()
        c, vals = _chebyshev_piece(f, a, b, tol, fa, fb)
        if c is None:
            if b - a <= min_width:
                raise ResourceLimitError(
                    f"Chebyshev curve does not converge on [{a:.17g}, {b:.17g}]"
                )
            m = 0.5 * (a + b)
            todo += [(m, b, vals[0]), (a, m, None)]
            fa = vals[-1]
            continue
        breaks.append(b)
        coeffs.append(c)
        fa = vals[0]
    return ChebyshevCurve(np.array(breaks), tuple(coeffs))


def _inverse_sqrt(Phi: np.ndarray) -> np.ndarray:
    w, V = np.linalg.eigh(Phi)
    if w[0] <= 0:
        raise ResourceLimitError(
            f"limit state is not positive definite (smallest eigenvalue {w[0]:.3g})"
        )
    return (V / np.sqrt(w)) @ V.conj().T


def _phase_turn(Phi: np.ndarray):
    """The map A -> g^dag A g with g = diag(exp(i m phi)), m = 0..cutoff, and
    phi the phase of the one-mode limit state's first moment Tr(Phi a) (0
    when it vanishes): the oscillator rotation that turns the displacement of
    Phi onto the real axis.  A turned matrix whose imaginary part is at most
    REAL_TOL of its largest entry is returned real; any other stays complex.
    The map is unitary, so it keeps every trace norm."""
    first = np.sqrt(np.arange(1, len(Phi))) @ np.diagonal(Phi, -1)
    g = np.exp(1j * np.angle(first) * np.arange(len(Phi)))

    def turn(A: np.ndarray) -> np.ndarray:
        A = g.conj()[:, None] * A * g
        if np.abs(A.imag).max() <= REAL_TOL * np.abs(A).max():
            return np.ascontiguousarray(A.real)
        return A

    return turn


def trace_norm_fn(Phi: np.ndarray, Phi_isqrt: np.ndarray | None, B: np.ndarray):
    """f(t) = ||t Phi - B||_1 and the kinks of f, the generalised eigenvalues
    of the pencil (B, Phi) (where an eigenvalue of t Phi - B crosses zero),
    ascending, from one eigensolve.  f is convex, and analytic between its
    kinks.  At and above the top kink t Phi - B is positive semidefinite
    (Sylvester's inertia), so there f reads the linear region from its closed
    form, the trace t Tr Phi - Tr B, with no solve.  f takes an array of
    densities (0-d for one density) and returns one of the same shape: the
    entries below the top kink are solved together in one stacked eigvalsh
    call, each matrix by the same arithmetic as a solve of its own.  A curve
    of f cut at the kinks (chebyshev_curve) reads its pieces above the top
    kink from that closed form too.  Phi_isqrt is the inverse square root of
    Phi, or None when Phi is not numerically positive definite: then no kink
    is known and f solves at every t."""
    if Phi_isqrt is None:
        kinks, top = np.empty(0), math.inf
    else:
        kinks = np.linalg.eigvalsh(Phi_isqrt @ B @ Phi_isqrt)
        top = kinks[-1]
    slope, offset = float(np.trace(Phi).real), float(np.trace(B).real)

    def f(t):
        t = np.asarray(t, dtype=float)
        out = np.array(t * slope - offset)
        below = t < top
        if below.any():
            A = t[below][:, None, None] * Phi - B
            out[below] = np.abs(np.linalg.eigvalsh(A)).sum(axis=-1)
        return out

    return f, kinks


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


def classical_l1(cells, rules) -> tuple[float, tuple[float, ...]]:
    """L1 distance between the piecewise-constant box mixture and the
    Gaussian, and the Gaussian mass of each cell's box in cell order.  rules
    holds one gaussian.box_rule per cell, in cell order; each box's
    |height - density| and mass are integrated by its rule, and the L1 adds
    the Gaussian mass outside all boxes.  Raises ValueError when two boxes
    overlap."""
    _check_disjoint(cells)
    total = 0.0
    masses = []
    for c, rule in zip(cells, rules, strict=True):
        height = _height(c)
        total += gs.box_integral(lambda t: np.abs(height - t), rule)
        masses.append(gs.box_integral(lambda t: t, rule))
    return total + max(0.0, 1.0 - sum(masses)), tuple(masses)


@dataclass(frozen=True)
class DistanceReport:
    """Total distance with its named diagnostic components, which dominate
    the total by the triangle inequality, and the Gaussian mass of each
    cell's box in cell order (what channels.reverse_channel places).
    classical and box_masses are what classical_l1 returns for the cells."""

    total: float
    classical: float
    quantum_sup: float
    atypical: float
    box_masses: tuple[float, ...]


def cq_distance(out: ch.ClassicalQuantumState, limit: gs.LimitState) -> DistanceReport:
    """Exact trace-norm distance between the channel output and the Gaussian
    limit: on each box, the integral of ||rho(x) Phi - B||_1 with rho the
    Gaussian density, Phi the limit's quantum state and B the box's height
    times its state.  The integrand depends on x only through t = rho(x), so
    every term of a box is read from the densities of its one box rule: the
    rules are built once per call, classical_l1 takes the classical term and
    the box masses from them, and the quantum term reads the same rules.  The
    box's pencil (B, Phi) takes one eigensolve (trace_norm_fn): at and
    above its top kink the integrand is the trace t Tr Phi - Tr B.  On boxes
    with one axis (d = 2) the integrand is trace_norm_fn's f itself, since a
    1-D rule already samples t along a line: each level of the box rule
    takes at most one stacked eigvalsh call, which solves that level's
    points below the top kink (one matrix each), and the points above it
    take none; when Phi is not numerically positive definite no kink is
    known, and every point is solved.  There Phi, its
    inverse square root and every box's state are first turned by the
    oscillator rotation that makes the limit's displacement real
    (_phase_turn): Phi is a displaced thermal state and the block states are
    rotated along the same zeta, so the turned matrices are real symmetric up
    to rounding, and every solve of the call (kinks, integrand, quantum_sup)
    runs in real arithmetic.  The turn is unitary, so no trace norm changes;
    a state it does not make real stays complex.  On boxes with more
    axes, the curve of that same f is built once per box over the density's
    range on every point of the rule, cut at the pencil's kinks
    (chebyshev_curve), and every point is read from it; they need a positive
    definite Phi.  The top kink is an ordinary edge of the curve, and the
    pieces above it read the linear region from f's closed form, so they take
    no solve.  The curve is resolved only as far as the box rule can use: a
    piece is accepted once its last two Chebyshev coefficients sum to at most
    CURVE_SHARE * gaussian.BOX_TOL / volume (two, one of each parity, so a
    piece symmetric about its midpoint cannot pass on a vanishing one), so
    the curve's error integrated over the box is about a tenth of the
    tolerance the rule itself accepts."""
    rules = [gs.box_rule(c.lo, c.hi, limit.mean, limit.cov) for c in out.cells]
    classical, masses = classical_l1(out.cells, rules)
    Phi = limit.quantum
    one_axis = len(limit.mean) == 1
    try:
        Phi_isqrt = _inverse_sqrt(Phi)
    except ResourceLimitError:
        if not one_axis:
            raise
        Phi_isqrt = None
    turn = _phase_turn(Phi) if one_axis else (lambda A: A)
    Phi = turn(Phi)
    if Phi_isqrt is not None:
        Phi_isqrt = turn(Phi_isqrt)
    total = 0.0
    qsup = 0.0
    for c, rule in zip(out.cells, rules):
        state = turn(c.quantum)
        B = _height(c) * state
        f, kinks = trace_norm_fn(Phi, Phi_isqrt, B)
        if one_axis:
            integrand = f
        else:
            tmin = min(dens.min() for dens, _ in rule)
            tmax = max(dens.max() for dens, _ in rule)
            tol = CURVE_SHARE * gs.BOX_TOL / rule[0][1].sum()  # the weights sum to the volume
            integrand = chebyshev_curve(f, tmin, tmax, kinks, tol)
        total += gs.box_integral(integrand, rule)
        qsup = max(qsup, trace_distance(Phi, state / float(np.trace(state).real)))
    total += max(0.0, 1.0 - sum(masses)) + out.neglected_mass
    return DistanceReport(
        total=total,
        classical=classical,
        quantum_sup=qsup,
        atypical=out.neglected_mass,
        box_masses=masses,
    )


def sn_distance(
    recon: list[tuple[float, np.ndarray]], unplaced: float, blocks: list[ch.BlockData]
) -> float:
    """Blockwise trace distance between the reconstructed state and the model:
    sum over the blocks, in order, of || w_lambda block - p_lambda rho_lambda ||_1,
    the multiplicity factors cancelling, plus the reconstructed mass placed on
    no prepared block (see reverse_channel)."""
    total = 0.0
    for (w, rho), bd in zip(recon, blocks, strict=True):
        total += trace_distance(w * rho, bd.weight * bd.state.matrix)
    return total + unplaced
