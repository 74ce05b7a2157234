"""Experiment drivers: convergence sweeps, lemma verifiers, and block
decomposition dumps, with deterministic CSV/JSON serialization."""

from __future__ import annotations

import io
import json
import math
from dataclasses import dataclass

import numpy as np

from . import channels as ch
from . import gaussian as gs
from . import metrics as mt
from . import models as md
from . import oracle as orc
from . import schur_weyl as sw
from . import tableaux as tb
from .errors import ResourceLimitError

SCHEMA_VERSION = 4

CSV_COLUMNS = (
    "n",
    "total",
    "classical",
    "quantum_sup",
    "atypical",
    "sn_total",
    "trunc_budget",
)

# Range of the typical-window exponent alpha under which the convergence
# theorem applies.
ALPHA_RANGE = (0.5, 1.0)

# Typical-window exponent and Fock cutoff: the defaults of a run, and the
# fixed values of the lemma verifiers.
ALPHA = 0.6
FOCK_CUTOFF = 30

# Largest Fock dimension a sweep builds: one dense complex operator on it is
# 16 MB, and each block's isometry and limit state hold several.
MAX_FOCK_DIM = 1024

def _fmt(x) -> str:
    """Fixed, locale-independent scalar formatting for byte-stable output."""
    if isinstance(x, bool):
        return str(x).lower()
    if isinstance(x, int):
        return str(x)
    return format(float(x), ".12g")


@dataclass(frozen=True)
class ExperimentConfig:
    d: int = 2
    mu: tuple[float, ...] = (0.7, 0.3)
    u: tuple[float, ...] = (0.5,)
    zeta: tuple[complex, ...] = (0.5 + 0.3j,)
    n_list: tuple[int, ...] = (8, 16, 32, 64)
    alpha: float = ALPHA
    fock_cutoff: int = FOCK_CUTOFF
    override_exponents: bool = False

    def __post_init__(self):
        if self.d != len(self.mu):
            raise ValueError(f"d={self.d} but mu has {len(self.mu)} entries")
        self.spectrum()  # validates mu
        npairs = len(tb.pairs(self.d))
        if len(self.u) != self.d - 1:
            raise ValueError(f"u needs {self.d - 1} components, got {len(self.u)}")
        if len(self.zeta) != npairs:
            raise ValueError(f"zeta needs {npairs} components, got {len(self.zeta)}")
        self.theta()  # validates u and zeta
        if not self.n_list:
            raise ValueError("n_list must not be empty")
        if not all(n > 0 for n in self.n_list):
            raise ValueError("n_list entries must be positive")
        if len(set(self.n_list)) != len(self.n_list):
            # a rate fitted through repeated n has no meaning
            raise ValueError("n_list entries must be distinct")
        if self.fock_cutoff < 1:
            raise ValueError("fock_cutoff must be >= 1")
        lo, hi = ALPHA_RANGE
        if not self.override_exponents and not lo < self.alpha < hi:
            raise ValueError(
                f"exponent alpha={self.alpha} outside convergence range "
                f"({lo}, {hi}); pass override to proceed anyway"
            )

    def spectrum(self) -> md.Spectrum:
        return md.Spectrum(self.mu)

    def theta(self) -> md.LocalParams:
        return md.LocalParams(self.u, self.zeta)

    def fock(self) -> gs.FockSpec:
        return gs.FockSpec(self.d, self.fock_cutoff)

    def metadata(self) -> dict:
        return {
            "d": self.d,
            "mu": list(self.mu),
            "u": list(self.u),
            "zeta": [[z.real, z.imag] for z in self.zeta],
            "alpha": self.alpha,
            "fock_cutoff": self.fock_cutoff,
            "override_exponents": self.override_exponents,
        }


# ---------------------------------------------------------------------------
# converge


def _converge_point(config: ExperimentConfig, n: int) -> dict:
    spec = config.spectrum()
    theta = config.theta()
    fock = config.fock()
    blocks = ch.prepare_blocks(spec, theta, n, fock, config.alpha)
    out = ch.forward_channel(spec, n, blocks)
    limit = gs.limit_state(spec, theta, fock)
    rep = mt.cq_distance(out, limit)
    recon = ch.reverse_channel(limit, spec, n, blocks)
    sn_total = mt.sn_distance(recon, blocks)
    return {
        "n": n,
        "total": rep.total,
        "classical": rep.classical,
        "quantum_sup": rep.quantum_sup,
        "atypical": rep.atypical,
        "sn_total": sn_total,
        "trunc_budget": rep.truncation_budget,
    }


def fitted_rate(ns, totals) -> float:
    """Least-squares slope of log(total) against log(n)."""
    x = np.log(np.asarray(ns, dtype=float))
    y = np.log(np.asarray(totals, dtype=float))
    return float(np.polyfit(x, y, 1)[0])


def run_converge(config: ExperimentConfig) -> dict:
    """Distance rows per n, and the fitted rate (None for a single n, where
    no slope exists)."""
    fock = config.fock()
    if fock.dim > MAX_FOCK_DIM:
        raise ResourceLimitError(
            f"Fock dimension {fock.dim} ({fock.nmodes} modes at cutoff "
            f"{fock.cutoff}) exceeds {MAX_FOCK_DIM}; lower the Fock cutoff"
        )
    rows = [_converge_point(config, n) for n in config.n_list]
    rate = (
        fitted_rate([r["n"] for r in rows], [r["total"] for r in rows])
        if len(rows) >= 2
        else None
    )
    return {
        "schema_version": SCHEMA_VERSION,
        "kind": "converge",
        "config": config.metadata(),
        "rows": rows,
        "fitted_rate": rate,
    }


# ---------------------------------------------------------------------------
# decompose


def run_decompose(config: ExperimentConfig) -> dict:
    if len(config.n_list) != 1:
        raise ValueError("decompose needs a single n")
    n = config.n_list[0]
    spec = config.spectrum()
    theta = config.theta()
    blocks = []
    total = 0.0
    for lam in tb.enumerate_diagrams(n, config.d):
        weight = md.block_weight(lam, spec, theta.u, n)
        basis = sw.block_basis(lam, config.d, max_weight=n)
        state = md.block_state(basis, spec, theta, n)
        spectrum = np.linalg.eigvalsh(state.matrix)[::-1]
        total += weight
        blocks.append(
            {
                "lam": list(lam),
                "weight": weight,
                "dim": tb.dim_irrep(lam, config.d),
                "multiplicity": tb.multiplicity(lam, n, config.d),
                "spectrum": [float(v) for v in spectrum],
                "typical": tb.is_typical(lam, n, config.mu, config.alpha),
            }
        )
    return {
        "schema_version": SCHEMA_VERSION,
        "kind": "decompose",
        # the bases are untruncated, so the Fock cutoff is not read
        "config": {k: v for k, v in config.metadata().items() if k != "fock_cutoff"},
        "n": n,
        "blocks": blocks,
        "total_weight": total,
    }


# ---------------------------------------------------------------------------
# verify


def _report(lemma: str, passed: bool, values: dict) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "kind": "verify",
        "lemma": lemma,
        "passed": bool(passed),
        "values": values,
    }


def _verify_dims() -> dict:
    """Completeness of the block decomposition: Sum_lam dim * multiplicity
    = d^n as exact integers for d <= 4 and n <= 25, and dim counts
    semistandard fillings."""
    checks = []
    ok = True
    for d in (2, 3, 4):
        for n in range(1, 26):
            s = sum(
                tb.dim_irrep(lam, d) * tb.multiplicity(lam, n, d)
                for lam in tb.enumerate_diagrams(n, d)
            )
            if s != d**n:
                ok = False
                checks.append({"d": d, "n": n, "sum": str(s), "expected": str(d**n)})
    ssyt_ok = True
    for d in (2, 3):
        for n in range(1, 13):
            for lam in tb.enumerate_diagrams(n, d):
                count = len(tb.enumerate_m_vectors(lam, d, max_weight=n))
                if count != tb.dim_irrep(lam, d):
                    ssyt_ok = False
    return _report(
        "dims",
        ok and ssyt_ok,
        {"identity_failures": checks, "semistandard_count_ok": ssyt_ok},
    )


def _verify_formdet() -> dict:
    """Determinant-product overlap against direct column antisymmetrization."""
    rng = np.random.default_rng(20240601)
    worst = 0.0
    for n in range(1, 7):
        for d in (2, 3):
            for lam in tb.enumerate_diagrams(n, d):
                basis = [
                    orc.canonical_tableau(lam, m, d)
                    for m in tb.enumerate_m_vectors(lam, d, max_weight=n)
                ]
                for _ in range(20):
                    U = orc.haar_unitary(d, rng)
                    Umat = gs.tensor_modes([U] * n)
                    Q = orc.column_antisymmetrizer_matrix(lam, n, d)
                    for ta in basis[:2]:
                        for tc in basis[:2]:
                            va = np.zeros(d**n)
                            va[orc.tableau_vector_index(ta, d)] = 1.0
                            vb = np.zeros(d**n)
                            vb[orc.tableau_vector_index(tc, d)] = 1.0
                            lhs = orc.minor_det_product(U, ta, tc)
                            rhs = (Q @ va).conj() @ Umat @ vb
                            worst = max(worst, abs(lhs - rhs))
    return _report("formdet", worst <= 1e-10, {"max_abs_error": worst})


def proportional_diagram(n: int, mu: tuple[float, ...]) -> tb.Diagram:
    """Diagram with n boxes and rows proportional to mu: floor each row, then
    hand the leftover boxes to the top rows.  Topping up from the top keeps
    the row gaps as large as possible, which is what the overlap bounds
    depend on."""
    lam = [math.floor(n * m) for m in mu]
    for i in range(n - sum(lam)):
        lam[i % len(mu)] += 1
    out = tuple(lam)
    tb.check_diagram(out)
    if sum(out) != n:
        raise ValueError("rounding failed to preserve the box count")
    return out


def _verify_nonorth() -> dict:
    """Selection rule (exact Gram zeros across weight classes) and decay of
    the surviving same-weight off-diagonal overlaps."""
    rng = np.random.default_rng(7)
    d = 3
    exact_ok = True
    for _ in range(10):
        base = sorted(rng.integers(1, 12, size=3), reverse=True)
        lam = tuple(int(b) for b in base)
        ms = tb.enumerate_m_vectors(lam, d, max_weight=min(6, lam[0]))
        G = sw.gram_matrix(lam, d, ms)
        for i, mi in enumerate(ms):
            for j, mj in enumerate(ms):
                if tb.total_multiplicities(lam, mi, d) != tb.total_multiplicities(
                    lam, mj, d
                ):
                    if G[i, j] != 0.0:
                        exact_ok = False
    mu = (0.5, 0.3, 0.2)
    m_a = {(1, 2): 1, (2, 3): 1}
    m_b = {(1, 3): 1}
    pr = tb.pairs(3)
    va = tuple(m_a.get(p, 0) for p in pr)
    vb = tuple(m_b.get(p, 0) for p in pr)
    vals = []
    for n in (13, 26, 52):
        lam = proportional_diagram(n, mu)
        G = sw.gram_matrix(lam, 3, [va, vb])
        vals.append(abs(G[0, 1]))
    decay_ok = vals[0] > vals[1] > vals[2] and vals[2] <= 0.5 * vals[0]
    return _report(
        "nonorth",
        exact_ok and decay_ok,
        {"selection_rule_exact": exact_ok, "off_diagonal": vals},
    )


def _most_probable_diagram(spec: md.Spectrum, n: int) -> tb.Diagram:
    cands = ch.typical_diagrams(n, spec, ALPHA)
    return max(cands, key=lambda lam: md.block_weight(lam, spec, (0.0,) * (spec.d - 1), n))


def _verify_len0() -> dict:
    """Unperturbed typical blocks approach the thermal equilibrium state."""
    spec = md.Spectrum((0.7, 0.3))
    theta = md.LocalParams((0.5,), (0j,))
    fock = gs.FockSpec(2, FOCK_CUTOFF)
    th = gs.tensor_modes([gs.thermal(b, fock.cutoff) for b in gs.mode_betas(spec)])
    dists = {}
    for n in (25, 200):
        lam = _most_probable_diagram(spec, n)
        basis = sw.block_basis(lam, 2, max_weight=fock.cutoff)
        iso = ch.build_isometry(basis, fock)
        state = md.block_state(basis, spec, theta, n)
        phi = iso.matrix @ state.matrix @ iso.matrix.conj().T
        phi = phi / float(np.trace(phi).real)
        dists[n] = mt.trace_distance(phi, th)
    passed = dists[200] < dists[25] and dists[200] < 0.15
    return _report("len0", passed, {"distances": {str(k): v for k, v in dists.items()}})


def _verify_ldisplacement() -> dict:
    """Rotated lowest-weight vectors converge to the matching coherent state."""
    spec = md.Spectrum((0.7, 0.3))
    zeta = (0.5 + 0.3j,)
    fock = gs.FockSpec(2, FOCK_CUTOFF)
    target = gs.coherent_vector(zeta[0], fock.cutoff)
    vals = []
    for n in (25, 100, 400):
        lam = _most_probable_diagram(spec, n)
        basis = sw.block_basis(lam, 2, max_weight=fock.cutoff)
        iso = ch.build_isometry(basis, fock)
        U = md.rotation_unitary(spec, zeta, n)
        B = sw.block_unitary(basis, U)
        zero = (0,)
        psi = iso.matrix @ (B.matrix @ basis.coords(zero).astype(complex))
        vals.append(1.0 - abs(target.conj() @ psi) ** 2)
    passed = vals[0] > vals[1] > vals[2] and vals[2] < 0.1
    return _report("ldisplacement", passed, {"defects": vals})


def _group_limit_defect(spec: md.Spectrum, zeta: complex, z: complex, n: int) -> float:
    """|| [rotate(zeta+z) - rotate(zeta) rotate(z)] applied to the lowest
    weight vector ||_1 on the most probable block."""
    lam = _most_probable_diagram(spec, n)
    basis = sw.block_basis(lam, 2, max_weight=FOCK_CUTOFF)
    e0 = basis.coords((0,)).astype(complex)

    def rotate(w):
        U = md.rotation_unitary(spec, (w,), n)
        return sw.block_unitary(basis, U).matrix

    psi_sum = rotate(zeta + z) @ e0
    psi_seq = rotate(zeta) @ (rotate(z) @ e0)
    rho_sum = np.outer(psi_sum, psi_sum.conj())
    rho_seq = np.outer(psi_seq, psi_seq.conj())
    return mt.trace_distance(rho_sum, rho_seq)


def _verify_lgrouplimit() -> dict:
    """Block rotations compose like displacements in the limit.  Two direction
    pairs: collinear real amplitudes (the generators coincide, so the defect
    is exactly zero at every n) and a quadrature pair where the generators do
    not commute and the defect genuinely decays."""
    spec = md.Spectrum((0.7, 0.3))
    collinear = {n: _group_limit_defect(spec, 0.3, 0.4, n) for n in (25, 100)}
    quadrature = {n: _group_limit_defect(spec, 0.3, 0.4j, n) for n in (25, 100)}
    collinear_ok = (collinear[100] < collinear[25]
                    or max(collinear.values()) <= 1e-12)
    quadrature_ok = quadrature[100] < quadrature[25]
    return _report(
        "lgrouplimit",
        collinear_ok and quadrature_ok,
        {
            "collinear": {str(k): v for k, v in collinear.items()},
            "quadrature": {str(k): v for k, v in quadrature.items()},
        },
    )


def _verify_lclassical() -> dict:
    """Diagram-weight histograms approach the Gaussian location model."""
    results = {}
    passed = True
    for d, mu in ((2, (0.7, 0.3)), (3, (0.5, 0.3, 0.2))):
        spec = md.Spectrum(mu)
        u = tuple([0.5] + [0.0] * (d - 2))
        mean = np.array(u, dtype=float)
        cov = md.covariance(spec)
        vals = []
        for n in (25, 100, 400):
            cells = []
            for lam in ch.typical_diagrams(n, spec, ALPHA):
                lo, hi = ch.box_of(lam, n, spec)
                w = md.block_weight(lam, spec, u, n)
                cells.append(ch.Cell(lam, lo, hi, w, None))
            vals.append(mt.classical_l1(cells, mean, cov))
        results[f"d{d}"] = vals
        passed = passed and vals[0] > vals[1] > vals[2]
    return _report("lclassical", passed, results)


def _verify_lconcentration() -> dict:
    """Mass outside the typical window is small; exact multinomial tails obey
    the Hoeffding bound."""
    spec = md.Spectrum((0.7, 0.3))
    n = 400
    typ = set(ch.typical_diagrams(n, spec, ALPHA))
    typical_mass = sum(md.block_weight(lam, spec, (0.0,), n) for lam in typ)
    atypical = max(0.0, 1.0 - typical_mass)
    hoeffding_ok = True
    samples = []
    for nn in (50, 100, 200):
        p = 0.7
        ks = np.arange(nn + 1)
        pmf = np.array([md.multinomial_pmf((k, nn - k), (p, 1 - p)) for k in ks])
        for t in (0.05, 0.1, 0.2):
            tail = float(pmf[np.abs(ks - nn * p) >= t * nn].sum())
            bound = 2.0 * math.exp(-2.0 * nn * t * t)
            samples.append({"n": nn, "t": t, "tail": tail, "bound": bound})
            if tail > bound + 1e-12:
                hoeffding_ok = False
    passed = atypical < 0.05 and hoeffding_ok
    return _report(
        "lconcentration",
        passed,
        {"atypical_mass": atypical, "hoeffding": samples},
    )


VERIFIERS = {
    "dims": _verify_dims,
    "formdet": _verify_formdet,
    "nonorth": _verify_nonorth,
    "len0": _verify_len0,
    "ldisplacement": _verify_ldisplacement,
    "lgrouplimit": _verify_lgrouplimit,
    "lclassical": _verify_lclassical,
    "lconcentration": _verify_lconcentration,
}


def run_verify(lemma: str) -> dict:
    if lemma not in VERIFIERS:
        raise ValueError(f"unknown lemma {lemma!r}; choose from {sorted(VERIFIERS)}")
    return VERIFIERS[lemma]()


# ---------------------------------------------------------------------------
# serialization


def to_json(result: dict) -> str:
    def default(o):
        if isinstance(o, (np.floating, np.integer)):
            return o.item()
        raise TypeError(type(o))

    return json.dumps(result, indent=2, sort_keys=True, default=default) + "\n"


def to_csv(result: dict) -> str:
    if result.get("kind") != "converge":
        raise ValueError("CSV output is defined for converge sweeps only")
    buf = io.StringIO()
    buf.write(",".join(CSV_COLUMNS) + "\n")
    for row in result["rows"]:
        buf.write(",".join(_fmt(row[c]) for c in CSV_COLUMNS) + "\n")
    return buf.getvalue()
