"""Experiment drivers: convergence sweeps, lemma verifiers, and block
decomposition dumps, with deterministic CSV/JSON serialization.  Each lemma
verifier checks functions that converge or decompose run: the prepared
blocks, the pairing transfer, the forward channel, the block weights and
the classical L1."""

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

# Largest block decompose enumerates: n <= 4,095 at d=2, 41 at d=3, 15 at d=4
MAX_BLOCK_DIM = 4096

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
        if type(self.d) is not int:
            raise ValueError(f"d must be an integer, got {self.d!r}")
        if isinstance(self.alpha, (bool, np.bool_)):
            raise ValueError(f"alpha must be a number, got {self.alpha!r}")
        for name in ("mu", "u", "zeta"):
            if any(isinstance(x, (bool, np.bool_)) for x in getattr(self, name)):
                raise ValueError(f"{name} entries must be numbers, got {getattr(self, name)!r}")
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
        if not all(type(n) is int and n > 0 for n in self.n_list):
            raise ValueError("n_list entries must be positive integers")
        if len(set(self.n_list)) != len(self.n_list):
            # a rate fitted through repeated n has no meaning
            raise ValueError("n_list entries must be distinct")
        if type(self.fock_cutoff) is not int or self.fock_cutoff < 1:
            raise ValueError(f"fock_cutoff must be an integer >= 1, got {self.fock_cutoff!r}")
        if not math.isfinite(self.alpha):
            raise ValueError(f"exponent alpha must be finite, got {self.alpha}")
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
            "mu": [float(x) for x in self.mu],
            "u": [float(x) for x in self.u],
            "zeta": [[z.real, z.imag] for z in map(complex, self.zeta)],
            "alpha": float(self.alpha),
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
    recon, unplaced = ch.reverse_channel(rep.box_masses, limit.quantum, blocks)
    sn_total = mt.sn_distance(recon, unplaced, blocks)
    return {
        "n": n,
        "total": rep.total,
        "classical": rep.classical,
        "quantum_sup": rep.quantum_sup,
        "atypical": rep.atypical,
        "sn_total": sn_total,
        "trunc_budget": max(bd.state.truncation_defect for bd in blocks),
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
    d = config.d
    vals = md.perturbed_spectrum(spec, theta.u, n)
    lams = tb.enumerate_diagrams(n, d)
    # the window of run_converge, so both agree on every diagram
    typical = ch.typical_mask(lams, n, spec, config.alpha).tolist()
    dims = [tb.dim_irrep(lam, d) for lam in lams]
    for lam, dim in zip(lams, dims):
        if dim > MAX_BLOCK_DIM:
            raise ResourceLimitError(f"the block of {lam} has dimension {dim}, "
                                     f"more than {MAX_BLOCK_DIM}; lower n")
    # one walk and one weight product for all diagrams; each log s_lambda
    # serves the block's weight and its spectrum
    weights, log_s = md.block_weights(lams, vals, n)
    evs = md.weight_eigenvalues(lams, *tb.m_vector_rows(lams, d), vals, log_s)
    blocks = []
    total = 0.0
    for lam, dim, mult, weight, own, flag in zip(
        lams, dims, tb.multiplicities(lams, n, d), weights,
        np.split(evs, np.cumsum(dims)[:-1]), typical,
    ):
        # the rotation by zeta leaves the spectrum of the diagonal block
        spectrum = np.sort(own / own.sum())[::-1]
        total += weight
        blocks.append(
            {
                "lam": list(lam),
                "weight": weight,
                "dim": dim,
                "multiplicity": mult,
                "spectrum": spectrum.tolist(),
                "typical": flag,
            }
        )
    return {
        "schema_version": SCHEMA_VERSION,
        "kind": "decompose",
        # every m-vector is kept, so the Fock cutoff is not read
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
    = d^n as exact integers for d <= 4 and n <= 25, with the multiplicities
    decompose prints, and dim counts semistandard fillings for n <= 12: the
    rows that each diagram owns in the one m_vector_rows walk per (d, n)
    that decompose makes."""
    checks = []
    for d in (2, 3, 4):
        for n in range(1, 26):
            lams = tb.enumerate_diagrams(n, d)
            s = sum(tb.dim_irrep(lam, d) * mult
                    for lam, mult in zip(lams, tb.multiplicities(lams, n, d)))
            if s != d**n:
                checks.append({"d": d, "n": n, "sum": str(s), "expected": str(d**n)})
    ssyt_ok = True
    for d in (2, 3, 4):
        for n in range(1, 13):
            lams = tb.enumerate_diagrams(n, d)
            counts = np.bincount(tb.m_vector_rows(lams, d)[0], minlength=len(lams))
            ssyt_ok &= counts.tolist() == [tb.dim_irrep(lam, d) for lam in lams]
    return _report(
        "dims",
        not checks and ssyt_ok,
        {"identity_failures": checks, "semistandard_count_ok": ssyt_ok},
    )


def _verify_formdet() -> dict:
    """The production block bases and pairing transfer against the
    normalized Young-symmetrizer images v_m of the canonical fillings on the
    full tensor space, for every diagram of n <= 6 at d = 2, 3: the Gram
    matrix against V*V and, at 20 Haar unitaries U, the orbit sums over the
    norms (the determinant-product formula) against V* U^(x n) V."""
    rng = np.random.default_rng(20240601)
    worst = 0.0
    for n in range(1, 7):
        for d in (2, 3):
            lams = tb.enumerate_diagrams(n, d)
            for lam, basis in zip(lams, sw.block_bases(lams, d, max_weight=n)):
                cols = [orc.tableau_vector_index(orc.canonical_tableau(lam, m, d), d)
                        for m in basis.mvectors.tolist()]
                V = orc.young_symmetrizer_matrix(lam, n, d)[:, cols]
                V = V / np.linalg.norm(V, axis=0)
                worst = max(worst, np.abs(basis.gram - V.T @ V).max())
                norms = np.outer(basis.norms, basis.norms)
                for _ in range(20):
                    U = orc.haar_unitary(d, rng)
                    (W,) = sw.pairing_matrices([lam], U, [basis.mvectors])
                    rhs = V.T @ gs.tensor_modes([U] * n) @ V
                    worst = max(worst, np.abs(W / norms - rhs).max())
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
    the surviving same-weight off-diagonal overlaps, on the Gram matrices of
    sw.block_bases, the builder prepare_blocks calls."""
    rng = np.random.default_rng(7)
    d = 3
    exact_ok = True
    for _ in range(10):
        base = sorted(rng.integers(1, 12, size=3), reverse=True)
        lam = tuple(int(b) for b in base)
        (basis,) = sw.block_bases([lam], d, max_weight=min(6, lam[0]))
        owner = np.zeros(basis.size, dtype=np.intp)
        weights = tb.m_vector_weights([lam], d, owner, basis.mvectors)
        cross = (weights[:, None] != weights[None, :]).any(axis=2)
        if basis.gram[cross].any():
            exact_ok = False
    mu = (0.5, 0.3, 0.2)
    m_a = {(1, 2): 1, (2, 3): 1}
    m_b = {(1, 3): 1}
    pr = tb.pairs(3)
    va = [m_a.get(p, 0) for p in pr]
    vb = [m_b.get(p, 0) for p in pr]
    vals = []
    for n in (13, 26, 52):
        (basis,) = sw.block_bases([proportional_diagram(n, mu)], 3, max_weight=2)
        rows = basis.mvectors.tolist()
        vals.append(abs(basis.gram[rows.index(va), rows.index(vb)]))
    decay_ok = vals[0] > vals[1] > vals[2] and vals[2] <= 0.5 * vals[0]
    return _report(
        "nonorth",
        exact_ok and decay_ok,
        {"selection_rule_exact": exact_ok, "off_diagonal": vals},
    )


def _heaviest_block(
    spec: md.Spectrum, theta: md.LocalParams, n: int
) -> tuple[list[ch.BlockData], int]:
    """The blocks prepare_blocks gives at theta, at the verifiers' window
    and Fock cutoff, and the index of the heaviest."""
    blocks = ch.prepare_blocks(spec, theta, n, gs.FockSpec(spec.d, FOCK_CUTOFF), ALPHA)
    return blocks, int(np.argmax([bd.weight for bd in blocks]))


def _verify_len0() -> dict:
    """Typical blocks without rotation approach the thermal equilibrium
    state: the forward channel's cell of the heaviest prepared block against
    the limit's quantum state at zeta = 0."""
    spec = md.Spectrum((0.7, 0.3))
    theta = md.LocalParams((0.5,), (0j,))
    th = gs.limit_state(spec, theta, gs.FockSpec(2, FOCK_CUTOFF)).quantum
    dists = {}
    for n in (25, 200):
        blocks, heaviest = _heaviest_block(spec, theta, n)
        phi = ch.forward_channel(spec, n, blocks).cells[heaviest].quantum
        phi = phi / float(np.trace(phi).real)
        dists[n] = mt.trace_distance(phi, th)
    passed = dists[200] < dists[25] and dists[200] < 0.15
    return _report("len0", passed, {"distances": {str(k): v for k, v in dists.items()}})


def _verify_ldisplacement() -> dict:
    """Rotated lowest-weight vectors of the heaviest prepared block converge
    to the matching coherent state."""
    spec = md.Spectrum((0.7, 0.3))
    zeta = (0.5 + 0.3j,)
    target = gs.coherent_vector(zeta[0], FOCK_CUTOFF)
    vals = []
    for n in (25, 100, 400):
        blocks, heaviest = _heaviest_block(spec, md.LocalParams((0.0,), (0j,)), n)
        bd = blocks[heaviest]
        (B,) = sw.block_unitaries([bd.basis], md.rotation_unitary(spec, zeta, n))
        psi = bd.isometry @ (B @ bd.basis.lowest_weight)
        vals.append(1.0 - abs(target.conj() @ psi) ** 2)
    passed = vals[0] > vals[1] > vals[2] and vals[2] < 0.1
    return _report("ldisplacement", passed, {"defects": vals})


def _group_limit_defect(spec: md.Spectrum, zeta: complex, z: complex, n: int) -> float:
    """|| [rotate(zeta+z) - rotate(zeta) rotate(z)] applied to the lowest
    weight vector ||_1 on the heaviest prepared block."""
    blocks, heaviest = _heaviest_block(spec, md.LocalParams((0.0,), (0j,)), n)
    basis = blocks[heaviest].basis
    e0 = basis.lowest_weight

    def rotate(w):
        (B,) = sw.block_unitaries([basis], md.rotation_unitary(spec, (w,), n))
        return B

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
            lams = ch.typical_diagrams(n, spec, ALPHA)
            weights, _ = md.block_weights(lams, md.perturbed_spectrum(spec, u, n), n)
            cells = [ch.Cell(*ch.box_of(lam, n, spec), w, None) for lam, w in zip(lams, weights)]
            rules = [gs.box_rule(c.lo, c.hi, mean, cov) for c in cells]
            vals.append(mt.classical_l1(cells, rules)[0])
        results[f"d{d}"] = vals
        passed = passed and vals[0] > vals[1] > vals[2]
    return _report("lclassical", passed, results)


def _verify_lconcentration() -> dict:
    """Concentration of the Schur-Weyl measure at theta = 0 and n = 400: the
    forward channel neglects less than 5% of the mass, that mass is the
    summed block weights of the diagrams typical_mask rejects, and the
    weights of all diagrams sum to 1."""
    spec = md.Spectrum((0.7, 0.3))
    theta = md.LocalParams((0.0,), (0j,))
    n = 400
    blocks = ch.prepare_blocks(spec, theta, n, gs.FockSpec(2, FOCK_CUTOFF), ALPHA)
    neglected = ch.forward_channel(spec, n, blocks).neglected_mass
    lams = tb.enumerate_diagrams(n, 2)
    weights, _ = md.block_weights(lams, md.perturbed_spectrum(spec, theta.u, n), n)
    weights = np.array(weights)
    rejected = float(weights[~ch.typical_mask(lams, n, spec, ALPHA)].sum())
    total = float(weights.sum())
    passed = (neglected < 0.05 and abs(neglected - rejected) <= 1e-12
              and abs(total - 1.0) <= 1e-12)
    return _report(
        "lconcentration",
        passed,
        {"neglected_mass": neglected, "rejected_weight": rejected, "total_weight": total},
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
