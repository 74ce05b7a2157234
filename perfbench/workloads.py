"""Workload inputs, one timed pass of each workload, and the output checks.

Every workload calls only qlan's public entry points.  One operation is one
unit, a public call at a single n (or one probe n); it fails if the call
raises or its output fails a check.
"""

from __future__ import annotations

import cmath
import json
import math
import random
import time
from dataclasses import dataclass, field
from pathlib import Path

REFERENCE = Path(__file__).resolve().parent / "reference.json"

MU3 = (0.5, 0.3, 0.2)
U3 = (0.5, 0.0)
ZETA3 = (0.5 + 0.3j, 0.2 - 0.1j, 0.1 + 0.2j)
# Fock cutoff of converge-d3: the classical-quantum distance diagonalises
# one (K+1)^3 matrix per quadrature node, 64x64 at K=3
FOCK3 = 3
# ExperimentConfig's defaults: d=2, mu=(0.7, 0.3), u=0.5, zeta=0.5+0.3i,
# fock_cutoff=30, alpha=0.6
ZETA2 = (0.5 + 0.3j,)

# Each workload is a list of units; a unit is one public call on a config
# with a single n, so one unit is one operation and is timed on its own.
# Units are kept to a few seconds so that a run repeats each of them.
UNITS = {
    "converge-d2": ("run_converge", [(2, 64), (2, 128)]),
    "converge-d3": ("run_converge", [(3, 8), (3, 10)]),
    "decompose-full": ("run_decompose", [(2, 48), (3, 10)]),
}
# Share of each workload's time in cq_distance's eigvalsh calls on the seed
# commit (the rest is mostly pure Python); weights the two reference kernels.
EIGVALSH_SHARE = {"converge-d2": 0.1, "converge-d3": 0.85, "decompose-full": 0.0}
WORKLOADS = {
    "converge-d2": "qubit run_converge at n=64 and n=128, plus the n=2048,4096 block_weight probe",
    "converge-d3": "qutrit run_converge at n=8 and n=10 with fock_cutoff=3",
    "decompose-full": "run_decompose, every diagram, untruncated basis, d=2 n=48 and d=3 n=10",
}
PROBE_NS = (2048, 4096)


# Largest phase turn (radians) of a zeta component at seeds other than 0.
# Magnitudes are kept, so diagrams and basis sizes do not change; the turn is
# small because the adaptive quadrature of cq_distance refines differently
# at other phases (at d=3, n=10, turns over the full circle give 3951 to
# 6001 eigvalsh calls against 4976 at seed 0), and a seed must not change the
# amount of work.  Turns up to 0.05 keep the seed-0 call counts and move the
# rows by about 1e-4.
PHASE_JITTER = 0.05


def rotate_phases(zeta: tuple[complex, ...], seed: int) -> tuple[complex, ...]:
    """Seed 0 keeps zeta; other seeds turn each component by a random phase
    of at most PHASE_JITTER."""
    if seed == 0:
        return zeta
    rng = random.Random(seed)
    return tuple(z * cmath.exp(1j * rng.uniform(-PHASE_JITTER, PHASE_JITTER))
                 for z in zeta)


def make_configs(ex, workload: str, seed: int) -> list:
    """The validated ExperimentConfig of each unit (this is the set-up)."""
    z2 = rotate_phases(ZETA2, seed)
    z3 = rotate_phases(ZETA3, seed)
    _entry, units = UNITS[workload]
    configs = []
    for d, n in units:
        if d == 2:
            configs.append(ex.ExperimentConfig(zeta=z2, n_list=(n,)))
        elif workload.startswith("converge"):
            configs.append(ex.ExperimentConfig(d=3, mu=MU3, u=U3, zeta=z3,
                                               fock_cutoff=FOCK3, n_list=(n,)))
        else:
            configs.append(ex.ExperimentConfig(d=3, mu=MU3, u=U3, zeta=z3, n_list=(n,)))
    return configs


def reference_rows(ex) -> dict:
    """Seed-0 rows of every converge unit, as stored in reference.json."""
    cols = ("total", "classical", "quantum_sup", "atypical", "sn_total", "trunc_budget")
    rows = {}
    for name, (entry, _units) in UNITS.items():
        if entry != "run_converge":
            continue
        rows[name] = {}
        for cfg in make_configs(ex, name, 0):
            row = ex.run_converge(cfg)["rows"][0]
            rows[name][str(row["n"])] = {c: row[c] for c in cols}
    return rows


def unit_label(cfg) -> str:
    return f"d={cfg.d} n={cfg.n_list[0]}"


@dataclass
class Outcome:
    """Result of one pass (or of the probe): seconds per unit, blocks
    processed, operations."""

    unit_s: dict[str, float] = field(default_factory=dict)
    # each unit's time in kernel-mix times, and the kernel mix's seconds
    unit_ref: dict[str, float] = field(default_factory=dict)
    ref_s: list[float] = field(default_factory=list)
    blocks: int = 0
    attempted: int = 0
    failed: int = 0
    # labels of the operations that failed
    failed_ops: list[str] = field(default_factory=list)
    # wrong outputs, or workload calls that raised: either makes the run
    # incorrect.  A probe call that raises is a range failure, counted in
    # failed only.
    wrong: list[str] = field(default_factory=list)
    probe_failures: list[str] = field(default_factory=list)

    @property
    def wall_s(self) -> float:
        return sum(self.unit_s.values())

    def fail(self, op: str, problems: list[str], wrong: bool = True) -> None:
        self.failed += 1
        self.failed_ops.append(op)
        (self.wrong if wrong else self.probe_failures).extend(problems)


class Workload:
    def __init__(self, qlan: dict, name: str, seed: int, configs: list):
        self.qlan = qlan
        self.name = name
        self.configs = configs
        self.labels = [unit_label(c) for c in configs]
        self.entry_name = UNITS[name][0]
        with open(REFERENCE) as f:
            ref = json.load(f)
        self.tol = ref["tolerance"]
        self.reference = ref["rows"].get(name) if seed == 0 else None
        ch = qlan["channels"]
        # blocks per unit: typical diagrams for converge, counted once outside
        # the timed region; for decompose every diagram, taken from the result
        self.blocks = [
            len(ch.typical_diagrams(c.n_list[0], c.spectrum(), c.alpha))
            if self.entry_name == "run_converge" else None
            for c in self.configs
        ]

    @property
    def operations(self) -> list[str]:
        """Labels of the distinct operations a run attempts."""
        probe = [f"probe n={n}" for n in PROBE_NS] if self.name == "converge-d2" else []
        return self.labels + probe

    def run_pass(self, reference=None) -> Outcome:
        """Every unit once, each timed on its own and checked.

        ``reference``, a callable returning the seconds of the two reference
        kernels, runs before the first unit and after each one; each unit's
        time over the mean of the two kernel-mix times around it goes into
        ``unit_ref``."""
        out = Outcome()
        # looked up per pass, so the traced run calls the tracer's wrapper
        entry = getattr(self.qlan["experiments"], self.entry_name)
        check = self._check_converge if self.entry_name == "run_converge" \
            else self._check_decompose
        w = EIGVALSH_SHARE[self.name]

        def kernel_mix():
            py_s, eig_s = reference()
            return (1 - w) * py_s + w * eig_s

        before = kernel_mix() if reference else None
        for cfg, label, blocks in zip(self.configs, self.labels, self.blocks):
            out.attempted += 1
            t0 = time.perf_counter()
            try:
                result = entry(cfg)
                problems = []
            except Exception as e:
                result = None
                problems = [f"{label}: {self.entry_name} raised {type(e).__name__}: {e}"]
            out.unit_s[label] = time.perf_counter() - t0
            if reference:
                after = kernel_mix()
                out.unit_ref[label] = out.unit_s[label] / ((before + after) / 2)
                out.ref_s.append(after)
                before = after
            if result is not None:
                out.blocks += len(result["blocks"]) if blocks is None else blocks
                problems = check(cfg, result)
            if problems:
                out.fail(label, problems)
        return out

    def run_probe(self) -> Outcome:
        """The untimed large-n range probe (converge-d2 only)."""
        out = Outcome()
        if self.name == "converge-d2":
            for n in PROBE_NS:
                self._probe(out, n)
        return out

    # -- converge ----------------------------------------------------------

    def _check_converge(self, cfg, result: dict) -> list[str]:
        n = cfg.n_list[0]
        rows = {r["n"]: r for r in result["rows"]}
        return self._check_row(n, rows.get(n))

    def _check_row(self, n: int, row: dict | None) -> list[str]:
        if row is None:
            return [f"n={n}: no row"]
        slack = self.tol["invariant_slack"]
        cols = ("total", "classical", "quantum_sup", "atypical", "sn_total", "trunc_budget")
        bad = []
        if not all(isinstance(row.get(c), (int, float)) and math.isfinite(row[c])
                   for c in cols):
            return [f"n={n}: non-finite or missing column in {row}"]
        total, classical = row["total"], row["classical"]
        if classical > total + slack:
            bad.append(f"n={n}: classical {classical} > total {total}")
        upper = classical + row["quantum_sup"] + row["atypical"]
        if total > upper + slack:
            bad.append(f"n={n}: total {total} > classical+quantum_sup+atypical {upper}")
        if total > 2.0 + slack:
            bad.append(f"n={n}: total {total} > 2")
        if self.reference is not None:
            ref = self.reference.get(str(n))
            if ref is None:
                bad.append(f"n={n}: no reference row")
            else:
                for c in cols:
                    if abs(row[c] - ref[c]) > self.tol["reference_abs"]:
                        bad.append(f"n={n}: {c}={row[c]!r} differs from reference {ref[c]!r}")
        return bad

    # -- decompose ---------------------------------------------------------

    def _check_decompose(self, cfg, result: dict) -> list[str]:
        tol = self.tol["sum_abs"]
        blocks = result["blocks"]
        n, d = cfg.n_list[0], cfg.d
        bad = []
        if abs(result["total_weight"] - 1.0) > tol:
            bad.append(f"d={d} n={n}: total_weight {result['total_weight']!r}")
        for b in blocks:
            s = math.fsum(b["spectrum"])
            if abs(s - 1.0) > tol:
                bad.append(f"d={d} n={n} lam={b['lam']}: spectrum sums to {s!r}")
        dims = sum(b["dim"] * b["multiplicity"] for b in blocks)
        if dims != d**n:
            bad.append(f"d={d} n={n}: sum dim*multiplicity = {dims}, not {d**n}")
        return bad

    # -- large-n range probe (untimed) -------------------------------------

    def _probe(self, out: Outcome, n: int) -> None:
        """block_weight on every typical diagram at a large n; fails if any
        call raises or the weights sum above one."""
        ch, md = self.qlan["channels"], self.qlan["models"]
        cfg = self.configs[0]
        spec = cfg.spectrum()
        out.attempted += 1
        raised = []
        total = 0.0
        diagrams = ch.typical_diagrams(n, spec, cfg.alpha)
        for lam in diagrams:
            try:
                total += md.block_weight(lam, spec, cfg.u, n)
            except Exception as e:
                raised.append(f"{type(e).__name__}: {e}")
        if raised:
            out.fail(f"probe n={n}", [
                f"probe n={n}: {len(raised)} of {len(diagrams)} block_weight calls "
                f"raised (first: {raised[0]})"
            ], wrong=False)
        elif total > 1.0 + self.tol["sum_abs"]:
            out.fail(f"probe n={n}", [f"probe n={n}: weights sum to {total!r} > 1"])
