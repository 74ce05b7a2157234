"""Acceptance gate: one test per acceptance criterion, each printing a
single pass/fail line with the measured quantity.

Run with `pytest -v tests/test_acceptance.py` for the per-criterion report.
"""

import math

import numpy as np
import pytest

from qlan import channels as ch
from qlan import experiments as ex
from qlan import gaussian as gs
from qlan import models as md
from qlan import oracle as orc
from qlan import schur_weyl as sw
from qlan import tableaux as tb


def report(num, name, passed, detail):
    line = f"criterion {num:02d} {name}: {'PASS' if passed else 'FAIL'} ({detail})"
    print(line)
    assert passed, line


@pytest.fixture(scope="module")
def default_config():
    return ex.ExperimentConfig()


@pytest.fixture(scope="module")
def converge_result(default_config):
    # d=2, mu=(0.7,0.3), theta=(0.5, 0.5+0.3i), n in {8,16,32,64}
    return ex.run_converge(default_config)


def test_criterion_01_dimension_identity():
    worst = None
    for d in (2, 3, 4):
        for n in range(1, 26):
            total = sum(
                tb.dim_irrep(lam, d) * tb.multiplicity(lam, n, d)
                for lam in tb.enumerate_diagrams(n, d)
            )
            if total != d**n:
                worst = (d, n)
    ssyt_ok = True
    for d in (2, 3, 4):
        for n in range(1, 13):
            for lam in tb.enumerate_diagrams(n, d):
                if len(tb.enumerate_m_vectors(lam, d, max_weight=n)) != tb.dim_irrep(
                    lam, d
                ):
                    ssyt_ok = False
    report(
        1,
        "dimension identity",
        worst is None and ssyt_ok,
        f"sum-rule exact for d<=4, n<=25; semistandard counts ok={ssyt_ok}",
    )


def test_criterion_02_oracle_equivalence():
    worst = 0.0
    cases = [(2, (0.7, 0.3), (0.4,), (0.3 + 0.2j,), range(2, 9)),
             (3, (0.5, 0.3, 0.2), (0.1, 0.05), (0.2j, 0.1, 0.15 + 0.1j), range(2, 6))]
    for d, mu, u, zeta, ns in cases:
        spec = md.Spectrum(mu)
        theta = md.LocalParams(u, zeta)
        for n in ns:
            rho = orc.rho_theta(spec, theta, n)
            oracle = orc.brute_force_blocks(rho, n)
            for lam, w_oracle, spec_oracle in oracle:
                w = md.block_weight(lam, spec, u, n)
                worst = max(worst, abs(w - w_oracle))
                basis = sw.block_basis(lam, d, max_weight=n)
                state = md.block_state(basis, spec, theta, n)
                evs = np.sort(np.linalg.eigvalsh(state.matrix))[::-1]
                worst = max(worst, np.abs(evs - spec_oracle).max())
    report(2, "oracle equivalence", worst < 1e-9, f"max deviation {worst:.2e}")


def test_criterion_03_formdet_identity():
    result = ex.run_verify("formdet")
    report(
        3,
        "determinant-product identity",
        result["passed"],
        f"max error {result['values']['max_abs_error']:.2e} over shapes <= 6 boxes, "
        "20 unitaries each",
    )


def test_criterion_04_isometry_and_channel_contracts():
    spec = md.Spectrum((0.7, 0.3))
    theta = md.LocalParams((0.5,), (0.5 + 0.3j,))
    fock = gs.FockSpec(2, 25)
    n = 60
    blocks = ch.prepare_blocks(spec, theta, n, fock, alpha=0.6)
    iso_err = max(
        np.abs(
            bd.isometry.matrix.conj().T @ bd.isometry.matrix - np.eye(bd.basis.size)
        ).max()
        for bd in blocks
    )
    out = ch.forward_channel(spec, n, blocks)
    mass_err = abs(sum(c.weight for c in out.cells) + out.neglected_mass - 1.0)
    limit = gs.limit_state(spec, theta, fock)
    recon = ch.reverse_channel(limit, spec, n, blocks)
    state_ok = all(
        np.linalg.eigvalsh(rho).min() > -1e-10
        and abs(np.trace(rho).real - 1.0) < 1e-8
        for _, _, rho in recon
    )
    round_trip = max(
        np.abs(
            ch.reverse_block_map(
                bd.isometry.matrix @ bd.state.matrix @ bd.isometry.matrix.conj().T,
                bd.basis,
                bd.isometry,
            )
            - bd.state.matrix
        ).max()
        for bd in blocks
    )
    passed = iso_err < 1e-10 and mass_err < 1e-9 and state_ok and round_trip < 1e-10
    report(
        4,
        "isometry/channel contracts",
        passed,
        f"V*V error {iso_err:.1e}, mass error {mass_err:.1e}, "
        f"round trip {round_trip:.1e}, reverse states ok={state_ok}",
    )


@pytest.fixture(scope="module")
def nonorth():
    return ex.run_verify("nonorth")["values"]


def test_criterion_05_selection_rule(nonorth):
    exact = nonorth["selection_rule_exact"]
    report(5, "weight-class selection rule", exact,
           "no nonzero cross-class Gram entries over 10 random blocks"
           if exact else "nonzero cross-class Gram entries found")


def test_criterion_06_quasi_orthogonality_decay(nonorth):
    vals = nonorth["off_diagonal"]
    passed = vals[0] > vals[1] > vals[2] and vals[2] <= 0.5 * vals[0]
    report(6, "quasi-orthogonality decay", passed,
           f"|G| = {vals[0]:.4f}, {vals[1]:.4f}, {vals[2]:.4f} at n=13,26,52")


def test_criterion_07_thermal_limit():
    result = ex.run_verify("len0")
    d = result["values"]["distances"]
    report(7, "thermal block limit", result["passed"],
           f"distance {d['200']:.4f} at n=200 (<0.15), {d['25']:.4f} at n=25")


def test_criterion_08_displacement():
    result = ex.run_verify("ldisplacement")
    v = result["values"]["defects"]
    report(8, "coherent displacement limit", result["passed"],
           f"1-|overlap|^2 = {v[0]:.2e}, {v[1]:.2e}, {v[2]:.2e} at n=25,100,400")


def test_criterion_09_group_limit():
    result = ex.run_verify("lgrouplimit")
    q = result["values"]["quadrature"]
    c = result["values"]["collinear"]
    report(
        9,
        "displacement group limit",
        result["passed"],
        f"quadrature pair {q['25']:.4f} -> {q['100']:.4f}; "
        f"collinear pair exactly zero ({max(c.values()):.1e})",
    )


def test_criterion_10_classical_lan():
    result = ex.run_verify("lclassical")
    v = result["values"]
    report(10, "classical Gaussian limit", result["passed"],
           f"L1 d=2 {v['d2']}, d=3 {v['d3']} at n=25,100,400")


def test_criterion_11_concentration():
    result = ex.run_verify("lconcentration")
    v = result["values"]
    report(11, "typical-window concentration", result["passed"],
           f"atypical mass {v['atypical_mass']:.2e} at n=400 (<0.05); "
           "multinomial tails within Hoeffding bound")


def test_criterion_12_main_trend(converge_result):
    rows = converge_result["rows"]
    totals = [r["total"] for r in rows]
    sns = [r["sn_total"] for r in rows]
    rate = converge_result["fitted_rate"]
    decreasing = all(a > b for a, b in zip(totals, totals[1:])) and all(
        a > b for a, b in zip(sns, sns[1:])
    )
    passed = decreasing and rate < -0.1
    report(
        12,
        "main convergence trend",
        passed,
        f"totals {[round(t, 4) for t in totals]}, "
        f"reverse totals {[round(s, 4) for s in sns]}, rate {rate:.3f} (<-0.1)",
    )


def test_criterion_13_gaussian_formulas():
    beta, z, N = math.log(0.7 / 0.3), 0.5 - 0.25j, 60
    rho = gs.displaced_thermal(beta, z, N)
    char_err = 0.0
    for zp in (0.3, 0.7j, 0.4 + 0.9j, -1.1 + 0.2j, 1.5):
        expect = np.exp(
            -abs(zp) ** 2 / (2 * math.tanh(beta / 2)) + 2j * (np.conj(zp) * z).imag
        )
        char_err = max(char_err, abs(orc.char_fn(rho, zp) - expect))
    # coherent smearing: (e^b-1)/pi * int exp(-(e^b-1)|z|^2)|z><z| = thermal
    Ns = 25
    s = math.exp(beta) - 1.0
    nodes, weights = np.polynomial.laguerre.laggauss(60)
    M = 64
    acc = np.zeros((Ns + 1, Ns + 1), dtype=complex)
    for t, w in zip(nodes, weights):
        r = math.sqrt(t / s)
        for k in range(M):
            phi = 2 * math.pi * k / M
            v = gs.coherent_vector(r * complex(math.cos(phi), math.sin(phi)), Ns)
            acc += w / M * np.outer(v, v.conj())
    smear_err = np.abs(acc - gs.thermal(beta, Ns)).max()
    passed = char_err < 1e-6 and smear_err < 1e-4
    report(13, "Gaussian-state formulas", passed,
           f"characteristic fn error {char_err:.1e} (<1e-6), "
           f"smearing error {smear_err:.1e} (<1e-4)")
