"""Tests for the distance computations: trace norm, classical L1 quadrature,
the piecewise Chebyshev curve of the trace-norm integrand, and the combined
classical-quantum distance report."""

import dataclasses
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qlan import channels as ch
from qlan import cli
from qlan import experiments as ex
from qlan import gaussian as gs
from qlan import metrics as mt
from qlan import models as md
from qlan import tableaux as tb
from qlan.errors import ResourceLimitError

SPEC2 = md.Spectrum((0.7, 0.3))
SPEC3 = md.Spectrum((0.5, 0.3, 0.2))


def random_density(dim, rng):
    A = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = A @ A.conj().T
    return rho / np.trace(rho).real


class TestTraceDistance:
    def test_identical(self):
        rho = np.diag([0.6, 0.4])
        assert mt.trace_distance(rho, rho) == 0.0

    def test_orthogonal_pure(self):
        a = np.diag([1.0, 0.0])
        b = np.diag([0.0, 1.0])
        assert mt.trace_distance(a, b) == pytest.approx(2.0)

    def test_diagonal_example(self):
        a = np.diag([0.8, 0.2])
        b = np.diag([0.6, 0.4])
        assert mt.trace_distance(a, b) == pytest.approx(0.4)

    @given(st.integers(0, 1000))
    @settings(max_examples=25, deadline=None)
    def test_metric_properties(self, seed):
        rng = np.random.default_rng(seed)
        a, b, c = (random_density(4, rng) for _ in range(3))
        dab = mt.trace_distance(a, b)
        assert dab == pytest.approx(mt.trace_distance(b, a), abs=1e-10)
        assert dab <= mt.trace_distance(a, c) + mt.trace_distance(c, b) + 1e-10
        assert mt.trace_distance(a, a) < 1e-10
        assert -1e-12 <= dab <= 2.0 + 1e-12


def make_cells(n, spec, u, alpha=0.6):
    cells = []
    for lam in ch.typical_diagrams(n, spec, alpha):
        lo, hi = ch.box_of(lam, n, spec)
        w = md.block_weight(lam, spec, u, n)
        cells.append(ch.Cell(lo, hi, w, None))
    return cells


def box_rules(cells, mean, cov):
    return [gs.box_rule(c.lo, c.hi, mean, cov) for c in cells]


class TestClassicalL1:
    def test_disjoint_supports(self):
        cells = [ch.Cell(np.array([100.0]), np.array([101.0]), 1.0, None)]
        mean, cov = np.array([0.0]), np.array([[1.0]])
        l1, _ = mt.classical_l1(cells, box_rules(cells, mean, cov))
        assert l1 == pytest.approx(2.0, abs=1e-8)

    def test_exact_discretization_small(self):
        # boxes whose masses are the exact Gaussian masses leave only the
        # in-box variation of the density
        mean, cov = np.array([0.0]), np.array([[1.0]])
        edges = np.linspace(-5, 5, 201)
        cells = []
        for a, b in zip(edges[:-1], edges[1:]):
            lo, hi = np.array([a]), np.array([b])
            w = gs.box_integral(lambda t: t, gs.box_rule(lo, hi, mean, cov))
            cells.append(ch.Cell(lo, hi, w, None))
        l1, masses = mt.classical_l1(cells, box_rules(cells, mean, cov))
        assert l1 < 0.02
        assert masses == tuple(c.weight for c in cells)

    def test_overlapping_boxes_rejected(self):
        cells = [
            ch.Cell(np.array([0.0]), np.array([1.0]), 0.5, None),
            ch.Cell(np.array([0.5]), np.array([1.5]), 0.5, None),
        ]
        with pytest.raises(ValueError):
            mt.classical_l1(cells, box_rules(cells, np.array([0.0]), np.array([[1.0]])))

    def test_one_rule_per_cell(self):
        cells = [ch.Cell(np.array([0.0]), np.array([1.0]), 0.5, None)]
        rules = box_rules(cells, np.array([0.0]), np.array([[1.0]]))
        with pytest.raises(ValueError):
            mt.classical_l1(cells, rules + rules)

    def test_decreasing_in_n(self):
        mean, cov = np.array([0.5]), md.covariance(SPEC2)
        vals = []
        for n in (25, 400):
            cells = make_cells(n, SPEC2, (0.5,))
            vals.append(mt.classical_l1(cells, box_rules(cells, mean, cov))[0])
        assert vals[1] < vals[0]

    def test_verify_matches_converge(self):
        # the lemma and the sweep read the classical term from one function,
        # so the same cells give the same bits
        config = ex.ExperimentConfig(zeta=(0j,), n_list=(25, 100, 400), fock_cutoff=2)
        rows = ex.run_converge(config)["rows"]
        expected = ex.run_verify("lclassical")["values"]["d2"]
        assert [row["classical"] for row in rows] == expected


@pytest.fixture(scope="module")
def small_run():
    theta = md.LocalParams((0.5,), (0.5 + 0.3j,))
    fock = gs.FockSpec(2, 20)
    blocks = ch.prepare_blocks(SPEC2, theta, 16, fock, alpha=0.6)
    out = ch.forward_channel(SPEC2, 16, blocks)
    limit = gs.limit_state(SPEC2, theta, fock)
    return mt.cq_distance(out, limit)


def eigvalsh_args(fn):
    """fn()'s result and the argument of each np.linalg.eigvalsh call during
    it, in call order: a matrix, or a stack of them."""
    args = []
    eigvalsh = np.linalg.eigvalsh

    def recorded(A, *rest, **kwargs):
        args.append(A)
        return eigvalsh(A, *rest, **kwargs)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(np.linalg, "eigvalsh", recorded)
        return fn(), args


def solves(args):
    """The number of matrices each recorded eigvalsh call solves: the product
    of its argument's leading dimensions."""
    return [math.prod(A.shape[:-2]) for A in args]


class TestCqDistance:
    def test_total_bounded_by_components(self, small_run):
        rep = small_run
        assert rep.total <= rep.classical + rep.quantum_sup + rep.atypical + 1e-8

    def test_components_nonnegative(self, small_run):
        rep = small_run
        for v in (rep.total, rep.classical, rep.quantum_sup, rep.atypical):
            assert v >= 0.0

    @pytest.mark.parametrize("d", [2, 3])
    def test_self_distance_small(self, d):
        # the limit state discretized onto the same boxes compares to itself
        # within the discretization residual; the box's state is the limit's,
        # so the quantum integrand is |t - height|, the classical one
        spec, n, cutoff, bound = {
            2: (SPEC2, 100, 20, 0.1),
            3: (SPEC3, 50, 2, 0.2),
        }[d]
        theta = md.LocalParams((0.5,) + (0.0,) * (d - 2), (0j,) * (d * (d - 1) // 2))
        fock = gs.FockSpec(d, cutoff)
        limit = gs.limit_state(spec, theta, fock)
        cells = []
        for lam in ch.typical_diagrams(n, spec, 0.6):
            lo, hi = ch.box_of(lam, n, spec)
            w = gs.box_integral(lambda t: t, gs.box_rule(lo, hi, limit.mean, limit.cov))
            cells.append(ch.Cell(lo, hi, w, limit.quantum))
        out = ch.ClassicalQuantumState(tuple(cells), 0.0)
        rep = mt.cq_distance(out, limit)
        assert rep.quantum_sup < 1e-10
        assert rep.total < bound  # in-box density variation + window tail
        assert rep.total == pytest.approx(rep.classical, abs=1e-9)

    def test_d3_curve_matches_per_node_oracle(self):
        theta = md.LocalParams((0.5, 0.0), (0.5 + 0.3j, 0.2 - 0.1j, 0.1 + 0.2j))
        fock = gs.FockSpec(3, 3)
        blocks = ch.prepare_blocks(SPEC3, theta, 8, fock, alpha=0.6)
        out = ch.forward_channel(SPEC3, 8, blocks)
        limit = gs.limit_state(SPEC3, theta, fock)
        expected = per_node_cq_distance(out, limit)

        rep, args = eigvalsh_args(lambda: mt.cq_distance(out, limit))
        assert_reports_close(rep, expected, 1e-10)
        assert sum(solves(args)) < 300  # one solve per node takes about 2,960

    def test_d3_curve_matches_tight_curve(self, monkeypatch):
        # the budgeted curve moves the distance far less than the box rule's
        # own tolerance: within 1e-8 of a curve resolved a thousand times
        # finer, at higher degrees
        theta = md.LocalParams((0.5, 0.0), (0.5 + 0.3j, 0.2 - 0.1j, 0.1 + 0.2j))
        fock = gs.FockSpec(3, 3)
        blocks = ch.prepare_blocks(SPEC3, theta, 8, fock, alpha=0.6)
        out = ch.forward_channel(SPEC3, 8, blocks)
        limit = gs.limit_state(SPEC3, theta, fock)
        rep = mt.cq_distance(out, limit)
        monkeypatch.setattr(mt, "CURVE_SHARE", mt.CURVE_SHARE * 1e-3)
        monkeypatch.setattr(mt, "CURVE_DEGREES", (8, 16, 32, 64))
        assert_reports_close(rep, mt.cq_distance(out, limit), 1e-8)

    def test_d2_reads_no_curve(self, monkeypatch):
        # one-axis boxes solve per point: the default config at n=64 builds
        # no trace-norm curve
        out, limit = d2_run(n_list=(64,))
        calls = []
        chebyshev_curve = mt.chebyshev_curve

        def counted(*args):
            calls.append(1)
            return chebyshev_curve(*args)

        monkeypatch.setattr(mt, "chebyshev_curve", counted)
        mt.cq_distance(out, limit)
        assert calls == []

    @pytest.mark.parametrize(
        "kwargs",
        [{"n_list": (64,)}, {"mu": (0.95, 0.05), "u": (0.0,), "n_list": (64,)}],
    )
    def test_d2_one_solve_call_per_box_level(self, kwargs, monkeypatch):
        # a level's nodes below the top kink are solved in one stacked call
        out, limit = d2_run(**kwargs)
        per_level = []
        box_integral = gs.box_integral

        def levels(fn, rule):
            def level(dens):
                vals, args = eigvalsh_args(lambda: fn(dens))
                per_level.append(len(args))
                return vals

            return box_integral(level, rule)

        monkeypatch.setattr(gs, "box_integral", levels)
        mt.cq_distance(out, limit)
        assert max(per_level) == 1

    @pytest.mark.parametrize(
        "mu, u, bound",
        [
            ((0.7, 0.3), (0.5,), 400),  # one solve per node takes 608
            ((0.9, 0.1), (0.5,), None),  # cond(Phi) is about 4e28
        ],
    )
    def test_d2_matches_per_node_oracle(self, mu, u, bound):
        out, limit = d2_run(mu=mu, u=u, n_list=(64,))
        expected = per_node_cq_distance(out, limit)
        rep, args = eigvalsh_args(lambda: mt.cq_distance(out, limit))
        assert_reports_close(rep, expected, 1e-12)
        if bound is not None:
            assert sum(solves(args)) < bound

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"n_list": (64,)},
            {"n_list": (128,)},
            {"n_list": (1024,)},
            {"mu": (0.95, 0.05), "u": (0.0,), "n_list": (64,)},  # every node solved
        ],
    )
    def test_d2_solves_are_real(self, kwargs):
        # the phase turn makes the limit and every block state real, so each
        # eigensolve of a one-axis call (kinks, integrand, quantum_sup) is real
        out, limit = d2_run(**kwargs)
        _rep, args = eigvalsh_args(lambda: mt.cq_distance(out, limit))
        assert args and all(A.dtype == np.float64 for A in args)

    @pytest.mark.parametrize("zeta", [0.5 + 0.3j, -0.4 + 0.2j, -0.3 - 0.5j, 0.2 - 0.6j, 0j])
    def test_d2_zeta_phase_matches_per_node_oracle(self, zeta):
        out, limit = d2_run(zeta=(zeta,), n_list=(64,))
        assert_reports_close(mt.cq_distance(out, limit), per_node_cq_distance(out, limit), 1e-12)

    def test_d2_state_no_turn_makes_real(self):
        # a random complex density is not real after any diagonal turn: its
        # solves stay complex and the distance is still the oracle's
        out, limit = complex_d2_run()
        expected = per_node_cq_distance(out, limit)
        rep, args = eigvalsh_args(lambda: mt.cq_distance(out, limit))
        assert_reports_close(rep, expected, 1e-12)
        assert np.complex128 in [A.dtype for A in args]

    def test_d2_singular_limit_runs(self, tmp_path):
        # at mu = (0.95, 0.05), u = 0 the cutoff-30 limit state is not
        # numerically positive definite, so no top kink is known and every
        # node is solved; the totals are those of one solve per node
        config = ex.ExperimentConfig(mu=(0.95, 0.05), u=(0.0,), n_list=(64, 128))
        with pytest.raises(ResourceLimitError):
            mt._inverse_sqrt(gs.limit_state(config.spectrum(), config.theta(), config.fock()).quantum)
        path = tmp_path / "out.json"
        argv = ["converge", "--mu", "0.95,0.05", "--u", "0", "--n-list", "64,128"]
        assert cli.main([*argv, "--format", "json", "--out", str(path)]) == 0
        totals = [row["total"] for row in json.loads(path.read_text())["rows"]]
        assert totals == pytest.approx([0.338364216655, 0.306126622633], abs=1e-12)

    @pytest.mark.parametrize("d", [2, 3])
    def test_one_box_rule_per_cell(self, d, monkeypatch):
        # every term of a box (quantum, classical, mass) reads the same rule
        spec, u, zeta = {
            2: (SPEC2, (0.5,), (0.5 + 0.3j,)),
            3: (SPEC3, (0.5, 0.0), (0.5 + 0.3j, 0.2 - 0.1j, 0.1 + 0.2j)),
        }[d]
        theta = md.LocalParams(u, zeta)
        fock = gs.FockSpec(d, 3)
        blocks = ch.prepare_blocks(spec, theta, 8, fock, alpha=0.6)
        out = ch.forward_channel(spec, 8, blocks)
        limit = gs.limit_state(spec, theta, fock)
        calls = []
        box_rule = gs.box_rule

        def counted(*args):
            calls.append(1)
            return box_rule(*args)

        monkeypatch.setattr(gs, "box_rule", counted)
        mt.cq_distance(out, limit)
        assert len(calls) == len(out.cells)


@pytest.fixture(scope="module")
def fine_legendre():
    return np.polynomial.legendre.leggauss(1024)


class TestCqDistanceAccuracy:
    @pytest.mark.parametrize("n", [16, 32])
    def test_matches_fine_gauss_oracle(self, n, fine_legendre):
        # the box rule's error is set by the kinks inside boxes; on the
        # default model it stays far below the distances' own n-dependence
        config = ex.ExperimentConfig()
        spec, theta = config.spectrum(), config.theta()
        fock = gs.FockSpec(2, 10)
        blocks = ch.prepare_blocks(spec, theta, n, fock, config.alpha)
        out = ch.forward_channel(spec, n, blocks)
        limit = gs.limit_state(spec, theta, fock)
        rep = mt.cq_distance(out, limit)
        total, classical = fine_gauss_cq_distance(out, limit, *fine_legendre)
        assert abs(rep.total - total) <= 5e-5
        assert abs(rep.classical - classical) <= 5e-5


def fine_gauss_cq_distance(out, limit, xs, ws) -> tuple[float, float]:
    """Oracle for cq_distance's total and classical terms on one-axis boxes:
    per box, Gauss-Legendre at the nodes xs with weights ws, one eigensolve
    of t Phi - B per node, and the box mass from erf."""
    mean, var = float(limit.mean[0]), float(limit.cov[0, 0])
    Phi = limit.quantum
    total = classical = inside = 0.0
    for c in out.cells:
        a, b = float(c.lo[0]), float(c.hi[0])
        x = 0.5 * (a + b) + 0.5 * (b - a) * xs
        w = 0.5 * (b - a) * ws
        t = np.exp(-0.5 * (x - mean) ** 2 / var) / math.sqrt(2 * math.pi * var)
        height = c.weight / (b - a)
        B = height * c.quantum
        total += float(w @ np.array([mt.trace_distance(ti * Phi, B) for ti in t]))
        classical += float(w @ np.abs(height - t))
        s = math.sqrt(2 * var)
        inside += 0.5 * (math.erf((b - mean) / s) - math.erf((a - mean) / s))
    outside = max(0.0, 1.0 - inside)
    return total + outside + out.neglected_mass, classical + outside


def assert_reports_close(rep, expected, bound) -> None:
    """Every field of two DistanceReports within bound, box_masses element by
    element."""
    for field in dataclasses.fields(rep):
        got, want = getattr(rep, field.name), getattr(expected, field.name)
        if field.name == "box_masses":
            assert len(got) == len(want)
            for g, w in zip(got, want):
                assert abs(g - w) <= bound, field.name
        else:
            assert abs(got - want) <= bound, field.name


def per_node_cq_distance(out, limit) -> mt.DistanceReport:
    """Oracle for cq_distance: one eigensolve of t Phi - B per quadrature node
    of the box rule, on boxes of any dimension."""
    Phi = limit.quantum
    total = 0.0
    classical = 0.0
    inside = 0.0
    masses = []
    qsup = 0.0
    for c in out.cells:
        height = c.weight / float(np.prod(c.hi - c.lo))
        B = height * c.quantum
        rule = gs.box_rule(c.lo, c.hi, limit.mean, limit.cov)

        def integrand(dens):
            return np.array([mt.trace_distance(t * Phi, B) for t in dens])

        total += gs.box_integral(integrand, rule)
        classical += gs.box_integral(lambda t: np.abs(height - t), rule)
        masses.append(gs.box_integral(lambda t: t, rule))
        inside += masses[-1]
        qsup = max(qsup, mt.trace_distance(Phi, c.quantum / np.trace(c.quantum).real))
    outside = max(0.0, 1.0 - inside)
    return mt.DistanceReport(
        total=total + outside + out.neglected_mass,
        classical=classical + outside,
        quantum_sup=qsup,
        atypical=out.neglected_mass,
        box_masses=tuple(masses),
    )


def pencil_kinks(Phi, B):
    w, V = np.linalg.eigh(Phi)
    isqrt = (V / np.sqrt(w)) @ V.conj().T
    return isqrt, np.linalg.eigvalsh(isqrt @ B @ isqrt)


def pencil_curve(Phi, isqrt, B, lo, hi, tol):
    # the curve cq_distance builds on a box with more than one axis
    f, kinks = mt.trace_norm_fn(Phi, isqrt, B)
    return mt.chebyshev_curve(f, lo, hi, kinks, tol)


def d2_run(**kwargs):
    """The channel output and the limit state of a one-axis converge unit."""
    config = ex.ExperimentConfig(**kwargs)
    spec, theta, fock = config.spectrum(), config.theta(), config.fock()
    n = config.n_list[0]
    blocks = ch.prepare_blocks(spec, theta, n, fock, config.alpha)
    return ch.forward_channel(spec, n, blocks), gs.limit_state(spec, theta, fock)


def complex_d2_run():
    """A one-axis channel output of random complex densities, which no
    diagonal turn makes real, and the default limit state at cutoff 10."""
    rng = np.random.default_rng(17)
    fock = gs.FockSpec(2, 10)
    limit = gs.limit_state(SPEC2, md.LocalParams((0.5,), (0.5 + 0.3j,)), fock)
    cells = [
        ch.Cell(c.lo, c.hi, c.weight, random_density(fock.dim, rng))
        for c in make_cells(64, SPEC2, (0.5,))
    ]
    return ch.ClassicalQuantumState(tuple(cells), 0.01), limit


def d2_box_fns(out, limit):
    """(f, kinks, rule) of each box of a one-axis cq_distance call, from Phi,
    its inverse square root (None when Phi is not numerically positive
    definite) and the box's state turned as cq_distance turns them."""
    turn = mt._phase_turn(limit.quantum)
    try:
        isqrt = turn(mt._inverse_sqrt(limit.quantum))
    except ResourceLimitError:
        isqrt = None
    Phi = turn(limit.quantum)
    for c in out.cells:
        f, kinks = mt.trace_norm_fn(Phi, isqrt, mt._height(c) * turn(c.quantum))
        yield f, kinks, gs.box_rule(c.lo, c.hi, limit.mean, limit.cov)


def assert_stacked_is_pointwise(f, ts):
    # a stacked solve runs each matrix through the same arithmetic as a
    # solve of its own, so the values agree to the bit
    stacked = f(ts)
    assert stacked.shape == ts.shape
    assert np.array_equal(stacked, np.array([f(t) for t in ts]))


D2_RUNS = {
    "default": lambda: d2_run(n_list=(64,)),
    # no kink is known, so every entry is solved
    "singular": lambda: d2_run(mu=(0.95, 0.05), u=(0.0,), n_list=(64,)),
    "complex": complex_d2_run,
}


class TestTraceNormFn:
    @pytest.mark.parametrize("run", list(D2_RUNS))
    def test_box_rule_densities(self, run):
        # each level of every box rule, and all its levels at once, in at
        # most one eigvalsh call, real unless the turn leaves the state complex
        out, limit = D2_RUNS[run]()
        dtype = np.complex128 if run == "complex" else np.float64
        for f, kinks, rule in d2_box_fns(out, limit):
            levels = [dens for dens, _weights in rule]
            for dens in [*levels, np.concatenate(levels)]:
                assert_stacked_is_pointwise(f, dens)
            _vals, args = eigvalsh_args(lambda: f(np.concatenate(levels)))
            assert len(args) <= 1 and all(A.dtype == dtype for A in args)
            if run == "singular":
                assert len(kinks) == 0
                assert solves(args) == [sum(map(len, levels))]
            if run == "complex":
                assert len(args) == 1

    def test_at_and_above_top_kink(self):
        out, limit = d2_run(n_list=(64,))
        f, kinks, _rule = next(d2_box_fns(out, limit))
        top = kinks[-1]
        ts = np.array([0.5 * top, np.nextafter(top, 0.0), top, np.nextafter(top, np.inf), 2.0 * top])
        assert_stacked_is_pointwise(f, ts)
        # at and above the top kink f is the closed form, with no solve
        _vals, args = eigvalsh_args(lambda: f(ts[2:]))
        assert args == []
        assert f(top) == f(ts[2:])[0]


class TestTraceNormCurve:
    def test_matches_trace_norm_low_rank(self):
        rng = np.random.default_rng(7)
        Phi = random_density(12, rng)
        G = rng.normal(size=(12, 3)) + 1j * rng.normal(size=(12, 3))
        B = 0.8 * (G @ G.conj().T) / np.trace(G @ G.conj().T).real
        isqrt, kinks = pencil_kinks(Phi, B)
        positive = kinks[kinks > 1e-8]
        assert len(positive) == 3
        lo, hi = 0.5 * positive.min(), 1.5 * positive.max()
        ts = np.concatenate([np.linspace(lo, hi, 197), positive])
        exact = np.array([mt.trace_distance(t * Phi, B) for t in ts])
        # f is convex, so its largest value on the range is at an end
        curve = pencil_curve(Phi, isqrt, B, lo, hi, 1e-10 * max(exact[0], exact[196]))
        assert np.abs(curve(ts) - exact).max() <= 1e-9 * exact.max()

    def test_multiple_of_phi_is_abs(self):
        rng = np.random.default_rng(3)
        Phi = random_density(8, rng)
        h = 0.3
        isqrt, _kinks = pencil_kinks(Phi, h * Phi)
        curve = pencil_curve(Phi, isqrt, h * Phi, 0.0, 1.0, 1e-13)
        # the pencil's eigenvalues all sit at h and count as one kink
        assert len(curve.coeffs) == 2
        assert curve.breaks[1] == pytest.approx(h, abs=1e-10)
        ts = np.linspace(0.0, 1.0, 101)
        assert np.abs(curve(ts) - np.abs(ts - h)).max() <= 1e-12

    def test_nonconvergent_raises(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ResourceLimitError):
            mt.chebyshev_curve(lambda t: rng.random(), 0.0, 1.0, (), 1e-10)

    def test_quadratic_is_one_degree_four_piece(self):
        # only the tail is tested: t^2 has c2 = 1/8 and nothing past it, so
        # it is accepted at degree 4, from 5 evaluations
        calls = []

        def f(t):
            calls.append(t)
            return t * t

        curve = mt.chebyshev_curve(f, 0.0, 1.0, (), 1e-10)
        assert len(calls) == 5
        assert len(curve.coeffs) == 1
        ts = np.linspace(0.0, 1.0, 101)
        assert np.abs(curve(ts) - ts**2).max() <= 1e-14

    @pytest.mark.parametrize("tol", [1e-4, 1e-8, 1e-11])
    def test_odd_about_midpoint_within_budget(self, tol):
        # sin(40(t - 1/2)) is odd about the range's midpoint, so every even
        # coefficient of its one-piece series vanishes, the last one among
        # them: a rule reading only the last coefficient would accept the
        # degree-4 interpolant, which is off by about 1
        def f(t):
            return math.sin(40.0 * (t - 0.5))

        curve = mt.chebyshev_curve(f, 0.0, 1.0, (), tol)
        ts = np.linspace(0.0, 1.0, 1001)
        assert np.abs(curve(ts) - np.sin(40.0 * (ts - 0.5))).max() <= tol

    def test_no_solve_above_top_kink(self):
        rng = np.random.default_rng(11)
        Phi = random_density(10, rng)
        B = 0.6 * random_density(10, rng)
        isqrt, kinks = pencil_kinks(Phi, B)
        top = kinks.max()
        lo, hi = 0.5 * kinks.min(), 3.0 * top
        curve, args = eigvalsh_args(lambda: pencil_curve(Phi, isqrt, B, lo, hi, 1e-10))
        # t Phi - B has trace t Tr Phi - Tr B; the first call is the pencil's
        traces = np.concatenate([np.ravel(np.trace(A, axis1=-2, axis2=-1).real) for A in args[1:]])
        solved = (traces + np.trace(B).real) / np.trace(Phi).real
        assert len(solved) > 0 and solved.max() < top
        ts = np.linspace(top, hi, 101)
        linear = ts * np.trace(Phi).real - np.trace(B).real
        assert np.abs(curve(ts) - linear).max() <= 1e-12
        exact = np.array([mt.trace_distance(t * Phi, B) for t in ts])
        assert np.abs(curve(ts) - exact).max() <= 1e-12

    @pytest.mark.parametrize("side", ["below", "above"])
    def test_zero_width_range_is_constant(self, side):
        # every node of a box can have the same density (all of them
        # underflow to 0 far out); the curve is then f at that one point
        rng = np.random.default_rng(13)
        Phi = random_density(4, rng)
        G = rng.normal(size=(4, 2)) + 1j * rng.normal(size=(4, 2))
        B = G @ G.conj().T
        isqrt, kinks = pencil_kinks(Phi, B)
        t = 0.0 if side == "below" else 2.0 * kinks.max()
        curve = pencil_curve(Phi, isqrt, B, t, t, 1e-10)
        assert curve(np.full(3, t)) == pytest.approx(mt.trace_distance(t * Phi, B), rel=1e-12)

    def test_zero_width_range_one_evaluation(self):
        calls = []

        def f(t):
            calls.append(t)
            return 2.0 * t + 1.0

        curve = mt.chebyshev_curve(f, 0.25, 0.25, (0.1, 0.25, 0.3), 1e-10)
        assert calls == [0.25]
        assert len(curve.coeffs) == 1
        assert curve(np.full(3, 0.25)).tolist() == [1.5] * 3

    def test_each_node_solved_once(self):
        # the pieces share their ends, so a curve with p pieces of degrees
        # N_i keeps sum(N_i + 1) - (p - 1) distinct nodes
        rng = np.random.default_rng(5)
        Phi = random_density(10, rng)
        B = 0.6 * random_density(10, rng)
        _isqrt, kinks = pencil_kinks(Phi, B)
        nodes = []

        def f(t):
            nodes.append(t)
            return mt.trace_distance(t * Phi, B)

        lo, hi = 0.5 * kinks.min(), kinks.max()
        curve = mt.chebyshev_curve(f, lo, hi, kinks, 1e-8)
        assert len(curve.coeffs) > 2
        degrees = [len(c) - 1 for c in curve.coeffs]
        assert len(nodes) == len(set(nodes)) == sum(degrees) + 1
        assert set(curve.breaks) <= set(nodes)


class TestSymmetry:
    # turns of zeta that the model's distances cannot see; they guard that the
    # adaptive curve and box rule add no input-dependent error
    FIELDS = ("total", "classical", "quantum_sup", "sn_total")

    @staticmethod
    def assert_same_rows(config, turned):
        rows = ex.run_converge(config)["rows"]
        turned_rows = ex.run_converge(dataclasses.replace(config, zeta=turned))["rows"]
        for row, turned_row in zip(rows, turned_rows):
            for field in TestSymmetry.FIELDS:
                assert abs(row[field] - turned_row[field]) <= 1e-12, (row["n"], field)

    def test_d3_conjugation(self):
        config = ex.ExperimentConfig(
            d=3, mu=(0.5, 0.3, 0.2), u=(0.5, 0.0), zeta=(0.5 + 0.3j, 0.2 - 0.1j, 0.1 + 0.2j),
            n_list=(8, 10), fock_cutoff=3,
        )
        self.assert_same_rows(config, tuple(z.conjugate() for z in config.zeta))

    @pytest.mark.xfail(
        strict=True,
        reason="the isometry completion places its vectors on spare number states "
        "of other photon numbers, which breaks the phase symmetry at d=3",
    )
    def test_d3_diagonal_phase_turn(self):
        # conjugation by diag(exp(i alpha)) turns zeta_jk by exp(i(alpha_j -
        # alpha_k)) and commutes with diag(mu), the block weights and the
        # weight classes, so the distances cannot see it
        config = ex.ExperimentConfig(
            d=3, mu=(0.5, 0.3, 0.2), u=(0.5, 0.0), zeta=(0.5 + 0.3j, 0.2 - 0.1j, 0.1 + 0.2j),
            n_list=(8,), fock_cutoff=3,
        )
        alpha = (0.3, -1.1, 0.4)
        turned = tuple(
            z * complex(np.exp(1j * (alpha[j - 1] - alpha[k - 1])))
            for z, (j, k) in zip(config.zeta, tb.pairs(3))
        )
        self.assert_same_rows(config, turned)

    def test_d2_phase_turn(self):
        config = ex.ExperimentConfig(n_list=(64, 128))
        self.assert_same_rows(config, tuple(z * complex(np.exp(0.7j)) for z in config.zeta))

    def test_d2_zeta0_number_diagonal(self):
        # at zeta = 0 no block is rotated and Phi is thermal, so at d = 2 every
        # forward cell state and Phi are diagonal in the number basis, exactly
        config = ex.ExperimentConfig(zeta=(0j,))
        spec, theta, fock = config.spectrum(), config.theta(), config.fock()
        blocks = ch.prepare_blocks(spec, theta, 64, fock, config.alpha)
        states = [c.quantum for c in ch.forward_channel(spec, 64, blocks).cells]
        states.append(gs.limit_state(spec, theta, fock).quantum)
        for A in states:
            assert np.count_nonzero(A - np.diag(np.diagonal(A))) == 0


class TestSnDistance:
    def test_identical_states_zero(self):
        theta = md.LocalParams((0.3,), (0.1j,))
        blocks = ch.prepare_blocks(SPEC2, theta, 30, gs.FockSpec(2, 15), alpha=0.6)
        recon = [(bd.weight, bd.state.matrix) for bd in blocks]
        assert mt.sn_distance(recon, 0.0, blocks) < 1e-12

    def test_unmatched_diagram_contributes_weight(self):
        theta = md.LocalParams((0.3,), (0j,))
        blocks = ch.prepare_blocks(SPEC2, theta, 30, gs.FockSpec(2, 15), alpha=0.6)
        recon = [(bd.weight, bd.state.matrix) for bd in blocks]
        assert mt.sn_distance(recon, 0.25, blocks) == pytest.approx(0.25, abs=1e-12)

    def test_decreasing_in_n(self):
        theta = md.LocalParams((0.5,), (0.5 + 0.3j,))
        fock = gs.FockSpec(2, 25)
        vals = []
        for n in (16, 64):
            blocks = ch.prepare_blocks(SPEC2, theta, n, fock, alpha=0.6)
            limit = gs.limit_state(SPEC2, theta, fock)
            masses = mt.cq_distance(ch.forward_channel(SPEC2, n, blocks), limit).box_masses
            vals.append(mt.sn_distance(*ch.reverse_channel(masses, limit.quantum, blocks), blocks))
        assert vals[1] < vals[0]
