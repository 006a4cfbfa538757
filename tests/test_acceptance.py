"""Acceptance gate: worked examples and property suites at their stated tolerances.

Each criterion prints one pass/fail line (run with ``pytest -s`` to see them
live).  Criterion 10's property suites accumulate their runtimes; the final
test enforces the 60-second budget for the whole property block.
"""

import json
import math
import time
from contextlib import contextmanager
from fractions import Fraction

import numpy as np
import pytest

from asymspec import (
    Ase,
    DiagonalScaling,
    Exponent,
    GkfForm,
    INFINITY,
    MatrixSeries,
    NodeSet,
    analyze_series,
    ase_from_gkf,
    auto_scale_exponents,
    distance_matrix,
    eigen_readout,
    eigen_sweep,
    estimate_valuations,
    generate_nodes,
    iterative_ase,
    kernel_ase,
    kernel_matrix,
    kernel_model,
    match_ase,
    series_matrix_inverse,
    valuation_matrix,
)
from asymspec.cli import main
from asymspec.oracle import SweepResult
from asymspec.serialize import dumps, matrix_series_to_json
from reference import grid_of, vandermonde

DEFAULT_GRID = np.geomspace(1e-4, 1e-1, 37)[::-1]
_SUITE_TIMES = {}


@contextmanager
def criterion(label, desc):
    try:
        yield
    except BaseException:
        print(f"[acceptance] criterion {label}: FAIL - {desc}")
        raise
    print(f"[acceptance] criterion {label}: PASS - {desc}")


@contextmanager
def timed_suite(name):
    t0 = time.perf_counter()
    yield
    _SUITE_TIMES[name] = time.perf_counter() - t0


def test_criterion_1_2x2_example(ex_2x2):
    with criterion(1, "2x2 example: exact groups at valuations 0 and 2, < 10 ms"):
        analyze_series(ex_2x2)  # warm up
        t0 = time.perf_counter()
        ase = analyze_series(ex_2x2)
        elapsed = time.perf_counter() - t0
        assert elapsed < 0.010, f"analyze took {elapsed * 1e3:.2f} ms"
        assert ase.complete
        assert ase.valuations == [Exponent(0), Exponent(2)]
        np.testing.assert_allclose(ase.groups[0][1], [[1, 0], [0, 0]], atol=1e-12)
        np.testing.assert_allclose(ase.groups[1][1], [[0, 0], [0, 1]], atol=1e-12)
        g0, g1 = eigen_readout(ase)
        assert g0.leading_values == pytest.approx([1.0], abs=1e-12)
        assert g1.leading_values == pytest.approx([1.0], abs=1e-12)
        np.testing.assert_allclose(g0.vectors[:, 0], [1, 0], atol=1e-12)
        np.testing.assert_allclose(g1.vectors[:, 0], [0, 1], atol=1e-12)


def test_criterion_2_5x5_example(ex_5x5):
    with criterion(2, "5x5 example: exact leading coefficients and eigenvectors, oracle at 1%"):
        ase = analyze_series(ex_5x5)
        assert ase.complete
        groups = eigen_readout(ase)
        assert [(float(g.valuation), g.count) for g in groups] == [(0, 1), (2, 2), (4, 2)]
        s2, s113 = np.sqrt(2.0), np.sqrt(113.0)
        assert groups[0].leading_values == pytest.approx([1.0], abs=1e-10)
        assert groups[1].leading_values == pytest.approx(
            [(1 + s2) / 2, (1 - s2) / 2], abs=1e-10
        )
        assert groups[2].leading_values == pytest.approx(
            [(9 + s113) / 16, (9 - s113) / 16], abs=1e-10
        )
        # two-digit reference values for the leading block-1 eigenvector
        np.testing.assert_allclose(groups[1].vectors[1:3, 0], [0.38, 0.92], atol=5e-3)
        report = match_ase(ase, eigen_sweep(ex_5x5.evaluate, DEFAULT_GRID), 1e-2, 1e-2)
        assert report.passed
        assert all(g.verifiable for g in report.groups)


def test_criterion_3_example1(ex_example1):
    with criterion(3, "auto-scaling finds (0, 1/2, 1); eigenvalue leading terms (1, eps, eps^2)"):
        sc = DiagonalScaling.from_exponents(auto_scale_exponents(valuation_matrix(ex_example1)))
        assert sc.exponents() == [Exponent(0), Exponent(1, 2), Exponent(1)]
        ase = analyze_series(ex_example1)
        assert ase.complete
        assert ase.valuations == [Exponent(0), Exponent(1), Exponent(2)]
        for k, (_, term) in enumerate(ase.groups):
            expect = np.zeros((3, 3))
            expect[k, k] = 1.0
            np.testing.assert_array_equal(term, expect)


def test_criterion_4_3x3_modes(tmp_path, ex_3x3):
    with criterion(4, "3x3 example: scaled mode truncates (exit 2); gkf and auto complete"):
        series_path = tmp_path / "k3.json"
        series_path.write_text(dumps(matrix_series_to_json(ex_3x3)))
        gkf_path = tmp_path / "gkf3.json"
        gkf_path.write_text(
            json.dumps(
                {
                    "V": [[1, 0, 0], [0, 1, -1], [0, 1, 1]],
                    "W": [[1, 1, 0], [1, 0, 0], [0, 0, 1]],
                    "valuations": [
                        {"nu": 0, "mult": 1},
                        {"nu": 1, "mult": 1},
                        {"nu": {"num": 3, "den": 2}, "mult": 1},
                    ],
                }
            )
        )
        out_scaled = tmp_path / "scaled.json"
        assert (
            main(["analyze", "--input", str(series_path), "--mode", "scaled",
                  "--output", str(out_scaled)])
            == 2
        )
        assert json.loads(out_scaled.read_text())["truncated_at"] == {"num": 2, "den": 1}

        printed = {
            0: np.diag([1.0, 0, 0]),
            2: np.array([[0, 0, 0], [0, -1, -1], [0, -1, -1.0]]),
            3: np.array([[0, 0, 0], [0, 1, -1], [0, -1, 1.0]]),
        }
        for mode, path in (("gkf", gkf_path), ("auto", series_path)):
            out = tmp_path / f"{mode}.json"
            assert main(["analyze", "--input", str(path), "--mode", mode,
                         "--output", str(out)]) == 0
            got = json.loads(out.read_text())
            assert got["truncated_at"] is None
            lam = [g["lambda"] for g in got["groups"]]
            assert lam[0] == pytest.approx([1.0], abs=1e-12)  # Schur value 1
            assert lam[1] == pytest.approx([-2.0], abs=1e-12)  # Schur value -2
            assert lam[2] == pytest.approx([2.0], abs=1e-12)  # Schur value 2
        via_gkf = ase_from_gkf(
            GkfForm(
                np.array([[1.0, 0, 0], [0, 1, -1], [0, 1, 1]]),
                DiagonalScaling(((Exponent(0), 1), (Exponent(1), 1), (Exponent(3, 2), 1))),
                np.array([[1.0, 1, 0], [1, 0, 0], [0, 0, 1]]),
            )
        )
        via_auto = analyze_series(ex_3x3, "auto")
        for ase in (via_gkf, via_auto):
            for (v, term), (ve, expect) in zip(ase.groups, sorted(printed.items())):
                assert float(v) == ve
                np.testing.assert_allclose(term, expect, atol=1e-12)


def test_criterion_5_degenerate_example(ex_degenerate):
    with criterion(5, "degenerate 3x3: iterative route gives (0, 2, 3) with identity vectors"):
        ase = iterative_ase(ex_degenerate)
        assert ase.complete
        assert ase.valuations == [Exponent(0), Exponent(2), Exponent(3)]
        for k, (_, term) in enumerate(ase.groups):
            expect = np.zeros((3, 3))
            expect[k, k] = 1.0
            np.testing.assert_allclose(term, expect, atol=1e-12)
        report = match_ase(ase, eigen_sweep(ex_degenerate.evaluate, DEFAULT_GRID), 1e-2, 1e-2)
        assert report.passed


def test_criterion_6_flat_limit_figure(tmp_path):
    with criterion(6, "20-node flat-limit figure: top-curve slopes (0,2,4,6,8), tracked u3"):
        out = tmp_path / "curves.csv"
        t0 = time.perf_counter()
        code = main(
            [
                "sweep",
                "--nodes",
                "equispaced:20",
                "--kernel",
                "gaussian",
                "--eps-grid",
                "1e-2:1e-1:120",
                "--track-vector",
                "3",
                "--output",
                str(out),
            ]
        )
        elapsed = time.perf_counter() - t0
        assert code == 0
        assert elapsed < 5.0, f"sweep took {elapsed:.2f} s"
        lines = out.read_text().splitlines()
        blank = lines.index("")
        eps = np.array([float(r.split(",")[0]) for r in lines[1:blank]])
        lam = np.array([[float(x) for x in r.split(",")[1:]] for r in lines[1:blank]])
        sweep = SweepResult(eps, lam, {})
        fits = estimate_valuations(sweep)
        for k, expect in enumerate((0, 2, 4, 6, 8)):
            assert abs(fits[k].slope - expect) < 0.1, (k, fits[k])
        # tracked eigenvector block: last eps row (1e-2) vs the predicted limit
        vec_rows = lines[blank + 2 :]
        assert vec_rows[-1].startswith("limit,")
        limit = np.array([float(x) for x in vec_rows[-1].split(",")[1:]])
        at_min_eps = np.array([float(x) for x in vec_rows[-2].split(",")[1:]])
        cos = abs(limit @ at_min_eps) / (np.linalg.norm(limit) * np.linalg.norm(at_min_eps))
        assert np.arccos(min(1.0, cos)) < 2e-2


def test_criterion_7_unisolvent_square():
    with criterion(7, "10 seeded nodes in the unit square: group sizes (1,2,3,4)"):
        g = kernel_model("gaussian")
        nodes = generate_nodes("uniform:10", seed=0)
        ase = kernel_ase(g, nodes)
        report = ase.readout
        assert [(float(r.valuation), r.count) for r in report] == [
            (0, 1),
            (2, 2),
            (4, 3),
            (6, 4),
        ]
        sweep = eigen_sweep(lambda eps: kernel_matrix(g, nodes, eps), DEFAULT_GRID)
        result = match_ase(ase, sweep, 1e-2, 1e-2)
        assert result.passed


def test_criterion_8_non_unisolvent_sets():
    with criterion(8, "cubic-curve nodes shrink groups to size <= 3; circle ranks 2j+1"):
        g = kernel_model("gaussian")
        cubic = generate_nodes("cubic:10", seed=0)
        report = kernel_ase(g, cubic).readout
        counts = [r.count for r in report]
        vals = [float(r.valuation) for r in report]
        assert counts[:4] == [1, 2, 3, 3]
        assert all(c <= 3 for v, c in zip(vals, counts) if v >= 8)
        circle = generate_nodes("circle:10", seed=0)
        creport = kernel_ase(g, circle).readout
        ccounts = [r.count for r in creport]
        assert ccounts[:3] == [1, 2, 2]
        for j in range(6):
            rank = np.linalg.matrix_rank(vandermonde(circle, j), 1e-9)
            assert rank == min(2 * j + 1, 10)


def test_criterion_9_finitely_smooth_kernels():
    with criterion(9, "exponential r=1 gives groups (1, n-1); matern r=2 gives (1, 2, 3)"):
        e = kernel_model("exponential")
        nodes = generate_nodes("uniform:6", d=2, seed=1)
        ase_e = kernel_ase(e, nodes)
        report_e = ase_e.readout
        assert [(float(r.valuation), r.count) for r in report_e] == [(0, 1), (1, 5)]
        sweep_e = eigen_sweep(lambda eps: kernel_matrix(e, nodes, eps), DEFAULT_GRID)
        slopes = [f.slope for f in estimate_valuations(sweep_e)]
        for s, expect in zip(slopes, [0, 1, 1, 1, 1, 1]):
            assert abs(s - expect) < 0.05
        assert match_ase(ase_e, sweep_e, 1e-2, 1e-2).passed

        m2 = kernel_model("matern2")
        ase_m = kernel_ase(m2, nodes)
        report_m = ase_m.readout
        assert [(float(r.valuation), r.count) for r in report_m] == [(0, 1), (2, 2), (3, 3)]
        sweep_m = eigen_sweep(lambda eps: kernel_matrix(m2, nodes, eps), DEFAULT_GRID)
        assert match_ase(ase_m, sweep_m, 1e-2, 1e-2).passed


# ---------------------------------------------------------------------------
# criterion 10: property suites (fixed seeds, >= 200 cases each)
# ---------------------------------------------------------------------------


def _random_scaled_instance(rng, allow_singular):
    n = int(rng.integers(2, 7))
    a = rng.standard_normal((n, n))
    h = a @ a.T + 0.4 * np.eye(n)
    if allow_singular and rng.random() < 0.5:
        r = int(rng.integers(1, n))
        b = rng.standard_normal((n, r))
        h = b @ b.T  # rank-deficient leading matrix
    nu = np.sort(rng.integers(0, 3, size=n))
    k = MatrixSeries(h.shape, [(0, h)], 7, symmetric=True).scale_rows_cols(
        nu.tolist(), nu.tolist()
    )
    return k, h


def test_criterion_10a_ase_invariants():
    with criterion("10a", "ASE invariants on 200 random scaled instances"):
        with timed_suite("ase_invariants"):
            rng = np.random.default_rng(100)
            for _ in range(200):
                k, h = _random_scaled_instance(rng, allow_singular=True)
                ase = analyze_series(k, "scaled")
                ase.validate()
                if np.linalg.matrix_rank(h, 1e-10) == h.shape[0]:
                    assert ase.complete
                    assert ase.term_rank_sum() == h.shape[0]


def test_criterion_10b_series_inverse_residual():
    with criterion("10b", "series-inverse residual < 1e-10 on 200 random series"):
        with timed_suite("series_inverse"):
            rng = np.random.default_rng(101)
            for _ in range(200):
                n = int(rng.integers(1, 5))
                terms = {0: rng.standard_normal((n, n)) + 3 * np.eye(n)}
                for e in range(1, int(rng.integers(2, 5))):
                    terms[e] = rng.standard_normal((n, n))
                h = MatrixSeries(n, terms, trunc_order=8)
                order = Exponent(int(rng.integers(2, 5)))
                inv = series_matrix_inverse(h, order)
                resid = (h @ inv) - MatrixSeries(n, [(0, np.eye(n))], INFINITY, symmetric=True)
                for e, m in resid.terms:
                    if e < order:
                        assert np.abs(m).max() < 1e-10


def test_criterion_10c_hungarian_scaling():
    with criterion("10c", "automatic scaling valid and maximally tight on 200 matrices"):
        with timed_suite("hungarian"):
            rng = np.random.default_rng(102)
            for _ in range(200):
                n = int(rng.integers(2, 9))
                num = rng.integers(0, 9, (n, n))
                den = rng.choice([1, 1, 2, 4], size=(n, n))
                vals = np.minimum(num, num.T)
                dens = np.minimum(den, den.T)
                inf_mask = rng.random((n, n)) < 0.15
                inf_mask = inf_mask | inf_mask.T
                np.fill_diagonal(inf_mask, False)
                om = grid_of(
                    [
                        [
                            INFINITY
                            if inf_mask[i, j]
                            else Exponent(int(vals[i, j]), int(dens[i, j]))
                            for j in range(n)
                        ]
                        for i in range(n)
                    ]
                )
                nu = auto_scale_exponents(om)
                for i in range(n):
                    tight = False
                    for j in range(n):
                        if om[i, j] == INFINITY:
                            continue
                        assert nu[i] + nu[j] <= om[i, j]
                        tight = tight or nu[i] + nu[j] == om[i, j]
                    assert tight, "a scaling exponent could still be raised"
                # dominates a greedy feasible nonnegative competitor
                total = sum(nu)
                other = [Fraction(0)] * n
                for i in rng.permutation(n):
                    caps = [
                        om[i, j] / 2 if j == i else om[i, j] - other[j]
                        for j in range(n)
                        if om[i, j] != INFINITY
                    ]
                    other[i] = max(Fraction(0), min(caps))
                assert total >= sum(other)


def test_criterion_10d_wronskian_spd():
    with criterion("10d", "Wronskians of positive-definite kernels SPD, 200 cases"):
        with timed_suite("wronskian_spd"):
            from asymspec import wronskian

            rng = np.random.default_rng(103)
            cases = 0
            while cases < 200:
                d = int(rng.integers(1, 4))
                max_deg = int(rng.integers(1, 4))
                # random positive mixture of gaussian bumps: strictly PD kernel
                weights = rng.uniform(0.2, 2.0, size=3)
                scales = rng.uniform(0.3, 3.0, size=3)
                horizon = 2 * max_deg
                coeffs = []
                for m in range(horizon + 1):
                    if m % 2:
                        coeffs.append(0.0)
                    else:
                        l = m // 2
                        coeffs.append(
                            float(
                                sum(
                                    w * (-a) ** l / math.factorial(l)
                                    for w, a in zip(weights, scales)
                                )
                            )
                        )
                kern = kernel_model("custom", psi_coefficients=coeffs)
                w = wronskian(kern, d, max_deg)
                assert np.linalg.eigvalsh(w).min() > 0
                cases += 1
            # the named smooth kernels, within their smoothness
            g = kernel_model("gaussian")
            for d in (1, 2, 3):
                for deg in (1, 2, 3):
                    assert np.linalg.eigvalsh(wronskian(g, d, deg)).min() > 0
            m2 = kernel_model("matern2")
            for d in (1, 2, 3):
                assert np.linalg.eigvalsh(wronskian(m2, d, 1)).min() > 0


def test_criterion_10e_distance_conditional_definiteness():
    with criterion("10e", "odd distance matrices conditionally definite, 200 cases"):
        with timed_suite("distance_cpd"):
            from asymspec import num_monomials_upto

            rng = np.random.default_rng(104)
            cases = 0
            while cases < 200:
                r = int(rng.integers(1, 3))
                d = int(rng.integers(1, 4))
                p = num_monomials_upto(r - 1, d)
                n = int(rng.integers(p + 1, p + 5))
                nodes = NodeSet(rng.uniform(-1, 1, size=(n, d)))
                v = vandermonde(nodes, r - 1)
                u, s, _ = np.linalg.svd(v, full_matrices=True)
                rank = int(np.sum(s > 1e-9 * s[0]))
                if rank < p:  # the definiteness statement needs full column rank
                    continue
                a = u[:, rank:]
                m = (-1) ** r * a.T @ distance_matrix(nodes, 2 * r - 1) @ a
                assert np.linalg.eigvalsh(m).min() > 0
                cases += 1


def test_criterion_10f_vandermonde_rank_growth():
    with criterion("10f", "Vandermonde rank strictly grows on 200 distinct node sets"):
        with timed_suite("vandermonde_rank"):
            rng = np.random.default_rng(105)
            for case in range(200):
                kind = case % 4
                n = int(rng.integers(3, 8))
                if kind == 0:
                    pts = rng.uniform(-1, 1, size=(n, int(rng.integers(1, 4))))
                elif kind == 1:  # collinear in the plane
                    t = rng.uniform(-1, 1, size=n)
                    direction = rng.standard_normal(2)
                    pts = np.outer(t, direction)
                elif kind == 2:  # on a circle
                    theta = rng.uniform(0, 2 * np.pi, size=n)
                    pts = np.column_stack([np.cos(theta), np.sin(theta)])
                else:  # on the cubic curve
                    pts = generate_nodes(f"cubic:{n}", seed=int(rng.integers(1 << 30))).points
                try:
                    nodes = NodeSet(pts)
                except ValueError:
                    continue  # astronomically unlikely duplicate draw
                prev = np.linalg.matrix_rank(vandermonde(nodes, 0), 1e-9)
                for s in range(1, nodes.n):
                    cur = np.linalg.matrix_rank(vandermonde(nodes, s), 1e-9)
                    assert cur > prev
                    prev = cur
                    if cur == nodes.n:
                        break


def test_criterion_10g_gkf_oracle_equivalence():
    with criterion("10g", "GKF predictions match the eigen oracle on 200 SPD instances"):
        with timed_suite("gkf_oracle"):
            rng = np.random.default_rng(106)
            checked = 0
            for _ in range(200):
                n = int(rng.integers(2, 7))
                v = rng.standard_normal((n, n))
                while np.linalg.matrix_rank(v) < n:
                    v = rng.standard_normal((n, n))
                a = rng.standard_normal((n, n))
                w = a @ a.T + 0.4 * np.eye(n)
                sizes = []
                left = n
                while left:
                    b = int(rng.integers(1, left + 1))
                    sizes.append(b)
                    left -= b
                sc = DiagonalScaling(tuple((Exponent(i), b) for i, b in enumerate(sizes)))
                form = GkfForm(v, sc, w)
                ase = ase_from_gkf(form)
                assert ase.complete
                eps = 1e-4
                evaluated = form.evaluate(eps)
                ceiling = 1e-12 * np.abs(evaluated).max()
                lam = np.linalg.eigvalsh(evaluated)
                lam = lam[np.argsort(-np.abs(lam))]
                idx = 0
                for g in eigen_readout(ase):
                    alpha = float(g.valuation)
                    for pred in g.leading_values:
                        if abs(pred) * eps**alpha > ceiling:
                            got = lam[idx] / eps**alpha
                            assert abs(got - pred) <= 1e-2 * abs(pred)
                            checked += 1
                        idx += 1
            assert checked >= 400


def test_criterion_10_timing_budget():
    with criterion(10, "all seven property suites ran within the 60 s budget"):
        assert len(_SUITE_TIMES) == 7, "property suites did not all run"
        total = sum(_SUITE_TIMES.values())
        detail = ", ".join(f"{k}={v:.2f}s" for k, v in _SUITE_TIMES.items())
        print(f"[acceptance] property-suite timings: {detail} (total {total:.2f}s)")
        assert total < 60.0
