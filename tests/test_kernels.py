"""Kernel models, Vandermonde/Wronskian/distance matrices and flat limits."""

import json
import math
import warnings

import numpy as np
import pytest

from asymspec import (
    Exponent,
    NodeSet,
    distance_matrix,
    generate_nodes,
    kernel_ase,
    kernel_matrix,
    kernel_model,
    monomials_of_degree,
    num_monomials_upto,
    wronskian,
)
from asymspec.ase import eigen_readout
from asymspec.cli import main
from reference import (FinitelySmoothError, block_widths, finite_smooth_flat_limit,
                       smooth_flat_limit, vandermonde)


class TestKernelModels:
    def test_regularity_indices(self):
        assert kernel_model("gaussian").regularity == math.inf
        assert kernel_model("exponential").regularity == 1
        assert kernel_model("matern2").regularity == 2

    def test_psi_expansions(self):
        g = kernel_model("gaussian")
        assert [g.psi_coeff(k) for k in range(5)] == [1.0, 0.0, -1.0, 0.0, 0.5]
        e = kernel_model("exponential")
        assert [e.psi_coeff(k) for k in range(4)] == [1.0, -1.0, 0.5, -1 / 6]
        m = kernel_model("matern2")
        assert [m.psi_coeff(k) for k in range(4)] == [1.0, 0.0, -0.5, pytest.approx(1 / 3)]

    def test_custom_kernel_regularity_lower_bound(self):
        # only even coefficients up to the horizon: regularity reported infinite
        coeffs = [1.0, 0.0, -1.0, 0.0, 0.25]
        k = kernel_model("custom", psi_coefficients=coeffs)
        assert k.regularity == math.inf
        assert k.horizon == 4

    def test_custom_kernel_finite(self):
        k = kernel_model("custom", psi_coefficients=[1.0, 0.0, -0.5, 0.1])
        assert k.regularity == 2


class TestNodesAndMonomials:
    def test_duplicate_nodes_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            NodeSet(np.array([[0.0, 1.0], [0.0, 1.0]]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_nodes_rejected(self, bad):
        with pytest.raises(ValueError, match=r"node 1 has a non-finite coordinate"):
            NodeSet(np.array([[0.0, 1.0], [2.0, bad], [3.0, 4.0]]))

    def test_monomial_counts(self):
        for d in range(1, 11):
            for s in range(0, 11):
                assert sum(block_widths(d, s)) == num_monomials_upto(s, d)

    def test_graded_lex_order_d2(self):
        assert monomials_of_degree(2, 1) == [(1, 0), (0, 1)]
        assert monomials_of_degree(2, 2) == [(2, 0), (1, 1), (0, 2)]


class TestVandermonde:
    def test_d2_column_order(self):
        nodes = NodeSet(np.array([[2.0, 3.0], [5.0, 7.0]]))
        v = vandermonde(nodes, 2)
        np.testing.assert_array_equal(v[0], [1, 2, 3, 4, 6, 9])
        np.testing.assert_array_equal(v[1], [1, 5, 7, 25, 35, 49])

    def test_d1_classical(self):
        nodes = NodeSet(np.array([2.0, 3.0, 4.0]))
        v = vandermonde(nodes, 2)
        np.testing.assert_array_equal(v, [[1, 2, 4], [1, 3, 9], [1, 4, 16]])
        assert abs(np.linalg.det(v)) > 0

    def test_square_nonsingular_distinct_points(self):
        rng = np.random.default_rng(0)
        pts = np.sort(rng.uniform(size=6))
        v = vandermonde(NodeSet(pts), 5)
        assert np.linalg.matrix_rank(v) == 6

    def test_rank_growth_on_degenerate_sets(self):
        # rank V_{<=s} > rank V_{<=s-1} for distinct points, 1 <= s < n
        rng = np.random.default_rng(1)
        line = np.column_stack([np.arange(5.0), 2 * np.arange(5.0)])  # collinear
        theta = rng.uniform(0, 2 * np.pi, 6)
        circle = np.column_stack([np.cos(theta), np.sin(theta)])
        generic = rng.uniform(size=(5, 2))
        for pts in (line, circle, generic):
            nodes = NodeSet(pts)
            prev = np.linalg.matrix_rank(vandermonde(nodes, 0), 1e-9)
            for s in range(1, nodes.n):
                cur = np.linalg.matrix_rank(vandermonde(nodes, s), 1e-9)
                assert cur > prev or cur == nodes.n
                if cur == nodes.n:
                    break
                prev = cur


class TestWronskian:
    def test_block_00_is_psi0(self):
        for name in ("gaussian", "exponential", "matern2"):
            w = wronskian(kernel_model(name), 2, 0)
            np.testing.assert_array_equal(w, [[1.0]])

    def test_gaussian_d1_mixed_entry(self):
        # coefficient of x*y in 1 - (x-y)^2 + ... is 2
        w = wronskian(kernel_model("gaussian"), 1, 1)
        assert w[1, 1] == 2.0

    def test_gaussian_spd(self):
        w = wronskian(kernel_model("gaussian"), 2, 2)
        assert np.linalg.eigvalsh(w).min() > 0

    def test_degree_beyond_smoothness_rejected(self):
        with pytest.raises(ValueError, match="r-1"):
            wronskian(kernel_model("exponential"), 1, 1)

    def test_matches_bivariate_taylor_fit(self):
        # independent oracle: least-squares bivariate polynomial fit of
        # exp(-(x-y)^2) near the origin recovers the scaled derivative table
        g = kernel_model("gaussian")
        w = wronskian(g, 1, 2)
        h = 0.08
        t = np.linspace(-1.0, 1.0, 9)
        deg = 6
        tx, ty = np.meshgrid(t, t, indexing="ij")
        design = np.column_stack(
            [(tx**i * ty**j).ravel() for i in range(deg + 1) for j in range(deg + 1)]
        )
        vals = np.exp(-((h * tx - h * ty) ** 2)).ravel()
        coef, *_ = np.linalg.lstsq(design, vals, rcond=None)
        table = coef.reshape(deg + 1, deg + 1)
        for i in range(3):
            for j in range(3):
                assert table[i, j] / h ** (i + j) == pytest.approx(w[i, j], abs=1e-5)


class TestDistanceMatrix:
    def test_simple_values(self):
        two = NodeSet(np.array([[0.0], [1.0]]))
        np.testing.assert_array_equal(distance_matrix(two, 3), [[0, 1], [1, 0]])
        line = NodeSet(np.array([0.0, 1.0, 2.0]))
        np.testing.assert_array_equal(
            distance_matrix(line, 1), [[0, 1, 2], [1, 0, 1], [2, 1, 0]]
        )

    @pytest.mark.parametrize("d", [1, 2, 3, 5, 8, 12])
    def test_matches_difference_tensor(self, d):
        # the n x n x d tensor it replaced is the reference: bitwise below
        # d = 8, where numpy sums the last axis in the same order
        rng = np.random.default_rng(d)
        for _ in range(3):
            pts = rng.standard_normal((40, d)) * 10.0 ** rng.uniform(-3, 3, d)
            diff = pts[:, None, :] - pts[None, :, :]
            dist = np.sqrt(np.sum(diff * diff, axis=2))
            for q in (1, 3, 5):
                got = distance_matrix(NodeSet(pts), q)
                if d < 8:
                    assert got.tobytes() == (dist**q).tobytes()
                else:
                    np.testing.assert_allclose(got, dist**q, rtol=8 * q * d * 2.0 ** -52)

    def test_conditional_definiteness(self):
        # (-1)^r A^T D^(2r-1) A is SPD for A spanning the complement of V_{<=r-1}
        rng = np.random.default_rng(3)
        for r in (1, 2):
            for _ in range(10):
                n = int(rng.integers(num_monomials_upto(r - 1, 2) + 1, 9))
                nodes = NodeSet(rng.uniform(size=(n, 2)))
                v = vandermonde(nodes, r - 1)
                u, s, _ = np.linalg.svd(v, full_matrices=True)
                rank = int(np.sum(s > 1e-9 * s[0]))
                a = u[:, rank:]
                if a.shape[1] == 0:
                    continue
                d = distance_matrix(nodes, 2 * r - 1)
                m = (-1) ** r * a.T @ d @ a
                assert np.linalg.eigvalsh(m).min() > 0


class TestFlatLimitForms:
    def test_smooth_three_points_1d(self):
        g = kernel_model("gaussian")
        nodes = NodeSet(np.array([0.1, 0.5, 0.9]))
        form = smooth_flat_limit(g, nodes)
        assert form.V.shape == (3, 3)
        assert [float(nu) for nu in form.scaling.nus] == [0, 1, 2]
        # remainder after the captured part shrinks at the next missing order
        ratios = []
        for eps in (1e-2, 1e-3):
            diff = np.abs(kernel_matrix(g, nodes, eps) - form.evaluate(eps)).max()
            ratios.append(diff / eps**4)
        assert 0.1 < ratios[1] / ratios[0] < 10

    def test_smooth_ten_generic_points_d2(self):
        g = kernel_model("gaussian")
        nodes = generate_nodes("uniform:10", seed=0)
        form = smooth_flat_limit(g, nodes)
        assert form.V.shape == (10, 10)  # degrees 0..3
        assert form.widths == (1, 2, 3, 4)

    def test_single_node(self):
        g = kernel_model("gaussian")
        ase = kernel_ase(g, NodeSet(np.array([0.3])))
        report = ase.readout
        assert len(report) == 1
        assert report[0].leading_values == [1.0]

    def test_smooth_raises_for_finitely_smooth(self):
        e = kernel_model("exponential")
        nodes = NodeSet(np.array([0.0, 0.5, 1.0]))
        with pytest.raises(FinitelySmoothError):
            smooth_flat_limit(e, nodes)

    def test_finite_smooth_exponential(self):
        e = kernel_model("exponential")
        nodes = NodeSet(np.array([0.0, 0.25, 0.5, 1.0]))
        form = finite_smooth_flat_limit(e, nodes)
        assert form.scaling.nus == (Exponent(0), Exponent(1, 2))
        assert form.widths == (1, 3)
        # W = blockdiag(1, -A^T D A) with psi_1 = -1
        a = form.V[:, 1:]
        d = distance_matrix(nodes, 1)
        np.testing.assert_allclose(form.W[1:, 1:], -(a.T @ d @ a), atol=1e-12)
        assert form.W[0, 0] == 1.0

    def test_finite_smooth_matern2_collinear(self):
        m2 = kernel_model("matern2")
        nodes = NodeSet(np.linspace(0, 1, 5))
        form = finite_smooth_flat_limit(m2, nodes)
        assert [str(nu) for nu in form.scaling.nus] == ["0", "1", "3/2"]
        assert form.widths == (1, 1, 3)
        # eigenvalue-slope oracle: a slope-3 group of size 3
        from asymspec import eigen_sweep, estimate_valuations

        sweep = eigen_sweep(lambda eps: kernel_matrix(m2, nodes, eps),
                            np.geomspace(1e-4, 1e-1, 25)[::-1])
        slopes = [f.slope for f in estimate_valuations(sweep)]
        for got, expect in zip(slopes, (0, 2, 3, 3, 3)):
            assert abs(got - expect) < 0.1

    def test_finite_smooth_last_term_projector_form(self):
        # the valuation 2r-1 term equals psi_{2r-1} A A^+ D^(2r-1) A A^+
        e = kernel_model("exponential")
        nodes = generate_nodes("uniform:6", d=2, seed=5)
        form = finite_smooth_flat_limit(e, nodes)
        ase = kernel_ase(e, nodes)
        a = form.V[:, 1:]
        proj = a @ a.T
        d = distance_matrix(nodes, 1)
        expect = -proj @ d @ proj
        last = ase.groups[-1]
        assert last[0] == Exponent(1)
        np.testing.assert_allclose(last[1], expect, atol=1e-10)

    def test_finite_smooth_rejects_unisolvent(self):
        m2 = kernel_model("matern2")
        nodes = NodeSet(np.array([0.0, 1.0]))  # rank V_{<=1} = 2 = n
        with pytest.raises(ValueError, match="smooth pipeline"):
            finite_smooth_flat_limit(m2, nodes)


class TestKernelAse:
    def test_unisolvent_group_sizes(self):
        g = kernel_model("gaussian")
        ase = kernel_ase(g, generate_nodes("uniform:10", seed=0))
        report = ase.readout
        assert [(float(r.valuation), r.count) for r in report] == [
            (0, 1),
            (2, 2),
            (4, 3),
            (6, 4),
        ]
        assert ase.complete

    def test_circle_group_sizes(self):
        g = kernel_model("gaussian")
        nodes = generate_nodes("circle:10", seed=0)
        ase = kernel_ase(g, nodes)
        report = ase.readout
        counts = [r.count for r in report]
        assert counts[:3] == [1, 2, 2]
        # rank V_{<=j} = min(2j+1, n) on the circle
        for j in range(5):
            rank = np.linalg.matrix_rank(vandermonde(nodes, j), 1e-9)
            assert rank == min(2 * j + 1, 10)

    def test_cubic_curve_group_sizes(self):
        g = kernel_model("gaussian")
        ase = kernel_ase(g, generate_nodes("cubic:10", seed=0))
        report = ase.readout
        counts = [r.count for r in report]
        assert counts[:4] == [1, 2, 3, 3]
        assert all(c <= 3 for c in counts[3:])

    def test_expansion_consistency_smooth(self):
        g = kernel_model("gaussian")
        nodes = generate_nodes("uniform:6", d=2, seed=2)
        form = smooth_flat_limit(g, nodes)
        q = len(form.widths) - 1
        next_order = q + 2 if q % 2 == 0 else q + 1
        ratios = []
        for eps in (1e-2, 1e-3):
            diff = np.abs(kernel_matrix(g, nodes, eps) - form.evaluate(eps)).max()
            ratios.append(diff / eps**next_order)
        assert 0.05 < ratios[1] / ratios[0] < 20

    def test_expansion_consistency_finite(self):
        e = kernel_model("exponential")
        nodes = generate_nodes("uniform:5", d=2, seed=4)
        form = finite_smooth_flat_limit(e, nodes)
        ratios = []
        for eps in (1e-2, 1e-3):
            diff = np.abs(kernel_matrix(e, nodes, eps) - form.evaluate(eps)).max()
            ratios.append(diff / eps)  # next order past the captured eps^0..eps^1
        assert 0.05 < ratios[1] / ratios[0] < 20


class TestKernelMatrix:
    def test_gaussian_at_zero(self):
        g = kernel_model("gaussian")
        nodes = generate_nodes("uniform:4", seed=1)
        np.testing.assert_array_equal(kernel_matrix(g, nodes, 0.0), np.ones((4, 4)))

    def test_equispaced_closed_form(self):
        g = kernel_model("gaussian")
        nodes = generate_nodes("equispaced:20")
        eps = 0.37
        x = np.linspace(0, 1, 20)
        expect = np.exp(-((eps * (x[:, None] - x[None, :])) ** 2))
        np.testing.assert_array_equal(kernel_matrix(g, nodes, eps), expect)

    def test_exponential_two_points(self):
        e = kernel_model("exponential")
        nodes = NodeSet(np.array([[0.0], [1.0]]))
        k = kernel_matrix(e, nodes, 0.3)
        assert k[0, 1] == pytest.approx(np.exp(-0.3))

    def test_custom_kernel_warns_beyond_horizon(self):
        k = kernel_model("custom", psi_coefficients=[1.0, 0.0, -1.0])
        nodes = NodeSet(np.array([[0.0], [10.0]]))
        with pytest.warns(UserWarning, match="horizon"):
            kernel_matrix(k, nodes, 0.5)

    def test_custom_matches_gaussian_within_horizon(self):
        g = kernel_model("gaussian")
        # the first 20 coefficients, then every stored one (the whole psi horizon)
        for count, spec, seed, eps in ((20, "uniform:4", 6, 0.05), (None, "uniform:6", 0, 0.05),
                                       (None, "uniform:6", 0, 0.5)):
            custom = kernel_model("custom", psi_coefficients=list(g.coeffs[:count]))
            nodes = generate_nodes(spec, seed=seed)
            diff = np.abs(kernel_matrix(custom, nodes, eps) - kernel_matrix(g, nodes, eps)).max()
            assert diff <= 1e-14

    def test_custom_sweep_warns_at_each_point_past_the_horizon(self):
        psi = json.dumps(list(kernel_model("gaussian").coeffs))
        nodes = generate_nodes("uniform:6")
        grid = np.geomspace(1e-1, 2, 8)
        beyond = int(np.sum(grid * distance_matrix(nodes, 1).max() > 1))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(["sweep", "--kernel", "custom", "--psi", psi, "--nodes", "uniform:6",
                         "--eps-grid", "1e-1:2:8", "--output", "/dev/null"])
        assert code == 0
        messages = [str(w.message) for w in caught]
        assert beyond == 3 and len(messages) == beyond
        assert all("beyond its certified horizon" in m for m in messages)

    def test_custom_kernel_verifies(self):
        psi = json.dumps(list(kernel_model("gaussian").coeffs))
        assert main(["verify", "--kernel", "custom", "--psi", psi, "--nodes", "equispaced:8",
                     "--output", "/dev/null"]) == 0
