"""Schur chains, the scaled-form construction, eigen-readout and probes."""

import numpy as np
import pytest

from asymspec import (
    Ase,
    DiagonalScaling,
    Exponent,
    MatrixSeries,
    ase_from_scaled,
    auto_scale,
    eigen_readout,
    extract_H,
    rank_probe_curve,
    regularized_inverse_probe,
    schur_chain,
    valuation_matrix,
)


class TestSchurChain:
    def test_worked_2x2(self):
        ch = schur_chain(np.array([[1.0, 1.0], [1.0, 2.0]]), (1, 1))
        assert not ch.stopped_early
        np.testing.assert_allclose(ch.complements[0], [[1.0]])
        np.testing.assert_allclose(ch.complements[1], [[1.0]])

    def test_worked_5x5(self):
        h = np.array(
            [
                [1, 0.5, 0, 0, 0],
                [0.5, 0.25, 0.5, 0, 0],
                [0, 0.5, 1, 0.5, 0],
                [0, 0, 0.5, 0.125, 0.5],
                [0, 0, 0, 0.5, 1.0],
            ]
        )
        ch = schur_chain(h, (1, 2, 2))
        assert not ch.stopped_early
        np.testing.assert_allclose(ch.complements[0], [[1.0]])
        np.testing.assert_allclose(ch.complements[1], [[0, 0.5], [0.5, 1]], atol=1e-15)
        np.testing.assert_allclose(ch.complements[2], [[0.125, 0.5], [0.5, 1]], atol=1e-14)

    def test_worked_3x3_stops(self):
        h = np.array([[1.0, 1, 1], [1, 0, 0], [1, 0, 0]])
        ch = schur_chain(h, (1, 2))
        assert ch.stopped_early
        np.testing.assert_allclose(ch.complements[1], [[-1, -1], [-1, -1]])


class TestAseFromScaled:
    def test_2x2(self, ex_2x2):
        ase = ase_from_scaled(extract_H(ex_2x2, auto_scale(valuation_matrix(ex_2x2))))
        assert ase.complete
        assert ase.valuations == [Exponent(0), Exponent(2)]
        np.testing.assert_array_equal(ase.groups[0][1], [[1, 0], [0, 0]])
        np.testing.assert_array_equal(ase.groups[1][1], [[0, 0], [0, 1]])

    def test_example1_diag_pattern(self, ex_example1):
        ase = ase_from_scaled(
            extract_H(ex_example1, auto_scale(valuation_matrix(ex_example1)))
        )
        assert ase.complete
        assert ase.valuations == [Exponent(0), Exponent(1), Exponent(2)]
        for k, (_, term) in enumerate(ase.groups):
            expect = np.zeros((3, 3))
            expect[k, k] = 1.0
            np.testing.assert_allclose(term, expect, atol=1e-14)

    def test_3x3_truncates(self, ex_3x3):
        ase = ase_from_scaled(extract_H(ex_3x3, auto_scale(valuation_matrix(ex_3x3))))
        assert ase.truncated_at == Exponent(2)
        assert ase.valuations == [Exponent(0), Exponent(2)]
        np.testing.assert_allclose(
            ase.groups[1][1], [[0, 0, 0], [0, -1, -1], [0, -1, -1]], atol=1e-12
        )
        ase.validate()

    def test_invariants_validate(self, ex_5x5):
        ase = ase_from_scaled(extract_H(ex_5x5, auto_scale(valuation_matrix(ex_5x5))))
        ase.validate()
        assert ase.term_rank_sum() == 5

    def test_permutation_equivariance(self, ex_5x5):
        # simultaneous permutation of K maps every term by the same permutation
        from asymspec.pipeline import analyze_series

        rng = np.random.default_rng(1)
        base = analyze_series(ex_5x5, "scaled")
        for _ in range(5):
            perm = rng.permutation(5)
            permuted = ex_5x5.permuted(perm)
            ase_p = analyze_series(permuted, "scaled")
            assert [float(v) for v in ase_p.valuations] == [float(v) for v in base.valuations]
            for (_, t_base), (_, t_perm) in zip(base.groups, ase_p.groups):
                np.testing.assert_allclose(t_perm, t_base[np.ix_(perm, perm)], atol=1e-10)


class TestEigenReadout:
    def test_distinct_values(self):
        # K0 = [[1, 1/2], [1/2, 1]] on the first two coordinates, eps * diag(0,0,2,1)
        k0 = np.zeros((4, 4))
        k0[:2, :2] = [[1, 0.5], [0.5, 1]]
        k1 = np.diag([0.0, 0, 2, 1])
        ase = Ase(4, [(Exponent(0), k0), (Exponent(1), k1)])
        groups = eigen_readout(ase)
        assert groups[0].leading_values == pytest.approx([1.5, 0.5])
        assert groups[1].leading_values == pytest.approx([2.0, 1.0])
        assert not groups[0].ambiguous and not groups[1].ambiguous
        # eigenvectors of K0 restricted to its range
        np.testing.assert_allclose(
            np.abs(groups[0].vectors[:2]), np.full((2, 2), 1 / np.sqrt(2)), atol=1e-12
        )

    def test_repeated_values_flag_ambiguous(self):
        k0 = np.zeros((4, 4))
        k0[:2, :2] = [[1, 0.5], [0.5, 1]]
        k1 = np.diag([0.0, 0, 1, 1])
        groups = eigen_readout(Ase(4, [(Exponent(0), k0), (Exponent(1), k1)]))
        assert not groups[0].ambiguous
        assert groups[1].ambiguous
        # the projector is still well defined
        p = groups[1].projector
        np.testing.assert_allclose(p @ p, p, atol=1e-10)
        assert np.trace(p) == pytest.approx(2.0)

    def test_5x5_values_and_vector(self, ex_5x5):
        ase = ase_from_scaled(extract_H(ex_5x5, auto_scale(valuation_matrix(ex_5x5))))
        groups = eigen_readout(ase)
        assert groups[0].leading_values == pytest.approx([1.0])
        s2 = np.sqrt(2.0)
        assert groups[1].leading_values == pytest.approx([(1 + s2) / 2, (1 - s2) / 2], abs=1e-12)
        s113 = np.sqrt(113.0)
        assert groups[2].leading_values == pytest.approx(
            [(9 + s113) / 16, (9 - s113) / 16], abs=1e-12
        )
        lead_vec = groups[1].vectors[1:3, 0]
        np.testing.assert_allclose(lead_vec, [0.3827, 0.9239], atol=5e-4)

    def test_projector_properties(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            a = rng.standard_normal((4, 4))
            ase = Ase(4, [(Exponent(0), a + a.T)])
            (g,) = eigen_readout(ase)
            np.testing.assert_allclose(g.projector @ g.projector, g.projector, atol=1e-10)
            assert np.trace(g.projector) == pytest.approx(g.count)


class TestProbes:
    def test_2x2_probe_limits(self, ex_2x2):
        tau = 0.7
        eps = 1e-7
        m0 = regularized_inverse_probe(ex_2x2, 0, tau, eps)
        np.testing.assert_allclose(m0, np.diag([1 / (1 + tau), 0.0]), atol=1e-5)
        m1 = regularized_inverse_probe(ex_2x2, 1, tau, eps)
        np.testing.assert_allclose(m1, np.diag([1.0, 0.0]), atol=1e-5)
        m2 = regularized_inverse_probe(ex_2x2, 2, tau, eps)
        np.testing.assert_allclose(m2, np.diag([1.0, 1 / (1 + tau)]), atol=1e-5)

    def test_rank_counting(self, ex_2x2, ex_5x5):
        eps_seq = [10.0**-k for k in range(2, 7)]
        pts = rank_probe_curve(ex_2x2, [0, 1, 2], 1.0, eps_seq, 1e-3)
        assert [(int(p.s.num), p.rank) for p in pts] == [(0, 1), (1, 1), (2, 2)]
        assert all(p.stable for p in pts)
        pts5 = rank_probe_curve(ex_5x5, [0, 2, 4], 1.0, eps_seq, 1e-3)
        assert [p.rank for p in pts5] == [1, 3, 5]

    def test_identity_has_full_rank(self):
        k = MatrixSeries.identity(4, trunc_order=1)
        pts = rank_probe_curve(k, [1, 2], 1.0, [1e-2, 1e-3, 1e-4], 1e-3)
        assert all(p.rank == 4 for p in pts)

    def test_unstable_estimate_flagged(self, ex_2x2):
        # the second singular value crosses the threshold between the two
        # sampled eps values, so the estimate has not settled
        (pt,) = rank_probe_curve(ex_2x2, [1], 1.0, [1e-1, 1e-4], 1e-3)
        assert not pt.stable

    def test_singular_shift_rejected(self):
        k = MatrixSeries.from_constant(-np.eye(2), trunc_order=1, symmetric=True)
        with pytest.raises(ValueError, match="singular shift"):
            regularized_inverse_probe(k, 0, 1.0, 0.5)

    def test_projector_consistency(self, ex_5x5):
        # probe at s = 2 nu_1 approaches U_0 U_0^T + K1 (K1 + tau I)^{-1}
        tau = 1.0
        eps = 1e-5
        ase = ase_from_scaled(extract_H(ex_5x5, auto_scale(valuation_matrix(ex_5x5))))
        groups = eigen_readout(ase)
        m = regularized_inverse_probe(ex_5x5, 2, tau, eps)
        k1 = ase.groups[1][1]
        expect = groups[0].projector + k1 @ np.linalg.inv(k1 + tau * np.eye(5))
        assert np.abs(m - expect).max() < 50 * eps

    def test_oracle_equivalence_small_random(self):
        # eigenvalues of K(eps) match group predictions at 1e-4 within 1%
        rng = np.random.default_rng(17)
        for _ in range(15):
            n = int(rng.integers(2, 7))
            a = rng.standard_normal((n, n))
            h = a @ a.T + 0.3 * np.eye(n)
            nu = np.sort(rng.integers(0, 3, size=n))
            k = MatrixSeries.from_constant(h, trunc_order=7, symmetric=True).scale_rows_cols(
                nu.tolist(), nu.tolist()
            )
            sc = DiagonalScaling.from_exponents([Exponent(int(v)) for v in nu])
            ase = ase_from_scaled(extract_H(k, sc))
            assert ase.complete
            eps = 1e-4
            lam = np.linalg.eigvalsh(k.evaluate(eps))
            lam = lam[np.argsort(-np.abs(lam))]
            idx = 0
            for g in eigen_readout(ase):
                alpha = float(g.valuation)
                for pred in g.leading_values:
                    got = lam[idx] / eps**alpha
                    assert abs(got - pred) <= 1e-2 * abs(pred)
                    idx += 1


class TestProjectorOnDemand:
    def test_computed_on_first_use(self, ex_5x5):
        ase = ase_from_scaled(extract_H(ex_5x5, auto_scale(valuation_matrix(ex_5x5))))
        group = eigen_readout(ase)[1]
        assert "projector" not in vars(group)  # the readout forms no n x n product
        np.testing.assert_array_equal(group.projector, group.vectors @ group.vectors.T)
        assert group.projector is group.projector
