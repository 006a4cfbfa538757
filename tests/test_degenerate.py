"""Series Schur reduction and the iterative spectral-equivalent driver."""

import numpy as np
import pytest

from asymspec import (
    DiagonalScaling,
    Exponent,
    INFINITY,
    MatrixSeries,
    analyze_series,
    iterative_ase,
)
from reference import PartitionedScaledSeries, schur_reduce


def degenerate_partition():
    # Delta = diag(1, e, e), H = [[1,1,1],[1,2,1],[1,1,1+e]] (exact)
    h = MatrixSeries(
        3,
        {
            0: [[1, 1, 1], [1, 2, 1], [1, 1, 1]],
            1: [[0, 0, 0], [0, 0, 0], [0, 0, 1]],
        },
        trunc_order=INFINITY,
        symmetric=True,
    )
    sc = DiagonalScaling(((Exponent(0), 1), (Exponent(1), 2)))
    return PartitionedScaledSeries(sc, h)


class TestSchurReduce:
    def test_running_example(self):
        kp = schur_reduce(degenerate_partition(), Exponent(4))
        # blockdiag(1, eps^2 [[1,0],[0,eps]]) -> diagonal (1, e^2, e^3)
        np.testing.assert_array_equal(kp.coefficient(0), np.diag([1.0, 0, 0]))
        np.testing.assert_array_equal(kp.coefficient(2), np.diag([0.0, 1, 0]))
        np.testing.assert_array_equal(kp.coefficient(3), np.diag([0.0, 0, 1]))

    def test_block_diagonal_h_unchanged(self):
        h = MatrixSeries(
            3,
            {0: [[2, 0, 0], [0, 1, 0.5], [0, 0.5, 1]], 1: np.diag([1.0, 0, 0])},
            trunc_order=INFINITY,
            symmetric=True,
        )
        sc = DiagonalScaling(((Exponent(0), 1), (Exponent(2), 2)))
        part = PartitionedScaledSeries(sc, h)
        kp = schur_reduce(part, Exponent(6))
        # H_12 = 0: the reduction is just Delta H Delta re-expressed
        direct = h.scale_rows_cols(sc.exponents(), sc.exponents()).truncate(6)
        for e, m in direct.terms:
            np.testing.assert_allclose(kp.coefficient(e), m, atol=1e-14)

    def test_random_spd_eigencurves_preserved(self):
        rng = np.random.default_rng(21)
        for _ in range(10):
            n = int(rng.integers(2, 6))
            m = int(rng.integers(1, n))
            a = rng.standard_normal((n, n))
            h0 = a @ a.T + 0.5 * np.eye(n)
            h1 = rng.standard_normal((n, n))
            h = MatrixSeries(n, {0: h0, 1: h1 + h1.T}, trunc_order=6, symmetric=True)
            exps = [Exponent(0)] * m + [Exponent(1)] * (n - m)
            sc = DiagonalScaling.from_exponents(exps)
            part = PartitionedScaledSeries(sc, h)
            kp = schur_reduce(part, Exponent(5))
            k = h.scale_rows_cols(exps, exps)
            for eps in (1e-3, 1e-4):
                lam1 = np.sort(np.linalg.eigvalsh(k.evaluate(eps)))
                lam2 = np.sort(np.linalg.eigvalsh(kp.evaluate(eps)))
                np.testing.assert_allclose(lam1, lam2, rtol=1e-2, atol=1e-14)

    def test_horizon_exhaustion(self):
        with pytest.raises(ValueError, match="horizon"):
            schur_reduce(degenerate_partition(), Exponent(2))

    def test_singular_top_rejected(self):
        h = MatrixSeries(
            2, {0: [[0, 1], [1, 0]], 1: np.eye(2)}, trunc_order=4, symmetric=True
        )
        sc = DiagonalScaling(((Exponent(0), 1), (Exponent(1), 1)))
        with pytest.raises(ValueError, match="singular"):
            PartitionedScaledSeries(sc, h)


class TestIterativeAse:
    def test_degenerate_example(self, ex_degenerate):
        ase = iterative_ase(ex_degenerate)
        assert ase.complete
        assert ase.valuations == [Exponent(0), Exponent(2), Exponent(3)]
        for k, (_, term) in enumerate(ase.groups):
            expect = np.zeros((3, 3))
            expect[k, k] = 1.0
            np.testing.assert_allclose(term, expect, atol=1e-12)
        ase.validate()

    def test_3x3_matches_gkf_route(self, ex_3x3):
        ase = iterative_ase(ex_3x3)
        assert ase.complete
        assert ase.valuations == [Exponent(0), Exponent(2), Exponent(3)]
        np.testing.assert_allclose(ase.groups[0][1], np.diag([1.0, 0, 0]), atol=1e-12)
        np.testing.assert_allclose(
            ase.groups[1][1], [[0, 0, 0], [0, -1, -1], [0, -1, -1]], atol=1e-12
        )
        np.testing.assert_allclose(
            ase.groups[2][1], [[0, 0, 0], [0, 1, -1], [0, -1, 1]], atol=1e-12
        )

    def test_no_recursion_on_complete_input(self, ex_2x2, ex_example1, ex_5x5):
        for k in (ex_2x2, ex_example1, ex_5x5):
            direct = analyze_series(k, "scaled")
            assert direct.complete
            via_iter = iterative_ase(k)
            assert via_iter.complete
            assert len(via_iter.groups) == len(direct.groups)
            for (v1, t1), (v2, t2) in zip(via_iter.groups, direct.groups):
                assert v1 == v2
                np.testing.assert_allclose(t1, t2, atol=1e-12)

    def test_reordered_input_consistent(self, ex_degenerate):
        base = iterative_ase(ex_degenerate)
        rng = np.random.default_rng(30)
        for _ in range(5):
            perm = rng.permutation(3)
            ase_p = iterative_ase(ex_degenerate.permuted(perm))
            ase_p.validate()
            assert [float(v) for v in ase_p.valuations] == [
                float(v) for v in base.valuations
            ]
            for (_, t0), (_, tp) in zip(base.groups, ase_p.groups):
                np.testing.assert_allclose(tp, t0[np.ix_(perm, perm)], atol=1e-10)

    def test_invariants_on_random_spd_series(self):
        rng = np.random.default_rng(31)
        for _ in range(15):
            n = int(rng.integers(2, 6))
            a = rng.standard_normal((n, n))
            terms = {0: a @ a.T + 0.5 * np.eye(n)}
            for e in (1, 2):
                b = rng.standard_normal((n, n))
                terms[e] = b + b.T
            nu = np.sort(rng.integers(0, 3, size=n))
            k = MatrixSeries(n, terms, trunc_order=8, symmetric=True).scale_rows_cols(
                nu.tolist(), nu.tolist()
            )
            ase = iterative_ase(k)
            ase.validate()

    def test_random_stalling_instances_oracle_verified(self):
        # indefinite coefficients make the Schur chain stall routinely; every
        # completed extraction must agree with the numerical eigen-sweep
        rng = np.random.default_rng(77)
        grid = np.geomspace(1e-4, 1e-1, 25)[::-1]
        from asymspec import eigen_sweep, match_ase

        completed = 0
        for _ in range(40):
            n = int(rng.integers(2, 6))
            terms = {}
            for e in range(4):
                c = rng.integers(-2, 3, (n, n)).astype(float) / rng.choice([1.0, 2.0])
                c = c + c.T
                if rng.random() < 0.35:
                    c[:] = 0
                if np.any(c):
                    terms[e] = c
            if not terms:
                continue
            nu = np.sort(rng.integers(0, 2, size=n))
            k = MatrixSeries(n, terms, trunc_order=6, symmetric=True).scale_rows_cols(
                nu.tolist(), nu.tolist()
            )
            if k.is_zero:
                continue
            ase = iterative_ase(k)
            ase.validate()
            if ase.complete:
                completed += 1
                assert match_ase(ase, eigen_sweep(k.evaluate, grid), 5e-2, 5e-2).passed
        assert completed >= 30

    def test_horizon_exhaustion_reported(self):
        # the e^3 entry needed to resolve the last eigenvalue is cut off
        k = MatrixSeries(
            3,
            {
                0: [[1, 0, 0], [0, 0, 0], [0, 0, 0]],
                1: [[0, 1, 1], [1, 0, 0], [1, 0, 0]],
            },
            trunc_order=3,
            symmetric=True,
        )
        ase = iterative_ase(k)
        assert not ase.complete
        assert ase.truncated_at is not None
        assert [float(v) for v in ase.valuations] == [0.0, 2.0]

    def test_diagonal_probe_limit(self):
        # diag analytic Lambda with an O(eps) multiplicative perturbation of
        # the shift: the probe limit keeps 1, lambda/(lambda+tau) and 0 entries
        rng = np.random.default_rng(33)
        eps = 1e-6
        tau = 0.8
        for _ in range(10):
            lt = rng.uniform(0.5, 2.0, size=2)
            lam = np.diag([lt[0], eps**2 * lt[1], 0.0])
            a = eps * rng.standard_normal((3, 3))
            shift = tau * eps**2 * (np.eye(3) + a)
            m = lam @ np.linalg.inv(lam + shift)
            expect = np.diag([1.0, lt[1] / (lt[1] + tau), 0.0])
            assert np.abs(m - expect).max() < 1e-3


class TestAutoMode:
    def test_auto_falls_back(self, ex_3x3):
        scaled = analyze_series(ex_3x3, "scaled")
        assert not scaled.complete
        auto = analyze_series(ex_3x3, "auto")
        assert auto.complete
        assert auto.valuations == [Exponent(0), Exponent(2), Exponent(3)]

    def test_auto_no_fallback_needed(self, ex_5x5):
        ase = analyze_series(ex_5x5, "auto")
        assert ase.complete
        assert len(ase.groups) == 3
