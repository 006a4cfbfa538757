"""Scaling validity, tightness, H extraction and the automatic scaling."""

from fractions import Fraction

import numpy as np
import pytest

from asymspec import (
    DiagonalScaling,
    Exponent,
    INFINITY,
    ValuationMatrix,
    auto_scale,
    auto_scale_exponents,
    check_valid,
    extract_H,
    valuation_matrix,
)
from reference import tight_entries


def scaling(*exps):
    return DiagonalScaling.from_exponents([Exponent(e) if not isinstance(e, Exponent) else e
                                           for e in exps])


HALF3 = Exponent(3, 2)


class TestCheckValid:
    def test_loose_scaling_residual(self, ex_scaling_2x2):
        om = valuation_matrix(ex_scaling_2x2)
        ok, resid = check_valid(om, scaling(0, 1))
        assert ok
        assert [[int(resid[i, j].num) for j in range(2)] for i in range(2)] == [[0, 1], [1, 1]]

    def test_overtightened_scaling_invalid(self, ex_scaling_2x2):
        om = valuation_matrix(ex_scaling_2x2)
        ok, resid = check_valid(om, scaling(0, 2))
        assert not ok
        assert resid[1, 1] == Exponent(-1)

    def test_trivial_scaling_residual_is_omega(self, ex_5x5):
        om = valuation_matrix(ex_5x5)
        ok, resid = check_valid(om, DiagonalScaling(((Exponent(0), 5),)))
        assert ok
        assert resid == om


class TestTightEntries:
    def test_half_integral_tight_pair(self, ex_scaling_2x2):
        om = valuation_matrix(ex_scaling_2x2)
        assert tight_entries(om, scaling(0, HALF3)) == {(0, 0), (1, 1)}

    def test_5x5_highlighted_set(self, ex_5x5):
        om = valuation_matrix(ex_5x5)
        got = tight_entries(om, scaling(0, 1, 1, 2, 2))
        expect = {(0, 0), (0, 1), (1, 1), (1, 2), (2, 2), (2, 3), (3, 3), (3, 4), (4, 4)}
        expect |= {(j, i) for i, j in expect}
        assert got == expect

    def test_constant_dense_matrix_all_tight(self):
        om = ValuationMatrix([[0, 0], [0, 0]])
        assert tight_entries(om, scaling(0, 0)) == {(0, 0), (0, 1), (1, 0), (1, 1)}

    def test_symmetric_relation(self):
        rng = np.random.default_rng(5)
        for _ in range(30):
            n = int(rng.integers(2, 6))
            base = rng.integers(0, 4, (n, n))
            om = ValuationMatrix((base + base.T).tolist())
            nu = auto_scale_exponents(om)
            sc = DiagonalScaling.from_exponents(sorted(nu, key=float))
            # permute omega so the sorted scaling applies
            perm = sorted(range(n), key=lambda i: float(nu[i]))
            omp = ValuationMatrix([[om[perm[i], perm[j]] for j in range(n)] for i in range(n)])
            ts = tight_entries(omp, sc)
            assert all((j, i) in ts for i, j in ts)

    def test_invalid_scaling_rejected(self, ex_scaling_2x2):
        om = valuation_matrix(ex_scaling_2x2)
        with pytest.raises(ValueError):
            tight_entries(om, scaling(0, 2))


class TestExtractH:
    def test_tight_extraction_2x2(self, ex_scaling_2x2):
        form = extract_H(ex_scaling_2x2, scaling(0, HALF3))
        np.testing.assert_array_equal(form.H, [[1.0, 0.0], [0.0, 5.0]])

    def test_5x5_bordered(self, ex_5x5):
        form = extract_H(ex_5x5, scaling(0, 1, 1, 2, 2))
        expect = np.array(
            [
                [1, 0.5, 0, 0, 0],
                [0.5, 0.25, 0.5, 0, 0],
                [0, 0.5, 1, 0.5, 0],
                [0, 0, 0.5, 0.125, 0.5],
                [0, 0, 0, 0.5, 1],
            ]
        )
        np.testing.assert_array_equal(form.H, expect)
        assert form.block_sizes == (1, 2, 2)

    def test_3x3(self, ex_3x3):
        form = extract_H(ex_3x3, scaling(0, 1, 1))
        np.testing.assert_array_equal(form.H, [[1, 1, 1], [1, 0, 0], [1, 0, 0]])

    def test_reconstruction_bound(self, ex_5x5):
        # val(K_ij - eps^{nu_i+nu_j} H_ij) > nu_i + nu_j entry-wise
        sc = scaling(0, 1, 1, 2, 2)
        form = extract_H(ex_5x5, sc)
        exps = sc.exponents()
        for i in range(5):
            for j in range(5):
                entry = ex_5x5.entry(i, j)
                shift = exps[i] + exps[j]
                resid = entry - (
                    entry.__class__({shift: form.H[i, j]}, trunc_order=entry.trunc_order)
                )
                assert resid.valuation > shift


class TestAutoScale:
    def test_auto_scale_2x2(self, ex_scaling_2x2):
        sc = auto_scale(valuation_matrix(ex_scaling_2x2))
        assert sc.exponents() == [Exponent(0), HALF3]

    def test_example1(self, ex_example1):
        sc = auto_scale(valuation_matrix(ex_example1))
        assert sc.exponents() == [Exponent(0), Exponent(1, 2), Exponent(1)]

    def test_unconstrained_diagonal(self):
        om = ValuationMatrix(
            [[0, INFINITY, INFINITY], [INFINITY, 2, INFINITY], [INFINITY, INFINITY, 4]]
        )
        assert auto_scale(om).exponents() == [Exponent(0), Exponent(1), Exponent(2)]

    def test_structurally_zero_row(self):
        om = ValuationMatrix([[0, INFINITY], [INFINITY, INFINITY]])
        with pytest.raises(ValueError, match="structurally zero row"):
            auto_scale(om)

    def test_no_finite_assignment_falls_back_to_lp(self):
        # rows 1 and 2 only reach column 0: no finite perfect assignment, but
        # the bounded program still has the informative optimum (0, 1, 1)
        om = ValuationMatrix([[0, 1, 1], [1, INFINITY, INFINITY], [1, INFINITY, INFINITY]])
        assert auto_scale(om).exponents() == [Exponent(0), Exponent(1), Exponent(1)]

    def test_denominator_bound(self):
        om = ValuationMatrix(
            [
                [Exponent(1, 3), Exponent(1, 2)],
                [Exponent(1, 2), Exponent(5, 3)],
            ]
        )
        for e in auto_scale_exponents(om):
            assert 12 % e.den == 0  # 2 * lcm(3, 2)

    def _random_symmetric_omega(self, rng, n):
        vals = rng.integers(0, 6, (n, n))
        om = np.minimum(vals, vals.T)
        mask = rng.random((n, n)) < 0.15
        mask = mask | mask.T
        np.fill_diagonal(mask, False)  # keep at least the diagonal finite
        entries = [
            [INFINITY if mask[i, j] else Exponent(int(om[i, j])) for j in range(n)]
            for i in range(n)
        ]
        return ValuationMatrix(entries)

    def test_validity_and_row_tightness(self):
        rng = np.random.default_rng(42)
        zero = Exponent(0)
        for _ in range(60):
            n = int(rng.integers(2, 7))
            om = self._random_symmetric_omega(rng, n)
            nu = auto_scale_exponents(om)
            # validity
            for i in range(n):
                for j in range(n):
                    if not om[i, j].is_infinite:
                        assert nu[i] + nu[j] <= om[i, j]
            # every row has a tight entry: no nu_i can be raised alone
            for i in range(n):
                assert any(
                    not om[i, j].is_infinite and nu[i] + nu[j] == om[i, j]
                    for j in range(n)
                )

    def test_dominates_feasible_scalings(self):
        rng = np.random.default_rng(43)
        for _ in range(40):
            n = int(rng.integers(2, 6))
            om = self._random_symmetric_omega(rng, n)
            nu = auto_scale_exponents(om)
            total = sum(e.fraction for e in nu)
            # any nonnegative feasible scaling found by greedy ascent is dominated
            other = [Fraction(0)] * n
            order = rng.permutation(n)
            for i in order:
                caps = []
                for j in range(n):
                    if om[i, j].is_infinite:
                        continue
                    cap = om[i, j].fraction / 2 if j == i else om[i, j].fraction - other[j]
                    caps.append(cap)
                other[i] = max(Fraction(0), min(caps))
            assert total >= sum(other)

    def test_unsorted_rows_need_permutation(self):
        om = ValuationMatrix([[2, 1], [1, 0]])
        with pytest.raises(ValueError, match="permute"):
            auto_scale(om)
        from asymspec import auto_scale_with_permutation

        perm, sc = auto_scale_with_permutation(om)
        assert list(perm) == [1, 0]
        assert sc.exponents() == [Exponent(0), Exponent(1)]
