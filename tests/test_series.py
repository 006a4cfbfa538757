"""Series arithmetic, valuation matrices, evaluation and the series inverse."""

from fractions import Fraction

import numpy as np
import pytest

from asymspec import (
    Exponent,
    INFINITY,
    MatrixSeries,
    ScalarSeries,
    SingularLeadingTermError,
    series_matrix_inverse,
    valuation_matrix,
)


class TestExponent:
    def test_reduction_and_order(self):
        assert Exponent(2, 4) == Exponent(1, 2)
        assert Exponent(3, 2).num == 3 and Exponent(3, 2).den == 2
        assert Exponent(1, 2) < Exponent(2, 3) < Exponent(1) < INFINITY

    def test_infinity_arithmetic(self):
        assert INFINITY + Exponent(5) == INFINITY
        assert INFINITY - Exponent(5) == INFINITY
        assert INFINITY > Exponent(10**9)
        with pytest.raises(ValueError):
            Exponent(1) - INFINITY

    def test_addition(self):
        assert Exponent(1, 2) + Exponent(1, 2) == Exponent(1)
        assert Exponent(3, 2) + 1 == Exponent(5, 2)
        assert 2 * Exponent(3, 2) == Exponent(3)


class TestScalarSeries:
    def test_add_disjoint_supports(self):
        a = ScalarSeries({3: 2.0}, trunc_order=8)
        b = ScalarSeries({5: 3.0}, trunc_order=8)
        assert (a + b).terms == ((Exponent(3), 2.0), (Exponent(5), 3.0))

    def test_add_cancellation(self):
        a = ScalarSeries({2: 1.0})
        b = ScalarSeries({2: -1.0})
        s = a + b
        assert s.is_zero
        assert s.valuation == INFINITY
        assert s.trunc_order == Exponent(3)

    def test_add_truncation_rule(self):
        a = ScalarSeries({0: 1.0, 1: 1.0}, trunc_order=2)
        b = ScalarSeries({1: 1.0, 2: 1.0}, trunc_order=2)
        s = a + b
        assert s.terms == ((Exponent(0), 1.0), (Exponent(1), 2.0))
        assert s.trunc_order == Exponent(2)

    def test_mul_fractional_exponents(self):
        half = ScalarSeries({Exponent(1, 2): 1.0})
        assert (half * half).leading() == (Exponent(1), 1.0)

    def test_mul_truncated(self):
        a = ScalarSeries({0: 1.0, 1: 1.0}, trunc_order=3)
        b = ScalarSeries({0: 1.0, 1: -1.0}, trunc_order=3)
        p = a * b
        assert p.terms == ((Exponent(0), 1.0), (Exponent(2), -1.0))
        assert p.trunc_order == Exponent(3)

    def test_leading_term_of_sparse_series(self):
        # 2e^3 + 3e^5 + e^7 has leading term 2e^3
        p = ScalarSeries({3: 2.0, 5: 3.0, 7: 1.0})
        assert p.leading() == (Exponent(3), 2.0)

    def test_leading_zero_and_fractional(self):
        assert ScalarSeries().leading() == (INFINITY, 0.0)
        p = ScalarSeries({Exponent(3, 2): 1.0, 2: -1.0})
        assert p.leading() == (Exponent(3, 2), 1.0)

    def test_default_trunc_is_max_plus_one(self):
        assert ScalarSeries({Exponent(3, 2): 1.0}).trunc_order == Exponent(5, 2)

    def test_evaluate_additive(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            exps = rng.choice(10, size=4, replace=False)
            a = ScalarSeries({int(e): rng.standard_normal() for e in exps})
            b = ScalarSeries({int(e): rng.standard_normal() for e in exps})
            for eps in (1e-6, 1e-3, 1.0):
                lhs = (a + b).evaluate(eps)
                rhs = a.evaluate(eps) + b.evaluate(eps)
                assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-300)


class TestMatrixSeries:
    def test_symmetrized_at_construction(self):
        m = MatrixSeries(2, {0: [[1.0, 2.0], [0.0, 1.0]]}, symmetric=True)
        np.testing.assert_array_equal(m.coefficient(0), [[1.0, 1.0], [1.0, 1.0]])

    def test_scaled_product_pattern(self):
        # diag(1, e) [[1,1],[1,2]] diag(1, e) = [[1, e], [e, 2e^2]]
        h = MatrixSeries.from_constant([[1.0, 1.0], [1.0, 2.0]], symmetric=True)
        k = h.scale_rows_cols([0, 1], [0, 1])
        np.testing.assert_array_equal(k.coefficient(0), [[1, 0], [0, 0]])
        np.testing.assert_array_equal(k.coefficient(1), [[0, 1], [1, 0]])
        np.testing.assert_array_equal(k.coefficient(2), [[0, 0], [0, 2]])

    def test_valuation_matrix_examples(self, ex_scaling_3x3, ex_5x5):
        om = valuation_matrix(ex_scaling_3x3)
        expect = [[0, 2, INFINITY], [2, 3, INFINITY], [INFINITY, INFINITY, 1]]
        assert om.entries == tuple(tuple(Exponent(e) if e is not INFINITY else e for e in row)
                                   for row in expect)
        om5 = valuation_matrix(ex_5x5)
        rows = [
            [0, 1, 4, INFINITY, INFINITY],
            [1, 2, 2, INFINITY, INFINITY],
            [4, 2, 2, 3, INFINITY],
            [INFINITY, INFINITY, 3, 4, 4],
            [INFINITY, INFINITY, INFINITY, 4, 4],
        ]
        for i in range(5):
            for j in range(5):
                e = rows[i][j]
                assert om5[i, j] == (e if e is INFINITY else Exponent(e))

    def test_valuation_matrix_identity(self):
        om = valuation_matrix(MatrixSeries.identity(3))
        for i in range(3):
            for j in range(3):
                assert om[i, j] == (Exponent(0) if i == j else INFINITY)
        assert om.is_symmetric

    def test_valuation_matrix_symmetric_source(self):
        rng = np.random.default_rng(0)
        for _ in range(25):
            terms = {}
            for e in range(4):
                mask = rng.random((4, 4)) < 0.4
                c = np.where(mask, rng.integers(-3, 4, (4, 4)).astype(float), 0.0)
                terms[e] = c + c.T
            m = MatrixSeries(4, terms, symmetric=True)
            assert valuation_matrix(m).is_symmetric

    def test_evaluate_at_zero(self, ex_2x2):
        np.testing.assert_array_equal(ex_2x2.evaluate(0.0), [[1, 0], [0, 0]])

    def test_evaluate_example1_at_one(self, ex_example1):
        np.testing.assert_array_equal(
            ex_example1.evaluate(1.0), [[3, 2, 1], [2, 2, 1], [1, 1, 1]]
        )

    def test_evaluate_matches_closed_form(self, ex_2x2):
        eps = 1e-3
        closed = np.array([[1, eps], [eps, 2 * eps**2 + eps**3]])
        got = ex_2x2.evaluate(eps)
        assert np.abs(got - closed).max() <= 1e-15 * np.abs(closed).max()

    def test_product_valuations_add(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            ea, eb = rng.integers(0, 5, size=2)
            a = MatrixSeries(3, {int(ea): rng.integers(1, 5, (3, 3)).astype(float)})
            b = MatrixSeries(3, {int(eb): rng.integers(1, 5, (3, 3)).astype(float)})
            p = a @ b
            if not p.is_zero:
                assert p.valuation == a.valuation + b.valuation

    def test_scalar_product_valuations_add(self):
        # rational-valued coefficients: leading terms cannot cancel
        rng = np.random.default_rng(12)
        for _ in range(50):
            def rand_series():
                exps = rng.choice(8, size=rng.integers(1, 4), replace=False)
                return ScalarSeries(
                    {Exponent(int(e), int(rng.integers(1, 4))): float(
                        Fraction(int(rng.integers(-6, 7)) or 1, int(rng.integers(1, 5)))
                    ) for e in exps},
                    trunc_order=20,
                )

            a, b = rand_series(), rand_series()
            assert (a * b).valuation == a.valuation + b.valuation


class TestSeriesInverse:
    def test_geometric_series(self):
        a = np.array([[0.0, 1.0], [1.0, 0.0]])
        h = MatrixSeries(2, {0: np.eye(2), 1: a}, trunc_order=10)
        inv = series_matrix_inverse(h, 3)
        np.testing.assert_allclose(inv.coefficient(0), np.eye(2))
        np.testing.assert_allclose(inv.coefficient(1), -a)
        np.testing.assert_allclose(inv.coefficient(2), a @ a)

    def test_constant_diagonal(self):
        h = MatrixSeries.from_constant(np.diag([2.0, 4.0]), trunc_order=1)
        inv = series_matrix_inverse(h, 5)
        np.testing.assert_array_equal(inv.coefficient(0), np.diag([0.5, 0.25]))

    def test_residual_bound(self):
        h = MatrixSeries(2, {0: [[1.0, 1.0], [1.0, 2.0]], 1: [[0, 0], [0, 1.0]]},
                         trunc_order=6, symmetric=True)
        inv = series_matrix_inverse(h, 2)
        resid = (h @ inv) - MatrixSeries.identity(2)
        for e, m in resid.terms:
            if e < Exponent(2):
                assert np.abs(m).max() < 1e-12

    def test_residual_random(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            n = int(rng.integers(1, 5))
            h0 = rng.standard_normal((n, n)) + 3 * np.eye(n)
            terms = {0: h0}
            for e in range(1, 4):
                terms[e] = rng.standard_normal((n, n))
            h = MatrixSeries(n, terms, trunc_order=8)
            inv = series_matrix_inverse(h, 4)
            resid = (h @ inv) - MatrixSeries.identity(n)
            for e, m in resid.terms:
                if e < Exponent(4):
                    assert np.abs(m).max() < 1e-10

    def test_singular_leading_term(self):
        h = MatrixSeries(2, {0: [[1.0, 0.0], [0.0, 0.0]], 1: np.eye(2)})
        with pytest.raises(SingularLeadingTermError):
            series_matrix_inverse(h, 2)


class TestJsonContract:
    def test_round_trip(self, ex_5x5):
        from asymspec.serialize import matrix_series_from_json, matrix_series_to_json

        back = matrix_series_from_json(matrix_series_to_json(ex_5x5))
        assert back == ex_5x5

    def test_bare_integer_exponents(self):
        from asymspec.serialize import matrix_series_from_json

        obj = {
            "n": 1,
            "symmetric": True,
            "trunc_order": 3,
            "terms": [{"exponent": 2, "matrix": [[4.0]]}],
        }
        m = matrix_series_from_json(obj)
        assert m.terms[0][0] == Exponent(2)


class TestSeriesInverseHorizon:
    def test_constant_input_keeps_its_horizon(self):
        # known only to o(eps): the inverse cannot claim o(eps^3)
        h = MatrixSeries.from_constant(2 * np.eye(2), trunc_order=1, symmetric=True)
        assert series_matrix_inverse(h, 3).trunc_order == Exponent(1)
        half = h + MatrixSeries(2, {Exponent(1, 2): np.eye(2)}, trunc_order=1, symmetric=True)
        assert series_matrix_inverse(half, 3).trunc_order == Exponent(1)


def _eps_power_by_fraction(eps, e):
    """eps^e as it was computed through ``e.fraction``: the reference."""
    if e.is_infinite:
        return 0.0
    f = e.fraction
    if f == 0:
        return 1.0
    if eps == 0.0:
        if f < 0:
            raise ValueError("negative exponent at eps=0")
        return 0.0
    try:
        return float(eps) ** float(f)
    except OverflowError:
        raise ValueError(f"eps^{f} overflows a double at eps = {eps:g}") from None


class TestEpsPower:
    """eps^e read off the integer pair gives the Fraction path's doubles, bit for bit."""

    EPS = (0.0, 1e-300, 1e-12, 3.7e-5, 0.01, 0.25, 0.5, 1.0, 2.0, 7.5)

    @staticmethod
    def _exponents():
        rng = np.random.default_rng(3)
        out = [Exponent(0), Exponent(1), Exponent(-1), Exponent(7, 2), INFINITY]
        for _ in range(300):
            den = int(rng.integers(1, 10**6 + 1))
            out.append(Exponent(int(rng.integers(-20 * den, 20 * den + 1)), den))
        return out

    @staticmethod
    def _outcome(fn, eps, e):
        try:
            return np.float64(fn(eps, e)).tobytes()
        except ValueError as exc:
            return str(exc)

    def test_matches_the_fraction_path(self):
        from asymspec.series import _eps_power

        for e in self._exponents():
            for eps in self.EPS:
                assert self._outcome(_eps_power, eps, e) == \
                    self._outcome(_eps_power_by_fraction, eps, e)

    def test_overflow_message(self):
        from asymspec.series import _eps_power

        for e in (Exponent(-100), Exponent(-301, 3), Exponent(-999999, 1000)):
            with pytest.raises(ValueError) as got:
                _eps_power(1e-300, e)
            with pytest.raises(ValueError) as want:
                _eps_power_by_fraction(1e-300, e)
            assert str(got.value) == str(want.value)
            assert str(got.value).startswith(f"eps^{e.fraction} overflows a double")

    def test_evaluate_matches_the_fraction_path(self, monkeypatch, ex_5x5, ex_degenerate):
        import asymspec.gkf
        import asymspec.series
        from asymspec import DiagonalScaling, GkfForm

        rng = np.random.default_rng(4)
        exps = [e for e in self._exponents() if not e.is_infinite][:40]
        n = 4
        mats = [(lambda a: a + a.T)(rng.standard_normal((n, n))) for _ in exps]
        random_series = MatrixSeries(n, list(zip(exps, mats)), symmetric=True)
        v = rng.standard_normal((n, 3))
        w = (lambda a: a @ a.T + np.eye(3))(rng.standard_normal((3, 3)))
        gkf = GkfForm(v, DiagonalScaling.from_exponents(
            [Exponent(-7, 999983), Exponent(0), Exponent(5, 3)]), w)
        sources = [ex_5x5, ex_degenerate, random_series, gkf]
        grid = [e for e in self.EPS if e >= 1e-12]  # eps^-20 stays finite

        def evaluate_all():
            return [s.evaluate(eps).tobytes() for s in sources for eps in grid]

        got = evaluate_all()
        with monkeypatch.context() as m:
            m.setattr(asymspec.series, "_eps_power", _eps_power_by_fraction)
            m.setattr(asymspec.gkf, "_eps_power", _eps_power_by_fraction)
            want = evaluate_all()
        assert got == want
