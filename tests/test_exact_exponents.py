"""Exact exponents as integer pairs, and series results built in normal form.

``Exponent`` keeps a reduced pair ``(num, den)`` and compares by
cross-multiplication; it is checked against ``fractions.Fraction`` on seeded
random values.  Every ``MatrixSeries`` operation must return a series that
the public constructor would leave unchanged.  The series inverse is checked
against the Neumann loop it replaced, copied below as the reference.
"""

import math
import operator
from fractions import Fraction

import numpy as np
import pytest

from asymspec import (
    INFINITY,
    Exponent,
    MatrixSeries,
    ValuationMatrix,
    series_matrix_inverse,
)
from asymspec.degenerate import _symmetric
from asymspec.series import exact_int_dtype, max_abs
from reference import block_diag

DENS = (1, 2, 3, 6)


def _random_value(rng):
    """A Fraction, or None for +infinity; zero and negatives included."""
    r = rng.random()
    if r < 0.08:
        return None
    if r < 0.16:
        return Fraction(0)
    return Fraction(int(rng.integers(-40, 41)), int(rng.integers(1, 13)))


def _exponent(value):
    return INFINITY if value is None else Exponent(value.numerator, value.denominator)


class TestExponentAgainstFraction:
    def test_random_pairs(self):
        rng = np.random.default_rng(2024)
        inf_key = (1, Fraction(0))  # orders +infinity above every Fraction
        key = lambda v: inf_key if v is None else (0, v)  # noqa: E731
        for _ in range(2000):
            a, b = _random_value(rng), _random_value(rng)
            x, y = _exponent(a), _exponent(b)
            for op in (operator.lt, operator.le, operator.gt, operator.ge, operator.eq,
                       operator.ne):
                assert op(x, y) == op(key(a), key(b)), (a, b, op)
            if x == y:
                assert hash(x) == hash(y)
            # a fresh, unreduced spelling of the same value is equal and hashes alike
            if a is not None:
                k = int(rng.integers(1, 5))
                twin = Exponent(a.numerator * k, a.denominator * k)
                assert twin == x and hash(twin) == hash(x)
                assert (twin.num, twin.den) == (a.numerator, a.denominator)
                assert twin.fraction == a
                assert x == a and (a.denominator != 1 or x == int(a))
                assert float(x) == float(a)
                assert str(x) == str(a) and repr(x) == f"Exponent({a})"
                assert (-x).fraction == -a
                k = int(rng.integers(-3, 4))
                assert (x * k).fraction == a * k and (k * x).fraction == a * k
            else:
                assert float(x) == math.inf and str(x) == "inf" and repr(x) == "Exponent(inf)"
                assert x * 3 is INFINITY
            if a is None or b is None:
                assert x + y is INFINITY
            else:
                assert (x + y).fraction == a + b
                assert (x + int(b.numerator)).fraction == a + b.numerator
            if b is None:
                with pytest.raises(ValueError):
                    x - y
            elif a is None:
                assert x - y is INFINITY
            else:
                assert (x - y).fraction == a - b

    def test_mixed_comparisons(self):
        assert Exponent(4, 2) == 2 and Exponent(1, 2) == Fraction(1, 2)
        assert Exponent(1, 2) < 1 and Exponent(3, 2) > Fraction(4, 3)
        assert INFINITY > 10**30 and not INFINITY == 10**30
        assert Exponent(1, 2) != "1/2" and Exponent(1) != 1.0
        with pytest.raises(TypeError):
            Exponent(1) < 1.5

    def test_constructor_errors(self):
        with pytest.raises(ZeroDivisionError):
            Exponent(1, 0)
        with pytest.raises(TypeError):
            Exponent(1.5)
        with pytest.raises(TypeError):
            Exponent(1, 2.0)
        with pytest.raises(ValueError):
            Exponent(INFINITY)
        for attr in ("num", "den", "fraction"):
            with pytest.raises(ValueError):
                getattr(INFINITY, attr)
        with pytest.raises(ValueError):
            -INFINITY

    def test_other_spellings(self):
        assert Exponent(3, -6) == Exponent(-1, 2) and Exponent(3, -6).den == 2
        assert Exponent(Fraction(3, 4), 3) == Exponent(1, 4)
        assert Exponent(Exponent(3, 2), 3) == Exponent(1, 2)
        assert Exponent(np.int64(6), 4) == Exponent(3, 2)
        assert Exponent(True) == Exponent(1)
        assert sorted([Exponent(1), INFINITY, Exponent(-1, 3), Exponent(0)]) == [
            Exponent(-1, 3), Exponent(0), Exponent(1), INFINITY]


# ---------------------------------------------------------------------------
# MatrixSeries results are in normal form
# ---------------------------------------------------------------------------


def _random_series(rng, shape, symmetric=False, nterms=None, positive=False):
    n, m = shape
    nterms = int(rng.integers(0, 5)) if nterms is None else nterms
    terms = []
    for _ in range(nterms):
        den = int(rng.choice(DENS))
        e = Exponent(int(rng.integers(1 if positive else -2, 4 * den)), den)
        c = rng.standard_normal((n, m))
        c[rng.random((n, m)) < 0.4] = 0.0
        terms.append((e, c))
    trunc = Exponent(int(rng.integers(3, 25)), int(rng.choice(DENS)))
    if rng.random() < 0.15:
        trunc = INFINITY
    return MatrixSeries(shape, terms, trunc, symmetric)


def _assert_normal_form(r):
    again = MatrixSeries(r.shape, r.terms, r.trunc_order, r.symmetric)
    assert r == again and r.symmetric == again.symmetric
    exps = [e for e, _ in r.terms]
    assert all(a < b for a, b in zip(exps, exps[1:]))
    for e, m in r.terms:
        assert e < r.trunc_order and not e.is_infinite
        assert m.shape == r.shape and not m.flags.writeable and m.any()
        if r.symmetric:
            assert np.array_equal(m, m.T)


def test_every_operation_returns_normal_form():
    rng = np.random.default_rng(77)
    for _ in range(150):
        n = int(rng.integers(1, 5))
        sym = bool(rng.random() < 0.5)
        a = _random_series(rng, (n, n), sym)
        b = _random_series(rng, (n, n), sym)
        results = [a + b, a - b, a - a, -a, a @ b, a.shift(Exponent(int(rng.integers(-3, 4)), 2)),
                   a.truncate(Exponent(int(rng.integers(0, 8)), 3)), _symmetric(a),
                   a.permuted(rng.permutation(n)), a.congruence(rng.standard_normal((n, 2))),
                   block_diag(a, b), a.submatrix([0], list(range(n)))]
        left = [Exponent(int(x), 2) for x in rng.integers(-2, 3, n)]
        right = [Exponent(int(x), 3) for x in rng.integers(-2, 3, n)]
        uniform = [Exponent(int(rng.integers(-2, 3)), 6)] * n
        for lr in ((left, right), (left, left), (uniform, uniform), (uniform, right)):
            r = a.scale_rows_cols(*lr)
            results.append(r)
            assert r.symmetric == (a.symmetric and lr[0] == lr[1])
            # the same result as multiplying by the diagonal scalings
            dl, dr = (MatrixSeries(n, [(e, np.diag(np.eye(n)[i])) for i, e in enumerate(d)],
                                   INFINITY) for d in lr)
            slow = dl @ a @ dr
            assert [e for e, _ in r.terms] == [e for e, _ in slow.terms if e < r.trunc_order]
            for (_, m1), (_, m2) in zip(r.terms, slow.terms):
                np.testing.assert_array_equal(m1, m2)
        h = _random_series(rng, (n, n), sym, positive=True) + MatrixSeries.from_constant(
            rng.standard_normal((n, n)) + 4 * np.eye(n), Exponent(20))
        results.append(series_matrix_inverse(h, Exponent(int(rng.integers(1, 12)), 2)))
        for r in results:
            _assert_normal_form(r)


# ---------------------------------------------------------------------------
# the series inverse against the Neumann loop it replaced
# ---------------------------------------------------------------------------


def neumann_inverse(h, order):
    """The Neumann-series inverse as it ran before the coefficient recurrence."""
    order = Exponent(order) if not isinstance(order, Exponent) else order
    h0 = h.coefficient(0)
    y0 = np.linalg.inv(h0)
    n = h.shape[0]
    rest = (h - MatrixSeries.from_constant(h0, trunc_order=h.trunc_order)).truncate(order)
    y0s = MatrixSeries.from_constant(y0)
    m = (-(rest @ y0s)).truncate(order)
    acc = MatrixSeries.identity(n)
    power = MatrixSeries.identity(n)
    while True:
        power = (power @ m).truncate(order)
        if power.is_zero:
            break
        acc = acc + power
    return (y0s @ acc).truncate(order)


def test_inverse_matches_neumann_loop():
    rng = np.random.default_rng(31)
    positive_terms = 0
    for _ in range(100):
        n = int(rng.integers(1, 6))
        h0 = rng.standard_normal((n, n)) + 3 * np.eye(n)
        terms = [(0, h0)]
        for _ in range(int(rng.integers(0, 4))):
            den = int(rng.choice(DENS))
            terms.append((Exponent(int(rng.integers(1, 3 * den)), den),
                          rng.standard_normal((n, n))))
        den = int(rng.choice(DENS))
        h = MatrixSeries(n, terms, Exponent(int(rng.integers(den, 8 * den)), den),
                         symmetric=bool(rng.random() < 0.5))
        den = int(rng.choice(DENS))
        order = Exponent(int(rng.integers(den, 8 * den)), den)
        got, ref = series_matrix_inverse(h, order), neumann_inverse(h, order)
        assert got.trunc_order == min(order, h.trunc_order)
        assert [e for e, _ in got.terms] == [e for e, _ in ref.terms]
        for (_, g), (_, r) in zip(got.terms, ref.terms):
            np.testing.assert_allclose(g, r, rtol=1e-12, atol=1e-12 * np.abs(r).max())
        positive_terms += len(got.terms) > 1
    assert positive_terms > 50  # most draws exercise the recurrence


def test_inverse_horizon_of_a_constant_input():
    # min(order, horizon); tests/test_series.py has the case order > horizon
    h = MatrixSeries.from_constant(2 * np.eye(2), trunc_order=1, symmetric=True)
    assert series_matrix_inverse(h, Exponent(1, 2)).trunc_order == Exponent(1, 2)
    exact = MatrixSeries.from_constant(2 * np.eye(2), symmetric=True)
    assert series_matrix_inverse(exact, 3).trunc_order == Exponent(3)


def test_inverse_needs_a_finite_order_for_a_nonconstant_input():
    h = MatrixSeries(1, {0: [[1.0]], 1: [[1.0]]}, trunc_order=INFINITY)
    with pytest.raises(ValueError):
        series_matrix_inverse(h, INFINITY)


# ---------------------------------------------------------------------------
# ValuationMatrix(entries) collects integer pairs
# ---------------------------------------------------------------------------


def test_valuation_matrix_entries_match_arrays():
    rng = np.random.default_rng(5)
    for trial in range(60):
        n, m = int(rng.integers(1, 6)), int(rng.integers(1, 6))
        big = trial % 3 == 0  # integers beyond 2**62: an object grid
        vals, spelled = [], []
        for _ in range(n):
            row_v, row_s = [], []
            for _ in range(m):
                r = rng.random()
                if r < 0.2:
                    row_v.append(None)
                    row_s.append(INFINITY)
                    continue
                num = int(rng.integers(-50, 50)) * (3**41 if big else 1)
                den = int(rng.choice(DENS))
                v = Fraction(num, den)
                row_v.append(v)
                row_s.append(num if den == 1 and r < 0.5 else
                             Fraction(num, den) if r < 0.75 else Exponent(num, den))
            vals.append(row_v)
            spelled.append(row_s)
        den = math.lcm(*(v.denominator for row in vals for v in row if v is not None))
        nums = [v.numerator * (den // v.denominator) if v is not None else 0
                for row in vals for v in row]
        num = np.array(nums, dtype=exact_int_dtype(max_abs(nums))).reshape(n, m)
        inf = np.array([v is None for row in vals for v in row], dtype=bool).reshape(n, m)
        got = ValuationMatrix(spelled)
        assert got == ValuationMatrix._from_arrays(num, den, inf)
        assert got.entries == tuple(tuple(map(_exponent, row)) for row in vals)
        if big and n and not inf.all() and max_abs(num[~inf]) >= 2**62:
            assert got.num.dtype == object


def test_valuation_matrix_entry_errors():
    with pytest.raises(ValueError):
        ValuationMatrix([[0, 1], [2]])
    with pytest.raises(TypeError):
        ValuationMatrix([[0, 1.5]])
    with pytest.raises(TypeError):
        ValuationMatrix([[0, np.int64(1)]])
    assert ValuationMatrix([[True, 0]]) == ValuationMatrix([[1, 0]])
    assert ValuationMatrix([]).shape == (0, 0)
