"""Exact integer valuation grids and the vectorized scaling solver.

Each vectorized routine is checked against a plain loop over ``Fraction``
exponents: the assignment solver against the column-by-column Hungarian
loop, and the grid routines against entry-by-entry references.
"""

from fractions import Fraction

import numpy as np
import pytest

from asymspec import (
    DiagonalScaling,
    Exponent,
    INFINITY,
    MatrixSeries,
    analyze_series,
    auto_scale_exponents,
    check_valid,
    extract_H,
    valuation_matrix,
)
from asymspec.scaling import _hungarian
from reference import grid_of, tight_entries


def hungarian_reference(cost):
    """Min-cost perfect assignment, one column at a time (Kuhn's method)."""
    n = len(cost)
    inf = float("inf")  # above every reduced cost, whatever the costs' sign
    u = [0] * (n + 1)
    v = [0] * (n + 1)
    match = [0] * (n + 1)  # match[j] = row assigned to column j
    for i in range(1, n + 1):
        match[0] = i
        j0 = 0
        minv = [inf] * (n + 1)
        used = [False] * (n + 1)
        way = [0] * (n + 1)
        while True:
            used[j0] = True
            i0 = match[j0]
            delta = inf
            j1 = -1
            for j in range(1, n + 1):
                if used[j]:
                    continue
                cur = cost[i0 - 1][j - 1] - u[i0] - v[j]
                if cur < minv[j]:
                    minv[j] = cur
                    way[j] = j0
                if minv[j] < delta:
                    delta = minv[j]
                    j1 = j
            for j in range(n + 1):
                if used[j]:
                    u[match[j]] += delta
                    v[j] -= delta
                else:
                    minv[j] -= delta
            j0 = j1
            if match[j0] == 0:
                break
        while j0:
            j1 = way[j0]
            match[j0] = match[j1]
            j0 = j1
    assignment = [0] * n
    for j in range(1, n + 1):
        assignment[j - 1] = match[j] - 1
    return assignment, u[1:], v[1:]


def _random_omega(rng):
    """A criterion-10c-style symmetric grid: denominators 1/2/4, some +inf."""
    n = int(rng.integers(2, 9))
    num = rng.integers(0, 9, (n, n))
    den = rng.choice([1, 1, 2, 4], size=(n, n))
    vals = np.minimum(num, num.T)
    dens = np.minimum(den, den.T)
    inf = rng.random((n, n)) < 0.15
    inf = inf | inf.T
    np.fill_diagonal(inf, False)
    return grid_of([
        [INFINITY if inf[i, j] else Exponent(int(vals[i, j]), int(dens[i, j]))
         for j in range(n)]
        for i in range(n)
    ])


def _assignment_cost(om):
    # the big-M cost matrix auto_scale_exponents builds for nonnegative grids
    n = om.shape[0]
    big = int(om.num.max()) * n + 1
    return np.where(om.inf, big, om.num)


def test_hungarian_matches_reference_on_random_grids():
    rng = np.random.default_rng(102)
    for _ in range(200):
        cost = _assignment_cost(_random_omega(rng))
        assert _hungarian(cost) == hungarian_reference(cost.tolist())


def test_hungarian_matches_reference_on_all_ties():
    for n in range(1, 61):
        cost = np.zeros((n, n), dtype=np.int64)
        assert _hungarian(cost) == hungarian_reference(cost.tolist())


def test_hungarian_matches_reference_on_gallai_weights():
    # the nonpositive weights -max(mu_i + mu_j - c_ij, 0) of _bounded_optimum
    rng = np.random.default_rng(103)
    for _ in range(200):
        n = int(rng.integers(1, 13))
        c = rng.integers(0, 20, (n, n))
        c = np.minimum(c, c.T)
        mu = c.min(axis=1)
        cost = -np.maximum(mu[:, None] + mu[None, :] - c, 0)
        assert _hungarian(cost) == hungarian_reference(cost.tolist())


def test_hungarian_matches_reference_on_object_costs():
    # entries past int64, which run the solver on Python ints in object arrays
    rng = np.random.default_rng(104)
    for _ in range(200):
        n = int(rng.integers(1, 13))
        cost = rng.integers(-50, 50, (n, n)).astype(object) * 2**70
        assert _hungarian(cost) == hungarian_reference(cost.tolist())


# -- Fraction references for the grid routines ------------------------------


def _ref_valuations(k):
    n, m = k.shape
    return [
        [next((e for e, c in k.terms if c[i, j] != 0.0), None) for j in range(m)]
        for i in range(n)
    ]


def _ref_residuals(k, exps):
    fr = list(exps)
    return [
        [None if w is None else w - (fr[i] + fr[j]) for j, w in enumerate(row)]
        for i, row in enumerate(_ref_valuations(k))
    ]


def _ref_extract_H(k, exps):
    n = k.n
    h = np.zeros((n, n))
    for i, row in enumerate(_ref_residuals(k, exps)):
        for j, r in enumerate(row):
            if r == 0:
                h[i, j] = next(c[i, j] for _, c in k.terms if c[i, j] != 0.0)
    return h


def _ref_scale_rows_cols(k, left, right):
    out = {}
    for e, m in k.terms:
        for i in range(k.shape[0]):
            for j in range(k.shape[1]):
                if m[i, j] != 0.0:
                    key = e + left[i] + right[j]
                    out.setdefault(key, np.zeros(k.shape))[i, j] += m[i, j]
    trunc = k.trunc_order + min(left) + min(right)
    return MatrixSeries(k.shape, out, trunc, k.symmetric and left == right)


def _random_series(rng):
    """Symmetric series: denominators 1-4, negative exponents, zero entries."""
    n = int(rng.integers(2, 7))
    zero = rng.random((n, n)) < 0.3
    zero = zero | zero.T
    terms = {}
    for _ in range(int(rng.integers(1, 5))):
        e = Fraction(int(rng.integers(-6, 7)), int(rng.choice([1, 2, 3, 4])))
        c = np.where(rng.random((n, n)) < 0.5, rng.integers(-3, 4, (n, n)), 0).astype(float)
        c = np.where(zero, 0.0, c + c.T)
        terms[e] = terms.get(e, 0.0) + c
    return MatrixSeries(n, list(terms.items()), trunc_order=7, symmetric=True)


def _residual_grid(rows):
    return [[INFINITY if r is None else Exponent(r) for r in row] for row in rows]


def test_grid_routines_match_fraction_reference():
    rng = np.random.default_rng(7)
    for _ in range(150):
        k = _random_series(rng)
        om = valuation_matrix(k)
        ref = _ref_valuations(k)
        assert om == grid_of(_residual_grid(ref))
        n = k.n
        # a valid scaling: half of each row's smallest finite valuation
        nu = [min((w for w in row if w is not None), default=Fraction(0)) / 2 for row in ref]
        perm = sorted(range(n), key=lambda i: (nu[i], i))
        kp = k.permuted(perm)
        exps = [Exponent(nu[i]) for i in perm]
        sc = DiagonalScaling.from_exponents(exps)
        ok, resid = check_valid(valuation_matrix(kp), sc)
        ref_resid = _ref_residuals(kp, exps)
        assert ok
        assert resid == grid_of(_residual_grid(ref_resid))
        expect_tight = {(i, j) for i in range(n) for j in range(n) if ref_resid[i][j] == 0}
        assert tight_entries(valuation_matrix(kp), sc) == expect_tight
        np.testing.assert_array_equal(extract_H(kp, sc), _ref_extract_H(kp, exps))
        # raising every exponent by 1 breaks validity wherever an entry is finite
        up = [e + 1 for e in exps]
        ok, resid = check_valid(valuation_matrix(kp), DiagonalScaling.from_exponents(up))
        assert ok == all(r is None for row in ref_resid for r in row)
        assert resid == grid_of(_residual_grid(_ref_residuals(kp, up)))
        # entry-wise shifts, symmetric and not
        left = [Fraction(int(rng.integers(-4, 5)), int(rng.choice([1, 2, 3, 4]))) for _ in range(n)]
        right = [Fraction(int(rng.integers(-4, 5)), int(rng.choice([1, 2, 3, 4]))) for _ in range(n)]
        assert k.scale_rows_cols(left, left) == _ref_scale_rows_cols(k, left, left)
        assert k.scale_rows_cols(left, right) == _ref_scale_rows_cols(k, left, right)


def _huge_denominator_series():
    # exponents over 2^40 - 1 and 2^40 + 1: the common denominator exceeds int64
    a, b = 2**40 - 1, 2**40 + 1
    return MatrixSeries(3, [
        (Exponent(0), [[1.0, 0, 0], [0, 0, 0], [0, 0, 0]]),
        (Exponent(1, a), [[0, 1.0, 0], [1.0, 0, 0], [0, 0, 0]]),
        (Exponent(3, b), [[0, 0, 0], [0, 2.0, 0], [0, 0, 0]]),
        (Exponent(2), [[0, 0, 0], [0, 0, 0], [0, 0, 3.0]]),
    ], trunc_order=3, symmetric=True)


def test_huge_common_denominator_stays_exact():
    k = _huge_denominator_series()
    om = valuation_matrix(k)
    assert om.num.dtype == object
    assert om[1, 1] == Exponent(3, 2**40 + 1)
    nu = auto_scale_exponents(om)
    assert nu == [Exponent(0), Exponent(1, 2**40 - 1), Exponent(1)]
    sc = DiagonalScaling.from_exponents(nu)
    ok, resid = check_valid(om, sc)
    assert ok
    assert resid == grid_of(_residual_grid(_ref_residuals(k, nu)))
    np.testing.assert_array_equal(extract_H(k, sc), _ref_extract_H(k, nu))
    shift = [Fraction(1, 2**40 + 1), Fraction(-1, 3), Fraction(2, 2**40 - 1)]
    assert k.scale_rows_cols(shift, shift) == _ref_scale_rows_cols(k, shift, shift)
    for mode in ("scaled", "iterative", "auto"):
        ase = analyze_series(k, mode)
        assert ase.truncated_at is None
        assert [alpha for alpha, _ in ase.groups] == [
            Exponent(0), Exponent(2, 2**40 - 1), Exponent(2)]


@pytest.mark.parametrize(
    "rows, expect",
    [
        ([[-3]], [Fraction(-3, 2)]),
        ([[-5, -4], [-4, -1]], [Fraction(-5, 2), Fraction(-3, 2)]),
        ([[-2, -1], [-1, -3]], [Fraction(-1), Fraction(-3, 2)]),
    ],
)
def test_negative_valuations_scale_maximally(rows, expect):
    # every finite entry negative: the assignment solver must still return
    # tight duals (a too-small search bound once stalled or cut them short)
    nu = auto_scale_exponents(grid_of(rows))
    assert nu == expect
