"""The diagonal certificate of ``auto_scale_exponents``.

When ``nu = diag(Omega) / 2`` is feasible the solver returns it without an
assignment solve.  The reference below is the assignment route the solver
ran on every grid before the certificate (Hungarian duals, symmetrized, with
the Gallai fallback for the bounded program); both must give the same
exponents on every grid.
"""

from fractions import Fraction

import numpy as np
import pytest

from asymspec import (
    INFINITY,
    Exponent,
    MatrixSeries,
    ValuationMatrix,
    analyze_series,
    auto_scale_exponents,
)
from asymspec import scaling
from asymspec.scaling import _bounded_optimum, _feasible, _hungarian
from asymspec.series import exact_int_dtype


def reference_exponents(omega):
    """The assignment route alone, as it ran before the certificate."""
    n = omega.shape[0]
    finite = omega.num[~omega.inf]
    lb_num = min(int(finite.min()), 0)
    big = max(int(finite.max()), 0) * n + 1 + abs(lb_num) * n
    cost = np.array(omega.num, dtype=exact_int_dtype(big))
    cost[omega.inf] = big
    assignment, u, v = _hungarian(cost)
    twice = [u[i] + v[i] for i in range(n)]
    if omega.inf[np.arange(n), assignment].any() or min(twice) < 2 * lb_num:
        twice = _bounded_optimum(omega, lb_num)
    assert min(twice) >= 2 * lb_num and _feasible(omega, twice)
    return [Exponent(Fraction(t, 2 * omega.den)) for t in twice]


def _grid(values, inf):
    n = len(values)
    return ValuationMatrix([
        [INFINITY if inf[i, j] else Exponent(values[i][j]) for j in range(n)]
        for i in range(n)
    ])


def _certified_omega(rng):
    """Omega_ij = a_i + a_j + x_ij, x symmetric >= 0 with zero diagonal."""
    n = int(rng.integers(2, 9))
    a = [Fraction(int(k), int(d)) for k, d in
         zip(rng.integers(-6, 9, n), rng.choice([1, 2, 4], n))]
    x = rng.integers(0, 5, (n, n)) * (rng.random((n, n)) < 0.5)
    xden = rng.choice([1, 2, 4], size=(n, n))
    x, xden = np.minimum(x, x.T), np.minimum(xden, xden.T)
    np.fill_diagonal(x, 0)
    inf = rng.random((n, n)) < 0.15
    inf = inf | inf.T
    np.fill_diagonal(inf, False)
    values = [[a[i] + a[j] + Fraction(int(x[i, j]), int(xden[i, j])) for j in range(n)]
              for i in range(n)]
    return _grid(values, inf), a


def _random_omega(rng):
    """A criterion-10c-style symmetric grid: denominators 1/2/4, some +inf."""
    n = int(rng.integers(2, 9))
    num = rng.integers(0, 9, (n, n))
    den = rng.choice([1, 1, 2, 4], size=(n, n))
    vals, dens = np.minimum(num, num.T), np.minimum(den, den.T)
    inf = rng.random((n, n)) < 0.15
    inf = inf | inf.T
    np.fill_diagonal(inf, False)
    values = [[Fraction(int(vals[i, j]), int(dens[i, j])) for j in range(n)]
              for i in range(n)]
    return _grid(values, inf)


def _certified(omega):
    diag = np.diagonal(omega.num)
    return not np.diagonal(omega.inf).any() and _feasible(omega, diag)


def test_certified_grids_match_the_assignment_route():
    rng = np.random.default_rng(10)
    for _ in range(150):
        omega, a = _certified_omega(rng)
        assert _certified(omega)
        got = auto_scale_exponents(omega)
        assert got == reference_exponents(omega)
        assert [e.fraction for e in got] == a


def test_random_grids_match_the_assignment_route():
    rng = np.random.default_rng(102)
    certified = 0
    for _ in range(150):
        omega = _random_omega(rng)
        certified += _certified(omega)
        assert auto_scale_exponents(omega) == reference_exponents(omega)
    assert certified < 75  # most of these grids take the assignment route


# -- which route runs --------------------------------------------------------


@pytest.fixture
def hungarian_calls(monkeypatch):
    calls = []

    def counting(cost):
        calls.append(np.shape(cost))
        return _hungarian(cost)

    monkeypatch.setattr(scaling, "_hungarian", counting)
    return calls


def _planted_scaled(n, seed=0):
    """Delta (H + eps^(1/2) R1 + eps R2) Delta with nu in {0, 1/2, ..., 2}, shuffled."""
    rng = np.random.default_rng(seed)
    halves = rng.permutation(np.arange(n) % 5)
    b = rng.standard_normal((n, n))
    h = b @ b.T / n + np.eye(n)
    r1 = rng.standard_normal((n, n))
    r2 = rng.standard_normal((n, n))
    terms = {}
    for shift, m in ((0, h), (1, r1 + r1.T), (2, r2 + r2.T)):
        e = halves[:, None] + halves[None, :] + shift
        for s in np.unique(e):
            key = Fraction(int(s), 2)
            terms[key] = terms.get(key, 0.0) + np.where(e == s, m, 0.0)
    return MatrixSeries(n, terms, trunc_order=Fraction(int(max(terms) * 2) + 1, 2),
                        symmetric=True)


def _rotated(n):
    """Q diag(c_i eps^a_i) Q^T with Q dense orthogonal: every entry has valuation 0."""
    rng = np.random.default_rng(0)
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    c = rng.uniform(1.0, 2.0, size=n)
    a = np.arange(n) % 4
    terms = {p: (q[:, a == p] * c[a == p]) @ q[:, a == p].T for p in range(4)}
    return MatrixSeries(n, terms, trunc_order=4, symmetric=True)


@pytest.mark.parametrize("series", [_planted_scaled(50), _rotated(20)],
                         ids=["planted-scaled-50", "rotated-20"])
def test_series_rounds_skip_the_assignment(hungarian_calls, series):
    ase = analyze_series(series, "auto")
    assert ase.complete
    assert hungarian_calls == []


@pytest.mark.parametrize("entries, expected", [
    # diag / 2 = (0, 1/2, 1/2) overshoots Omega_01 = 0; the duals dip below 0
    ([[0, 0, 0], [0, 1, 1], [0, 1, 1]], [0, 0, 0]),
    # no finite diagonal to certify; nu_0 + nu_1 <= 1 binds
    ([[INFINITY, 1], [1, 4]], [Fraction(1, 2), Fraction(1, 2)]),
])
def test_uncertified_grids_run_the_assignment(hungarian_calls, entries, expected):
    omega = ValuationMatrix(entries)
    nu = auto_scale_exponents(omega)
    assert hungarian_calls
    assert nu == reference_exponents(omega)
    assert [e.fraction for e in nu] == expected
