"""The bounded scaling program against an exact rational simplex.

When the symmetrized assignment duals dip below the bound lb, or no finite
perfect assignment exists, ``auto_scale_exponents`` solves the bounded program
max sum(nu) subject to nu_i + nu_j <= Omega_ij and nu >= lb through one more
Hungarian run.  The reference is a plain Bland's-rule simplex over
``Fraction``: it reaches the same optimum value, though where the optimum is
not unique it may pick a different optimal vertex.
"""

from fractions import Fraction

import numpy as np
import pytest

from asymspec import INFINITY, Exponent, auto_scale_exponents
from asymspec import scaling
from reference import grid_of


def simplex_max(c, a, b):
    """Maximize c.x subject to a.x <= b, x >= 0 in exact rational arithmetic.

    Requires b >= 0 (the slack basis is then feasible) and a bounded optimum;
    Bland's rule prevents cycling.  Returns the optimal vertex.
    """
    m = len(a)
    n = len(c)
    tab = [[Fraction(0)] * (n + m + 1) for _ in range(m + 1)]
    for i in range(m):
        for j in range(n):
            tab[i][j] = Fraction(a[i][j])
        tab[i][n + i] = Fraction(1)
        tab[i][-1] = Fraction(b[i])
        assert tab[i][-1] >= 0
    for j in range(n):
        tab[m][j] = -Fraction(c[j])
    basis = list(range(n, n + m))
    while True:
        enter = next((j for j in range(n + m) if tab[m][j] < 0), None)
        if enter is None:
            break
        pivot = None
        best = None
        for i in range(m):
            if tab[i][enter] > 0:
                ratio = tab[i][-1] / tab[i][enter]
                if best is None or ratio < best or (ratio == best and basis[i] < basis[pivot]):
                    best = ratio
                    pivot = i
        assert pivot is not None, "scaling program is unbounded"
        prow = tab[pivot]
        pe = prow[enter]
        tab[pivot] = [x / pe for x in prow]
        for i in range(m + 1):
            if i != pivot and tab[i][enter] != 0:
                f = tab[i][enter]
                tab[i] = [x - f * y for x, y in zip(tab[i], tab[pivot])]
        basis[pivot] = enter
    x = [Fraction(0)] * n
    for i, bi in enumerate(basis):
        if bi < n:
            x[bi] = tab[i][-1]
    return x


def bounded_reference(omega):
    """The bounded program's optimum: shift to x = nu - lb >= 0, then simplex."""
    n = omega.shape[0]
    lb = min(Fraction(0), *(omega[i, j] for i in range(n) for j in range(n)
                            if omega[i, j] != INFINITY))
    rows = []
    rhs = []
    for i in range(n):
        for j in range(i, n):
            if omega[i, j] == INFINITY:
                continue
            coeff = [0] * n
            coeff[i] += 1
            coeff[j] += 1
            rows.append(coeff)
            rhs.append(omega[i, j] - 2 * lb)
    x = simplex_max([1] * n, rows, rhs)
    return [xi + lb for xi in x], lb


@pytest.fixture
def fallbacks(monkeypatch):
    """Counts the calls of the bounded solver."""
    calls = []
    solve = scaling._bounded_optimum

    def counted(*args):
        calls.append(args)
        return solve(*args)

    monkeypatch.setattr(scaling, "_bounded_optimum", counted)
    return calls


def _assert_matches_reference(omega, exps):
    nu = list(exps)
    ref, lb = bounded_reference(omega)
    n = omega.shape[0]
    assert sum(nu) == sum(ref)
    assert min(nu) >= lb
    den = omega.den
    assert all((2 * den * f).denominator == 1 for f in nu)
    for i in range(n):
        slack = [omega[i, j] - nu[i] - nu[j]
                 for j in range(n) if omega[i, j] != INFINITY]
        assert min(slack) == 0  # valid, and row i is tight


def _block_sum(block, copies, off):
    """Direct sum of ``copies`` blocks with every off-block entry ``off``."""
    k = len(block)
    grid = np.full((k * copies, k * copies), off)
    for s in range(0, k * copies, k):
        grid[s : s + k, s : s + k] = block
    return grid_of(grid.tolist())


TRIGGER = [[0, 0, 0], [0, 1, 1], [0, 1, 1]]


@pytest.mark.parametrize(
    "omega",
    [
        # rows 1 and 2 only reach column 0: no finite perfect assignment
        grid_of([[0, 1, 1], [1, INFINITY, INFINITY], [1, INFINITY, INFINITY]]),
        # the assignment duals (-1/2, 1/2, 1/2) dip below lb = 0
        grid_of(TRIGGER),
        _block_sum(TRIGGER, 4, 50),
        # numerators past int64: the solve runs on Python ints
        grid_of([[0, Exponent(10**19 + 1, 3), Exponent(10**19 + 1, 3)],
                         [Exponent(10**19 + 1, 3), INFINITY, INFINITY],
                         [Exponent(10**19 + 1, 3), INFINITY, INFINITY]]),
    ],
    ids=["no-finite-assignment", "trigger", "trigger-x4", "huge-numerators"],
)
def test_named_grids(fallbacks, omega):
    _assert_matches_reference(omega, auto_scale_exponents(omega))
    assert len(fallbacks) == 1


def _random_grid(rng, negative):
    n = int(rng.integers(2, 13))
    den = rng.choice([1, 2, 4], (n, n))
    lo = -1 if negative else 0
    num = rng.integers(lo, 9, (n, n))
    inf = rng.random((n, n)) < 0.2
    inf = inf | inf.T
    np.fill_diagonal(inf, False)
    den = np.minimum(den, den.T)
    num = np.minimum(num, num.T)
    return grid_of(
        [[INFINITY if inf[i, j] else Exponent(int(num[i, j]), int(den[i, j]))
          for j in range(n)] for i in range(n)]
    )


@pytest.mark.parametrize("negative", [False, True], ids=["lb=0", "lb<0"])
def test_random_fallback_grids(fallbacks, negative):
    rng = np.random.default_rng(7 + negative)
    seen = 0
    while seen < 100:
        omega = _random_grid(rng, negative)
        if negative and omega.num[~omega.inf].min() >= 0:
            continue
        before = len(fallbacks)
        exps = auto_scale_exponents(omega)
        if len(fallbacks) == before:
            continue
        seen += 1
        _assert_matches_reference(omega, exps)
