"""The kernel route against a high-precision reference.

K(eps) is built in mpmath at eps = 1e-3 and 5e-4 with 50 + 3 x (largest
reported valuation) digits, so that the smallest eigenvalue of every
reported group keeps about 50 significant digits, and ``mp.eigsy`` gives
its eigenpairs, sorted by magnitude.  Each group ``kernel_ase`` reports
below ``truncated_at`` takes the next ``count`` of them:

- its leading coefficients must match lambda(eps) / eps^alpha after one
  Richardson step, in eps^2 for the gaussian (an analytic function of
  eps^2) and in eps for the finitely smooth kernels, whose expansions
  carry odd powers;
- its eigenvectors must span mp's at eps = 5e-4 up to a principal angle
  of 1e-3 (the O(eps) rotation of the span, with room).
"""

import numpy as np
import pytest

from asymspec import generate_nodes, kernel_ase, kernel_model

from reference import _principal_angles

mp = pytest.importorskip("mpmath").mp

EPS = (1e-3, 5e-4)


def _mp_kernel(name, points, eps):
    """K(eps) of a named kernel on float nodes, every entry in mp arithmetic."""
    x = [[mp.mpf(float(c)) for c in row] for row in points]
    e = mp.mpf(eps)
    k = mp.matrix(len(x), len(x))
    for i, xi in enumerate(x):
        for j, xj in enumerate(x):
            r2 = mp.fsum((a - b) ** 2 for a, b in zip(xi, xj))
            if name == "gaussian":
                k[i, j] = mp.exp(-(e * e) * r2)
            else:
                s = e * mp.sqrt(r2)
                k[i, j] = mp.exp(-s) if name == "exponential" else (1 + s) * mp.exp(-s)
    return k


def _mp_eigenpairs(name, points, eps):
    """Eigenvalues (as mpf) and float eigenvectors of K(eps), largest magnitude first."""
    w, v = mp.eigsy(_mp_kernel(name, points, eps))
    order = sorted(range(len(w)), key=lambda i: -abs(w[i]))
    vectors = np.array([[float(v[r, c]) for c in order] for r in range(v.rows)])
    return [w[i] for i in order], vectors


@pytest.mark.parametrize("name, spec, d, step, bound", [
    ("gaussian", "equispaced:10", 1, 2, 1e-8),
    ("gaussian", "uniform:10", 2, 2, 1e-8),
    ("matern2", "equispaced:8", 1, 1, 1e-5),
    ("exponential", "uniform:6", 2, 1, 1e-5),
    ("matern2", "uniform:10", 2, 1, 1e-5),
    ("gaussian", "equispaced:20", 1, 2, 1e-8),
    ("gaussian", "uniform:20", 2, 2, 1e-8),
    ("exponential", "uniform:20", 2, 1, 1e-5),
    ("matern2", "equispaced:20", 1, 1, 1e-5),
])
def test_groups_match_the_mp_reference(name, spec, d, step, bound):
    nodes = generate_nodes(spec, d=d, seed=0)
    ase = kernel_ase(kernel_model(name), nodes)
    readout = ase.readout
    assert len(readout) >= 2
    top = max(float(g.valuation) for g in readout)
    with mp.workdps(50 + int(np.ceil(3 * top))):
        pairs = [_mp_eigenpairs(name, nodes.points, eps) for eps in EPS]
        start = 0
        for group in readout:
            alpha = mp.mpf(group.valuation.numerator) / group.valuation.denominator
            idx = range(start, start + group.count)
            start += group.count
            scaled = [sorted((w[i] / mp.mpf(eps) ** alpha for i in idx), reverse=True)
                      for (w, _), eps in zip(pairs, EPS)]
            # c(eps) = c0 + c1 eps^step + ...: c0 from the two points, eps and eps / 2
            extrapolated = [(2**step * half - full) / (2**step - 1)
                            for full, half in zip(*scaled)]
            for got, want in zip(group.leading_values, extrapolated):
                assert abs(got - float(want)) <= bound * abs(float(want)), (group.valuation,
                                                                          got, want)
            angles = _principal_angles(group.vectors, pairs[1][1][:, list(idx)])
            assert angles.max() <= 1e-3, (group.valuation, angles.max())
        assert start <= nodes.n
        assert ase.complete == (start == nodes.n)
