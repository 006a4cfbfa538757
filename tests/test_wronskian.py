"""The Wronskian's exact integer table and the named psi coefficients,
against the per-entry loop and the ``Fraction`` values they replaced."""

import math
from fractions import Fraction

import numpy as np
import pytest

from asymspec import MonomialBasis, kernel_model, wronskian
from asymspec.kernels import _wronskian_table


def _wronskian_entry_coeff(alpha, beta) -> int:
    """Integer coefficient of x^alpha y^beta in (||x-y||^2)^l, l = (|a|+|b|)/2.

    Zero unless alpha_i + beta_i is even in every coordinate.
    """
    if any((a + b) % 2 for a, b in zip(alpha, beta)):
        return 0
    m = [(a + b) // 2 for a, b in zip(alpha, beta)]
    l = sum(m)
    multinom = math.factorial(l)
    for mi in m:
        multinom //= math.factorial(mi)
    prod = 1
    for mi, ai in zip(m, alpha):
        prod *= math.comb(2 * mi, ai)
    return multinom * prod * (-1) ** sum(beta)


def wronskian_reference(kernel, d, max_deg):
    """The Wronskian as it was built entry by entry."""
    basis = MonomialBasis(d, max_deg).flat
    p = len(basis)
    w = np.zeros((p, p))
    for i, alpha in enumerate(basis):
        for j, beta in enumerate(basis):
            if j < i:
                w[i, j] = w[j, i]
                continue
            total = sum(alpha) + sum(beta)
            if total % 2:
                continue
            coeff = _wronskian_entry_coeff(alpha, beta)
            if coeff:
                w[i, j] = kernel.psi_coeff(total) * coeff
            if j > i:
                w[j, i] = w[i, j]
    return w


def _bitwise_equal(a, b):
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def _smooth_custom(horizon, seed):
    """A custom psi with no odd term, mixed signs and some zero even terms."""
    rng = np.random.default_rng(seed)
    coeffs = []
    for k in range(horizon + 1):
        if k % 2 or rng.random() < 0.2:
            coeffs.append(0.0)
        else:
            coeffs.append(float(rng.standard_normal()) / math.factorial(k // 2))
    coeffs[0] = 1.0
    return kernel_model("custom", psi_coefficients=coeffs)


@pytest.mark.parametrize("d, top", [(1, 32), (2, 12), (3, 8)])
def test_table_equals_entry_loop(d, top):
    kernels = [kernel_model("gaussian"), _smooth_custom(64, d)]
    for max_deg in range(top + 1):
        for kernel in kernels:
            assert _bitwise_equal(wronskian(kernel, d, max_deg),
                                  wronskian_reference(kernel, d, max_deg))


def test_table_coefficients_are_the_exact_integers():
    i, j, c, total = _wronskian_table(2, 6)
    basis = MonomialBasis(2, 6).flat
    assert c.dtype == np.int64
    want = {(a, b): _wronskian_entry_coeff(basis[a], basis[b])
            for a in range(len(basis)) for b in range(len(basis))}
    got = dict(zip(zip(i.tolist(), j.tolist()), c.tolist()))
    assert got == {k: v for k, v in want.items() if v}
    assert total.tolist() == [sum(basis[a]) + sum(basis[b]) for a, b in zip(i, j)]


@pytest.mark.parametrize("max_deg", [40, 45, 50])
def test_long_custom_psi_takes_python_ints(max_deg):
    # C(80, 40) and beyond do not fit in int64
    kernel = _smooth_custom(2 * max_deg, 7)
    assert kernel.horizon >= 80
    c = _wronskian_table(1, max_deg)[2]
    assert c.dtype == object
    assert max(map(abs, c.tolist())) >= 2**63
    assert _bitwise_equal(wronskian(kernel, 1, max_deg), wronskian_reference(kernel, 1, max_deg))


def test_horizon_error_is_the_entry_loops():
    kernel = _smooth_custom(5, 3)
    for d, max_deg in [(1, 3), (2, 3), (2, 4), (3, 5)]:
        with pytest.raises(ValueError) as want:
            wronskian_reference(kernel, d, max_deg)
        with pytest.raises(ValueError) as got:
            wronskian(kernel, d, max_deg)
        assert str(got.value) == str(want.value)
        assert str(got.value).startswith("psi horizon 6 too small for degree")


def _psi_fraction(name, k):
    """The named psi coefficients as exact fractions, as they were generated."""
    if name == "gaussian":
        return Fraction(0) if k % 2 else Fraction((-1) ** (k // 2), math.factorial(k // 2))
    if name == "exponential":
        return Fraction((-1) ** k, math.factorial(k))
    return Fraction((-1) ** k * (1 - k), math.factorial(k))


@pytest.mark.parametrize("name", ["gaussian", "exponential", "matern2"])
def test_named_psi_is_the_rounded_fraction(name):
    coeffs = kernel_model(name, horizon=200).coeffs
    want = [float(_psi_fraction(name, k)) for k in range(201)]
    want = [c if c != 0.0 else 0.0 for c in want]
    assert np.array(coeffs).tobytes() == np.array(want).tobytes()
    assert kernel_model(name).coeffs == tuple(want[:65])
