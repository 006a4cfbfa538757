"""The kernel pipeline's Vandermonde scan, dense psi and single readout.

The block-built Vandermonde matrix and the degree scan that skips rank
tests below n columns are checked against the column-by-column builder and
the test-every-degree scan they replace: V must match bit for bit (its
layout too, since BLAS results depend on it) and the degree decision must
be the same.
"""

import math

import numpy as np
import pytest

from asymspec import generate_nodes, kernel_ase, kernel_matrix, kernel_model, vandermonde
from asymspec.ase import eigen_readout
from asymspec.cli import main
from asymspec.kernels import (
    INFINITE,
    MonomialBasis,
    NodeSet,
    _smooth_degree,
    distance_matrix,
    regularity_index,
)
from asymspec.serialize import ase_to_json


def vandermonde_reference(nodes, s):
    """One column per multi-index, powers multiplied in coordinate order."""
    cols = []
    for alpha in MonomialBasis(nodes.d, s).flat:
        col = np.ones(nodes.n)
        for coord, power in enumerate(alpha):
            if power:
                col = col * nodes.points[:, coord] ** power
        cols.append(col)
    return np.column_stack(cols)


def smooth_degree_reference(nodes, r, rank_tol):
    """An SVD rank test at every degree q <= r-1."""
    max_q = nodes.n - 1 if r == INFINITE else min(int(r) - 1, nodes.n - 1)
    for q in range(max_q + 1):
        sv = np.linalg.svd(vandermonde_reference(nodes, q), compute_uv=False)
        if int(np.sum(sv > rank_tol * sv[0])) == nodes.n:
            return q
    return None


NODE_SETS = [
    ("equispaced:12", 1),
    ("equispaced:40", 1),
    ("uniform:25", 1),
    ("uniform:30", 2),
    ("uniform:60", 2),
    ("uniform:20", 3),
    ("uniform:60", 3),
    ("circle:20", 2),
    ("circle:40", 2),
    ("cubic:20", 2),
    ("cubic:30", 2),
    ("cubic:40", 2),
]

KERNELS = {
    "gaussian": kernel_model("gaussian"),
    "matern2": kernel_model("matern2"),
    # psi_5 != 0: regularity 3
    "custom-r3": kernel_model("custom", psi_coefficients=[1.0, 0.0, -1.0, 0.0, 0.5, 0.2]),
}


def _nodes(spec, d, seed):
    return generate_nodes(spec, d=d, seed=seed)


@pytest.mark.parametrize("spec,d", NODE_SETS)
def test_vandermonde_matches_reference_bitwise(spec, d):
    for seed in (0, 1):
        nodes = _nodes(spec, d, seed)
        for s in (0, 1, 3, min(nodes.n - 1, 12 if d > 1 else 39)):
            v = vandermonde(nodes, s)
            ref = vandermonde_reference(nodes, s)
            assert v.flags["C_CONTIGUOUS"]
            assert v.shape == ref.shape
            assert v.tobytes() == ref.tobytes()


def test_vandermonde_signed_and_zero_coordinates():
    pts = np.array([[-2.0, 0.0, 3.5], [0.0, -0.0, -1.25], [1e-3, -7.0, 0.5], [-0.5, 2.0, -0.0]])
    nodes = NodeSet(pts)
    for s in range(6):
        assert vandermonde(nodes, s).tobytes() == vandermonde_reference(nodes, s).tobytes()


@pytest.mark.parametrize("kernel_name", sorted(KERNELS))
@pytest.mark.parametrize("spec,d", NODE_SETS)
def test_smooth_degree_matches_reference(kernel_name, spec, d):
    r = KERNELS[kernel_name].regularity
    nodes = _nodes(spec, d, seed=3)
    q, v, sigma_max = _smooth_degree(nodes, r, 1e-9)
    assert q == smooth_degree_reference(nodes, r, 1e-9)
    if q is not None:
        assert v.tobytes() == vandermonde_reference(nodes, q).tobytes()
    if v is not None:
        # V is the matrix of the last degree tested, sigma_max its top singular value
        assert v.flags["C_CONTIGUOUS"]
        assert sigma_max == np.linalg.svd(v, compute_uv=False)[0]
    else:
        assert sigma_max is None


def test_gaussian_stalls_on_cubic_curves():
    # points on a cubic curve: numerical rank growth stalls before n
    for spec in ("cubic:30", "cubic:40"):
        nodes = _nodes(spec, 2, seed=0)
        q, v, _ = _smooth_degree(nodes, INFINITE, 1e-9)
        assert q is None and smooth_degree_reference(nodes, INFINITE, 1e-9) is None
        assert v.tobytes() == vandermonde_reference(nodes, nodes.n - 1).tobytes()


def test_no_rank_test_below_n_columns():
    # matern2 on 3 points in the plane: V_{<=1} has 3 columns, V_{<=0} one
    nodes = NodeSet(np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]))
    q, v, _ = _smooth_degree(nodes, 2, 1e-9)
    assert q == 1 and v.shape == (3, 3)
    # exponential (r = 1) only reaches degree 0: one column, nothing tested
    assert _smooth_degree(nodes, 1, 1e-9) == (None, None, None)


class TestDensePsi:
    def test_coefficients_and_series_agree(self):
        for name in ("gaussian", "exponential", "matern2"):
            k = kernel_model(name)
            assert len(k.coeffs) == 65 and k.horizon == 64
            assert [k.psi_coeff(j) for j in range(65)] == [
                k.psi.coefficient(j) for j in range(65)
            ]
            assert regularity_index(k.psi, k.horizon) == k.regularity

    def test_horizon_message(self):
        with pytest.raises(ValueError, match=r"^psi horizon 65 too small for degree 66$"):
            kernel_model("gaussian").psi_coeff(66)

    def test_custom_zero_coefficients_are_positive_zero(self):
        k = kernel_model("custom", psi_coefficients=[1.0, -0.0, -1.0])
        assert math.copysign(1.0, k.psi_coeff(1)) == 1.0
        assert k.regularity == INFINITE
        assert k.psi.terms == kernel_model("custom", psi_coefficients=[1, 0, -1]).psi.terms


def test_kernel_matrix_with_precomputed_distances():
    nodes = _nodes("uniform:15", 2, seed=4)
    dist = distance_matrix(nodes, 1)
    custom = kernel_model("custom", psi_coefficients=[1.0, 0.0, -1.0, 0.0, 0.5])
    for k in (kernel_model("gaussian"), kernel_model("matern2"), custom):
        for eps in (0.3, 1e-3):
            a = kernel_matrix(k, nodes, eps, dist)
            assert a.tobytes() == kernel_matrix(k, nodes, eps).tobytes()


def test_kernel_ase_readout_is_the_ase_readout():
    nodes = _nodes("uniform:12", 2, seed=5)
    ase, readout = kernel_ase(kernel_model("matern2"), nodes)
    again = eigen_readout(ase)
    assert [g.leading_values for g in readout] == [g.leading_values for g in again]
    assert ase_to_json(ase, readout) == ase_to_json(ase)


def test_finitely_smooth_fallback_on_far_apart_nodes(tmp_path, capsys):
    # the relative rank test finds V_{<=1} rank deficient; the ASE comes from
    # the finitely smooth pipeline instead of an uncaught error
    path = tmp_path / "far.csv"
    path.write_text("0,0\n1000,0\n2000,0.000001\n")
    out = tmp_path / "far.json"
    code = main(["kernel", "--kernel", "matern2", "--nodes", str(path), "--output", str(out)])
    assert code == 0
    rows = capsys.readouterr().out.strip().splitlines()[1:]
    assert [row.split(",")[0] for row in rows] == ["0", "2", "3"]
