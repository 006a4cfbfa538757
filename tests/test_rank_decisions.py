"""Rank decisions after their cheaper forms: ``is_singular`` on eigenvalue
magnitudes, and the block-extension step orthogonalizing against one stacked
basis."""

import math

import numpy as np
import pytest

from asymspec import generate_nodes, kernel_model
from asymspec.ase import fix_column_signs
from asymspec.gkf import _extend_basis
from asymspec.kernels import _degree_scan, _unit_nodes
from asymspec.series import is_singular


def svd_is_singular(mat, tol):
    """The singular-value ratio test as it was computed, through the SVD."""
    sv = np.linalg.svd(mat, compute_uv=False)
    return sv[0] == 0.0 or sv[-1] <= tol * sv[0]


def _planted(rng, n, ratio):
    """Symmetric n x n with singular values in [ratio, 1], both ends attained
    and eigenvalue signs mixed."""
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    sv = np.concatenate([[1.0, ratio], np.exp(rng.uniform(math.log(ratio), 0.0, n - 2))])
    lam = sv * rng.choice([-1.0, 1.0], n)
    a = (q * lam) @ q.T
    return 0.5 * (a + a.T)


@pytest.mark.parametrize("tol", [1e-6, 1e-9, 1e-10, 1e-12])
def test_is_singular_matches_svd_on_planted_ratios(tol):
    rng = np.random.default_rng(12)
    for n in (2, 3, 5, 10, 40, 120):
        for factor, singular in ((10.0, False), (0.1, True)):
            for _ in range(3):
                a = _planted(rng, n, factor * tol)
                assert is_singular(a, tol) == svd_is_singular(a, tol) == singular


def test_is_singular_edge_cases():
    assert is_singular(np.zeros((3, 3)), 1e-10)
    assert not is_singular(np.eye(1), 1e-10)
    # not symmetric: the lower triangle alone, [[1, 1], [1, 1]], would read singular
    lower = np.array([[1.0, 0.0], [1.0, 1.0]])
    assert not is_singular(lower, 1e-10) and not svd_is_singular(lower, 1e-10)
    assert is_singular(np.array([[1.0, 2.0], [0.5, 1.0]]), 1e-10)


def extend_basis_per_block(q_blocks, block, thresh):
    """The block-extension step as it ran block by block."""
    resid = np.array(block, dtype=float)
    for _ in range(2):
        for q in q_blocks:
            resid -= q @ (q.T @ resid)
    u, s, vt = np.linalg.svd(resid, full_matrices=False)
    b = int(np.sum(s > thresh))
    q_new = fix_column_signs(u[:, :b])
    signs = np.where(np.sum(q_new * u[:, :b], axis=0) < 0, -1.0, 1.0)
    return q_new, (signs * s[:b])[:, None] * vt[:b]


@pytest.mark.parametrize("spec, d", [("uniform:50", 2), ("uniform:120", 3), ("equispaced:30", None),
                                     ("circle:40", None), ("cubic:40", None)])
def test_stacked_extension_matches_per_block(spec, d):
    y = _unit_nodes(generate_nodes(spec, d=d, seed=4))[0]
    n = y.shape[0]
    qr = _degree_scan(kernel_model("gaussian"), y, 1e-9)
    steps = 0
    # replay the scan's blocks, and the one after its last degree
    for t in range(1, len(qr.q_blocks) + 1):
        prev = qr.q_blocks[t - 1]
        block = (y[:, :, None] * prev[:, None, :]).reshape(n, -1)
        thresh = 1e-9 * np.linalg.norm(block, 2)
        q_new, c = _extend_basis(qr.q_blocks[:t], block, thresh)
        q_ref, c_ref = extend_basis_per_block(qr.q_blocks[:t], block, thresh)
        assert q_new.shape == q_ref.shape
        assert np.abs(c - c_ref).max(initial=0.0) <= 1e-13
        steps += 1
    assert steps >= 3
