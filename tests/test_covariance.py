"""Covariance of an ASE under maps that act on its input in a known way.

A kernel ASE depends on the nodes only through their pairwise distances, so a
permutation, a rotation (x -> -x in d = 1) or a shift of the nodes leaves its
valuations, counts, truncation and values alone, and permutes or keeps its
eigenvectors.  A series ASE follows a simultaneous permutation of K in the
same way, and c K scales every value by c.  Each case compares the two ASEs
group by group: each group's values within 1e-12 of that group's largest
|lambda|, and the largest principal angle between matching groups at most
1e-10.  A relative bound per value would be too tight: matern2's eps^3 group
on ``cubic:20`` spans seven decades, and its smallest value moves by about
1e-8 of itself under a rotation.
"""

from fractions import Fraction

import numpy as np
import pytest

from asymspec import (MatrixSeries, NodeSet, analyze_series, generate_nodes, kernel_ase,
                      kernel_model)
from reference import _principal_angles

VALUE_TOL = 1e-12  # of the group's largest |lambda|
ANGLE_TOL = 1e-10


def _assert_covariant(base, mapped, perm=None, c=1.0):
    """``mapped`` is the ASE of the input mapped by ``perm`` (rows and columns;
    None keeps them) with every value times ``c``."""
    assert mapped.truncated_at == base.truncated_at
    assert [(g.valuation, g.count) for g in mapped.readout] == [
        (g.valuation, g.count) for g in base.readout]
    for g0, g1 in zip(base.readout, mapped.readout):
        want = np.sort(c * np.asarray(g0.leading_values))
        got = np.sort(np.asarray(g1.leading_values))
        assert np.abs(got - want).max() <= VALUE_TOL * np.abs(want).max(), g0.valuation
        vectors = g0.vectors if perm is None else g0.vectors[perm]
        assert _principal_angles(vectors, g1.vectors).max() <= ANGLE_TOL, g0.valuation


# ---------------------------------------------------------------------------
# kernel ASEs under rigid motions and relabelling of the nodes
# ---------------------------------------------------------------------------

NODE_SETS = [("equispaced:20", 1), ("uniform:20", 2), ("uniform:30", 3), ("circle:20", 2),
             ("cubic:20", 2), ("uniform:50", 2)]
# The one case that differs: its groups agree to 4.6e-14 of each group's
# largest value and to 6.7e-13 in angle, but the expansion is truncated at
# eps^10 on the nodes as drawn and at eps^12 on the rotated nodes.  The
# decision turns on rounding, so another BLAS may pass it.
_TRUNCATION_FLIPS = pytest.mark.xfail(reason="truncated_at 10 against 12: where the chain "
                                      "stops turns on rounding", strict=False)


def _cases():
    for kernel in ("gaussian", "matern2", "exponential"):
        for spec, d in NODE_SETS:
            for seed in range(3):
                for motion in ("permutation", "rotation", "shift"):
                    flips = (kernel, spec, seed, motion) == ("gaussian", "cubic:20", 2,
                                                             "rotation")
                    yield pytest.param(kernel, spec, d, seed, motion,
                                       id=f"{kernel}-{spec}-d{d}-{seed}-{motion}",
                                       marks=[_TRUNCATION_FLIPS] if flips else [])


@pytest.mark.parametrize("kernel, spec, d, seed, motion", _cases())
def test_kernel_ase_is_invariant_under_rigid_motions(kernel, spec, d, seed, motion):
    model = kernel_model(kernel)
    points = generate_nodes(spec, d=d, seed=seed).points
    rng = np.random.default_rng(100 + seed)
    perm = rng.permutation(len(points))
    if motion == "permutation":
        mapped = points[perm]
    elif motion == "rotation":
        ortho_group = pytest.importorskip("scipy.stats").ortho_group
        mapped = -points if d == 1 else points @ ortho_group.rvs(d, random_state=rng).T
    else:
        mapped = points + rng.uniform(-1.0, 1.0, d)
    _assert_covariant(kernel_ase(model, NodeSet(points)), kernel_ase(model, NodeSet(mapped)),
                      perm if motion == "permutation" else None)


# ---------------------------------------------------------------------------
# planted series ASEs under relabelling and a constant factor
# ---------------------------------------------------------------------------


def _symmetric(m):
    return 0.5 * (m + m.T)


def planted_scaled(rng, n):
    """K = Delta (H + eps^(1/2) R1 + eps R2) Delta, Delta = diag(eps^nu_i) with
    nu in halves 0..4 over shuffled rows and H positive definite: the scaled route."""
    halves = rng.permutation(np.arange(n) % 5)
    b = rng.standard_normal((n, n))
    coefficients = (_symmetric(b @ b.T / n + np.eye(n)),
                    _symmetric(rng.standard_normal((n, n))) / np.sqrt(n),
                    _symmetric(rng.standard_normal((n, n))) / np.sqrt(n))
    terms = []
    for shift, mat in enumerate(coefficients):
        e = halves[:, None] + halves[None, :] + shift  # exponents in halves
        terms += [(Fraction(int(s), 2), np.where(e == s, mat, 0.0)) for s in np.unique(e)]
    return MatrixSeries(n, terms, Fraction(11, 2), symmetric=True)


def planted_rotated(rng, n):
    """K = Q diag(c_i eps^a_i) Q^T with Q dense orthogonal, c_i in [1, 2] and
    powers 0..3: no diagonal scaling helps, so the iterative route runs."""
    q = np.linalg.qr(rng.standard_normal((n, n)))[0]
    c = rng.uniform(1.0, 2.0, n)
    powers = np.arange(n) % 4
    terms = [(p, _symmetric((q[:, powers == p] * c[powers == p]) @ q[:, powers == p].T))
             for p in range(4)]
    return MatrixSeries(n, terms, 4, symmetric=True)


@pytest.mark.parametrize("planted", [planted_scaled, planted_rotated],
                         ids=["scaled", "rotated"])
@pytest.mark.parametrize("n", [10, 20, 50])
def test_series_ase_is_covariant(planted, n):
    for seed in range(3):
        rng = np.random.default_rng(seed)
        k = planted(rng, n)
        base = analyze_series(k, "auto")
        assert base.complete
        perm = rng.permutation(n)
        _assert_covariant(base, analyze_series(k.permuted(perm), "auto"), perm)
        for c in (1e-2, 1e2):
            scaled = MatrixSeries(n, [(e, c * m) for e, m in k.terms], k.trunc_order,
                                  symmetric=True)
            _assert_covariant(base, analyze_series(scaled, "auto"), c=c)
