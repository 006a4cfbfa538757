"""A stalled Schur complement is kept as its eigenpairs above the rank cut.

The reference is the construction it replaced: the stalled complement cut
by ``eigh``, rebuilt as the matrix sym((U w) U^T) and stored as the group's
S, which the readout then decomposes again.  Both must give the same ASE:
valuations, counts, ambiguity flags and ``truncated_at`` alike, leading
values within 1e-12 relative, dense terms within 1e-12 of their norm and
the spans of the groups within 1e-10.

Where the cut drops directions, the rebuilt matrix moves them to exactly
zero, and rounding in the rebuild (about u ||S||, u the unit roundoff)
turns the reference's eigenvectors by up to about u ||S|| / min |w| over
that gap (Davis-Kahan).  Near the cut that is more than 1e-10, so there the
spans are held to ten times that bound.  The kept factor comes from the one
``eigh`` of the complement itself.
"""

import numpy as np
import pytest

import asymspec.ase
import asymspec.degenerate
import asymspec.gkf
import asymspec.kernels
from asymspec import (analyze_series, ase_from_scaled, auto_scale, generate_nodes,
                      kernel_ase, kernel_model, valuation_matrix)
from asymspec.ase import _chain_groups
from asymspec.kernels import NodeSet

UNIT_ROUNDOFF = np.finfo(float).eps / 2


def _rebuilt_chain_groups(stalls):
    """The reference construction; ``stalls`` gets (k, kept) for each stalled complement."""

    def chain_groups(chain, nus, bases, rank_tol):
        groups = []
        truncated_at = None
        complements, stopped = chain
        for i, s in enumerate(complements):
            if stopped and i == len(complements) - 1:
                w, u = np.linalg.eigh(s)
                keep = np.abs(w) > rank_tol * np.abs(w).max()
                stalls.append((s.shape[0], int(keep.sum())))
                cleaned = (u[:, keep] * w[keep]) @ u[:, keep].T
                s = 0.5 * (cleaned + cleaned.T)
                truncated_at = 2 * nus[i]
            if np.abs(s).max() == 0.0:
                continue
            groups.append((2 * nus[i], bases[i], s))
        return groups, truncated_at

    return chain_groups


def _both(monkeypatch, build):
    """(reference ASE, ASE, [(k, kept)] of the reference's stalled complements)."""
    stalls = []
    with monkeypatch.context() as m:
        for module in (asymspec.ase, asymspec.degenerate, asymspec.gkf, asymspec.kernels):
            m.setattr(module, "_chain_groups", _rebuilt_chain_groups(stalls))
        want = build()
    assert asymspec.kernels._chain_groups is _chain_groups
    return want, build(), stalls


def _assert_same_ase(want, got, stalls):
    assert got.valuations == want.valuations
    assert got.truncated_at == want.truncated_at
    got.validate()
    w_read, g_read = want.readout, got.readout
    assert [g.count for g in g_read] == [g.count for g in w_read]
    assert [g.ambiguous for g in g_read] == [g.ambiguous for g in w_read]
    for (_, w_term), (_, g_term) in zip(want.groups, got.groups):
        assert np.linalg.norm(g_term - w_term) <= 1e-12 * np.linalg.norm(w_term)
    for i, (wg, gg) in enumerate(zip(w_read, g_read)):
        lam = np.array(wg.leading_values)
        assert np.abs(np.array(gg.leading_values) - lam).max() <= 1e-12 * np.abs(lam).max()
        span_tol = 1e-10
        if i == len(g_read) - 1 and got.truncated_at == gg.valuation:
            k, kept = stalls[-1]
            if kept < k:
                gap_bound = UNIT_ROUNDOFF * np.abs(lam).max() / np.abs(lam).min()
                span_tol = max(span_tol, 10 * gap_bound)
        u, v = wg.vectors, gg.vectors
        assert np.linalg.norm(v - u @ (u.T @ v), 2) <= span_tol


def _assert_stalled_factor(ase, stalls):
    assert stalls, "the case must exercise a stalled chain"
    alpha, q, s = ase.factors[-1]
    assert alpha == ase.truncated_at
    np.testing.assert_array_equal(s, np.diag(np.diag(s)))
    assert s.shape[0] == stalls[-1][1]
    assert np.abs(q.T @ q - np.eye(q.shape[1])).max() <= 1e-13


def test_ase_from_scaled(monkeypatch, ex_3x3):
    sc = auto_scale(valuation_matrix(ex_3x3))
    want, got, stalls = _both(monkeypatch, lambda: ase_from_scaled(ex_3x3, sc))
    _assert_stalled_factor(got, stalls)
    _assert_same_ase(want, got, stalls)


@pytest.mark.parametrize("fixture", ["ex_3x3", "ex_degenerate"])
def test_scaled_analysis_of_stalling_series(monkeypatch, request, fixture):
    k = request.getfixturevalue(fixture)
    want, got, stalls = _both(monkeypatch, lambda: analyze_series(k, "scaled"))
    _assert_stalled_factor(got, stalls)
    _assert_same_ase(want, got, stalls)


def test_finitely_smooth_route_stalled_at_the_bottom_block(monkeypatch):
    # the two-cluster nodes of test_kernel_path: a kernel with r = 3 whose
    # bottom block is singular, so the ASE is truncated at eps^5
    custom = kernel_model("custom", psi_coefficients=[1.0, 0.0, -1.0, 0.0, 0.5, 0.2])
    nodes = NodeSet(np.array([-1.0 - 1e-10, -1.0, 1.0, 1.0 + 1e-10]))
    want, got, stalls = _both(monkeypatch, lambda: kernel_ase(custom, nodes))
    # the stalled group at eps^5 lies under the rank floor, so it is not kept
    assert stalls and got.truncated_at == 5 and got.valuations == [0, 2]
    _assert_same_ase(want, got, stalls)


@pytest.mark.parametrize("name, spec, d, seed", [
    ("matern2", "equispaced:200", 1, 0),
    ("matern2", "circle:100", 2, 0),
    ("matern2", "circle:200", 2, 0),
    # the node seed of the benchmark's kernel/gaussian/uniform-d3/20 at seed 2
    ("gaussian", "uniform:20", 3, 1564571817),
])
def test_stalled_kernel_chains(monkeypatch, name, spec, d, seed):
    nodes = generate_nodes(spec, d=d, seed=seed)
    want, got, stalls = _both(monkeypatch, lambda: kernel_ase(kernel_model(name), nodes))
    _assert_stalled_factor(got, stalls)
    _assert_same_ase(want, got, stalls)


def test_complete_chain_is_untouched(monkeypatch):
    # matern2 on 50 equispaced points completes its chain: the same factors, bit for bit
    nodes = generate_nodes("equispaced:50", d=1, seed=0)
    want, got, stalls = _both(monkeypatch, lambda: kernel_ase(kernel_model("matern2"), nodes))
    assert not stalls
    assert len(got.factors) == len(want.factors)
    for (a1, q1, s1), (a2, q2, s2) in zip(want.factors, got.factors):
        assert a1 == a2
        assert q1.tobytes() == q2.tobytes() and s1.tobytes() == s2.tobytes()
    assert [g.vectors.tobytes() for g in got.readout] == [g.vectors.tobytes()
                                                          for g in want.readout]
