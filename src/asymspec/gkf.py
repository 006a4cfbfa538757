"""Generalized kernel form K(eps) = V Delta (W + o(1)) Delta V^T.

A block rank-revealing QR of V converts this form into a diagonally scaled
one: with Q_i the new orthonormal directions contributed by the i-th column
block and R_ii the corresponding diagonal QR blocks,
``H = blockdiag(R_ii) W blockdiag(R_ii)^T`` is diagonally scaled by the same
exponents, and the ASE terms are Q_i S_i Q_i^T over the Schur chain of H.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .series import SERIES_RANK_TOL, is_singular, significant, _eps_power
from .scaling import DiagonalScaling
from .ase import Ase, fix_column_signs, schur_chain, _chain_groups

__all__ = ["GkfForm", "block_rrqr", "build_H", "ase_from_gkf"]


@dataclass(frozen=True)
class GkfForm:
    """(V, scaling, W) with block widths matching the scaling multiplicities."""

    V: np.ndarray
    scaling: DiagonalScaling
    W: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.V, dtype=float)
        w = np.asarray(self.W, dtype=float)
        m = self.scaling.n
        if v.shape[1] != m:
            raise ValueError("V column count does not match the scaling size")
        if w.shape != (m, m):
            raise ValueError("W shape does not match the scaling size")
        if not np.array_equal(w, w.T):
            w = 0.5 * (w + w.T)
        v.setflags(write=False)
        w.setflags(write=False)
        object.__setattr__(self, "V", v)
        object.__setattr__(self, "W", w)

    @property
    def n(self) -> int:
        return self.V.shape[0]

    @property
    def widths(self):
        return self.scaling.block_sizes

    def evaluate(self, eps: float) -> np.ndarray:
        d = np.array([_eps_power(eps, e) for e in self.scaling.exponents()])
        return (self.V * d) @ self.W @ (self.V * d).T


def block_rrqr(v: np.ndarray, widths, rank_tol: float = SERIES_RANK_TOL):
    """Left-to-right block QR with a rank-revealing (SVD) step per block.

    Each block of V is one ``_extend_basis`` step against
    ``rank_tol * sigma_max(V)``.  Requires every block to contribute at least
    one new dimension and rank(V) = n overall, so that Q is square.  Returns
    (q_blocks, r_blocks): the n x b_i blocks Q_i and the b_i x w_i diagonal
    blocks R_ii = Q_i^T V_i, each sliced from the one product Q^T V.
    """
    v = np.asarray(v, dtype=float)
    n = v.shape[0]
    widths = tuple(int(w) for w in widths)
    if sum(widths) != v.shape[1]:
        raise ValueError("widths must sum to the number of columns of V")
    thresh = rank_tol * np.linalg.svd(v, compute_uv=False)[0]
    q_blocks, col = [], 0
    for i, w in enumerate(widths):
        full = sum(q.shape[1] for q in q_blocks) == n
        q_new = None if full else _extend_basis(q_blocks, v[:, col : col + w], thresh)[0]
        if full or q_new.shape[1] == 0:
            raise ValueError(f"column block {i} introduces no new dimensions at tolerance")
        q_blocks.append(q_new)
        col += w
    r = np.hstack(q_blocks).T @ v
    if r.shape[0] != n:
        raise ValueError(f"rank(V) = {r.shape[0]} < n = {n} at tolerance")
    rows = np.cumsum([0] + [q.shape[1] for q in q_blocks])
    cols = np.cumsum((0,) + widths)
    return q_blocks, [r[rows[i] : rows[i + 1], cols[i] : cols[i + 1]] for i in range(len(widths))]


def _extend_basis(q_blocks, block: np.ndarray, thresh: float):
    """One block-extension step: the new directions ``block`` adds to ``q_blocks``.

    The block is orthogonalized twice against the orthonormal blocks found so
    far, stacked into one Q (the second pass restores orthogonality at
    working precision), its residual's numerical rank b is the number of
    singular values above ``thresh``, and the b new directions get pinned
    signs.  Returns (Q_new, C): Q_new is n x b and C = Q_new^T residual
    (b x width), read off the SVD, so small coefficients keep their relative
    accuracy.
    """
    resid = np.array(block, dtype=float)
    if q_blocks:
        q = np.hstack(q_blocks)
        for _ in range(2):
            resid -= q @ (q.T @ resid)
    u, s, vt = np.linalg.svd(resid, full_matrices=False)
    b = int(significant(s, 1.0, thresh).sum())
    q_new = fix_column_signs(u[:, :b])
    signs = np.where(np.sum(q_new * u[:, :b], axis=0) < 0, -1.0, 1.0)
    return q_new, (signs * s[:b])[:, None] * vt[:b]


def _blockdiag(*blocks) -> np.ndarray:
    out = np.zeros(tuple(np.sum([b.shape for b in blocks], axis=0)))
    r = c = 0
    for b in blocks:
        out[r : r + b.shape[0], c : c + b.shape[1]] = b
        r, c = r + b.shape[0], c + b.shape[1]
    return out


def build_H(r_blocks, w: np.ndarray) -> np.ndarray:
    """H = blockdiag(R_ii) W blockdiag(R_ii)^T, with row blocks of sizes b_i."""
    w = np.asarray(w, dtype=float)
    d = _blockdiag(*r_blocks)
    if w.shape != (d.shape[1],) * 2:
        raise ValueError("W shape does not match the QR widths")
    with np.errstate(over="ignore", invalid="ignore"):  # schur_chain rejects a non-finite H
        h = d @ w @ d.T
        return 0.5 * (h + h.T)


def ase_from_gkf(form: GkfForm, rank_tol: float = SERIES_RANK_TOL) -> Ase:
    """ASE of a generalized kernel form: groups eps^{2 nu_i} Q_i S_i Q_i^T.

    Requires W invertible at tolerance; a Schur-chain early stop (possible for
    indefinite W with rank-deficient V blocks) propagates as truncation.
    """
    if is_singular(form.W, rank_tol):
        raise ValueError("W is singular at tolerance; the generalized kernel "
                         "form does not determine the full ASE")
    q_blocks, r_blocks = block_rrqr(form.V, form.widths, rank_tol)
    chain = schur_chain(build_H(r_blocks, form.W), [q.shape[1] for q in q_blocks], rank_tol)
    return Ase(form.n, *_chain_groups(chain, form.scaling.nus, q_blocks, rank_tol))
