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

__all__ = ["GkfForm", "BlockQr", "block_rrqr", "build_H", "ase_from_gkf"]


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


@dataclass
class BlockQr:
    """Block QR of V: orthonormal Q_i blocks and block upper-triangular R."""

    q_blocks: list
    R: np.ndarray
    ranks: tuple
    widths: tuple

    @property
    def Q(self) -> np.ndarray:
        return np.hstack(self.q_blocks)

    def _block_index(self):
        """Block number of each row (as a column) and each column (as a row) of R."""
        return (np.repeat(np.arange(len(self.ranks)), self.ranks)[:, None],
                np.repeat(np.arange(len(self.widths)), self.widths)[None, :])


def block_rrqr(v: np.ndarray, widths, rank_tol: float = SERIES_RANK_TOL) -> BlockQr:
    """Left-to-right block QR with a rank-revealing (SVD) step per block.

    Each block of V is one ``_extend_basis`` step against
    ``rank_tol * sigma_max(V)``.  Requires every block to contribute at least
    one new dimension and rank(V) = n overall, so that Q is square.  R is
    Q^T V with the structurally lower blocks zeroed exactly.
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
    qr = BlockQr(q_blocks, np.hstack(q_blocks).T @ v, tuple(q.shape[1] for q in q_blocks), widths)
    if sum(qr.ranks) != n:
        raise ValueError(f"rank(V) = {sum(qr.ranks)} < n = {n} at tolerance")
    rows, cols = qr._block_index()
    qr.R[rows > cols] = 0.0
    return qr


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


def build_H(qr: BlockQr, w: np.ndarray):
    """H = blockdiag(R_ii) W blockdiag(R_ii)^T with row blocks of sizes b_i."""
    w = np.asarray(w, dtype=float)
    m = sum(qr.widths)
    if w.shape != (m, m):
        raise ValueError("W shape does not match the QR widths")
    rows, cols = qr._block_index()
    d = np.where(rows == cols, qr.R, 0.0)
    with np.errstate(over="ignore", invalid="ignore"):  # schur_chain rejects a non-finite H
        h = d @ w @ d.T
        return 0.5 * (h + h.T), list(qr.ranks)


def ase_from_gkf(form: GkfForm, rank_tol: float = SERIES_RANK_TOL) -> Ase:
    """ASE of a generalized kernel form: groups eps^{2 nu_i} Q_i S_i Q_i^T.

    Requires W invertible at tolerance; a Schur-chain early stop (possible for
    indefinite W with rank-deficient V blocks) propagates as truncation.
    """
    if is_singular(form.W, rank_tol):
        raise ValueError("W is singular at tolerance; the generalized kernel "
                         "form does not determine the full ASE")
    qr = block_rrqr(form.V, form.widths, rank_tol)
    h, sizes = build_H(qr, form.W)
    chain = schur_chain(h, sizes, rank_tol)
    return Ase(form.n, *_chain_groups(chain, form.scaling.nus, qr.q_blocks, rank_tol))
