"""Iterative spectral-equivalent extraction via series Schur complements.

When the Schur chain of a diagonally scaled matrix stalls on a singular
complement, the expansion can be continued: partition the scaled series with
a uniform bottom exponent, form the series Schur complement of the top block
(congruence by I + O(eps), which preserves the spectral equivalent), rotate
the bottom block's leading coefficient to eigenbasis, and recurse.  Each
round resolves at least one new dimension, so depth n suffices.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .series import (
    Exponent,
    INFINITY,
    MatrixSeries,
    as_exponent,
    series_matrix_inverse,
    valuation_matrix,
)
from .scaling import DiagonalScaling, auto_scale_with_permutation, extract_H
from .ase import Ase, fix_column_signs, schur_chain

__all__ = ["PartitionedScaledSeries", "schur_reduce", "iterative_ase"]


@dataclass(frozen=True)
class PartitionedScaledSeries:
    """K = Delta H(eps) Delta with a uniform bottom scaling block.

    The scaling's last block (exponent s, size n - m) must sit strictly above
    every other exponent, and the top-left block H_11(0) must be invertible.
    """

    scaling: DiagonalScaling
    H: MatrixSeries
    cond_tol: float = 1e-10

    def __post_init__(self):
        if self.scaling.num_blocks < 2:
            raise ValueError("partition requires at least two scaling blocks")
        if self.H.shape != (self.scaling.n, self.scaling.n):
            raise ValueError("H shape does not match the scaling")
        if not self.H.symmetric:
            raise ValueError("H must be a symmetric matrix series")
        m = self.m
        h0 = self.H.coefficient(0)[:m, :m]
        sv = np.linalg.svd(h0, compute_uv=False)
        if sv[0] == 0.0 or sv[-1] <= self.cond_tol * sv[0]:
            raise ValueError("H_11(0) is singular at tolerance")

    @property
    def s(self) -> Exponent:
        return self.scaling.nus[-1]

    @property
    def m(self) -> int:
        return self.scaling.n - self.scaling.block_sizes[-1]


def schur_reduce(part: PartitionedScaledSeries, order) -> MatrixSeries:
    """Equivalent block-diagonal series with the bottom block Schur-complemented.

    Returns blockdiag(Delta_m H_11 Delta_m,
                      eps^{2s} (H_22 - H_21 H_11^{-1} H_12)),
    truncated at ``order``; congruence invariance makes its spectral
    equivalent identical to that of Delta H Delta.
    """
    order = as_exponent(order)
    h = part.H
    m = part.m
    n = h.shape[0]
    s = part.s
    top_idx = np.arange(m)
    bot_idx = np.arange(m, n)
    h11 = h.submatrix(top_idx, top_idx)
    h12 = h.submatrix(top_idx, bot_idx)
    h21 = h.submatrix(bot_idx, top_idx)
    h22 = h.submatrix(bot_idx, bot_idx)
    inv_order = order - 2 * s
    if not inv_order > Exponent(0):
        raise ValueError("truncation horizon exhausted before the Schur block is resolved")
    h11_inv = series_matrix_inverse(h11, inv_order, part.cond_tol)
    schur = (h22 - h21 @ h11_inv @ h12).truncate(inv_order)
    schur = MatrixSeries(schur.shape, schur.terms, schur.trunc_order, symmetric=True)
    top_exps = part.scaling.exponents()[:m]
    top = h11.scale_rows_cols(top_exps, top_exps)
    top = MatrixSeries(top.shape, top.terms, top.trunc_order, symmetric=True)
    return top.block_diag(schur.shift(2 * s)).truncate(order)


def _series_schur_block(k: MatrixSeries, scaling: DiagonalScaling, split_block: int,
                        cond_tol: float) -> MatrixSeries:
    """The unresolved bottom of K after eliminating blocks < split_block.

    Rescales K with the bottom exponents clipped to s = nu_{split_block}
    (entries stay analytic since clipped exponents only shrink), then returns
    eps^{2s} (H_22 - H_21 H_11^{-1} H_12) for that uniform partition.  With
    split_block = 0 this is just K itself.
    """
    exps = scaling.exponents()
    s = scaling.nus[split_block]
    m = sum(scaling.block_sizes[:split_block])
    n = k.n
    clipped = [exps[i] if i < m else s for i in range(n)]
    h = k.scale_rows_cols([-e for e in clipped], [-e for e in clipped])
    h = MatrixSeries(h.shape, h.terms, h.trunc_order, symmetric=True)
    if m == 0:
        return h.shift(2 * s)
    top_idx = np.arange(m)
    bot_idx = np.arange(m, n)
    h11 = h.submatrix(top_idx, top_idx)
    h12 = h.submatrix(top_idx, bot_idx)
    h21 = h.submatrix(bot_idx, top_idx)
    h22 = h.submatrix(bot_idx, bot_idx)
    inv_order = h.trunc_order
    if not inv_order > Exponent(0):
        raise ValueError("truncation horizon exhausted before the Schur block is resolved")
    h11_inv = series_matrix_inverse(h11, inv_order, cond_tol)
    schur = (h22 - h21 @ h11_inv @ h12).truncate(inv_order)
    schur = MatrixSeries(schur.shape, schur.terms, schur.trunc_order, symmetric=True)
    return schur.shift(2 * s)


def iterative_ase(k: MatrixSeries, rank_tol: float = 1e-10, max_depth=None) -> Ase:
    """Spectral equivalent of a symmetric series with no helpful global scaling.

    Driver loop: auto-scale and run the Schur-chain construction; when the
    chain stalls, isolate the unresolved trailing block as a series Schur
    complement, rotate its leading coefficient to eigenbasis (which makes the
    result diagonally scaled again) and recurse on it.  Rotations accumulate
    so every reported term lives in the original coordinates.  Exhausting the
    horizon or the depth budget yields a truncated result, never a silently
    wrong one.
    """
    if k.shape[0] != k.shape[1]:
        raise ValueError("matrix series must be square")
    if not k.symmetric:
        raise ValueError("matrix series must be symmetric")
    if k.trunc_order.is_infinite:
        raise ValueError("iterative extraction needs a finite truncation horizon")
    n = k.n
    if max_depth is None:
        max_depth = n
    groups = []
    basis = np.eye(n)
    current = k
    truncated_at = None
    horizon_cap = None
    for _ in range(max_depth + 1):
        if current.is_zero:
            # remaining eigenvalues are below the horizon (or exactly zero)
            truncated_at = current.trunc_order
            break
        omega = valuation_matrix(current)
        # rows that are identically zero up to the horizon decouple from the
        # rest (by symmetry) but carry no readable spectral information; drop
        # them and remember that the result is only good below the horizon
        live = ~omega.inf.all(axis=1)
        if not live.all():
            keep = np.flatnonzero(live)
            horizon_cap = _exp_min(horizon_cap, current.trunc_order)
            sub = current.submatrix(keep, keep)
            current = MatrixSeries(sub.shape, sub.terms, sub.trunc_order, symmetric=True)
            basis = basis[:, keep]
            if not keep.size:
                truncated_at = current.trunc_order
                break
            omega = valuation_matrix(current)
        perm, scaling = auto_scale_with_permutation(omega)
        cur_p = current.permuted(perm)
        basis_p = basis[:, perm]
        form = extract_H(cur_p, scaling)
        chain = schur_chain(form.H, form.block_sizes, rank_tol)
        sizes = form.block_sizes
        offsets = np.cumsum((0,) + sizes)
        nus = scaling.nus
        resolved = len(chain.complements) - (1 if chain.stopped_early else 0)
        for i in range(resolved):
            s = chain.complements[i]
            sl = slice(offsets[i], offsets[i + 1])
            b = basis_p[:, sl]
            term = b @ s @ b.T
            groups.append((2 * nus[i], 0.5 * (term + term.T)))
        if not chain.stopped_early:
            truncated_at = None
            break
        stall = resolved
        try:
            trailing = _series_schur_block(cur_p, scaling, stall, rank_tol)
        except ValueError:
            truncated_at = 2 * nus[stall]
            break
        # rounding noise from the elimination must not register as genuine
        # series terms; its size is machine-level relative to the coefficient
        # scale that entered the Schur complement
        noise = _coefficient_scale(cur_p) * 1e-13
        trailing = _prune(trailing, noise)
        if trailing.is_zero:
            truncated_at = trailing.trunc_order
            basis = basis_p[:, offsets[stall]:]
            break
        gamma = trailing.valuation
        lead = trailing.coefficient(gamma)
        w, q = np.linalg.eigh(lead)
        big = np.abs(w).max()
        nonzero = np.abs(w) > rank_tol * big
        # nonsingular part first (descending), null directions last
        order = sorted(range(len(w)), key=lambda i: (not nonzero[i], -w[i]))
        q = fix_column_signs(q[:, order])
        w = w[order]
        rotated = trailing.congruence(q, noise_floor=noise)
        # the leading coefficient is diagonal by construction; pin it exactly
        lead_diag = np.diag(np.where(np.abs(w) > rank_tol * big, w, 0.0))
        terms = [(e, m) for e, m in rotated.terms if e != gamma]
        if np.any(lead_diag != 0.0):
            terms.append((gamma, lead_diag))
        current = MatrixSeries(rotated.shape, terms, rotated.trunc_order, symmetric=True)
        basis = basis_p[:, offsets[stall]:] @ q
    else:
        truncated_at = current.valuation if not current.is_zero else current.trunc_order
    truncated_at = _exp_min(truncated_at, horizon_cap) if horizon_cap is not None else truncated_at
    return Ase(n, _merge_groups(groups), truncated_at)


def _exp_min(a, b):
    if a is None:
        return b
    if b is None:
        return a
    return a if a < b else b


def _coefficient_scale(m: MatrixSeries) -> float:
    return max((np.abs(c).max() for _, c in m.terms), default=0.0)


def _prune(m: MatrixSeries, floor: float) -> MatrixSeries:
    if floor <= 0.0:
        return m
    terms = []
    for e, c in m.terms:
        c = np.where(np.abs(c) <= floor, 0.0, c)
        if np.any(c != 0.0):
            terms.append((e, c))
    return MatrixSeries(m.shape, terms, m.trunc_order, m.symmetric)


def _merge_groups(groups):
    # group valuations from successive rounds are strictly increasing, but
    # merge defensively in case a round emits a duplicate valuation
    merged = {}
    for alpha, term in groups:
        if alpha in merged:
            merged[alpha] = merged[alpha] + term
        else:
            merged[alpha] = term
    return [(a, merged[a]) for a in sorted(merged, key=lambda e: e._key())]
