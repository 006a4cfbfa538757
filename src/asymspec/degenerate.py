"""Iterative spectral-equivalent extraction via series Schur complements.

When the Schur chain of a diagonally scaled matrix stalls on a singular
complement, the expansion can be continued: partition the scaled series with
a uniform bottom exponent, form the series Schur complement of the top block
(congruence by I + O(eps), which preserves the spectral equivalent), rotate
the bottom block's leading coefficient to eigenbasis, and recurse.  The
first round is the plain scaled construction; each round resolves at least
one new dimension, so depth n suffices.
"""

from __future__ import annotations

import numpy as np

from .series import (
    INFINITY,
    SERIES_RANK_TOL,
    MatrixSeries,
    series_matrix_inverse,
    significant,
    valuation_matrix,
)
from .scaling import DiagonalScaling, auto_scale_with_permutation, extract_H
from .ase import Ase, fix_column_signs, schur_chain, _chain_groups

__all__ = ["iterative_ase"]

#: Rounding noise of a series elimination, relative to the largest
#: coefficient that entered it; entries at or below it are not series terms.
NOISE_FACTOR = 1e-13


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
    unclip = [-e for e in exps[:m]] + [-s] * (k.n - m)
    h = _symmetric(k.scale_rows_cols(unclip, unclip))
    if m == 0:
        return h.shift(2 * s)
    return _series_schur(h, m, h.trunc_order, cond_tol).shift(2 * s)


def _series_schur(h: MatrixSeries, m: int, order, cond_tol: float) -> MatrixSeries:
    """H_22 - H_21 H_11^{-1} H_12 for H split after row m, truncated at ``order``."""
    if not order > 0:
        raise ValueError("truncation horizon exhausted before the Schur block is resolved")
    top = np.arange(m)
    bot = np.arange(m, h.shape[0])
    h11_inv = series_matrix_inverse(h.submatrix(top, top), order, cond_tol)
    schur = h.submatrix(bot, bot) - h.submatrix(bot, top) @ h11_inv @ h.submatrix(top, bot)
    return _symmetric(schur.truncate(order))


def _symmetric(m: MatrixSeries) -> MatrixSeries:
    """The same series flagged symmetric (its coefficients symmetrized)."""
    return m if m.symmetric else MatrixSeries(m.shape, m.terms, m.trunc_order, symmetric=True)


def iterative_ase(k: MatrixSeries, rank_tol: float = SERIES_RANK_TOL, max_depth=None) -> Ase:
    """Spectral equivalent of a symmetric matrix series.

    Driver loop: auto-scale and run the Schur-chain construction; when the
    chain stalls, isolate the unresolved trailing block as a series Schur
    complement, rotate its leading coefficient to eigenbasis (which makes the
    result diagonally scaled again) and recurse on it.  Rotations accumulate
    so every reported term lives in the original coordinates.

    Stop rule: a round whose chain completes, or the last round the depth
    budget allows (``max_depth`` rounds after the first, n by default; 0 is
    the plain scaled construction), keeps its whole chain, so a stalled
    complement is cut to its nonzero eigenpairs and truncates the result at
    its valuation 2 nu_stall.  Any other round keeps only its resolved complements and
    goes on.  Later rounds live in the trailing block, whose entries are
    O(eps^{2 nu_stall}), so valuations strictly increase from round to round.
    Only the series Schur step needs a finite truncation horizon; exhausting
    it yields a truncated result, never a silently wrong one.
    """
    if not k.symmetric:  # the flag also guarantees a square shape
        raise ValueError("matrix series must be symmetric")
    n = k.n
    if max_depth is None:
        max_depth = n
    groups = []
    basis = np.eye(n)
    current = k
    truncated_at = None
    horizons = []  # of dropped zero rows: the result is only good below them
    for depth in range(max_depth + 1):
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
            horizons.append(current.trunc_order)
            current = _symmetric(current.submatrix(keep, keep))
            basis = basis[:, keep]
            omega = valuation_matrix(current)
        perm, scaling = auto_scale_with_permutation(omega)
        cur_p = current.permuted(perm)
        basis_p = basis[:, perm]
        sizes = scaling.block_sizes
        complements, stopped = schur_chain(extract_H(cur_p, scaling), sizes, rank_tol)
        offsets = np.cumsum((0,) + sizes)
        nus = scaling.nus
        last = not stopped or depth == max_depth
        stall = len(complements) - 1
        if not last:
            complements, stopped = complements[:stall], False
        bases = [basis_p[:, offsets[i] : offsets[i + 1]] for i in range(len(complements))]
        new, truncated_at = _chain_groups((complements, stopped), nus, bases, rank_tol)
        groups += new
        if last:
            break
        if current.trunc_order == INFINITY:
            raise ValueError("iterative extraction needs a finite truncation horizon")
        try:
            trailing = _series_schur_block(cur_p, scaling, stall, rank_tol)
        except ValueError:
            truncated_at = 2 * nus[stall]
            break
        # rounding noise from the elimination (and below, the rotation) must
        # not register as genuine series terms; its size is machine-level
        # relative to the coefficient scale that entered the Schur complement
        scale = _coefficient_scale(cur_p)
        trailing = _prune(trailing, scale)
        if trailing.is_zero:
            truncated_at = trailing.trunc_order
            break
        gamma = trailing.valuation
        lead = trailing.coefficient(gamma)
        w, q = np.linalg.eigh(lead)
        nonzero = significant(w, rank_tol)
        # nonsingular part first (descending), null directions last
        order = sorted(range(len(w)), key=lambda i: (not nonzero[i], -w[i]))
        q = fix_column_signs(q[:, order])
        rotated = _prune(trailing.congruence(q), scale)
        # the leading coefficient is diagonal by construction; pin it exactly
        lead_diag = np.diag(np.where(nonzero[order], w[order], 0.0))
        # gamma is the trailing block's valuation, so its term stays first
        terms = [(gamma, lead_diag)] + [(e, m) for e, m in rotated.terms if e != gamma]
        current = MatrixSeries(rotated.shape, terms, rotated.trunc_order, symmetric=True)
        basis = basis_p[:, offsets[stall]:] @ q
    ends = horizons + ([] if truncated_at is None else [truncated_at])
    return Ase(n, groups, min(ends, default=None))


def _coefficient_scale(m: MatrixSeries) -> float:
    return max((np.abs(c).max() for _, c in m.terms), default=0.0)


def _prune(m: MatrixSeries, scale: float) -> MatrixSeries:
    """m with the entries at or below ``NOISE_FACTOR * scale`` zeroed."""
    terms = [(e, np.where(significant(c, NOISE_FACTOR, scale), c, 0.0)) for e, c in m.terms]
    return MatrixSeries(m.shape, terms, m.trunc_order, m.symmetric)
