"""High-level analysis drivers shared by the CLI and the test suite."""

from __future__ import annotations

import numpy as np

from .series import SERIES_RANK_TOL, MatrixSeries, valuation_matrix
from .scaling import auto_scale_with_permutation, extract_H
from .ase import Ase, ase_from_scaled
from .degenerate import iterative_ase

__all__ = ["analyze_series"]


def analyze_series(k: MatrixSeries, mode: str = "auto", rank_tol: float = SERIES_RANK_TOL) -> Ase:
    """Spectral equivalent of a symmetric matrix series.

    Modes: 'scaled' applies the diagonal-scaling construction once (possibly
    truncated); 'iterative' always runs the recursive reduction; 'auto' tries
    the scaled route and falls back to the iterative one when it truncates.
    Rows need not be pre-ordered: the automatic scaling's sort is applied
    internally and the reported terms live in the original coordinates.
    """
    if mode not in ("scaled", "iterative", "auto"):
        raise ValueError(f"unknown mode {mode!r}")
    if mode == "iterative":
        return iterative_ase(k, rank_tol)
    ase = _scaled_once(k, rank_tol)
    if mode == "auto" and not ase.complete:
        return iterative_ase(k, rank_tol)
    return ase


def _scaled_once(k: MatrixSeries, rank_tol: float) -> Ase:
    perm, scaling = auto_scale_with_permutation(valuation_matrix(k))
    kp = k.permuted(perm)
    ase_p = ase_from_scaled(extract_H(kp, scaling), rank_tol)
    if np.array_equal(perm, np.arange(k.n)):
        return ase_p
    inv = np.empty_like(perm)
    inv[perm] = np.arange(k.n)
    groups = [(alpha, term[np.ix_(inv, inv)]) for alpha, term in ase_p.groups]
    return Ase(k.n, groups, ase_p.truncated_at)
