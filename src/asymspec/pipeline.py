"""High-level analysis driver shared by the CLI and the test suite.

Every series mode runs the one reduction loop of ``iterative_ase``: its
first round is the diagonal-scaling construction, and later rounds continue
a stalled Schur chain through a series Schur complement and a rotation.
"""

from __future__ import annotations

from .series import SERIES_RANK_TOL, MatrixSeries
from .ase import Ase
from .degenerate import iterative_ase

__all__ = ["analyze_series"]


def analyze_series(k: MatrixSeries, mode: str = "auto", rank_tol: float = SERIES_RANK_TOL) -> Ase:
    """Spectral equivalent of a symmetric matrix series.

    Modes: 'scaled' stops after the first round (the diagonal-scaling
    construction, truncated where its Schur chain stalls); 'auto' runs the
    full route, which continues past a stall round by round.  Rows need not
    be pre-ordered: the automatic scaling's sort is applied internally and
    the reported terms live in the original coordinates.
    """
    if mode not in ("scaled", "auto"):
        raise ValueError(f"unknown mode {mode!r}")
    return iterative_ase(k, rank_tol, max_depth=0 if mode == "scaled" else None)
