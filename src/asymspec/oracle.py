"""Brute-force numerical verification of predicted spectral equivalents.

An eps sweep of dense symmetric eigensolves samples the analytic eigenvalue
curves directly; eigenvectors are computed only at the grid points where they
are read, and every other point runs a values-only solver.  Valuations are
then read off as log-log slopes, fitted for every curve at once in one array
pass; leading coefficients as rescaled eigenvalues at the smallest reliable
eps; and limiting eigenvectors as principal angles between predicted group
eigenspaces and the numerically computed spans (the subspace comparison
sidesteps within-group eigenvector ambiguity).  Both sides of that comparison
are ``eigh`` columns, already orthonormal, so the angles are read off them
without a further orthonormalization.

Everything runs in double precision; groups whose eigenvalues sink below the
precision ceiling at the chosen grid are reported as unverifiable, never as
failed.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .series import MatrixSeries
from .ase import Ase
from .kernels import KernelModel, distance_matrix, kernel_matrix

__all__ = [
    "SweepResult",
    "eigen_sweep",
    "eps_star_indices",
    "ValuationFit",
    "estimate_valuations",
    "GroupMatch",
    "MatchReport",
    "match_ase",
]

PRECISION_FLOOR_FACTOR = 1e-13  # slope fits ignore |lambda| below this times ||K||
CEILING_ABS = 1e-12  # a group is verifiable only if |lambda~| eps^alpha exceeds this
FIT_MIN_POINTS = 4  # a curve with fewer usable points has no reliable slope
FIT_R2_MIN = 0.999  # a slope fit is reliable at this R^2 or above ...
FIT_RMS_MAX = 0.02  # ... or at this rms residual (in log) or below, for near-flat curves
SLOPE_TOL = 0.1  # a reliable slope this close to the predicted valuation passes


@dataclass
class SweepResult:
    """Eigenvalues along a decreasing eps grid, eigenvectors where requested.

    Per eps, eigenvalues are sorted by decreasing magnitude.  ``eigenvectors``
    maps a grid index to the eigenvectors kept there: the (n, n) matrix with
    columns aligned to that order, or, when ``columns`` names curves by their
    0-based position in it, the (n, len(columns)) matrix of those curves'
    eigenvectors alone.  A full (m, n, n) array indexes the same way.
    ``vectors`` reads either layout.
    """

    eps_grid: np.ndarray  # (m,), strictly decreasing
    eigenvalues: np.ndarray  # (m, n)
    eigenvectors: dict  # grid index -> (n, n), or (n, len(columns))
    columns: tuple | None = None  # curves whose eigenvectors are kept; None: all

    @property
    def n(self) -> int:
        return self.eigenvalues.shape[1]

    def vectors(self, i: int, curves) -> np.ndarray:
        """Eigenvectors of ``curves`` (0-based positions) at grid index ``i``."""
        try:
            u = self.eigenvectors[i]
        except (KeyError, IndexError):
            raise ValueError(
                f"the sweep holds no eigenvectors at eps* = {self.eps_grid[i]:.6g} (grid "
                f"index {i}); pass the indices from eps_star_indices as vectors_at"
            ) from None
        if self.columns is not None:
            try:
                curves = [self.columns.index(k) for k in curves]
            except ValueError:
                raise ValueError(
                    f"the sweep keeps eigenvectors of curves {list(self.columns)} only") from None
        return u[:, list(curves)]

    def matrix_norm_at_largest_eps(self) -> float:
        return float(np.abs(self.eigenvalues[0]).max())


def _matrix_function(source):
    if isinstance(source, MatrixSeries):
        return source.evaluate
    if isinstance(source, tuple) and len(source) == 2 and isinstance(source[0], KernelModel):
        kernel, nodes = source
        dist = distance_matrix(nodes, 1)
        return lambda eps: kernel_matrix(kernel, nodes, eps, dist)
    if callable(source):
        return source
    raise TypeError("source must be a MatrixSeries, (kernel, nodes) or a callable")


CHECK_TOL = 1e-10  # decomposition error allowed per entry, relative to max(1, max|a|)


def _values_error(a: np.ndarray, w: np.ndarray, scale: float) -> float:
    """What the reconstruction check bounds for eigenvalues ``w`` of ``a`` alone.

    An orthogonal U with |U diag(w) U^T - a| <= tol entrywise has Frobenius
    error at most n tol, so | ||w||_2 - ||a||_F | <= n tol and
    |sum(w) - tr a| <= n tol.  Both are evaluated on a / scale, where the
    Frobenius norm cannot overflow, so the result is compared with n CHECK_TOL.
    """
    b = a / scale
    ws = w / scale
    return max(abs(np.linalg.norm(ws) - np.linalg.norm(b)), abs(ws.sum() - np.trace(b)))


def eigen_sweep(source, eps_grid, vectors_at=None, columns=None) -> SweepResult:
    """Symmetric eigenvalues per grid point, eigenvectors at ``vectors_at``.

    ``vectors_at`` holds the grid indices whose eigenvectors are wanted;
    None means every point.  The other points run a values-only solver.
    ``columns`` names the curves (0-based positions in decreasing magnitude)
    whose eigenvectors are kept; None keeps all n.  Every eigensolve is
    computed and checked in full either way.
    Curves are matched across eps by magnitude ordering, which is adequate at
    desk scale for well-separated groups (sign-crossing curves inside a group
    may swap; group-level comparisons are unaffected).
    """
    fn = _matrix_function(source)
    eps_grid = np.asarray([float(e) for e in eps_grid])
    m = len(eps_grid)
    if m < 4:
        raise ValueError("sweep needs at least 4 grid points")
    if np.any(eps_grid <= 0) or np.any(np.diff(eps_grid) >= 0):
        raise ValueError("eps grid must be positive and strictly decreasing")
    wanted = set(range(m)) if vectors_at is None else {int(i) for i in vectors_at}
    if not wanted <= set(range(m)):
        raise ValueError(f"vectors_at must hold grid indices in 0..{m - 1}")
    if columns is not None:
        columns = tuple(int(k) for k in columns)
    lams = None
    vecs = {}
    for i, eps in enumerate(eps_grid):
        with np.errstate(over="ignore", invalid="ignore"):
            a = fn(float(eps))
        if not np.isfinite(a).all():
            raise np.linalg.LinAlgError(
                f"matrix at eps = {eps:.6g} has non-finite entries (overflow or NaN)")
        scale = max(np.abs(a).max(), 1.0)
        if i in wanted:
            w, u = np.linalg.eigh(a)
            err, tol = np.abs((u * w) @ u.T - a).max(), CHECK_TOL * scale
            check = "reconstruction check"
        else:
            w = np.linalg.eigvalsh(a)
            err, tol = _values_error(a, w, scale), len(w) * CHECK_TOL
            check = "norm and trace checks"
        if not err <= tol:  # NaN fails too
            raise np.linalg.LinAlgError(f"eigensolve at eps = {eps:.6g} failed the {check}")
        if lams is None:  # the matrix size is known only from the first point
            lams = np.empty((m,) + w.shape, w.dtype)
            if columns is not None and not all(0 <= k < len(w) for k in columns):
                raise ValueError(f"columns must hold curve positions in 0..{len(w) - 1}")
        order = np.argsort(-np.abs(w))
        lams[i] = w[order]
        if i in wanted:
            vecs[i] = u[:, order if columns is None else order[list(columns)]]
    return SweepResult(eps_grid, lams, vecs, columns)


def eps_star_indices(eps_grid, readout) -> list:
    """Per readout group, the grid index of its eps*, or None.

    eps* is the smallest grid eps at which every leading value of the group,
    times eps^valuation, exceeds ``CEILING_ABS``; a group that exceeds it
    nowhere on the grid is unverifiable.  ``match_ase`` reads eigenvectors
    at exactly these indices.
    """
    eps_grid = np.asarray(eps_grid, dtype=float)
    out = []
    for g in readout:
        min_coeff = min(abs(v) for v in g.leading_values)
        with np.errstate(over="ignore"):  # eps^alpha = inf clears the ceiling
            usable = np.nonzero(min_coeff * eps_grid ** float(g.valuation) > CEILING_ABS)[0]
        out.append(int(usable[np.argmin(eps_grid[usable])]) if usable.size else None)
    return out


def _angles(qa: np.ndarray, qb: np.ndarray) -> np.ndarray:
    """Principal angles between the spans of orthonormal columns ``qa`` and ``qb``,
    largest first.

    Knyazev & Argentati (SIAM J. Sci. Comput. 23, 2002): cosines are the
    singular values of Qa^T Qb (Bjorck & Golub); where a cosine is at least
    1/sqrt(2) the angle is small and arccos loses accuracy, so it is read as
    the arcsine of a singular value of the residual of the projection onto
    the wider basis.  The caller vouches that both bases are orthonormal;
    ``_principal_angles`` in the tests' reference module orthonormalizes
    arbitrary spans first.
    """
    qa_qb = qa.conj().T @ qb
    sigma = np.linalg.svd(qa_qb, compute_uv=False)
    if qa.shape[1] >= qb.shape[1]:
        residual = qb - qa @ qa_qb
    else:
        residual = qa - qb @ qa_qb.conj().T
    # the smallest cosine belongs to the largest angle, hence the reversal
    cosines = sigma[::-1]
    mask = cosines**2 >= 0.5
    if mask.any():
        mu_arcsin = np.arcsin(np.clip(np.linalg.svd(residual, compute_uv=False), -1.0, 1.0))
    else:
        mu_arcsin = 0.0
    return np.where(mask, mu_arcsin, np.arccos(np.clip(cosines, -1.0, 1.0)))


@dataclass
class ValuationFit:
    """Least-squares slope of log|lambda_k| against log eps."""

    slope: float
    r_squared: float
    n_points: int
    reliable: bool


def estimate_valuations(sweep: SweepResult):
    """Fitted slopes per eigenvalue curve, over the grid tail above the floor.

    When a curve clears the precision floor on plenty of points, only the
    small-eps half is fitted (the large-eps end still carries visible
    next-order corrections).  Curves with fewer than ``FIT_MIN_POINTS`` usable
    samples, or with visible curvature (R^2 < ``FIT_R2_MIN``), are flagged
    unreliable.  Every curve is fitted at once: a mask of the fitted points
    per curve, and the centred least-squares line over each column.
    """
    floor = PRECISION_FLOOR_FACTOR * sweep.matrix_norm_at_largest_eps()
    mags = np.abs(sweep.eigenvalues)  # (m, n)
    usable = mags > floor
    pts = usable.sum(axis=0)
    # the grid decreases, so dropping the first half of a curve's usable
    # points keeps its small-eps tail
    drop = np.where(pts >= 2 * FIT_MIN_POINTS, pts // 2, 0)
    fitted = usable & (np.cumsum(usable, axis=0) > drop)
    count = fitted.sum(axis=0)
    x = np.where(fitted, np.log(sweep.eps_grid)[:, None], 0.0)
    y = np.log(mags, out=np.zeros_like(mags), where=fitted)
    size = np.maximum(count, 1)  # curves short of points are not read below
    dx = np.where(fitted, x - x.sum(axis=0) / size, 0.0)
    dy = np.where(fitted, y - y.sum(axis=0) / size, 0.0)
    sxx = (dx * dx).sum(axis=0)
    slope = np.divide((dx * dy).sum(axis=0), sxx, out=np.zeros_like(sxx), where=sxx > 0)
    ss_res = ((dy - slope * dx) ** 2).sum(axis=0)
    ss_tot = (dy * dy).sum(axis=0)
    r2 = 1.0 - np.divide(ss_res, ss_tot, out=np.zeros_like(ss_tot), where=ss_tot > 0)
    # R^2 is meaningless for near-constant curves (slope ~ 0); a small
    # absolute residual certifies the line fit just as well there
    rms = np.sqrt(ss_res / size)
    reliable = (r2 >= FIT_R2_MIN) | (rms <= FIT_RMS_MAX)
    return [
        ValuationFit(s, r, c, bool(ok)) if p >= FIT_MIN_POINTS
        else ValuationFit(float("nan"), 0.0, p, False)
        for s, r, c, ok, p in zip(slope.tolist(), r2.tolist(), count.tolist(),
                                  reliable.tolist(), pts.tolist())
    ]


@dataclass
class GroupMatch:
    """Verification record for one predicted eigenvalue group."""

    valuation: float
    count: int
    verifiable: bool
    eps_star: float | None = None
    slopes: list = field(default_factory=list)
    slope_ok: bool | None = None
    coeff_rel_errors: list = field(default_factory=list)
    coeff_ok: bool | None = None
    angle: float | None = None
    angle_ok: bool | None = None

    @property
    def passed(self) -> bool:
        if not self.verifiable:
            return True  # unverifiable groups never count as failures
        return bool(self.slope_ok and self.coeff_ok and self.angle_ok)


@dataclass
class MatchReport:
    groups: list
    precision_ceiling: float  # largest valuation a unit coefficient could show
    passed: bool
    note: str = ""


def match_ase(ase: Ase, sweep: SweepResult, tol_coeff: float, tol_angle: float) -> MatchReport:
    """Compare a predicted spectral equivalent against a numerical sweep.

    Checks per group: (1) the matched eigenvalue curves' slopes sit at the
    predicted valuation; (2) eigenvalues rescaled by eps^valuation match the
    predicted leading coefficients to ``tol_coeff`` relative, at the smallest
    eps where the group clears the precision ceiling; (3) the largest
    principal angle between the predicted group eigenspace and the numerical
    span is at most ``tol_angle``.
    """
    if ase.n != sweep.n:
        raise ValueError("dimension mismatch between prediction and sweep")
    groups = ase.readout
    fits = estimate_valuations(sweep)
    eps_min = float(sweep.eps_grid[-1])
    ceiling = np.log(CEILING_ABS) / np.log(eps_min)
    records = []
    start = 0
    for g, at in zip(groups, eps_star_indices(sweep.eps_grid, groups)):
        alpha = float(g.valuation)
        idx = list(range(start, start + g.count))
        start += g.count
        if at is None:
            records.append(GroupMatch(alpha, g.count, verifiable=False))
            continue
        eps_star = float(sweep.eps_grid[at])
        rec = GroupMatch(alpha, g.count, verifiable=True, eps_star=eps_star)
        # (1) slopes; fits starved of points by the precision floor are
        # indeterminate, not failures (the coefficient check still gates)
        rec.slopes = [fits[k].slope for k in idx]
        rec.slope_ok = all(
            abs(fits[k].slope - alpha) <= SLOPE_TOL for k in idx if fits[k].reliable
        )
        # (2) leading coefficients, paired in decreasing signed order (the
        # within-group convention; magnitude order would mis-pair +a with -a)
        measured = sweep.eigenvalues[at, idx] / eps_star**alpha
        pred = sorted(g.leading_values, reverse=True)
        meas = sorted(measured.tolist(), reverse=True)
        rec.coeff_rel_errors = [
            abs(m - p) / abs(p) for m, p in zip(meas, pred)
        ]
        rec.coeff_ok = all(e <= tol_coeff for e in rec.coeff_rel_errors)
        # (3) principal angles between predicted and numerical group spans;
        # both are eigh columns (the readout's, and the sweep's at eps*,
        # which passed the reconstruction check), so already orthonormal
        angles = _angles(g.vectors, sweep.vectors(at, idx))
        rec.angle = float(angles.max()) if angles.size else 0.0
        rec.angle_ok = rec.angle <= tol_angle
        records.append(rec)
    note = ""
    if not ase.complete:
        note = (
            f"prediction truncated at valuation {ase.truncated_at}; curves beyond "
            "the predicted groups are not checked"
        )
    return MatchReport(
        groups=records,
        precision_ceiling=float(ceiling),
        passed=all(r.passed for r in records),
        note=note,
    )
