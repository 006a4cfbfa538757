"""The asymptotic spectral equivalent: Schur chains, eigen-readout, rank probes.

For a diagonally scaled K = Delta (H + o(1)) Delta with blocks b_0..b_p, the
successive Schur complements S_i of H determine, group by group, the leading
eigenvalue coefficients (eigenvalues of S_i, at valuation 2 nu_i) and the
limiting eigenvectors.  When some leading submatrix of H is singular the chain
stops: the last complement's nonzero eigenvalues still belong to the group at
2 nu_j, while its null directions correspond to eigenvalues of strictly higher
valuation, recorded by the ``truncated_at`` marker.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .series import SERIES_RANK_TOL, Exponent, MatrixSeries, as_exponent, is_singular
from .scaling import ScaledForm

__all__ = [
    "SchurChain",
    "schur_chain",
    "Ase",
    "ase_from_scaled",
    "SpectralGroup",
    "eigen_readout",
    "regularized_inverse_probe",
    "rank_probe_curve",
    "RankProbePoint",
    "fix_column_signs",
]


def fix_column_signs(mat: np.ndarray, rel_tol: float = 1e-12) -> np.ndarray:
    """Flip columns so the first significant entry of each is positive.

    Pins the sign freedom of eigenvectors / orthonormal bases so golden tests
    and emitted files are reproducible.
    """
    mat = np.array(mat, dtype=float)
    if mat.size == 0:
        return mat
    mag = np.abs(mat)
    first = np.argmax(mag > rel_tol * mag.max(axis=0), axis=0)
    flip = mat[first, np.arange(mat.shape[1])] < 0
    mat[:, flip] = -mat[:, flip]
    return mat


@dataclass
class SchurChain:
    """Successive Schur complements S_0..S_j of a blocked symmetric matrix."""

    complements: list
    stopped_early: bool


def schur_chain(h: np.ndarray, block_sizes, rank_tol: float = SERIES_RANK_TOL) -> SchurChain:
    """Compute S_i = H_ii - H_{i,<i} H_{<i,<i}^{-1} H_{<i,i} block by block.

    The chain stops (with the offending complement kept and flagged) as soon
    as the current leading submatrix H_{<=i,<=i} fails the singular-value
    ratio test at ``rank_tol``.
    """
    h = np.asarray(h, dtype=float)
    n = h.shape[0]
    sizes = [int(b) for b in block_sizes]
    if sum(sizes) != n:
        raise ValueError("block sizes must sum to the matrix dimension")
    if any(b < 1 for b in sizes):
        raise ValueError("block sizes must be positive")
    complements = []
    stopped = False
    trailing = h.copy()
    offset = 0
    for idx, b in enumerate(sizes):
        s = 0.5 * (trailing[:b, :b] + trailing[:b, :b].T)
        complements.append(s)
        if is_singular(h[: offset + b, : offset + b], rank_tol):
            stopped = True
            break
        if idx == len(sizes) - 1:
            break
        cross = trailing[b:, :b]
        trailing = trailing[b:, b:] - cross @ np.linalg.solve(s, cross.T)
        trailing = 0.5 * (trailing + trailing.T)
        offset += b
    return SchurChain(complements, stopped)


def rank_floor(term: np.ndarray, tol: float = 1e-10) -> float:
    """Singular values of an ASE term at or below this do not count toward its rank."""
    return tol * max(1.0, np.abs(term).max())


@dataclass
class Ase:
    """Asymptotic spectral equivalent: sum over groups of eps^alpha_i * term_i.

    ``truncated_at`` is present iff the construction stopped early, meaning
    the expansion is only identified up to o(eps^truncated_at).
    """

    n: int
    groups: list = field(default_factory=list)  # [(Exponent, symmetric ndarray)]
    truncated_at: Exponent | None = None

    def __post_init__(self):
        groups = []
        for alpha, term in self.groups:
            term = np.asarray(term, dtype=float)
            term.setflags(write=False)
            groups.append((as_exponent(alpha), term))
        groups.sort(key=lambda g: g[0])
        self.groups = groups

    @property
    def complete(self) -> bool:
        return self.truncated_at is None

    @property
    def valuations(self):
        return [alpha for alpha, _ in self.groups]

    @cached_property
    def readout(self) -> list:
        """``eigen_readout(self)``, computed on first use and kept (terms are read-only)."""
        return eigen_readout(self)

    def term_rank_sum(self, tol: float = 1e-10) -> int:
        return sum(int(np.linalg.matrix_rank(t, rank_floor(t, tol))) for _, t in self.groups)

    def validate(self, tol: float = 1e-10):
        """Check the structural invariants; raises ValueError on violation."""
        prev = None
        for alpha, term in self.groups:
            if term.shape != (self.n, self.n):
                raise ValueError("term shape mismatch")
            if not np.allclose(term, term.T, atol=tol * max(1.0, np.abs(term).max())):
                raise ValueError("term is not symmetric")
            if np.abs(term).max() == 0.0:
                raise ValueError("zero term stored")
            if prev is not None and not prev < alpha:
                raise ValueError("valuations are not strictly increasing")
            prev = alpha
        for i in range(len(self.groups)):
            for j in range(i + 1, len(self.groups)):
                ti = self.groups[i][1]
                tj = self.groups[j][1]
                bound = tol * np.linalg.norm(ti) * np.linalg.norm(tj)
                if np.linalg.norm(ti.T @ tj) > max(bound, tol):
                    raise ValueError(f"terms {i} and {j} are not orthogonal")
        rank_sum = self.term_rank_sum(tol)
        if rank_sum > self.n:
            raise ValueError("term ranks sum beyond the dimension")
        if self.truncated_at is None and rank_sum != self.n:
            raise ValueError("complete ASE must have term ranks summing to n")


def _clean_rank(term: np.ndarray, rank_tol: float) -> np.ndarray:
    """Project out below-tolerance eigendirections of a symmetric matrix."""
    w, u = np.linalg.eigh(term)
    big = np.abs(w).max()
    if big == 0.0:
        return np.zeros_like(term)
    keep = np.abs(w) > rank_tol * big
    return (u[:, keep] * w[keep]) @ u[:, keep].T


def _chain_groups(chain: SchurChain, nus, bases, rank_tol: float):
    """ASE groups (2 nu_i, Q_i S_i Q_i^T) over a Schur chain, and ``truncated_at``.

    Each complement S_i is lifted through its block's basis Q_i (columns in
    the original coordinates) and symmetrized.  The last complement of a
    stopped chain is rank-cleaned and truncates the expansion at its
    valuation; complements that are (or clean to) zero contribute no group.
    """
    groups = []
    truncated_at = None
    for i, s in enumerate(chain.complements):
        if chain.stopped_early and i == len(chain.complements) - 1:
            s = _clean_rank(s, rank_tol)
            truncated_at = 2 * nus[i]
        if np.abs(s).max() == 0.0:
            continue
        term = bases[i] @ s @ bases[i].T
        groups.append((2 * nus[i], 0.5 * (term + term.T)))
    return groups, truncated_at


def ase_from_scaled(form: ScaledForm, rank_tol: float = SERIES_RANK_TOL) -> Ase:
    """Apply the blocked Schur-complement construction to a scaled form."""
    chain = schur_chain(form.H, form.block_sizes, rank_tol)
    n = form.scaling.n
    offsets = np.cumsum((0,) + form.block_sizes)
    eye = np.eye(n)  # S_i sits in its own coordinate block
    bases = [eye[:, offsets[i] : offsets[i + 1]] for i in range(len(form.block_sizes))]
    return Ase(n, *_chain_groups(chain, form.scaling.nus, bases, rank_tol))


@dataclass
class SpectralGroup:
    """Eigen-readout of one ASE term: leading coefficients and eigenvectors.

    ``ambiguous`` is set when leading coefficients coincide within the group;
    the columns of ``vectors`` then only span the right eigenspace and cannot
    be resolved individually without higher-order terms.  ``projector`` is
    always well defined; it is computed on first use.
    """

    valuation: Exponent
    leading_values: list
    vectors: np.ndarray
    ambiguous: bool

    @property
    def count(self) -> int:
        return len(self.leading_values)

    @cached_property
    def projector(self) -> np.ndarray:
        """Orthogonal projector onto the group's eigenspace, (n, n)."""
        return self.vectors @ self.vectors.T


def eigen_readout(ase: Ase, zero_tol: float = 1e-10, tie_tol: float = 1e-9):
    """Per-group eigenvalues (decreasing) and eigenvectors of the ASE terms."""
    out = []
    for alpha, term in ase.groups:
        w, u = np.linalg.eigh(term)
        big = np.abs(w).max()
        keep = np.abs(w) > zero_tol * big
        w = w[keep]
        u = u[:, keep]
        order = np.argsort(-w)
        w = w[order]
        u = fix_column_signs(u[:, order])
        ambiguous = any(
            abs(w[k] - w[k + 1]) <= tie_tol * max(abs(w[k]), abs(w[k + 1]))
            for k in range(len(w) - 1)
        )
        out.append(
            SpectralGroup(
                valuation=alpha,
                leading_values=[float(x) for x in w],
                vectors=u,
                ambiguous=ambiguous,
            )
        )
    return out


def regularized_inverse_probe(k: MatrixSeries, s, tau: float, eps: float) -> np.ndarray:
    """Evaluate K (K + tau*eps^s I)^{-1} numerically at eps.

    Its small-eps limit exposes, group by group, the eigenvalues of valuation
    up to s; the shift must keep K + tau*eps^s I invertible.
    """
    s = as_exponent(s)
    a = k.evaluate(eps)
    z = float(tau) * float(eps) ** float(s)
    shifted = a + z * np.eye(a.shape[0])
    try:
        return np.linalg.solve(shifted.T, a.T).T
    except np.linalg.LinAlgError as exc:
        raise ValueError("singular shift: K + tau*eps^s I is not invertible") from exc


@dataclass
class RankProbePoint:
    s: Exponent
    rank: int
    stable: bool


def rank_probe_curve(k: MatrixSeries, s_grid, tau: float, eps_seq, rank_tol: float):
    """Estimated limit rank of the regularized-inverse probe per exponent s.

    The limit rank counts eigenvalues with valuation <= s.  Per s, the probe
    is evaluated along the decreasing eps sequence; the estimate is the rank
    at the smallest eps, flagged unstable when it disagrees with the rank at
    the next-larger eps.
    """
    eps_seq = [float(e) for e in eps_seq]
    if any(b >= a for a, b in zip(eps_seq, eps_seq[1:])):
        raise ValueError("eps sequence must be strictly decreasing")
    out = []
    for s in s_grid:
        s = as_exponent(s)
        ranks = []
        for eps in eps_seq:
            m = regularized_inverse_probe(k, s, tau, eps)
            sv = np.linalg.svd(m, compute_uv=False)
            ranks.append(int(np.sum(sv > rank_tol)))
        stable = len(ranks) >= 2 and ranks[-1] == ranks[-2]
        out.append(RankProbePoint(s, ranks[-1], stable))
    return out
