"""The asymptotic spectral equivalent: Schur chains and eigen-readout.

For a diagonally scaled K = Delta (H + o(1)) Delta with blocks b_0..b_p, the
successive Schur complements S_i of H determine, group by group, the leading
eigenvalue coefficients (eigenvalues of S_i, at valuation 2 nu_i) and the
limiting eigenvectors.  When some leading submatrix of H is singular the chain
stops: the last complement's nonzero eigenvalues still belong to the group at
2 nu_j and make up its factor, while its null directions correspond to
eigenvalues of strictly higher valuation, recorded by ``truncated_at``.

An ASE keeps each group as the paper writes it, a factor pair (Q_i, S_i)
with term Q_i S_i Q_i^T: Q_i is the n x k_i orthonormal basis of the group's
block and S_i its k_i x k_i complement.  The readout takes ``eigh(S_i)`` and
maps the eigenvectors through Q_i; the dense n x n terms are formed only
when something reads ``Ase.groups``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .series import SERIES_RANK_TOL, Exponent, as_exponent, is_singular
from .scaling import ScaledForm

__all__ = [
    "SchurChain",
    "schur_chain",
    "Ase",
    "ase_from_scaled",
    "SpectralGroup",
    "eigen_readout",
    "fix_column_signs",
]

SIGN_PIN_TOL = 1e-12  # a column's sign is its first entry above this times its largest magnitude
TERM_RANK_TOL = 1e-10  # rank floor, and symmetry/orthogonality slack, of an ASE term
READOUT_ZERO_TOL = 1e-10  # readout drops eigenvalues at or below this times a group's largest
READOUT_TIE_TOL = 1e-9  # leading coefficients this close (relative) make a group ambiguous


def fix_column_signs(mat: np.ndarray) -> np.ndarray:
    """Flip columns so the first significant entry of each is positive.

    Pins the sign freedom of eigenvectors / orthonormal bases so golden tests
    and emitted files are reproducible.
    """
    mat = np.array(mat, dtype=float)
    if mat.size == 0:
        return mat
    mag = np.abs(mat)
    first = np.argmax(mag > SIGN_PIN_TOL * mag.max(axis=0), axis=0)
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


def rank_floor(term: np.ndarray) -> float:
    """Singular values of an ASE term at or below this do not count toward its rank."""
    return TERM_RANK_TOL * max(1.0, np.abs(term).max())


def _diagonal(s: np.ndarray):
    """The diagonal of S when S is diagonal (its eigenpairs are then known), else None."""
    d = np.diag(s)
    return d if np.array_equal(s, np.diag(d)) else None


def _lift(q, s: np.ndarray) -> np.ndarray:
    """The dense term of a factor pair: sym(Q S Q^T), as (Q d) Q^T when S = diag(d),
    or S itself when Q is None."""
    if q is None:
        return s
    d = _diagonal(s)
    term = q @ s @ q.T if d is None else (q * d) @ q.T
    return 0.5 * (term + term.T)


@dataclass
class Ase:
    """Asymptotic spectral equivalent: sum over groups of eps^alpha_i * Q_i S_i Q_i^T.

    Each group is given as (alpha, Q, S), Q an n x k orthonormal basis and S
    a symmetric k x k matrix, or as (alpha, term) with a dense symmetric
    n x n term, which is its own factor (Q is None and stands for the
    identity; no product is formed).  ``factors`` holds the read-only
    (alpha, Q, S) triples sorted by valuation; ``groups`` holds the dense
    (alpha, term) pairs, formed on first read.  ``truncated_at`` is present
    iff the construction stopped early, meaning the expansion is only
    identified up to o(eps^truncated_at).
    """

    n: int
    factors: list = field(default_factory=list)  # [(Exponent, ndarray or None, ndarray)]
    truncated_at: Exponent | None = None

    def __post_init__(self):
        factors = []
        for alpha, *pair in self.factors:
            q, s = pair if len(pair) == 2 else (None, pair[0])
            s = np.asarray(s, dtype=float)
            s.setflags(write=False)
            if q is not None:
                q = np.asarray(q, dtype=float)
                q.setflags(write=False)
            factors.append((as_exponent(alpha), q, s))
        factors.sort(key=lambda g: g[0])
        self.factors = factors

    @cached_property
    def groups(self) -> list:
        """[(alpha, dense term)], each term sym(Q S Q^T) and read-only."""
        out = []
        for alpha, q, s in self.factors:
            term = _lift(q, s)
            term.setflags(write=False)
            out.append((alpha, term))
        return out

    @property
    def complete(self) -> bool:
        return self.truncated_at is None

    @property
    def valuations(self):
        return [alpha for alpha, _, _ in self.factors]

    @cached_property
    def readout(self) -> list:
        """``eigen_readout(self)``, computed on first use and kept (terms are read-only)."""
        return eigen_readout(self)

    def term_rank_sum(self) -> int:
        return sum(int(np.linalg.matrix_rank(t, rank_floor(t))) for _, t in self.groups)

    def validate(self):
        """Check the structural invariants; raises ValueError on violation."""
        prev = None
        for alpha, term in self.groups:
            if term.shape != (self.n, self.n):
                raise ValueError("term shape mismatch")
            if not np.allclose(term, term.T, atol=rank_floor(term)):
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
                bound = TERM_RANK_TOL * np.linalg.norm(ti) * np.linalg.norm(tj)
                if np.linalg.norm(ti.T @ tj) > max(bound, TERM_RANK_TOL):
                    raise ValueError(f"terms {i} and {j} are not orthogonal")
        rank_sum = self.term_rank_sum()
        if rank_sum > self.n:
            raise ValueError("term ranks sum beyond the dimension")
        if self.truncated_at is None and rank_sum != self.n:
            raise ValueError("complete ASE must have term ranks summing to n")


def _eigh_cut(mat: np.ndarray, tol: float):
    """``eigh`` of a symmetric matrix and the mask of |w| above ``tol`` times max |w|."""
    w, u = np.linalg.eigh(mat)
    return w, u, np.abs(w) > tol * np.abs(w).max()


def _chain_groups(chain: SchurChain, nus, bases, rank_tol: float):
    """ASE factors (2 nu_i, Q_i, S_i) over a Schur chain, and ``truncated_at``.

    Q_i is the basis of block i (columns in the original coordinates) and
    S_i its complement; no n x n product is formed.  The last complement of
    a stopped chain truncates the expansion at its valuation and is kept as
    its eigenpairs above ``rank_tol``, the factor (Q_i U, diag(w)) of one
    ``eigh``.  Complements that are (or cut to) zero contribute no group.
    """
    groups = [(2 * nu, q, s) for nu, q, s in zip(nus, bases, chain.complements)]
    truncated_at = None
    if chain.stopped_early:
        truncated_at, q, s = groups[-1]
        w, u, keep = _eigh_cut(s, rank_tol)
        groups[-1] = (truncated_at, q @ u[:, keep], np.diag(w[keep]))
    return [g for g in groups if np.abs(g[2]).max(initial=0.0) != 0.0], truncated_at


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


def eigen_readout(ase: Ase):
    """Per-group eigenvalues (decreasing) and eigenvectors of the ASE terms.

    Each group is read off its k x k factor: ``eigh(S)``, eigenvalues at or
    below ``READOUT_ZERO_TOL`` times the largest magnitude dropped, the eigenvectors
    mapped through Q (orthonormal, so Q U is too) and their signs pinned.  A
    diagonal S holds its eigenpairs as they are: its values, and Q's columns.
    """
    out = []
    for alpha, q, s in ase.factors:
        d = _diagonal(s)
        w, u = (d, np.eye(len(d))) if d is not None else np.linalg.eigh(s)
        keep = np.flatnonzero(np.abs(w) > READOUT_ZERO_TOL * np.abs(w).max())
        cols = keep[np.argsort(-w[keep], kind="stable")]  # ties keep the stored order
        w = w[cols]
        if q is None:
            u = u[:, cols]
        else:  # C order, as Q U is: BLAS products of the vectors depend on layout
            u = q @ u[:, cols] if d is None else np.ascontiguousarray(q[:, cols])
        gaps = np.abs(w[:-1] - w[1:])
        ambiguous = bool(np.any(gaps <= READOUT_TIE_TOL
                                * np.maximum(np.abs(w[:-1]), np.abs(w[1:]))))
        out.append(
            SpectralGroup(
                valuation=alpha,
                leading_values=w.tolist(),
                vectors=fix_column_signs(u),
                ambiguous=ambiguous,
            )
        )
    return out
