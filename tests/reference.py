"""The paper's alternative constructions, kept as references for the tests.

No command runs these: the CLI reaches every result through one route per
concept (the Schur chain of ``analyze_series(k, "scaled")`` and
``ase_from_gkf``, the series Schur step of ``iterative_ase`` and the degree
scan of ``kernel_ase``).  The tests compare those routes against the
formulas written here as the paper states them:

- a valuation grid from rows of exponents, and the tight entries of a
  scaling (where val K_ij = nu_i + nu_j);
- the partitioned series reduction with a uniform bottom block;
- the regularized-inverse rank probes K (K + tau eps^s I)^{-1};
- the simplified complement S_j = R_jj (W_jj - ...) R_jj^T of a GKF;
- the smooth and finitely smooth flat-limit GKFs (V, Delta, W) with V the
  multivariate Vandermonde matrix (Barthelme & Usevich, SIMAX 2021);
- principal angles between spans that are not yet orthonormal;
- the block-diagonal sum of two series and the monomial count of each
  degree, which no command reads;
- the series JSON writer: the commands only read series JSON, and the tests
  write their inputs with it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from asymspec.degenerate import _series_schur, _symmetric
from asymspec.gkf import GkfForm, _blockdiag
from asymspec.kernels import (
    KERNEL_RANK_TOL,
    KernelModel,
    NodeSet,
    _complement_block,
    _degree_scan,
    _unit_nodes,
    monomials_upto,
    wronskian,
)
from asymspec.oracle import _angles
from asymspec.scaling import DiagonalScaling, check_valid
from asymspec.series import (
    INFINITY,
    SERIES_RANK_TOL,
    Exponent,
    MatrixSeries,
    ValuationMatrix,
    as_exponent,
    is_singular,
)


# ---------------------------------------------------------------------------
# scaling: valuation grids from exponent rows, tight entries
# ---------------------------------------------------------------------------


def grid_of(rows) -> ValuationMatrix:
    """The valuation grid of rows of exponents (ints, Fractions or INFINITY):
    numerators over the lcm of the finite entries' denominators, and the
    infinity mask."""
    rows = [[as_exponent(x) for x in row] for row in rows]
    inf = np.array([[x == INFINITY for x in row] for row in rows], dtype=bool)
    den = math.lcm(*(x.denominator for row in rows for x in row if x != INFINITY))
    num = [[0 if x == INFINITY else x.numerator * (den // x.denominator) for x in row]
           for row in rows]
    return ValuationMatrix(np.array(num, dtype=object).reshape(inf.shape), den, inf)


def _tight_mask(omega: ValuationMatrix, scaling: DiagonalScaling) -> np.ndarray:
    valid, residual = check_valid(omega, scaling)
    if not valid:
        raise ValueError("scaling is not valid for this valuation matrix")
    return ~residual.inf & (residual.num == 0)


def tight_entries(omega: ValuationMatrix, scaling: DiagonalScaling):
    """Index pairs where the validity bound holds with (rational) equality."""
    rows, cols = np.nonzero(_tight_mask(omega, scaling))
    return set(zip(rows.tolist(), cols.tolist()))


# ---------------------------------------------------------------------------
# degenerate: the partitioned series reduction
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PartitionedScaledSeries:
    """K = Delta H(eps) Delta with a uniform bottom scaling block.

    The scaling's last block (exponent s, size n - m) must sit strictly above
    every other exponent, and the top-left block H_11(0) must be invertible.
    """

    scaling: DiagonalScaling
    H: MatrixSeries

    def __post_init__(self):
        if len(self.scaling.valuations) < 2:
            raise ValueError("partition requires at least two scaling blocks")
        if self.H.shape != (self.scaling.n, self.scaling.n):
            raise ValueError("H shape does not match the scaling")
        if not self.H.symmetric:
            raise ValueError("H must be a symmetric matrix series")
        m = self.m
        if is_singular(self.H.coefficient(0)[:m, :m], SERIES_RANK_TOL):
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
    m = part.m
    s = part.s
    schur = _series_schur(part.H, m, order - 2 * s, SERIES_RANK_TOL)
    top_exps = part.scaling.exponents()[:m]
    top_idx = np.arange(m)
    top = _symmetric(part.H.submatrix(top_idx, top_idx).scale_rows_cols(top_exps, top_exps))
    return block_diag(top, schur.shift(2 * s)).truncate(order)


def block_diag(a: MatrixSeries, b: MatrixSeries) -> MatrixSeries:
    """Block-diagonal combination of two square series."""
    if a.shape[0] != a.shape[1] or b.shape[0] != b.shape[1]:
        raise ValueError("block_diag requires square blocks")
    na, nb = a.shape[0], b.shape[0]
    n = na + nb
    out = {}
    for e, m in a.terms:
        tgt = out.setdefault(e, np.zeros((n, n)))
        tgt[:na, :na] += m
    for e, m in b.terms:
        tgt = out.setdefault(e, np.zeros((n, n)))
        tgt[na:, na:] += m
    trunc = min(a.trunc_order, b.trunc_order)
    return MatrixSeries((n, n), out, trunc, a.symmetric and b.symmetric)


# ---------------------------------------------------------------------------
# ase: regularized-inverse rank probes
# ---------------------------------------------------------------------------


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


# ---------------------------------------------------------------------------
# gkf: the simplified complement
# ---------------------------------------------------------------------------


def simplified_schur(w: np.ndarray, r_blocks, j: int) -> np.ndarray:
    """S_j via Schur complements of W: R_jj (W_jj - W_{j,<j} W_{<j,<j}^{-1} W_{<j,j}) R_jj^T.

    ``r_blocks`` are the diagonal blocks R_ii of a block QR.  Valid when
    V_{<=j-1} has full column rank, i.e. all R_ii with i < j are square.
    """
    w = np.asarray(w, dtype=float)
    for i in range(j):
        rank, width = r_blocks[i].shape
        if rank != width:
            raise ValueError(
                f"R_{i},{i} is not square (rank {rank} < width {width}); "
                "use the general Schur chain instead"
            )
    rjj = r_blocks[j]
    c0 = sum(r.shape[1] for r in r_blocks[:j])
    c1 = c0 + rjj.shape[1]
    wjj = w[c0:c1, c0:c1]
    if j == 0:
        core = wjj
    else:
        wlt = w[:c0, :c0]
        wjl = w[c0:c1, :c0]
        core = wjj - wjl @ np.linalg.solve(wlt, wjl.T)
    s = rjj @ core @ rjj.T
    return 0.5 * (s + s.T)


# ---------------------------------------------------------------------------
# kernels: flat-limit GKFs through the Vandermonde matrix
# ---------------------------------------------------------------------------


class FinitelySmoothError(Exception):
    """The Vandermonde degree scan stops short of full row rank: at degree
    r-1, at half the psi horizon, or before a degree it cannot certify."""


def block_widths(d: int, q: int) -> tuple:
    """The number of monomials of each degree 0..q in d variables."""
    return tuple(math.comb(t + d - 1, d - 1) for t in range(q + 1))


def vandermonde(nodes: NodeSet, s: int) -> np.ndarray:
    """Multivariate Vandermonde matrix [x_i^alpha] for |alpha| <= s.

    Columns are grouped by degree (widths ``block_widths(d, s)``) in
    graded-lex order; the degree-0 block is the all-ones column.  Entry
    (i, alpha) multiplies the powers x_ic ** alpha_c in coordinate order, each
    taken with a scalar integer exponent.
    """
    if s < 0:
        raise ValueError("degree must be nonnegative")
    alpha = np.array(monomials_upto(nodes.d, s), dtype=np.intp).reshape(-1, nodes.d)
    pts = nodes.points
    powers = [np.column_stack([pts[:, c] ** k for k in range(s + 1)]) for c in range(nodes.d)]
    v = np.take(powers[0], alpha[:, 0], axis=1)
    for c in range(1, nodes.d):
        v *= np.take(powers[c], alpha[:, c], axis=1)
    return v


def smooth_flat_limit(kernel: KernelModel, nodes: NodeSet,
                      rank_tol: float = KERNEL_RANK_TOL) -> GkfForm:
    """Flat-limit form for the completely smooth regime.

    Takes the degree q at which the degree scan reaches rank n (q <= r-1, 2q
    within the psi horizon) and returns (V_{<=q}, Delta with nu_j = j and
    block widths H_{j,d}, W_{<=q}).  Raises FinitelySmoothError when the scan
    stops short of rank n.
    """
    q_blocks, _ = _degree_scan(kernel, _unit_nodes(nodes)[0], rank_tol)
    rank = sum(b.shape[1] for b in q_blocks)
    if rank < nodes.n:
        raise FinitelySmoothError(f"the Vandermonde degree scan stops at rank {rank} "
                                  f"< n = {nodes.n}; use finite_smooth_flat_limit")
    q = len(q_blocks) - 1
    widths = block_widths(nodes.d, q)
    scaling = DiagonalScaling(tuple((Exponent(t), w) for t, w in enumerate(widths)))
    return GkfForm(vandermonde(nodes, q), scaling, wronskian(kernel, nodes.d, q))


def finite_smooth_flat_limit(
    kernel: KernelModel, nodes: NodeSet, rank_tol: float = KERNEL_RANK_TOL
) -> GkfForm:
    """Flat-limit form for a finitely smooth kernel with rank V_{<=r-1} < n.

    V is extended by an orthonormal basis A of the complement of the degree
    scan's range(V_{<=r-1}); the scaling gains a final block at the
    fractional exponent r - 1/2 and W a distance-matrix block
    psi_{2r-1} A^T D^(2r-1) A.
    """
    r = kernel.regularity
    if r == math.inf:
        raise ValueError("finitely smooth pipeline requires finite regularity")
    r = int(r)
    q = np.hstack(_degree_scan(kernel, _unit_nodes(nodes)[0], rank_tol)[0])
    if q.shape[1] == nodes.n:
        raise ValueError("V_{<=r-1} has full row rank; the smooth pipeline applies")
    a, w_bot = _complement_block(kernel, nodes, q)
    blocks = [(Exponent(t), w) for t, w in enumerate(block_widths(nodes.d, r - 1))]
    blocks.append((Exponent(2 * r - 1, 2), a.shape[1]))
    w = _blockdiag(wronskian(kernel, nodes.d, r - 1), w_bot)
    return GkfForm(np.hstack([vandermonde(nodes, r - 1), a]), DiagonalScaling(tuple(blocks)), w)


# ---------------------------------------------------------------------------
# oracle: principal angles of arbitrary spans
# ---------------------------------------------------------------------------


def _orth(a: np.ndarray) -> np.ndarray:
    """Orthonormal basis of the range of ``a``: the left singular vectors whose
    singular values exceed max(s) * machine epsilon * max(rows, cols)."""
    u, s, vh = np.linalg.svd(a, full_matrices=False)
    tol = np.amax(s, initial=0.0) * np.finfo(s.dtype).eps * max(u.shape[0], vh.shape[1])
    return u[:, : int(np.sum(s > tol))]


def _checked(a, name: str) -> np.ndarray:
    a = np.asarray_chkfinite(a)  # ValueError on inf or NaN
    if a.ndim != 2:
        raise ValueError(f"{name}: expected 2D array, got shape {a.shape}")
    return a


def _principal_angles(a, b) -> np.ndarray:
    """Principal angles between the column spans of ``a`` and ``b``, largest first.

    Knyazev & Argentati (SIAM J. Sci. Comput. 23, 2002): cosines are the
    singular values of Qa^T Qb (Bjorck & Golub); where a cosine is at least
    1/sqrt(2) the angle is small and arccos loses accuracy, so it is read as
    the arcsine of a singular value of the residual of the projection onto
    the wider basis.  Bases, rank threshold and ordering are those of the
    reference implementation the tests compare against.
    """
    qa = _orth(_checked(a, "a"))
    b = _checked(b, "b")
    if b.shape[0] != qa.shape[0]:
        raise ValueError(
            f"a and b must have the same number of rows, got {qa.shape[0]} and {b.shape[0]}"
        )
    return _angles(qa, _orth(b))


# ---------------------------------------------------------------------------
# serialize: series JSON, as ``matrix_series_from_json`` reads it
# ---------------------------------------------------------------------------


def matrix_series_to_json(k: MatrixSeries) -> dict:
    """The series JSON of ``k``: exponents as {num, den}, an infinite
    ``trunc_order`` as null, and one zero term if ``k`` has none (a matrix fixes n)."""
    def exponent(e):
        return None if e == INFINITY else {"num": e.numerator, "den": e.denominator}

    return {
        "n": k.shape[0],
        "symmetric": bool(k.symmetric),
        "trunc_order": exponent(k.trunc_order),
        "terms": [{"exponent": exponent(e), "matrix": m.tolist()} for e, m in k.terms]
        or [{"exponent": 0, "matrix": np.zeros(k.shape).tolist()}],
    }
