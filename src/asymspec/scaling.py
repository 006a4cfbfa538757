"""Diagonal eps-power scalings of a symmetric matrix series.

A scaling ``Delta(eps) = diag(eps^nu_1, ..., eps^nu_n)`` is *valid* for K(eps)
when every entry satisfies ``val K_ij >= nu_i + nu_j``, and *tight* at (i, j)
when equality holds.  Tight entries determine the leading-coefficient matrix H
of the factorization ``K = Delta (H + o(1)) Delta``.

Maximally tight scalings are computed from the assignment problem on the
valuation matrix: the Hungarian algorithm run in exact integer arithmetic
yields optimal dual potentials u, v with ``u_i + v_j <= Omega_ij``; by symmetry
of Omega the average ``nu = (u + v) / 2`` is feasible and optimal for the
symmetric program maximizing ``sum nu_i``.  Validity, tightness and the
assignment costs are computed on the valuation grid's integer numerators.

Scalings are additionally constrained to be nonnegative (after shifting when
the valuation matrix itself has negative entries).  Unconstrained optima can
push an exponent negative, which yields a valid but vacuous scaling whose
leading block H_00 is identically zero; nonnegativity keeps the scaling
informative and matches the worked scalings this module is tested against.
When the symmetrized assignment duals dip below the bound, or no finite
perfect assignment exists, the bounded program (the dual of a min-cost edge
cover) takes one more Hungarian run by Gallai's cover-matching reduction; its
optimum stays half-integral (Nemhauser & Trotter 1975).

In the paper's scaled case, ``K_ij ~ eps^(nu_i + nu_j)`` with every leading
``H_ii`` nonzero, the diagonal alone fixes the answer, and the solver checks
that first.  Every feasible nu has ``nu_i <= Omega_ii / 2``, so when
``nu = diag(Omega) / 2`` is feasible it is the unique optimum.  It is also what
the assignment route would return: the identity is then an optimal
assignment, so the symmetrized duals satisfy ``u_i + v_i <= Omega_ii`` with
``sum(u + v) = tr Omega``, which forces equality; and ``Omega_ii >= lb`` with
``lb <= 0`` gives ``Omega_ii / 2 >= lb``, so the bounded program is never
needed there.  The Hungarian runs only when a diagonal entry is infinite or
this certificate fails.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm

import numpy as np

from .series import (
    INFINITY,
    MatrixSeries,
    ValuationMatrix,
    as_exponent,
    exact_int_dtype,
    exponent_ints,
    max_abs,
)

__all__ = [
    "DiagonalScaling",
    "check_valid",
    "extract_H",
    "auto_scale",
    "auto_scale_exponents",
    "auto_scale_with_permutation",
]


@dataclass(frozen=True)
class DiagonalScaling:
    """Blocks (nu, multiplicity) with strictly increasing nu."""

    valuations: tuple

    def __post_init__(self):
        vals = tuple((as_exponent(nu), int(mult)) for nu, mult in self.valuations)
        object.__setattr__(self, "valuations", vals)
        for nu, mult in vals:
            if nu == INFINITY:
                raise ValueError("scaling exponents must be finite")
            if mult < 1:
                raise ValueError("multiplicities must be >= 1")
        for (a, _), (b, _) in zip(vals, vals[1:]):
            if not a < b:
                raise ValueError("scaling valuations must be strictly increasing")

    @classmethod
    def from_exponents(cls, exps) -> "DiagonalScaling":
        """Group a nondecreasing per-index exponent list into blocks."""
        exps = [as_exponent(e) for e in exps]
        blocks = []
        for e in exps:
            if blocks and blocks[-1][0] == e:
                blocks[-1][1] += 1
            else:
                if blocks and not blocks[-1][0] < e:
                    raise ValueError("exponent list must be nondecreasing")
                blocks.append([e, 1])
        return cls(tuple((e, m) for e, m in blocks))

    @property
    def n(self) -> int:
        return sum(m for _, m in self.valuations)

    @property
    def nus(self):
        return tuple(nu for nu, _ in self.valuations)

    @property
    def block_sizes(self):
        return tuple(m for _, m in self.valuations)

    def exponents(self):
        """Expand to the length-n per-index exponent list."""
        out = []
        for nu, m in self.valuations:
            out.extend([nu] * m)
        return out


def check_valid(omega: ValuationMatrix, scaling: DiagonalScaling):
    """Residuals ``Omega_ij - (nu_i + nu_j)``; the scaling is valid iff all are >= 0."""
    n = omega.shape[0]
    if omega.shape != (n, n) or scaling.n != n:
        raise ValueError("size mismatch between valuation matrix and scaling")
    nus, nu_den = exponent_ints(scaling.exponents())
    den = lcm(omega.den, nu_den)
    a, b = den // omega.den, den // nu_den
    dtype = exact_int_dtype(max_abs(omega.num) * a + 2 * max_abs(nus) * b)
    nus = np.asarray(nus, dtype=dtype) * b
    resid = np.asarray(omega.num, dtype=dtype) * a - (nus[:, None] + nus[None, :])
    valid = not np.any(resid[~omega.inf] < 0)
    return valid, ValuationMatrix._from_arrays(resid, den, omega.inf)


def extract_H(k: MatrixSeries, scaling: DiagonalScaling) -> np.ndarray:
    """H of K = Delta (H + o(1)) Delta, read-only: the leading coefficients of K
    at the scaling's tight entries, 0 elsewhere, i.e. its eps^(nu_i + nu_j)
    terms, read after checking that none lies below."""
    n = scaling.n
    if k.shape != (n, n):
        raise ValueError("size mismatch between valuation matrix and scaling")
    nums, _ = exponent_ints(scaling.exponents() + [e for e, _ in k.terms])
    nu = np.asarray(nums[:n], dtype=exact_int_dtype(2 * max_abs(nums)))
    shift = nu[:, None] + nu[None, :]
    h = np.zeros(k.shape)
    for e, (_, m) in zip(nums[n:], k.terms):
        nz = m != 0.0
        if np.any(nz & (shift > e)):
            raise ValueError("scaling is not valid for this valuation matrix")
        hit = nz & (shift == e)
        h[hit] = m[hit]
    h.setflags(write=False)
    return h


# ---------------------------------------------------------------------------
# Hungarian auto-scaling
# ---------------------------------------------------------------------------


def _hungarian(cost):
    """Min-cost perfect assignment on an integer square matrix.

    Returns (row_of_col, u, v): the matching (1-indexed internally, returned
    0-indexed) and integer dual potentials with ``u[i] + v[j] <= cost[i][j]``
    for all i, j and equality on matched pairs.  Each row is added along a
    shortest augmenting path (Kuhn's method with potentials).  Each step reads
    one row's reduced costs in a numpy pass and takes the first free column of
    least ``minv``, so pivots and duals are those of the column-by-column loop.
    """
    cost = np.asarray(cost)
    n = cost.shape[0]
    # potentials are shortest-path distances, a few times n * max|cost|
    dtype = exact_int_dtype(16 * (n + 1) * (max_abs(cost) + 1))
    used_key = np.iinfo(np.int64).max if dtype is np.int64 else float("inf")
    c = np.zeros((n + 1, n + 1), dtype=dtype)  # row and column 0 are dummies
    c[1:, 1:] = cost
    u = np.zeros(n + 1, dtype=dtype)
    v = np.zeros(n + 1, dtype=dtype)
    match = np.zeros(n + 1, dtype=np.intp)  # match[j] = row assigned to column j
    for i in range(1, n + 1):
        match[0] = i
        j0 = 0
        minv = np.full(n + 1, used_key, dtype=dtype)  # used_key keeps argmin off used columns
        used = np.zeros(n + 1, dtype=bool)
        way = np.zeros(n + 1, dtype=np.intp)
        while match[j0]:
            used[j0] = True
            minv[j0] = used_key
            i0 = match[j0]
            cur = c[i0] - u[i0] - v
            better = (cur < minv) & ~used
            minv[better] = cur[better]
            way[better] = j0
            j0 = int(minv.argmin())
            delta = minv[j0]
            u[match[used]] += delta
            v[used] -= delta
            minv[~used] -= delta
        while j0:
            j1 = way[j0]
            match[j0] = match[j1]
            j0 = j1
    return (match[1:] - 1).tolist(), u[1:].tolist(), v[1:].tolist()


def auto_scale_exponents(omega: ValuationMatrix):
    """Per-index maximally tight symmetric scaling exponents for Omega.

    Maximizes ``sum nu_i`` subject to ``nu_i + nu_j <= Omega_ij`` and
    ``nu_i >= lb`` where lb = min(0, smallest finite entry).  Exponents are
    rationals whose denominator divides twice the lcm of the input
    denominators.
    """
    n = omega.shape[0]
    if omega.shape != (n, n):
        raise ValueError("valuation matrix must be square")
    if not omega.is_symmetric:
        raise ValueError("valuation matrix must be symmetric")
    dead = np.flatnonzero(omega.inf.all(axis=1))
    if dead.size:
        raise ValueError(
            f"structurally zero row {dead[0]}: all entries have valuation infinity")
    diag = np.diagonal(omega.num)
    if not np.diagonal(omega.inf).any() and _feasible(omega, diag):
        # the certificate: nu_i <= Omega_ii / 2 for every feasible nu, so this
        # is the optimum, and the route below returns it too (the identity is
        # an optimal assignment, so u_i + v_i <= Omega_ii with sum tr Omega
        # forces equality; and lb <= min(0, Omega_ii) gives Omega_ii / 2 >= lb)
        twice = diag.tolist()  # 2 * den * nu
    else:
        finite = omega.num[~omega.inf]
        lb_num = min(int(finite.min()), 0)
        big = max(int(finite.max()), 0) * n + 1 + abs(lb_num) * n
        cost = np.array(omega.num, dtype=exact_int_dtype(big))
        cost[omega.inf] = big
        assignment, u, v = _hungarian(cost)
        twice = [u[i] + v[i] for i in range(n)]  # 2 * den * nu
        if omega.inf[np.arange(n), assignment].any() or min(twice) < 2 * lb_num:
            # the duals dip below the bound, or every perfect assignment crosses
            # an identically-zero entry so the big-M duals are meaningless; the
            # bounded program is still feasible
            twice = _bounded_optimum(omega, lb_num)
        if min(twice) < 2 * lb_num or not _feasible(omega, twice):
            raise RuntimeError("internal error: scaling exponents are infeasible")
    return [Fraction(t, 2 * omega.den) for t in twice]


def _feasible(omega, twice):
    """Whether nu = twice / (2 den) satisfies nu_i + nu_j <= Omega_ij."""
    dtype = exact_int_dtype(2 * max_abs(omega.num) + 2 * max_abs(twice))
    t = np.asarray(twice, dtype=dtype)
    over = t[:, None] + t[None, :] > 2 * np.asarray(omega.num, dtype=dtype)
    return not np.any(over & ~omega.inf)


def _bounded_optimum(omega, lb_num):
    """``2 * den * nu`` for the optimum of the scaling program with nu >= lb.

    On the grid c = Omega - 2 lb (>= 0 where finite), the bipartite relaxation
    max sum(u + v) subject to u_i + v_j <= c_ij and u, v >= 0 is the dual of a
    min-cost edge cover.  Gallai's reduction turns that into a max-weight
    matching with weights mu_i + mu_j - c_ij, mu the row minima of c, and the
    matching's Hungarian duals p, q (shifted to be nonnegative) give
    u = mu - min(p, mu), v = mu - min(q, mu).  As for the assignment duals,
    nu = lb + (u + v) / (2 den) is then optimal for the symmetric program.
    """
    top = max_abs(omega.num) + 2 * abs(lb_num)  # bounds c and mu where finite
    dtype = exact_int_dtype(4 * top)
    c = np.asarray(omega.num, dtype=dtype) - 2 * lb_num
    # above every mu_i + mu_j, so infinite entries get weight 0 below
    c[omega.inf] = 2 * top
    mu = c.min(axis=1)
    _, u, v = _hungarian(-np.maximum(mu[:, None] + mu[None, :] - c, 0))
    dtype = exact_int_dtype(2 * (max_abs(u) + max_abs(v) + top))
    p, q = -np.asarray(u, dtype=dtype), -np.asarray(v, dtype=dtype)
    low = p.min()  # p_i + q_j >= w_ij survives the shift to p, q >= 0
    p, q, mu = p - low, q + low, mu.astype(dtype)
    return (2 * lb_num + 2 * mu - np.minimum(p, mu) - np.minimum(q, mu)).tolist()


def auto_scale(omega: ValuationMatrix) -> DiagonalScaling:
    """Maximally tight scaling for a valuation matrix ordered by valuation blocks.

    Raises if the optimal exponents are not nondecreasing along the diagonal;
    callers holding unsorted matrices should use auto_scale_with_permutation.
    """
    exps = auto_scale_exponents(omega)
    for a, b in zip(exps, exps[1:]):
        if b < a:
            raise ValueError(
                "rows are not ordered by valuation blocks; permute the matrix "
                "first (see auto_scale_with_permutation)"
            )
    return DiagonalScaling.from_exponents(exps)


def auto_scale_with_permutation(omega: ValuationMatrix):
    """Like auto_scale but also returns the stable sort permutation to apply.

    Returns (perm, scaling) where perm sorts indices by ascending exponent and
    scaling is the grouped scaling of the permuted system.
    """
    exps = auto_scale_exponents(omega)
    perm = np.argsort(exponent_ints(exps)[0], kind="stable")
    scaling = DiagonalScaling.from_exponents([exps[i] for i in perm])
    return perm, scaling
