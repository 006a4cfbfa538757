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
When the symmetrized assignment duals dip below the bound, the nonnegative
optimum is recovered with an exact rational simplex over the same
constraints.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm

import numpy as np

from .series import (
    Exponent,
    MatrixSeries,
    ValuationMatrix,
    as_exponent,
    exact_int_dtype,
    exponent_ints,
    max_abs,
    valuation_matrix,
)

__all__ = [
    "DiagonalScaling",
    "ScaledForm",
    "check_valid",
    "tight_entries",
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
            if nu.is_infinite:
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
    def num_blocks(self) -> int:
        return len(self.valuations)

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


@dataclass(frozen=True)
class ScaledForm:
    """The data of K = Delta (H + o(1)) Delta: the scaling and the dense H."""

    scaling: DiagonalScaling
    H: np.ndarray
    block_sizes: tuple

    def __post_init__(self):
        h = np.asarray(self.H, dtype=float)
        if h.shape[0] != h.shape[1] or h.shape[0] != self.scaling.n:
            raise ValueError("H shape does not match the scaling")
        if not np.array_equal(h, h.T):
            h = 0.5 * (h + h.T)
        h.setflags(write=False)
        object.__setattr__(self, "H", h)
        object.__setattr__(self, "block_sizes", tuple(int(b) for b in self.block_sizes))
        if self.block_sizes != self.scaling.block_sizes:
            raise ValueError("block sizes do not match the scaling")


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


def _tight_mask(omega: ValuationMatrix, scaling: DiagonalScaling) -> np.ndarray:
    valid, residual = check_valid(omega, scaling)
    if not valid:
        raise ValueError("scaling is not valid for this valuation matrix")
    return ~residual.inf & (residual.num == 0)


def tight_entries(omega: ValuationMatrix, scaling: DiagonalScaling):
    """Index pairs where the validity bound holds with (rational) equality."""
    rows, cols = np.nonzero(_tight_mask(omega, scaling))
    return set(zip(rows.tolist(), cols.tolist()))


def extract_H(k: MatrixSeries, scaling: DiagonalScaling) -> ScaledForm:
    """Leading coefficients of K at the scaling's tight entries, 0 elsewhere."""
    todo = _tight_mask(valuation_matrix(k), scaling)
    h = np.zeros(k.shape)
    for _, m in k.terms:  # ascending exponents: the first nonzero one leads
        hit = todo & (m != 0.0)
        h[hit] = m[hit]
        todo &= ~hit
    return ScaledForm(scaling, h, scaling.block_sizes)


# ---------------------------------------------------------------------------
# Hungarian auto-scaling
# ---------------------------------------------------------------------------


def _hungarian(cost):
    """Min-cost perfect assignment on an integer square matrix.

    Returns (row_of_col, u, v): the matching (1-indexed internally, returned
    0-indexed) and integer dual potentials with ``u[i] + v[j] <= cost[i][j]``
    for all i, j and equality on matched pairs.  Each row is added along a
    shortest augmenting path (Kuhn's method with potentials).  The scan over
    the columns is vectorized and takes the first column of least reduced
    cost, so pivots and duals are those of the plain column-by-column loop.
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
        # Potential updates are deferred: ``shift`` is the sum of this row's
        # deltas so far.  A free column's least reduced cost is key - shift;
        # a tree column that joined at shift s moves by (final shift - s).
        shift = 0
        tree, joined = [0], [0]
        free = np.ones(n + 1, dtype=bool)
        free[0] = False
        way = np.zeros(n + 1, dtype=np.intp)
        key = c[i] - u[i] - v
        key[0] = used_key
        cur = np.empty_like(key)
        better = np.empty(n + 1, dtype=bool)
        while True:
            j0 = int(key.argmin())
            shift = key[j0]
            if match[j0] == 0:
                break
            tree.append(j0)
            joined.append(shift)
            free[j0] = False
            key[j0] = used_key
            i0 = match[j0]
            np.subtract(c[i0], v, out=cur)
            cur += shift - u[i0]
            np.less(cur, key, out=better)
            better &= free
            np.copyto(key, cur, where=better)
            np.copyto(way, j0, where=better)
        moved = shift - np.asarray(joined, dtype=dtype)
        u[match[tree]] += moved
        v[tree] -= moved
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
    scale = omega.den
    finite = omega.num[~omega.inf]
    lb_num = min(int(finite.min()), 0)
    lb = Fraction(lb_num, scale)
    big = max(int(finite.max()), 0) * n + 1 + abs(lb_num) * n
    cost = np.array(omega.num, dtype=exact_int_dtype(big))
    cost[omega.inf] = big
    assignment, u, v = _hungarian(cost)
    if omega.inf[np.arange(n), assignment].any():
        # every perfect assignment crosses an identically-zero entry, so the
        # big-M duals are meaningless; the bounded program is still feasible
        nu = _bounded_optimum(omega, lb)
        return [Exponent(f) for f in nu]
    twice = [u[i] + v[i] for i in range(n)]  # 2 * scale * nu
    if not _feasible(omega, twice):
        raise RuntimeError("internal error: symmetrized assignment duals are infeasible")
    nu = [Fraction(t, 2 * scale) for t in twice]
    if any(f < lb for f in nu):
        nu = _bounded_optimum(omega, lb)
    return [Exponent(f) for f in nu]


def _feasible(omega, twice):
    """Whether nu = twice / (2 den) satisfies nu_i + nu_j <= Omega_ij."""
    dtype = exact_int_dtype(2 * max_abs(omega.num) + 2 * max_abs(twice))
    t = np.asarray(twice, dtype=dtype)
    over = t[:, None] + t[None, :] > 2 * np.asarray(omega.num, dtype=dtype)
    return not np.any(over & ~omega.inf)


def _bounded_optimum(omega, lb):
    """Exact nonneg-shifted optimum of the scaling program via rational simplex."""
    n = omega.shape[0]
    rows = []
    rhs = []
    for i in range(n):
        for j in range(i, n):
            if omega[i, j].is_infinite:
                continue
            coeff = [Fraction(0)] * n
            coeff[i] += 1
            coeff[j] += 1
            rows.append(coeff)
            rhs.append(omega[i, j].fraction - 2 * lb)
    x = _simplex_max([Fraction(1)] * n, rows, rhs)
    return [xi + lb for xi in x]


def _simplex_max(c, a, b):
    """Maximize c.x subject to a.x <= b, x >= 0 in exact rational arithmetic.

    Requires b >= 0 (the slack basis is then feasible) and a bounded optimum;
    Bland's rule prevents cycling.  Returns the optimal vertex.
    """
    m = len(a)
    n = len(c)
    tab = [[Fraction(0)] * (n + m + 1) for _ in range(m + 1)]
    for i in range(m):
        for j in range(n):
            tab[i][j] = Fraction(a[i][j])
        tab[i][n + i] = Fraction(1)
        tab[i][-1] = Fraction(b[i])
        if tab[i][-1] < 0:
            raise ValueError("simplex start requires nonnegative right-hand sides")
    for j in range(n):
        tab[m][j] = -Fraction(c[j])
    basis = list(range(n, n + m))
    while True:
        enter = next((j for j in range(n + m) if tab[m][j] < 0), None)
        if enter is None:
            break
        pivot = None
        best = None
        for i in range(m):
            if tab[i][enter] > 0:
                ratio = tab[i][-1] / tab[i][enter]
                if best is None or ratio < best or (ratio == best and basis[i] < basis[pivot]):
                    best = ratio
                    pivot = i
        if pivot is None:
            raise ValueError("scaling program is unbounded")
        prow = tab[pivot]
        pe = prow[enter]
        tab[pivot] = [x / pe for x in prow]
        for i in range(m + 1):
            if i != pivot and tab[i][enter] != 0:
                f = tab[i][enter]
                tab[i] = [x - f * y for x, y in zip(tab[i], tab[pivot])]
        basis[pivot] = enter
    x = [Fraction(0)] * n
    for i, bi in enumerate(basis):
        if bi < n:
            x[bi] = tab[i][-1]
    return x


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
    perm = sorted(range(len(exps)), key=lambda i: (exps[i]._key(), i))
    scaling = DiagonalScaling.from_exponents([exps[i] for i in perm])
    return np.array(perm), scaling
