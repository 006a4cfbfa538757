"""Truncated power series in a small parameter eps with exact rational exponents.

Every exponent is a ``fractions.Fraction`` (``Exponent`` is another name for
it), and ``INFINITY`` is ``math.inf``, the valuation of the zero series, so
ties between exponents -- which drive all scaling and tightness decisions
downstream -- are decided exactly.  ``as_exponent`` is the gate every
constructor takes its exponents through.  Grids of exponents
(``ValuationMatrix``) are integer numerator arrays over one common
denominator, so grid-wide comparisons are exact integer array operations.
Coefficients are double-precision reals.

Every series carries an explicit truncation horizon ``trunc_order``: stored
exponents are strictly below it, and the series is understood as
``sum(stored terms) + o(eps**trunc_order)``.  Arithmetic shrinks the horizon
conservatively.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, inf, lcm

import numpy as np

__all__ = [
    "Exponent",
    "INFINITY",
    "as_exponent",
    "MatrixSeries",
    "ValuationMatrix",
    "valuation_matrix",
    "series_matrix_inverse",
    "SingularLeadingTermError",
]


class SingularLeadingTermError(ValueError):
    """Raised when a series inverse is requested but the eps^0 coefficient is singular."""


#: The exponent type, under the name callers build ``Exponent(num, den)`` with.
Exponent = Fraction

#: The valuation of the zero series; it orders above every Fraction and absorbs addition.
INFINITY = inf


def as_exponent(x) -> Fraction:
    """The one input gate of every exponent: an int becomes a Fraction, a Fraction
    or INFINITY passes through, and anything else (floats, numpy integers) is a TypeError."""
    if isinstance(x, Fraction) or (type(x) is float and x == INFINITY):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"cannot interpret {x!r} as an exponent")


#: Default relative tolerance of every rank decision on a matrix series (Schur
#: chains, series inverses, the GKF's W and V): a singular-value ratio at or
#: below it counts as singular.
SERIES_RANK_TOL = 1e-10


def significant(values, tol: float, scale=None) -> np.ndarray:
    """The mask of |values| above ``tol * scale``, the one cut of every rank and noise
    decision: a value at or below it counts as zero.  ``scale`` defaults to the
    largest |value|, so an all-zero array keeps nothing."""
    mag = np.abs(values)
    return mag > tol * (mag.max(initial=0.0) if scale is None else scale)


def is_singular(mat: np.ndarray, tol: float) -> bool:
    """Singular-value ratio test: sigma_min <= tol * sigma_max, or mat is zero.

    The singular values of a symmetric matrix are its eigenvalue magnitudes,
    read off ``eigvalsh``; any other matrix (the leading term of a series
    not flagged symmetric) goes through the SVD.
    """
    if np.array_equal(mat, mat.T):
        sv = np.linalg.eigvalsh(mat)
    else:
        sv = np.linalg.svd(mat, compute_uv=False)
    return not significant(sv, tol).all()


#: int64 arithmetic stays exact while every intermediate value is below this.
_INT64_SAFE = 2**62


def exact_int_dtype(bound: int):
    """int64 when every integer of a computation is at most ``bound`` in
    magnitude, else Python ints in an object array (exact at any size)."""
    return np.int64 if bound < _INT64_SAFE else object


def max_abs(a) -> int:
    """Largest magnitude in an integer array or list of ints (0 when empty)."""
    if isinstance(a, np.ndarray):
        return int(np.abs(a).max()) if a.size else 0
    return max(map(abs, a), default=0)


def exponent_ints(exps):
    """(numerators, common denominator) of finite exponents, as Python ints."""
    exps = [as_exponent(e) for e in exps]
    if float in map(type, exps):  # INFINITY is the one float as_exponent passes
        raise ValueError("infinite exponent has no denominator")
    den = lcm(*(e.denominator for e in exps))
    return [e.numerator * (den // e.denominator) for e in exps], den


def _eps_power(eps: float, e: Fraction) -> float:
    """eps^e (float(e) is num/den, correctly rounded)."""
    if e == INFINITY:
        return 0.0
    if e == 0:
        return 1.0
    if eps == 0.0:
        if e < 0:
            raise ValueError("negative exponent at eps=0")
        return 0.0
    try:
        return float(eps) ** float(e)
    except OverflowError:
        raise ValueError(f"eps^{e} overflows a double at eps = {eps:g}") from None


def _normalize_matrix_terms(terms, shape, symmetric):
    items = []
    for e, mat in terms.items() if hasattr(terms, "items") else terms:
        e = as_exponent(e)
        if e == INFINITY:
            raise ValueError("term exponents must be finite")
        mat = np.asarray(mat, dtype=float)
        if mat.shape != shape:
            raise ValueError(f"coefficient shape {mat.shape} does not match {shape}")
        items.append((e, mat))
    if any(b[0] <= a[0] for a, b in zip(items, items[1:])):  # merge repeats, then sort
        acc = {}
        for e, mat in items:
            acc[e] = acc[e] + mat if e in acc else mat
        items = sorted(acc.items(), key=lambda t: t[0])
    out = []
    for e, mat in items:
        mat = 0.5 * (mat + mat.T) if symmetric else mat.copy()
        if mat.any():
            out.append((e, _frozen(mat)))
    return out


def _frozen(mat: np.ndarray) -> np.ndarray:
    mat.setflags(write=False)
    return mat


class MatrixSeries:
    """A truncated matrix-valued power series in eps.

    ``symmetric=True`` (square matrices only) symmetrizes every stored
    coefficient at construction, so the symmetry invariant holds exactly.
    Coefficient matrices are read-only; instances are immutable values.
    """

    __slots__ = ("shape", "_terms", "_trunc", "symmetric")

    def __init__(self, shape, terms=(), trunc_order=None, symmetric=False):
        if isinstance(shape, int):
            shape = (shape, shape)
        shape = (int(shape[0]), int(shape[1]))
        if symmetric and shape[0] != shape[1]:
            raise ValueError("symmetric flag requires a square shape")
        items = _normalize_matrix_terms(terms, shape, symmetric)
        if trunc_order is None:
            trunc = items[-1][0] + 1 if items else INFINITY
        else:
            trunc = as_exponent(trunc_order)
        self.shape = shape
        self._terms = tuple((e, m) for e, m in items if e < trunc)
        self._trunc = trunc
        self.symmetric = bool(symmetric)

    @classmethod
    def _from_terms(cls, shape, terms, trunc, symmetric) -> "MatrixSeries":
        """A series from terms in normal form: finite exponents strictly increasing below
        ``trunc``; nonzero read-only coefficients, exactly symmetric if ``symmetric``."""
        obj = object.__new__(cls)
        obj.shape, obj._terms, obj._trunc, obj.symmetric = shape, tuple(terms), trunc, symmetric
        return obj

    # -- basic accessors ---------------------------------------------------

    @property
    def n(self) -> int:
        if self.shape[0] != self.shape[1]:
            raise ValueError("matrix series is not square")
        return self.shape[0]

    @property
    def terms(self):
        return self._terms

    @property
    def trunc_order(self) -> Fraction:
        return self._trunc

    @property
    def is_zero(self) -> bool:
        return not self._terms

    @property
    def valuation(self) -> Fraction:
        return self._terms[0][0] if self._terms else INFINITY

    def _effective_valuation(self) -> Fraction:
        return self.valuation if self._terms else self._trunc

    def coefficient(self, e) -> np.ndarray:
        e = as_exponent(e)
        for ee, m in self._terms:
            if ee == e:
                return m.copy()
        return np.zeros(self.shape)

    def entry(self, i, j) -> "MatrixSeries":
        """The 1 x 1 series of entry (i, j); kept because the benchmark tracer wraps it by name."""
        return self.submatrix([i], [j])

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other):
        return self._plus(other, 1.0)

    def __sub__(self, other):
        return self._plus(other, -1.0)

    def _plus(self, other, sign):
        """self + sign * other, normalized once."""
        if not isinstance(other, MatrixSeries):
            return NotImplemented
        if other.shape != self.shape:
            raise ValueError(f"shape mismatch: {self.shape} vs {other.shape}")
        terms = [*self._terms, *((e, sign * m) for e, m in other._terms)]
        trunc = min(self._trunc, other._trunc)
        return MatrixSeries(self.shape, terms, trunc, self.symmetric and other.symmetric)

    def __matmul__(self, other):
        if not isinstance(other, MatrixSeries):
            return NotImplemented
        if self.shape[1] != other.shape[0]:
            raise ValueError(f"shape mismatch: {self.shape} @ {other.shape}")
        trunc = min(
            self._effective_valuation() + other._trunc,
            other._effective_valuation() + self._trunc,
        )
        # products summed on integer exponent keys over one denominator;
        # those at or past the horizon are never formed
        nums, den = exponent_ints([e for e, _ in self._terms + other._terms])
        acc = {}
        for a, (_, m1) in zip(nums, self._terms):
            for b, (_, m2) in zip(nums[len(self._terms):], other._terms):
                k = a + b
                if trunc == INFINITY or k * trunc.denominator < trunc.numerator * den:
                    acc[k] = acc[k] + m1 @ m2 if k in acc else m1 @ m2
        terms = [(Fraction(k, den), _frozen(acc[k])) for k in sorted(acc) if acc[k].any()]
        return MatrixSeries._from_terms((self.shape[0], other.shape[1]), terms, trunc, False)

    def shift(self, delta) -> "MatrixSeries":
        """Multiply by eps**delta."""
        delta = as_exponent(delta)
        if delta == INFINITY and self._terms:
            raise ValueError("term exponents must be finite")
        terms = [(e + delta, m) for e, m in self._terms]
        return MatrixSeries._from_terms(self.shape, terms, self._trunc + delta, self.symmetric)

    def truncate(self, order) -> "MatrixSeries":
        trunc = min(self._trunc, as_exponent(order))
        terms = [(e, m) for e, m in self._terms if e < trunc]
        return MatrixSeries._from_terms(self.shape, terms, trunc, self.symmetric)

    def scale_rows_cols(self, left, right) -> "MatrixSeries":
        """Entry-wise exponent shift: diag(eps^left) @ self @ diag(eps^right).

        The horizon shrinks conservatively by the smallest total shift.
        """
        left, right = list(left), list(right)
        nl, nr = self.shape
        if len(left) != nl or len(right) != nr:
            raise ValueError("scaling length mismatch")
        nums, den = exponent_ints([*left, *right, *(e for e, _ in self._terms)])
        lnums, rnums = nums[:nl], nums[nl:nl + nr]
        sym = self.symmetric and lnums == rnums
        low = Fraction(min(lnums) + min(rnums), den)
        if min(lnums) == max(lnums) and min(rnums) == max(rnums):  # uniform: a shift
            terms = [(e + low, m) for e, m in self._terms]
            return MatrixSeries._from_terms(self.shape, terms, self._trunc + low, sym)
        trunc = self._trunc + low
        dtype = exact_int_dtype(3 * max_abs(nums))
        shift = np.asarray(lnums, dtype=dtype)[:, None] + np.asarray(rnums, dtype=dtype)[None, :]
        # every nonzero coefficient moves to exponent e + left[i] + right[j]:
        # gather them all, then group by target exponent
        keys, rows, cols, vals = [], [], [], []
        for e_num, (_, m) in zip(nums[nl + nr:], self._terms):
            ii, jj = np.nonzero(m)
            keys.append(shift[ii, jj] + e_num)
            rows.append(ii)
            cols.append(jj)
            vals.append(m[ii, jj])
        out = []
        if keys:
            keys = np.concatenate(keys)
            order = np.argsort(keys, kind="stable")
            keys, rows, cols, vals = (
                keys[order], np.concatenate(rows)[order], np.concatenate(cols)[order],
                np.concatenate(vals)[order])
            cuts = [0, *(np.flatnonzero(keys[1:] != keys[:-1]) + 1).tolist(), len(keys)]
            for a, b in zip(cuts, cuts[1:]):
                e = Fraction(int(keys[a]), den)
                if not e < trunc:
                    break
                mat = np.zeros(self.shape)
                mat[rows[a:b], cols[a:b]] = vals[a:b]
                out.append((e, _frozen(mat)))
        return MatrixSeries._from_terms(self.shape, out, trunc, sym)

    def submatrix(self, rows, cols) -> "MatrixSeries":
        idx = np.ix_(np.asarray(rows), np.asarray(cols))
        terms = [(e, m[idx]) for e, m in self._terms]
        terms = [(e, _frozen(m)) for e, m in terms if m.any()]
        return MatrixSeries._from_terms((len(rows), len(cols)), terms, self._trunc, False)

    def permuted(self, perm) -> "MatrixSeries":
        """Simultaneous row/column permutation: self[perm][:, perm]."""
        idx = np.ix_(np.asarray(perm), np.asarray(perm))
        terms = [(e, _frozen(m[idx])) for e, m in self._terms]
        return MatrixSeries._from_terms(self.shape, terms, self._trunc, self.symmetric)

    def congruence(self, q) -> "MatrixSeries":
        """Return q.T @ self @ q for a constant matrix q, term by term.

        The rotation's rounding noise is kept; a caller that must not read it
        as series terms prunes the result (``degenerate._prune``).
        """
        q = np.asarray(q, dtype=float)
        terms = [(e, q.T @ m @ q) for e, m in self._terms]
        sym = self.symmetric and q.shape[0] == q.shape[1]
        return MatrixSeries((q.shape[1], q.shape[1]), terms, self._trunc, sym)

    def evaluate(self, eps: float) -> np.ndarray:
        if eps < 0:
            raise ValueError("eps must be nonnegative")
        total = np.zeros(self.shape)
        for e, m in self._terms:
            total += _eps_power(eps, e) * m
        return total

    def __eq__(self, other):
        if not isinstance(other, MatrixSeries):
            return NotImplemented
        if self.shape != other.shape or self._trunc != other._trunc:
            return False
        if len(self._terms) != len(other._terms):
            return False
        return all(
            e1 == e2 and np.array_equal(m1, m2)
            for (e1, m1), (e2, m2) in zip(self._terms, other._terms)
        )

    def __repr__(self):
        exps = ", ".join(str(e) for e, _ in self._terms)
        return (
            f"MatrixSeries(shape={self.shape}, exponents=[{exps}], "
            f"o(eps^{self._trunc}))"
        )


class ValuationMatrix:
    """A rectangular grid of exponents (entry-wise valuations or residuals).

    The grid is stored exactly as integer numerators ``num`` over one common
    denominator ``den`` (the smallest one), with a boolean mask ``inf`` for
    the +infinity entries, whose numerators are 0.  ``num`` is int64 when its
    entries fit comfortably and a Python-int object array otherwise; the
    constructor brings any (num, den, inf) to this form.  An entry reads back
    as a ``Fraction``, or as ``INFINITY``, built only on access.
    """

    __slots__ = ("num", "den", "inf")

    def __init__(self, num, den, inf):
        num, inf = np.asarray(num), np.asarray(inf)
        if num.ndim != 2 or num.shape != inf.shape or num.dtype.kind not in "iuO":
            raise ValueError("a valuation grid needs 2-D integer numerators and an infinity "
                             f"mask of one shape, got {num.dtype} {num.shape} and {inf.shape}")
        if not isinstance(den, (int, np.integer)) or den < 1:
            raise ValueError(f"a valuation grid's denominator must be a positive int, got {den!r}")
        # canonical form: zero numerators at infinity, smallest denominator
        num = np.where(inf, 0, num)
        g = gcd(den, int(np.gcd.reduce(num.ravel())) if num.size and den > 1 else 0)
        if g > 1:
            num, den = num // g, den // g
        num = np.asarray(num, dtype=exact_int_dtype(max_abs(num)))
        inf = np.array(inf, dtype=bool)
        num.setflags(write=False)
        inf.setflags(write=False)
        self.num, self.den, self.inf = num, int(den), inf

    @property
    def entries(self):
        den = self.den
        return tuple(
            tuple(INFINITY if f else Fraction(x, den) for x, f in zip(nrow, frow))
            for nrow, frow in zip(self.num.tolist(), self.inf.tolist())
        )

    @property
    def shape(self):
        return self.num.shape

    def __getitem__(self, ij):
        i, j = ij
        return INFINITY if self.inf[i, j] else Fraction(int(self.num[i, j]), self.den)

    @property
    def is_symmetric(self) -> bool:
        n, m = self.shape
        return (n == m and np.array_equal(self.inf, self.inf.T)
                and np.array_equal(self.num, self.num.T))

    def __eq__(self, other):
        if not isinstance(other, ValuationMatrix):
            return NotImplemented
        return (self.shape == other.shape and self.den == other.den
                and np.array_equal(self.inf, other.inf)
                and np.array_equal(self.num, other.num))

    def __repr__(self):
        body = "; ".join(" ".join(str(e) for e in row) for row in self.entries)
        return f"ValuationMatrix([{body}])"


def valuation_matrix(k: MatrixSeries) -> ValuationMatrix:
    """Entry-wise valuations of a matrix series; identically-zero entries map to INFINITY."""
    first = np.full(k.shape, -1, dtype=np.intp)  # index of each entry's leading term
    for t in range(len(k.terms) - 1, -1, -1):
        first[k.terms[t][1] != 0.0] = t
    nums, den = exponent_ints([e for e, _ in k.terms])
    lookup = np.zeros(len(k.terms) + 1, dtype=exact_int_dtype(max_abs(nums)))
    lookup[:-1] = nums  # the last slot, reached by first == -1, stays 0
    return ValuationMatrix(lookup[first], den, first < 0)


def series_matrix_inverse(h: MatrixSeries, order,
                          cond_tol: float = SERIES_RANK_TOL) -> MatrixSeries:
    """Inverse of a square matrix series, truncated at min(order, h's horizon).

    Requires the eps^0 coefficient H_0 to be invertible (singular-value ratio
    above ``cond_tol``); the result y satisfies h @ y = I + o(eps**order).
    With h = H_0 + sum_j A_j eps^(e_j), e_j > 0, its coefficients are
    Y_0 = H_0^-1 and Y_t = -Y_0 sum_j A_j Y_(t - e_j), over the sums t of
    the e_j, computed on integer exponent keys over one denominator.
    """
    if h.shape[0] != h.shape[1]:
        raise ValueError("matrix series must be square")
    trunc = min(as_exponent(order), h.trunc_order)
    if not h.is_zero and h.valuation < 0:
        raise ValueError("series with negative exponents cannot be inverted here")
    h0 = h.coefficient(0)
    if h.shape[0] and is_singular(h0, cond_tol):
        raise SingularLeadingTermError("leading term singular")
    rest = [(e, a) for e, a in h.terms if 0 < e < trunc]
    # a finite horizon is needed once there is a term to iterate on
    nums, den = exponent_ints([*(e for e, _ in rest), trunc] if rest else [])
    steps, limit = nums[:-1], nums[-1] if nums else 0
    keys = {0}  # every sum of the steps below the limit
    while new := {t + k for t in keys for k in steps if t + k < limit} - keys:
        keys |= new
    y = {0: np.linalg.inv(h0)}
    for t in sorted(keys)[1:]:
        parts = [a @ y[t - k] for k, (_, a) in zip(steps, rest) if t - k in y]
        y[t] = -(y[0] @ sum(parts[1:], parts[0]))
    terms = [(Fraction(t, den), _frozen(m)) for t, m in sorted(y.items()) if m.any()]
    return MatrixSeries._from_terms(h.shape, terms, trunc, False)
