"""Truncated power series in a small parameter eps with exact rational exponents.

Exponents are stored as reduced pairs of integers ``num / den`` (plus a
distinguished +infinity, the pair (1, 0), for the valuation of the zero
series) so that ties between exponents -- which drive all scaling and
tightness decisions downstream -- are decided exactly, by cross-multiplication,
and no ``Fraction`` is built unless asked for.  Grids of exponents
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
from math import gcd, lcm

import numpy as np

__all__ = [
    "Exponent",
    "INFINITY",
    "as_exponent",
    "ScalarSeries",
    "MatrixSeries",
    "ValuationMatrix",
    "valuation_matrix",
    "series_matrix_inverse",
    "SingularLeadingTermError",
]


class SingularLeadingTermError(ValueError):
    """Raised when a series inverse is requested but the eps^0 coefficient is singular."""


class Exponent:
    """An exact rational exponent of eps, or +infinity (the valuation of 0).

    Stored as a reduced integer pair ``num / den`` with ``den > 0``; +infinity
    is the pair (1, 0), so cross-multiplication orders it above every finite
    exponent.  Immutable, hashable and totally ordered; supports addition,
    subtraction and multiplication by integers, with the usual +infinity
    conventions.
    """

    __slots__ = ("_num", "_den")

    def __init__(self, num=0, den=1):
        if isinstance(num, Exponent):
            if not num._den:
                raise ValueError("cannot rebuild the infinite exponent; use INFINITY")
            num = num.fraction
        if type(num) is not int or type(den) is not int or den <= 0:
            f = Fraction(num, den)  # other rationals, or the errors Fraction raises
            num, den = f.numerator, f.denominator
        g = gcd(num, den)
        self._num, self._den = num // g, den // g

    @classmethod
    def _ratio(cls, num: int, den: int) -> "Exponent":
        """num / den for ints with den > 0 (den == 0 only for INFINITY)."""
        g = gcd(num, den)
        obj = object.__new__(cls)
        obj._num, obj._den = num // g, den // g
        return obj

    @property
    def is_infinite(self) -> bool:
        return not self._den

    @property
    def num(self) -> int:
        if not self._den:
            raise ValueError("infinite exponent has no numerator")
        return self._num

    @property
    def den(self) -> int:
        if not self._den:
            raise ValueError("infinite exponent has no denominator")
        return self._den

    @property
    def fraction(self) -> Fraction:
        if not self._den:
            raise ValueError("infinite exponent has no rational value")
        return Fraction(self._num, self._den)

    def __add__(self, other):
        other = as_exponent(other)
        a, b = self._den, other._den
        if not (a and b):
            return INFINITY
        if a == b:
            return Exponent._ratio(self._num + other._num, a)
        return Exponent._ratio(self._num * b + other._num * a, a * b)

    __radd__ = __add__

    def __sub__(self, other):
        other = as_exponent(other)
        if not other._den:
            raise ValueError("cannot subtract an infinite exponent")
        return self + Exponent._ratio(-other._num, other._den)

    def __mul__(self, k):
        if not isinstance(k, int):
            return NotImplemented
        if not self._den:
            return INFINITY
        return Exponent._ratio(self._num * k, self._den)

    __rmul__ = __mul__

    def __neg__(self):
        if not self._den:
            raise ValueError("cannot negate the infinite exponent")
        return Exponent._ratio(-self._num, self._den)

    def __eq__(self, other):
        if not isinstance(other, (Exponent, int, Fraction)):
            return NotImplemented
        other = as_exponent(other)
        return self._num == other._num and self._den == other._den

    def __lt__(self, other):
        other = as_exponent(other)
        return self._num * other._den < other._num * self._den

    def __le__(self, other):
        other = as_exponent(other)
        return self._num * other._den <= other._num * self._den

    def __gt__(self, other):
        other = as_exponent(other)
        return self._num * other._den > other._num * self._den

    def __ge__(self, other):
        other = as_exponent(other)
        return self._num * other._den >= other._num * self._den

    def __hash__(self):
        return hash((self._num, self._den))

    def __float__(self):
        return self._num / self._den if self._den else float("inf")

    def __str__(self):
        return str(self.fraction) if self._den else "inf"

    def __repr__(self):
        return f"Exponent({self})"


#: The valuation of the zero series.
INFINITY = Exponent._ratio(1, 0)


def as_exponent(x) -> Exponent:
    """Coerce an int, Fraction or Exponent into an Exponent."""
    if isinstance(x, Exponent):
        return x
    if isinstance(x, (int, Fraction)):
        return Exponent(x)
    raise TypeError(f"cannot interpret {x!r} as an exponent")


#: Default relative tolerance of every rank decision on a matrix series (Schur
#: chains, series inverses, the GKF's W and V): a singular-value ratio at or
#: below it counts as singular.
SERIES_RANK_TOL = 1e-10


def is_singular(mat: np.ndarray, tol: float) -> bool:
    """Singular-value ratio test: sigma_min <= tol * sigma_max, or mat is zero.

    The singular values of a symmetric matrix are its eigenvalue magnitudes,
    read off ``eigvalsh``; any other matrix (the leading term of a series
    not flagged symmetric) goes through the SVD.
    """
    if np.array_equal(mat, mat.T):
        sv = np.abs(np.linalg.eigvalsh(mat))
    else:
        sv = np.linalg.svd(mat, compute_uv=False)
    return sv.max() == 0.0 or sv.min() <= tol * sv.max()


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
    den = lcm(*(e.den for e in exps))
    return [e._num * (den // e._den) for e in exps], den


class ScalarSeries:
    """A truncated real power series in eps with rational exponents: a view of
    a 1 x 1 ``MatrixSeries``, whose algebra it runs on, with float coefficients.

    Stored coefficients are never exactly zero; exponents are strictly
    increasing and strictly below ``trunc_order``.
    """

    __slots__ = ("_m",)

    def __init__(self, terms=(), trunc_order=None):
        items = terms.items() if hasattr(terms, "items") else terms
        self._m = MatrixSeries((1, 1), [(e, [[c]]) for e, c in items], trunc_order)

    @classmethod
    def _of(cls, m: "MatrixSeries") -> "ScalarSeries":
        obj = object.__new__(cls)
        obj._m = m
        return obj

    @property
    def terms(self):
        return tuple((e, float(m[0, 0])) for e, m in self._m.terms)

    @property
    def trunc_order(self) -> Exponent:
        return self._m.trunc_order

    @property
    def is_zero(self) -> bool:
        return self._m.is_zero

    @property
    def valuation(self) -> Exponent:
        return self._m.valuation

    def leading(self):
        """Return (valuation, leading coefficient); (INFINITY, 0.0) for the zero series."""
        return self.terms[0] if self._m.terms else (INFINITY, 0.0)

    def coefficient(self, e) -> float:
        return float(self._m.coefficient(e)[0, 0])

    def __add__(self, other):
        if not isinstance(other, ScalarSeries):
            return NotImplemented
        return ScalarSeries._of(self._m + other._m)

    def __neg__(self):
        return ScalarSeries._of(-self._m)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, float)):
            return ScalarSeries([(e, c * other) for e, c in self.terms], self.trunc_order)
        if not isinstance(other, ScalarSeries):
            return NotImplemented
        return ScalarSeries._of(self._m @ other._m)

    __rmul__ = __mul__

    def evaluate(self, eps: float) -> float:
        return float(self._m.evaluate(eps)[0, 0])

    def __repr__(self):
        body = " + ".join(f"{c:g}*eps^{e}" for e, c in self.terms) or "0"
        return f"ScalarSeries({body}; o(eps^{self.trunc_order}))"


def _eps_power(eps: float, e: Exponent) -> float:
    """eps^e, read off the integer pair (float(e) is num/den, as for a Fraction)."""
    if e.is_infinite:
        return 0.0
    if e._num == 0:
        return 1.0
    if eps == 0.0:
        if e._num < 0:
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
        if e.is_infinite:
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

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_constant(cls, mat, trunc_order=INFINITY, symmetric=False) -> "MatrixSeries":
        mat = np.asarray(mat, dtype=float)
        return cls(mat.shape, [(Exponent(0), mat)], trunc_order, symmetric)

    @classmethod
    def identity(cls, n, trunc_order=INFINITY) -> "MatrixSeries":
        return cls.from_constant(np.eye(n), trunc_order, symmetric=True)

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
    def trunc_order(self) -> Exponent:
        return self._trunc

    @property
    def is_zero(self) -> bool:
        return not self._terms

    @property
    def valuation(self) -> Exponent:
        return self._terms[0][0] if self._terms else INFINITY

    def _effective_valuation(self) -> Exponent:
        return self.valuation if self._terms else self._trunc

    def coefficient(self, e) -> np.ndarray:
        e = as_exponent(e)
        for ee, m in self._terms:
            if ee == e:
                return m.copy()
        return np.zeros(self.shape)

    def entry(self, i, j) -> ScalarSeries:
        return ScalarSeries([(e, m[i, j]) for e, m in self._terms], self._trunc)

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other):
        return self._plus(other, 1.0)

    def __neg__(self):
        terms = [(e, _frozen(-m)) for e, m in self._terms]
        return MatrixSeries._from_terms(self.shape, terms, self._trunc, self.symmetric)

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
                if k * trunc._den < trunc._num * den:
                    acc[k] = acc[k] + m1 @ m2 if k in acc else m1 @ m2
        terms = [(Exponent._ratio(k, den), _frozen(acc[k])) for k in sorted(acc) if acc[k].any()]
        return MatrixSeries._from_terms((self.shape[0], other.shape[1]), terms, trunc, False)

    def shift(self, delta) -> "MatrixSeries":
        """Multiply by eps**delta."""
        delta = as_exponent(delta)
        if delta.is_infinite and self._terms:
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
        low = Exponent._ratio(min(lnums) + min(rnums), den)
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
                e = Exponent._ratio(int(keys[a]), den)
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

    def congruence(self, q, noise_floor=0.0) -> "MatrixSeries":
        """Return q.T @ self @ q for a constant matrix q.

        ``noise_floor`` > 0 zeroes entries with absolute value at or below it;
        this controls the rounding noise injected by the rotation itself so
        that it cannot masquerade as genuine series terms downstream.
        """
        q = np.asarray(q, dtype=float)
        terms = []
        for e, m in self._terms:
            r = q.T @ m @ q
            if noise_floor > 0.0:
                r[np.abs(r) <= noise_floor] = 0.0
            terms.append((e, r))
        sym = self.symmetric and q.shape[0] == q.shape[1]
        return MatrixSeries((q.shape[1], q.shape[1]), terms, self._trunc, sym)

    def block_diag(self, other) -> "MatrixSeries":
        """Block-diagonal combination of two square series."""
        if self.shape[0] != self.shape[1] or other.shape[0] != other.shape[1]:
            raise ValueError("block_diag requires square blocks")
        na, nb = self.shape[0], other.shape[0]
        n = na + nb
        out = {}
        for e, m in self._terms:
            tgt = out.setdefault(e, np.zeros((n, n)))
            tgt[:na, :na] += m
        for e, m in other._terms:
            tgt = out.setdefault(e, np.zeros((n, n)))
            tgt[na:, na:] += m
        trunc = min(self._trunc, other._trunc)
        return MatrixSeries((n, n), out, trunc, self.symmetric and other.symmetric)

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


def _int_pair(x):
    """(num, den) of an int, Fraction or Exponent, without building an Exponent."""
    if isinstance(x, Exponent):
        return x._num, x._den
    if isinstance(x, (int, Fraction)):
        return x.numerator, x.denominator
    raise TypeError(f"cannot interpret {x!r} as an exponent")


class ValuationMatrix:
    """A rectangular grid of exponents (entry-wise valuations or residuals).

    The grid is stored exactly as integer numerators ``num`` over one common
    denominator ``den`` (the smallest one), with a boolean mask ``inf`` for
    the +infinity entries, whose numerators are 0.  ``num`` is int64 when its
    entries fit comfortably and a Python-int object array otherwise.
    ``Exponent`` objects are built only on access.
    """

    __slots__ = ("num", "den", "inf")

    def __init__(self, entries):
        rows = [list(row) for row in entries]
        width = len(rows[0]) if rows else 0
        if any(len(row) != width for row in rows):
            raise ValueError("ragged valuation grid")
        # non-int entries as integer pairs, INFINITY as (1, 0): no Exponent per entry
        flat = [x for row in rows for x in row]
        odd = {} if set(map(type, flat)) <= {int} else {
            i: _int_pair(x) for i, x in enumerate(flat) if type(x) is not int}
        den = lcm(*{d for _, d in odd.values()} - {0})
        nums = [x * den if type(x) is int else 0 for x in flat]
        inf = np.zeros(len(flat), dtype=bool)
        for i, (n, d) in odd.items():
            nums[i], inf[i] = (n * (den // d), False) if d else (0, True)
        num = np.array(nums, dtype=exact_int_dtype(max_abs(nums)))
        self._set(num.reshape(len(rows), width), den, inf.reshape(len(rows), width))

    @classmethod
    def _from_arrays(cls, num, den, inf) -> "ValuationMatrix":
        obj = object.__new__(cls)
        obj._set(num, den, inf)
        return obj

    def _set(self, num, den, inf):
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
            tuple(INFINITY if f else Exponent(x, den) for x, f in zip(nrow, frow))
            for nrow, frow in zip(self.num.tolist(), self.inf.tolist())
        )

    @property
    def shape(self):
        return self.num.shape

    def __getitem__(self, ij):
        i, j = ij
        return INFINITY if self.inf[i, j] else Exponent(int(self.num[i, j]), self.den)

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
    return ValuationMatrix._from_arrays(lookup[first], den, first < 0)


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
    if not h.is_zero and h.valuation < Exponent(0):
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
    terms = [(Exponent._ratio(t, den), _frozen(m)) for t, m in sorted(y.items()) if m.any()]
    return MatrixSeries._from_terms(h.shape, terms, trunc, False)
