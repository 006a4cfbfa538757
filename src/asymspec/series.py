"""Truncated power series in a small parameter eps with exact rational exponents.

Exponents are stored as exact rationals (plus a distinguished +infinity for the
valuation of the zero series) so that ties between exponents -- which drive all
scaling and tightness decisions downstream -- are decided exactly.  Grids of
exponents (``ValuationMatrix``) are integer numerator arrays over one common
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

    Immutable, hashable and totally ordered; supports addition, subtraction
    and multiplication by integers, with the usual +infinity conventions.
    """

    __slots__ = ("_value",)

    def __init__(self, num=0, den=1):
        if isinstance(num, Exponent):
            if num.is_infinite:
                raise ValueError("cannot rebuild the infinite exponent; use INFINITY")
            self._value = num._value * Fraction(1, den)
        else:
            self._value = Fraction(num, den)

    @classmethod
    def _make_infinite(cls) -> "Exponent":
        obj = object.__new__(cls)
        obj._value = None
        return obj

    @property
    def is_infinite(self) -> bool:
        return self._value is None

    @property
    def num(self) -> int:
        if self.is_infinite:
            raise ValueError("infinite exponent has no numerator")
        return self._value.numerator

    @property
    def den(self) -> int:
        if self.is_infinite:
            raise ValueError("infinite exponent has no denominator")
        return self._value.denominator

    @property
    def fraction(self) -> Fraction:
        if self.is_infinite:
            raise ValueError("infinite exponent has no rational value")
        return self._value

    def __add__(self, other):
        other = as_exponent(other)
        if self.is_infinite or other.is_infinite:
            return INFINITY
        return Exponent(self._value + other._value)

    __radd__ = __add__

    def __sub__(self, other):
        other = as_exponent(other)
        if other.is_infinite:
            raise ValueError("cannot subtract an infinite exponent")
        if self.is_infinite:
            return INFINITY
        return Exponent(self._value - other._value)

    def __mul__(self, k):
        if not isinstance(k, int):
            return NotImplemented
        if self.is_infinite:
            return INFINITY
        return Exponent(self._value * k)

    __rmul__ = __mul__

    def __neg__(self):
        if self.is_infinite:
            raise ValueError("cannot negate the infinite exponent")
        return Exponent(-self._value)

    def _key(self):
        return (1,) if self.is_infinite else (0, self._value)

    def __eq__(self, other):
        if not isinstance(other, (Exponent, int, Fraction)):
            return NotImplemented
        return self._key() == as_exponent(other)._key()

    def __lt__(self, other):
        return self._key() < as_exponent(other)._key()

    def __le__(self, other):
        return self._key() <= as_exponent(other)._key()

    def __gt__(self, other):
        return self._key() > as_exponent(other)._key()

    def __ge__(self, other):
        return self._key() >= as_exponent(other)._key()

    def __hash__(self):
        return hash(self._key())

    def __float__(self):
        return float("inf") if self.is_infinite else float(self._value)

    def __str__(self):
        return "inf" if self.is_infinite else str(self._value)

    def __repr__(self):
        return f"Exponent({self})"


#: The valuation of the zero series.
INFINITY = Exponent._make_infinite()


def as_exponent(x) -> Exponent:
    """Coerce an int, Fraction or Exponent into an Exponent."""
    if isinstance(x, Exponent):
        return x
    if isinstance(x, (int, Fraction)):
        return Exponent(x)
    raise TypeError(f"cannot interpret {x!r} as an exponent")


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
    fracs = [as_exponent(e).fraction for e in exps]
    den = lcm(*(f.denominator for f in fracs))
    return [f.numerator * (den // f.denominator) for f in fracs], den


def _normalize_scalar_terms(terms):
    acc = {}
    items = terms.items() if hasattr(terms, "items") else terms
    for e, c in items:
        e = as_exponent(e)
        if e.is_infinite:
            raise ValueError("term exponents must be finite")
        c = float(c)
        acc[e] = acc.get(e, 0.0) + c
    return sorted(((e, c) for e, c in acc.items() if c != 0.0), key=lambda t: t[0]._key())


class ScalarSeries:
    """A truncated real power series in eps with rational exponents.

    Stored coefficients are never exactly zero; exponents are strictly
    increasing and strictly below ``trunc_order``.
    """

    __slots__ = ("_terms", "_trunc")

    def __init__(self, terms=(), trunc_order=None):
        items = _normalize_scalar_terms(terms)
        if trunc_order is None:
            # default horizon: one past the largest supplied exponent
            trunc = items[-1][0] + 1 if items else INFINITY
        else:
            trunc = as_exponent(trunc_order)
        self._terms = tuple((e, c) for e, c in items if e < trunc)
        self._trunc = trunc

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

    def leading(self):
        """Return (valuation, leading coefficient); (INFINITY, 0.0) for the zero series."""
        if not self._terms:
            return (INFINITY, 0.0)
        return self._terms[0]

    def coefficient(self, e) -> float:
        e = as_exponent(e)
        for ee, c in self._terms:
            if ee == e:
                return c
        return 0.0

    def _effective_valuation(self) -> Exponent:
        # for truncation bookkeeping a stored-zero series is only known to be o(eps^trunc)
        return self.valuation if self._terms else self._trunc

    def __add__(self, other):
        if not isinstance(other, ScalarSeries):
            return NotImplemented
        trunc = min(self._trunc, other._trunc, key=lambda e: e._key())
        return ScalarSeries(list(self._terms) + list(other._terms), trunc)

    def __neg__(self):
        return ScalarSeries([(e, -c) for e, c in self._terms], self._trunc)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, float)):
            return ScalarSeries([(e, c * other) for e, c in self._terms], self._trunc)
        if not isinstance(other, ScalarSeries):
            return NotImplemented
        trunc = min(
            self._effective_valuation() + other._trunc,
            other._effective_valuation() + self._trunc,
            key=lambda e: e._key(),
        )
        prod = [(e1 + e2, c1 * c2) for e1, c1 in self._terms for e2, c2 in other._terms]
        return ScalarSeries(prod, trunc)

    __rmul__ = __mul__

    def shift(self, delta) -> "ScalarSeries":
        """Multiply by eps**delta."""
        delta = as_exponent(delta)
        return ScalarSeries([(e + delta, c) for e, c in self._terms], self._trunc + delta)

    def truncate(self, order) -> "ScalarSeries":
        order = as_exponent(order)
        trunc = min(self._trunc, order, key=lambda e: e._key())
        return ScalarSeries(self._terms, trunc)

    def evaluate(self, eps: float) -> float:
        if eps < 0:
            raise ValueError("eps must be nonnegative")
        total = 0.0
        for e, c in self._terms:
            total += c * _eps_power(eps, e)
        return total

    def __eq__(self, other):
        if not isinstance(other, ScalarSeries):
            return NotImplemented
        return self._terms == other._terms and self._trunc == other._trunc

    def __hash__(self):
        return hash((self._terms, self._trunc))

    def __repr__(self):
        if not self._terms:
            body = "0"
        else:
            body = " + ".join(f"{c:g}*eps^{e}" for e, c in self._terms)
        return f"ScalarSeries({body}; o(eps^{self._trunc}))"


def _eps_power(eps: float, e: Exponent) -> float:
    if e.is_infinite:
        return 0.0
    f = e.fraction
    if f == 0:
        return 1.0
    if eps == 0.0:
        if f < 0:
            raise ValueError("negative exponent at eps=0")
        return 0.0
    return float(eps) ** float(f)


def _normalize_matrix_terms(terms, shape, symmetric):
    acc = {}
    items = terms.items() if hasattr(terms, "items") else terms
    for e, mat in items:
        e = as_exponent(e)
        if e.is_infinite:
            raise ValueError("term exponents must be finite")
        mat = np.asarray(mat, dtype=float)
        if mat.shape != shape:
            raise ValueError(f"coefficient shape {mat.shape} does not match {shape}")
        acc[e] = acc[e] + mat if e in acc else mat.copy()
    out = []
    for e in sorted(acc, key=lambda t: t._key()):
        mat = acc[e]
        if symmetric:
            mat = 0.5 * (mat + mat.T)
        if np.any(mat != 0.0):
            mat.setflags(write=False)
            out.append((e, mat))
    return out


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
        if not isinstance(other, MatrixSeries):
            return NotImplemented
        if other.shape != self.shape:
            raise ValueError(f"shape mismatch: {self.shape} vs {other.shape}")
        trunc = min(self._trunc, other._trunc, key=lambda e: e._key())
        sym = self.symmetric and other.symmetric
        return MatrixSeries(self.shape, list(self._terms) + list(other._terms), trunc, sym)

    def __neg__(self):
        return MatrixSeries(
            self.shape, [(e, -m) for e, m in self._terms], self._trunc, self.symmetric
        )

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, float)):
            return MatrixSeries(
                self.shape,
                [(e, m * other) for e, m in self._terms],
                self._trunc,
                self.symmetric,
            )
        if isinstance(other, ScalarSeries):
            trunc = min(
                self._effective_valuation() + other.trunc_order,
                other._effective_valuation() + self._trunc,
                key=lambda e: e._key(),
            )
            prod = [
                (e1 + e2, m * c) for e1, m in self._terms for e2, c in other.terms
            ]
            return MatrixSeries(self.shape, prod, trunc)
        return NotImplemented

    __rmul__ = __mul__

    def __matmul__(self, other):
        if not isinstance(other, MatrixSeries):
            return NotImplemented
        if self.shape[1] != other.shape[0]:
            raise ValueError(f"shape mismatch: {self.shape} @ {other.shape}")
        trunc = min(
            self._effective_valuation() + other._trunc,
            other._effective_valuation() + self._trunc,
            key=lambda e: e._key(),
        )
        prod = [(e1 + e2, m1 @ m2) for e1, m1 in self._terms for e2, m2 in other._terms]
        return MatrixSeries((self.shape[0], other.shape[1]), prod, trunc)

    def transpose(self) -> "MatrixSeries":
        return MatrixSeries(
            (self.shape[1], self.shape[0]),
            [(e, m.T) for e, m in self._terms],
            self._trunc,
            self.symmetric,
        )

    def shift(self, delta) -> "MatrixSeries":
        """Multiply by eps**delta."""
        delta = as_exponent(delta)
        return MatrixSeries(
            self.shape,
            [(e + delta, m) for e, m in self._terms],
            self._trunc + delta,
            self.symmetric,
        )

    def truncate(self, order) -> "MatrixSeries":
        order = as_exponent(order)
        trunc = min(self._trunc, order, key=lambda e: e._key())
        return MatrixSeries(self.shape, self._terms, trunc, self.symmetric)

    def scale_rows_cols(self, left, right) -> "MatrixSeries":
        """Entry-wise exponent shift: diag(eps^left) @ self @ diag(eps^right).

        The horizon shrinks conservatively by the smallest total shift.
        """
        left = [as_exponent(e) for e in left]
        right = [as_exponent(e) for e in right]
        if len(left) != self.shape[0] or len(right) != self.shape[1]:
            raise ValueError("scaling length mismatch")
        lmin = min(left, key=lambda e: e._key())
        rmin = min(right, key=lambda e: e._key())
        trunc = self._trunc + lmin + rmin
        nums, den = exponent_ints(left + right + [e for e, _ in self._terms])
        dtype = exact_int_dtype(3 * max_abs(nums))
        nl, nr = self.shape
        shift = np.asarray(nums[:nl], dtype=dtype)[:, None] + np.asarray(
            nums[nl:nl + nr], dtype=dtype)[None, :]
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
                mat = np.zeros(self.shape)
                mat[rows[a:b], cols[a:b]] = vals[a:b]
                out.append((Exponent(int(keys[a]), den), mat))
        return MatrixSeries(self.shape, out, trunc, self.symmetric and left == right)

    def submatrix(self, rows, cols) -> "MatrixSeries":
        rows = np.asarray(rows)
        cols = np.asarray(cols)
        terms = [(e, m[np.ix_(rows, cols)]) for e, m in self._terms]
        return MatrixSeries((len(rows), len(cols)), terms, self._trunc)

    def permuted(self, perm) -> "MatrixSeries":
        """Simultaneous row/column permutation: self[perm][:, perm]."""
        perm = np.asarray(perm)
        terms = [(e, m[np.ix_(perm, perm)]) for e, m in self._terms]
        return MatrixSeries(self.shape, terms, self._trunc, self.symmetric)

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
        trunc = min(self._trunc, other._trunc, key=lambda e: e._key())
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
        rows = [tuple(as_exponent(e) for e in row) for row in entries]
        width = len(rows[0]) if rows else 0
        if any(len(row) != width for row in rows):
            raise ValueError("ragged valuation grid")
        flat = [e for row in rows for e in row]
        inf = np.array([e.is_infinite for e in flat], dtype=bool).reshape(len(rows), width)
        nums, den = exponent_ints([e for e in flat if not e.is_infinite])
        num = np.zeros(inf.shape, dtype=exact_int_dtype(max_abs(nums)))
        num[~inf] = nums
        self._set(num, den, inf)

    @classmethod
    def _from_arrays(cls, num, den, inf) -> "ValuationMatrix":
        obj = object.__new__(cls)
        obj._set(num, den, inf)
        return obj

    def _set(self, num, den, inf):
        # canonical form: zero numerators at infinity, smallest denominator
        num = np.where(inf, 0, num)
        g = gcd(den, int(np.gcd.reduce(num.ravel())) if num.size else 0)
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
    inf = first < 0
    used = np.unique(first[~inf]).tolist()
    nums, den = exponent_ints([k.terms[t][0] for t in used])
    lookup = np.zeros(len(k.terms) + 1, dtype=exact_int_dtype(max_abs(nums)))
    lookup[used] = nums  # the last slot, reached by first == -1, stays 0
    return ValuationMatrix._from_arrays(lookup[first], den, inf)


def series_matrix_inverse(h: MatrixSeries, order, cond_tol: float = 1e-10) -> MatrixSeries:
    """Neumann-series inverse of a square matrix series, truncated at ``order``.

    Requires the eps^0 coefficient to be invertible (singular-value ratio above
    ``cond_tol``); the result r satisfies h @ r = I + O(eps**order).
    """
    if h.shape[0] != h.shape[1]:
        raise ValueError("matrix series must be square")
    order = as_exponent(order)
    if not h.is_zero and h.valuation < Exponent(0):
        raise ValueError("series with negative exponents cannot be inverted here")
    h0 = h.coefficient(0)
    sv = np.linalg.svd(h0, compute_uv=False) if h.shape[0] else np.array([1.0])
    if sv[0] == 0.0 or sv[-1] <= cond_tol * sv[0]:
        raise SingularLeadingTermError("leading term singular")
    y0 = np.linalg.inv(h0)
    n = h.shape[0]
    rest = (h - MatrixSeries.from_constant(h0, trunc_order=h.trunc_order)).truncate(order)
    y0s = MatrixSeries.from_constant(y0)
    m = (-(rest @ y0s)).truncate(order)
    acc = MatrixSeries.identity(n)
    power = MatrixSeries.identity(n)
    while True:
        power = (power @ m).truncate(order)
        if power.is_zero:
            break
        acc = acc + power
    return (y0s @ acc).truncate(order)
