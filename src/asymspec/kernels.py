"""Radial-kernel flat-limit pipeline.

A radial kernel k(x, y) = psi(||x - y||) with psi analytic at 0 yields kernel
matrices K(eps) = [psi(eps ||x_i - x_j||)] that become singular in the flat
limit eps -> 0.  Writing the even part of psi through multivariate monomials
produces a generalized kernel form V Delta (W + o(1)) Delta V^T whose V is a
multivariate Vandermonde matrix and whose W is the kernel's Wronskian (the
scaled derivative table at the origin).  The first odd psi coefficient
psi_{2r-1} (the regularity index r) decides between the completely smooth
pipeline and the finitely smooth one, which adds a distance-matrix block at
the fractional exponent r - 1/2.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import cache, cached_property

import numpy as np

from .series import Exponent, ScalarSeries, exact_int_dtype
from .ase import Ase, fix_column_signs, rank_floor, schur_chain, _chain_groups, _lift
from .gkf import BlockQr, build_H, _extend_basis

__all__ = [
    "KernelModel",
    "kernel_model",
    "regularity_index",
    "NodeSet",
    "MonomialBasis",
    "num_monomials_upto",
    "num_monomials_exact",
    "monomials_of_degree",
    "wronskian",
    "distance_matrix",
    "kernel_ase",
    "kernel_matrix",
    "generate_nodes",
]

INFINITE = math.inf

#: Default relative tolerance of the kernel pipeline's rank decisions (the
#: Vandermonde scans and the Schur chain of the flat-limit form).
KERNEL_RANK_TOL = 1e-9

KERNEL_NAMES = ("gaussian", "exponential", "matern2", "custom")


def _psi_coefficient(name: str, k: int) -> float:
    """k-th Taylor coefficient of a named psi, a ratio of integers divided
    once: Python rounds int / int correctly, as it does ``float(Fraction)``."""
    if name == "gaussian":
        # exp(-s^2)
        if k % 2:
            return 0.0
        m = k // 2
        return (-1) ** m / math.factorial(m)
    if name == "exponential":
        # exp(-s)
        return (-1) ** k / math.factorial(k)
    if name == "matern2":
        # (1 + s) exp(-s)
        return (-1) ** k * (1 - k) / math.factorial(k)
    raise ValueError(f"unknown kernel {name!r}")


@dataclass(frozen=True)
class KernelModel:
    """A radial kernel: its name, psi_0..psi_h at 0 and regularity index."""

    name: str
    coeffs: tuple  # psi_0..psi_h as floats; h is the horizon
    regularity: float  # positive integer, or math.inf for completely smooth

    @cached_property
    def psi(self) -> ScalarSeries:
        """The psi expansion as a series truncated after the horizon."""
        return ScalarSeries(dict(enumerate(self.coeffs)), trunc_order=len(self.coeffs))

    def psi_coeff(self, k: int) -> float:
        """k-th Taylor coefficient of psi; the horizon must cover k."""
        if k >= len(self.coeffs):
            raise ValueError(f"psi horizon {len(self.coeffs)} too small for degree {k}")
        return self.coeffs[k] if k >= 0 else 0.0

    @property
    def horizon(self) -> int:
        return len(self.coeffs) - 1


def kernel_model(name: str, psi_coefficients=None, horizon: int = 64) -> KernelModel:
    """Build a named kernel (psi generated exactly) or a custom one from coefficients."""
    if name not in KERNEL_NAMES:
        raise ValueError(f"kernel must be one of {KERNEL_NAMES}, got {name!r}")
    if name == "custom":
        if psi_coefficients is None:
            raise ValueError("custom kernels require psi coefficients")
        coeffs = [float(c) for c in psi_coefficients]
    else:
        if psi_coefficients is not None:
            raise ValueError("psi coefficients are only accepted for custom kernels")
        coeffs = [_psi_coefficient(name, k) for k in range(horizon + 1)]
    # a zero coefficient is stored as +0.0, as the series form stores none
    coeffs = tuple(c if c != 0.0 else 0.0 for c in coeffs)
    return KernelModel(name, coeffs, _first_odd_index(coeffs))


def regularity_index(psi: ScalarSeries, horizon: int):
    """Smallest r with psi_{2r-1} != 0; INFINITE if no odd term up to the horizon.

    An INFINITE answer for a custom kernel only certifies r > horizon/2; the
    stored horizon travels with the model so callers can tell.
    """
    return _first_odd_index([psi.coefficient(k) for k in range(horizon + 1)])


def _first_odd_index(coeffs):
    for k in range(1, len(coeffs), 2):
        if coeffs[k] != 0.0:
            return (k + 1) // 2
    return INFINITE


# ---------------------------------------------------------------------------
# nodes and monomials
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class NodeSet:
    """n points in R^d, finite and pairwise distinct (exact comparison)."""

    points: np.ndarray

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        if pts.ndim == 1:
            pts = pts[:, None]
        if pts.ndim != 2:
            raise ValueError("points must be an n x d array")
        bad = np.flatnonzero(~np.isfinite(pts).all(axis=1))
        if bad.size:
            raise ValueError(f"node {bad[0]} has a non-finite coordinate: "
                             f"{tuple(pts[bad[0]].tolist())}")
        seen = set()
        for row in pts:
            key = tuple(row.tolist())
            if key in seen:
                raise ValueError(f"duplicate node {key}")
            seen.add(key)
        pts = pts.copy()
        pts.setflags(write=False)
        object.__setattr__(self, "points", pts)

    @property
    def n(self) -> int:
        return self.points.shape[0]

    @property
    def d(self) -> int:
        return self.points.shape[1]


def num_monomials_upto(s: int, d: int) -> int:
    """Number of monomials of degree <= s in d variables."""
    return math.comb(s + d, d)


def num_monomials_exact(t: int, d: int) -> int:
    """Number of monomials of degree exactly t in d variables."""
    return math.comb(t + d - 1, d - 1)


def monomials_of_degree(d: int, t: int):
    """Multi-indices of degree t, graded-lex (leading exponent decreasing)."""
    if d == 1:
        return [(t,)]
    out = []
    for first in range(t, -1, -1):
        for rest in monomials_of_degree(d - 1, t - first):
            out.append((first,) + rest)
    return out


@dataclass(frozen=True)
class MonomialBasis:
    """All multi-indices up to max_degree, grouped by degree, in a fixed order."""

    d: int
    max_degree: int

    @property
    def by_degree(self):
        return [monomials_of_degree(self.d, t) for t in range(self.max_degree + 1)]

    @property
    def flat(self):
        return [a for grp in self.by_degree for a in grp]

    @property
    def block_widths(self):
        return tuple(num_monomials_exact(t, self.d) for t in range(self.max_degree + 1))


def _wronskian_table(d: int, max_deg: int):
    """(i, j, c, total) over the pairs of the degree-<= max_deg monomial basis
    whose alpha + beta is even in every coordinate: c is the exact integer
    coefficient of x^alpha y^beta in (||x-y||^2)^l, l = |alpha + beta| / 2,
    and total = 2 l.  No other pair has a nonzero coefficient.

    c = l! / prod m_k! * prod C(2 m_k, alpha_k) * (-1)^|beta|, m = (alpha +
    beta) / 2, with the multinomial taken as prod C(m_1 + ... + m_k, m_k).
    Every factor is an integer >= 1, so no partial product exceeds |c|; a
    float pass bounds the table, and the integer pass runs in int64 where
    ``exact_int_dtype`` allows, in Python ints otherwise.
    """
    alpha = np.array(MonomialBasis(d, max_deg).flat, dtype=np.int64).reshape(-1, d)
    i, j = np.nonzero(((alpha[:, None, :] + alpha[None, :, :]) % 2 == 0).all(axis=2))
    m = (alpha[i] + alpha[j]) // 2
    factors = [(np.cumsum(m, axis=1), m), (2 * m, alpha[i])]  # (n, k) of each C(n, k)
    binom = [[math.comb(a, b) for b in range(2 * max_deg + 1)] for a in range(2 * max_deg + 1)]

    def product(table):
        out = np.ones(len(i), dtype=table.dtype)
        for top, bottom in factors:
            for k in range(d):
                out *= table[top[:, k], bottom[:, k]]
        return out

    bound = product(np.array(binom, dtype=float)).max(initial=0.0) * (1 + 1e-9)
    c = product(np.array(binom, dtype=exact_int_dtype(bound)))
    c[alpha[j].sum(axis=1) % 2 == 1] *= -1
    return i, j, c, 2 * m.sum(axis=1)


def wronskian(kernel: KernelModel, d: int, max_deg: int) -> np.ndarray:
    """Stacked Wronskian W_{<=max_deg, <=max_deg}: scaled kernel derivatives at 0.

    Entry (alpha, beta) is the coefficient of x^alpha y^beta in the even part
    sum_l psi_{2l} (||x-y||^2)^l, computed by exact multinomial expansion
    over the whole table at once (``_wronskian_table``), so custom kernels
    work from their psi series alone.  For finite regularity r the
    definition only holds for max_deg <= r - 1.
    """
    r = kernel.regularity
    if r != INFINITE and max_deg > r - 1:
        raise ValueError(
            f"Wronskian blocks need degree <= r-1 = {int(r) - 1}, got {max_deg}"
        )
    i, j, c, total = _wronskian_table(d, max_deg)
    beyond = np.flatnonzero((total >= len(kernel.coeffs)) & (j >= i))
    if beyond.size:  # the first entry, row by row, that needs psi past the horizon
        kernel.psi_coeff(int(total[beyond[0]]))
    p = num_monomials_upto(max_deg, d)
    w = np.zeros((p, p))
    w[i, j] = np.asarray(kernel.coeffs)[total] * c.astype(float)
    return w


def distance_matrix(nodes: NodeSet, q: int) -> np.ndarray:
    """Entry-wise Euclidean distance to the power q; symmetric, zero diagonal.

    The squares are summed one coordinate at a time, with no n x n x d
    difference tensor.  Below d = 8 that is the order of numpy's sum over a
    last axis, so the matrix is bitwise the same as that sum's.
    """
    squared = np.zeros((nodes.n, nodes.n))
    for coord in nodes.points.T:
        diff = np.subtract.outer(coord, coord)
        squared += diff * diff
    return np.sqrt(squared) ** q


# ---------------------------------------------------------------------------
# flat-limit forms
# ---------------------------------------------------------------------------


def _unit_nodes(nodes: NodeSet):
    """(y, s): the nodes centred at their bounding-box midpoint and divided by
    their max-norm radius s.  K_x(eps) = K_y(s eps), so valuations are kept
    and the term at eps^alpha maps back multiplied by s^alpha."""
    pts = nodes.points
    y = pts - 0.5 * (pts.min(axis=0) + pts.max(axis=0))
    scale = float(np.abs(y).max()) or 1.0  # 0 for a single node
    return y / scale, scale


@cache
def _parents(d: int, t: int):
    """Per degree-t multi-index alpha (graded-lex): its first coordinate k with
    alpha_k > 0, and the position of alpha - e_k among degree t-1."""
    prev = {alpha: i for i, alpha in enumerate(monomials_of_degree(d, t - 1))}
    alphas = monomials_of_degree(d, t)
    ks = tuple(next(c for c, a in enumerate(alpha) if a) for alpha in alphas)
    return ks, tuple(prev[al[:k] + (al[k] - 1,) + al[k + 1 :]] for k, al in zip(ks, alphas))


def _macaulay_bound(a: int, t: int) -> int:
    """a^<t>: the most rank degree t+1 can add to V after degree t >= 1 added a.

    V's rank increments on a finite point set are the Hilbert function of a
    standard graded algebra, bounded by Macaulay's theorem: with
    a = C(k_t, t) + ... + C(k_j, j), k_t > ... > k_j >= j, a^<t> is
    C(k_t + 1, t + 1) + ... + C(k_j + 1, j + 1).  Once a <= t, a^<t> = a.
    """
    out = 0
    for k in range(t, 0, -1):
        if a == 0:
            break
        m = k
        while math.comb(m + 1, k) <= a:
            m += 1
        a -= math.comb(m, k)
        out += math.comb(m + 1, k + 1)
    return out


def _degree_scan(kernel: KernelModel, y: np.ndarray, rank_tol: float) -> BlockQr:
    """Graded Arnoldi basis of the Vandermonde matrix of unit nodes y.

    Degree by degree, the block y_k Q_{t-1} (k = 1..d) is one
    ``_extend_basis`` step against ``rank_tol * ||block||_2``; its new
    directions are Q_t.  R_tt = Q_t^T V_t follows from the recurrence
    R_tt[:, alpha] = (Q_t^T (y_k Q_{t-1})) R_{t-1,t-1}[:, alpha - e_k], with
    the first factor read off that step's SVD.  The scan stops at rank n, at
    degree r-1 or at half the psi horizon (W_{<=q} needs psi_{2q}), and
    before a degree that adds nothing or more than ``_macaulay_bound``
    allows: such rank contradicts the rank decisions below it (nodes that
    lie on a curve only up to rounding show it at deep degrees).  R holds
    only the diagonal blocks R_tt, which is all ``build_H`` reads.
    """
    n, d = y.shape
    max_deg = min(kernel.horizon // 2, kernel.regularity - 1)  # an int: r is int or inf
    q_blocks = [np.full((n, 1), 1.0 / math.sqrt(n))]
    r_blocks = [np.array([[math.sqrt(n)]])]
    for t in range(1, max_deg + 1):
        prev = q_blocks[-1]
        block = (y[:, :, None] * prev[:, None, :]).reshape(n, -1)
        q_new, coeffs = _extend_basis(q_blocks, block, rank_tol * np.linalg.norm(block, 2))
        b = q_new.shape[1]
        if b == 0 or (t > 1 and b > _macaulay_bound(prev.shape[1], t - 1)):
            break
        ks, parents = _parents(d, t)
        coeffs = coeffs.reshape(b, d, prev.shape[1])[:, ks, :]
        r_blocks.append(np.einsum("bjp,pj->bj", coeffs, r_blocks[-1][:, parents]))
        q_blocks.append(q_new)
        if sum(q.shape[1] for q in q_blocks) == n:
            break
    ranks = tuple(q.shape[1] for q in q_blocks)
    return BlockQr(q_blocks, _blockdiag(*r_blocks), ranks, tuple(r.shape[1] for r in r_blocks))


def _blockdiag(*blocks) -> np.ndarray:
    out = np.zeros(tuple(np.sum([b.shape for b in blocks], axis=0)))
    r = c = 0
    for b in blocks:
        out[r : r + b.shape[0], c : c + b.shape[1]] = b
        r, c = r + b.shape[0], c + b.shape[1]
    return out


def _complement_block(kernel: KernelModel, nodes: NodeSet, q: np.ndarray):
    """(A, psi_{2r-1} A^T D^(2r-1) A symmetrized): the block at r - 1/2, with A
    an orthonormal basis, signs pinned, of the complement of range(q)."""
    a = fix_column_signs(np.linalg.qr(q, mode="complete")[0][:, q.shape[1] :])
    k = 2 * int(kernel.regularity) - 1
    w = kernel.psi_coeff(k) * (a.T @ distance_matrix(nodes, k) @ a)
    return a, 0.5 * (w + w.T)


def _power(scale: float, alpha) -> float:
    """s^alpha, or 0.0 where it overflows."""
    try:
        return scale ** float(alpha)
    except OverflowError:
        return 0.0


def _usable(m: np.ndarray) -> bool:
    """Whether a rescaled block is finite and not all zero."""
    return bool(np.isfinite(m).all() and m.any())


def kernel_ase(kernel: KernelModel, nodes: NodeSet, rank_tol: float = KERNEL_RANK_TOL):
    """ASE of the kernel matrix on a node set, plus its eigen-readout.

    One route: the degree scan of the unit nodes feeds ``build_H`` and the
    Schur chain.  When the scan of a finitely smooth kernel stops short of
    rank n below the psi horizon, the complement A of its basis is a last
    block at r - 1/2 with H block psi_{2r-1} A^T D^(2r-1) A; the Schur chain
    alone rules on its invertibility, and a stall there truncates at 2r - 1.
    Any other stop short of rank n (a degree the scan cannot certify, or the
    psi horizon) truncates the ASE at its last computed group: degrees past
    the certified ones are invisible at working precision.  Terms are in the
    caller's units (the s^alpha unit map scales S_i only), and the expansion
    also stops before a group whose smallest leading value is at or below
    ``rank_floor`` of its term there.  On nodes far from unit scale it stops
    before the first group whose s^alpha overflows or underflows to 0, or
    whose scaled S_i is not finite or all zero; the block at r - 1/2 is left
    out, truncating at 2r - 1, when its s^(2r-1) or its unit-coordinate
    block is not finite or is 0.  The readout is one ``SpectralGroup`` per
    ASE group.
    """
    y, scale = _unit_nodes(nodes)
    qr = _degree_scan(kernel, y, rank_tol)
    h, sizes = build_H(qr, wronskian(kernel, nodes.d, len(qr.ranks) - 1))
    nus = [Exponent(t) for t in range(len(qr.ranks))]
    bases = list(qr.q_blocks)
    short = sum(qr.ranks) < nodes.n
    finite = short and kernel.regularity - 1 <= kernel.horizon // 2
    left_out = None  # the valuation of a block at r - 1/2 too far from unit scale
    if finite:
        nu = Exponent(2 * int(kernel.regularity) - 1, 2)
        unit = _power(scale, 2 * nu)
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            a, w_bot = _complement_block(kernel, nodes, qr.Q)
            w_bot /= unit
        if unit != 0.0 and _usable(w_bot):
            nus.append(nu)
            h = _blockdiag(h, w_bot)
            sizes.append(a.shape[1])
            bases.append(a)
        else:
            left_out = 2 * nu
    chain = schur_chain(h, sizes, rank_tol)
    factors, truncated_at = _chain_groups(chain, nus, bases, rank_tol)
    if short and not finite:
        truncated_at = 2 * nus[len(chain.complements) - 1]
    elif truncated_at is None:
        truncated_at = left_out
    kept = []
    for alpha, q, s in factors:
        unit = _power(scale, alpha)
        with np.errstate(over="ignore"):
            s = unit * s
        if unit == 0.0 or not _usable(s):
            truncated_at = alpha
            break
        kept.append((alpha, q, s))
    ase = Ase(nodes.n, kept, truncated_at)
    readout = ase.readout
    for i, ((alpha, q, s), group) in enumerate(zip(ase.factors, readout)):
        lam = np.abs(group.leading_values)
        # max |t_ij| <= ||t||_2 = max lam, so rank_floor(t) <= rank_floor(lam):
        # the dense term is formed only where the floor can be reached
        if lam.min() <= rank_floor(lam) and lam.min() <= rank_floor(_lift(q, s)):
            head = Ase(nodes.n, ase.factors[:i], alpha)
            head.readout = readout[:i]  # the readout is group by group
            return head, head.readout
    return ase, readout


def kernel_matrix(kernel: KernelModel, nodes: NodeSet, eps: float, dist=None) -> np.ndarray:
    """The kernel matrix [psi(eps ||x_i - x_j||)] at a concrete eps.

    Named kernels use their closed form; custom kernels sum the stored psi
    series and warn when eps times the largest distance leaves the unit
    disk, where the truncated series is no longer trustworthy.  ``dist`` is
    ``distance_matrix(nodes, 1)`` when the caller already holds it (an eps
    sweep computes it once).
    """
    if eps < 0:
        raise ValueError("eps must be nonnegative")
    if dist is None:
        dist = distance_matrix(nodes, 1)
    s = eps * dist
    if kernel.name == "gaussian":
        return np.exp(-(s**2))
    if kernel.name == "exponential":
        return np.exp(-s)
    if kernel.name == "matern2":
        return (1.0 + s) * np.exp(-s)
    if s.max() > 1.0:
        warnings.warn(
            "custom kernel evaluated beyond its certified horizon "
            f"(eps*max distance = {s.max():.3g} > 1); truncated psi series "
            "may be inaccurate",
            stacklevel=2,
        )
    out = np.zeros_like(s)
    for k, c in enumerate(kernel.coeffs):
        if c != 0.0:
            out += c * s ** float(k)
    return 0.5 * (out + out.T)


# ---------------------------------------------------------------------------
# node-set generators (seeded inputs for the worked figures and tests)
# ---------------------------------------------------------------------------


_FIXED_DIM = {"equispaced": 1, "circle": 2, "cubic": 2}


def generate_nodes(spec: str, d: int | None = None, seed: int = 0) -> NodeSet:
    """Named node-set generators: 'equispaced:N', 'uniform:N', 'circle:N', 'cubic:N'.

    equispaced: N points on [0, 1] (d = 1).
    uniform:    N i.i.d. points in the unit cube of dimension d (default 2).
    circle:     N points on the unit circle (d = 2, non-unisolvent at degree 2).
    cubic:      N points on the curve x2^2 = x1^3 - x1 (d = 2, non-unisolvent
                at degree 3).

    Only 'uniform' reads d; any other family raises when d is given and is
    not its own dimension.
    """
    kind, _, count = spec.partition(":")
    if not count.isdecimal():
        raise ValueError(f"node spec {spec!r} must look like 'uniform:10'")
    n = int(count)
    fixed = _FIXED_DIM.get(kind)
    if d is None:
        d = fixed or 2
    elif fixed is not None and d != fixed:
        raise ValueError(f"node generator {kind!r} makes points in dimension {fixed}, "
                         f"not {d}; only 'uniform' takes a dimension")
    if n < 1 or d < 1:
        raise ValueError(f"node spec {spec!r} needs a count and a dimension of at least 1, "
                         f"got {n} points in dimension {d}")
    if kind == "equispaced":
        return NodeSet(np.linspace(0.0, 1.0, n)[:, None])
    if kind != "uniform" and kind not in _FIXED_DIM:
        raise ValueError(f"unknown node generator {kind!r}")
    rng = np.random.default_rng(seed)  # imports numpy.random: random families only
    if kind == "uniform":
        return NodeSet(rng.uniform(0.0, 1.0, size=(n, d)))
    if kind == "circle":
        theta = rng.uniform(0.0, 2.0 * np.pi, size=n)
        return NodeSet(np.column_stack([np.cos(theta), np.sin(theta)]))
    x1 = rng.uniform(-1.0, 0.0, size=n)  # cubic
    sign = rng.choice([-1.0, 1.0], size=n)
    x2 = sign * np.sqrt(np.maximum(x1**3 - x1, 0.0))
    return NodeSet(np.column_stack([x1, x2]))
