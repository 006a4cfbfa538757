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
from fractions import Fraction

import numpy as np

from .series import Exponent, ScalarSeries
from .scaling import DiagonalScaling
from .ase import Ase, eigen_readout, fix_column_signs, schur_chain, _basis_lift, _chain_groups
from .gkf import GkfForm, ase_from_gkf, build_H, _block_scan

__all__ = [
    "KernelModel",
    "kernel_model",
    "regularity_index",
    "NodeSet",
    "MonomialBasis",
    "num_monomials_upto",
    "num_monomials_exact",
    "monomials_of_degree",
    "vandermonde",
    "wronskian",
    "distance_matrix",
    "smooth_flat_limit",
    "finite_smooth_flat_limit",
    "FinitelySmoothError",
    "kernel_ase",
    "kernel_matrix",
    "generate_nodes",
]

INFINITE = math.inf

#: Default relative tolerance of the kernel pipeline's rank decisions (the
#: Vandermonde scans and the Schur chain of the flat-limit form).
KERNEL_RANK_TOL = 1e-9

KERNEL_NAMES = ("gaussian", "exponential", "matern2", "custom")


class FinitelySmoothError(Exception):
    """No degree q <= r-1 makes the Vandermonde matrix full row rank.

    ``v`` is the Vandermonde matrix up to the last degree the scan tested and
    ``sigma_max`` its largest singular value (both None when no degree
    reached n columns, so no rank test ran).
    """

    def __init__(self, message: str, v=None, sigma_max=None):
        super().__init__(message)
        self.v = v
        self.sigma_max = sigma_max


def _psi_coefficient(name: str, k: int) -> Fraction:
    if name == "gaussian":
        # exp(-s^2)
        if k % 2:
            return Fraction(0)
        m = k // 2
        return Fraction((-1) ** m, math.factorial(m))
    if name == "exponential":
        # exp(-s)
        return Fraction((-1) ** k, math.factorial(k))
    if name == "matern2":
        # (1 + s) exp(-s)
        return Fraction((-1) ** k * (1 - k), math.factorial(k))
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
        coeffs = [float(_psi_coefficient(name, k)) for k in range(horizon + 1)]
    # a zero coefficient is stored as +0.0, as the series form stores none
    coeffs = tuple(c if c != 0.0 else 0.0 for c in coeffs)
    return KernelModel(name, coeffs, _first_odd_index(coeffs))


def regularity_index(psi: ScalarSeries, horizon: int):
    """Smallest r with psi_{2r-1} != 0; INFINITE if no odd term up to the horizon.

    An INFINITE answer for a custom kernel only certifies r > horizon/2; the
    stored horizon travels with the model so callers can tell.
    """
    coeffs = [0.0] * (horizon + 1)
    for e, c in psi.terms:
        if e.den == 1 and 0 <= e.num <= horizon:
            coeffs[e.num] = c
    return _first_odd_index(coeffs)


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
    """n points in R^d, pairwise distinct (exact comparison)."""

    points: np.ndarray

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        if pts.ndim == 1:
            pts = pts[:, None]
        if pts.ndim != 2:
            raise ValueError("points must be an n x d array")
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


def vandermonde(nodes: NodeSet, s: int) -> np.ndarray:
    """Multivariate Vandermonde matrix [x_i^alpha] for |alpha| <= s.

    Columns are grouped by degree (widths ``num_monomials_exact(t, d)``) in
    graded-lex order; the degree-0 block is the all-ones column.
    """
    if s < 0:
        raise ValueError("degree must be nonnegative")
    return np.hstack(list(_vandermonde_blocks(nodes, s)))


@cache
def _multi_indices(d: int, t: int) -> np.ndarray:
    alpha = np.array(monomials_of_degree(d, t), dtype=np.intp).reshape(-1, d)
    alpha.setflags(write=False)
    return alpha


def _vandermonde_blocks(nodes: NodeSet, max_deg: int):
    """Yield the degree-t column blocks of V for t = 0..max_deg.

    Entry (i, alpha) multiplies the powers x_ic ** alpha_c in coordinate
    order, each taken with a scalar integer exponent, so every column has the
    same bits however many degrees are built.
    """
    pts = nodes.points
    powers = np.ones((nodes.d, nodes.n, max_deg + 1))  # powers[c, :, k] = x_c ** k
    for t in range(max_deg + 1):
        if t:
            for c in range(nodes.d):
                powers[c, :, t] = pts[:, c] ** t
        alpha = _multi_indices(nodes.d, t)
        block = np.take(powers[0], alpha[:, 0], axis=1)
        for c in range(1, nodes.d):
            block *= np.take(powers[c], alpha[:, c], axis=1)
        yield block


def _wronskian_entry_coeff(alpha, beta) -> int:
    """Integer coefficient of x^alpha y^beta in (||x-y||^2)^l, l = (|a|+|b|)/2.

    Zero unless alpha_i + beta_i is even in every coordinate.
    """
    if any((a + b) % 2 for a, b in zip(alpha, beta)):
        return 0
    m = [(a + b) // 2 for a, b in zip(alpha, beta)]
    l = sum(m)
    multinom = math.factorial(l)
    for mi in m:
        multinom //= math.factorial(mi)
    prod = 1
    for mi, ai in zip(m, alpha):
        prod *= math.comb(2 * mi, ai)
    return multinom * prod * (-1) ** sum(beta)


def wronskian(kernel: KernelModel, d: int, max_deg: int) -> np.ndarray:
    """Stacked Wronskian W_{<=max_deg, <=max_deg}: scaled kernel derivatives at 0.

    Entry (alpha, beta) is the coefficient of x^alpha y^beta in the even part
    sum_l psi_{2l} (||x-y||^2)^l, computed by exact multinomial expansion, so
    custom kernels work from their psi series alone.  For finite regularity r
    the definition only holds for max_deg <= r - 1.
    """
    r = kernel.regularity
    if r != INFINITE and max_deg > r - 1:
        raise ValueError(
            f"Wronskian blocks need degree <= r-1 = {int(r) - 1}, got {max_deg}"
        )
    basis = MonomialBasis(d, max_deg).flat
    p = len(basis)
    w = np.zeros((p, p))
    for i, alpha in enumerate(basis):
        for j, beta in enumerate(basis):
            if j < i:
                w[i, j] = w[j, i]
                continue
            total = sum(alpha) + sum(beta)
            if total % 2:
                continue
            coeff = _wronskian_entry_coeff(alpha, beta)
            if coeff:
                w[i, j] = kernel.psi_coeff(total) * coeff
            if j > i:
                w[j, i] = w[i, j]
    return w


def distance_matrix(nodes: NodeSet, q: int) -> np.ndarray:
    """Entry-wise Euclidean distance to the power q; symmetric, zero diagonal."""
    diff = nodes.points[:, None, :] - nodes.points[None, :, :]
    dist = np.sqrt(np.sum(diff * diff, axis=2))
    return dist**q


# ---------------------------------------------------------------------------
# flat-limit forms
# ---------------------------------------------------------------------------


def smooth_flat_limit(kernel: KernelModel, nodes: NodeSet,
                      rank_tol: float = KERNEL_RANK_TOL) -> GkfForm:
    """Flat-limit form for the completely smooth regime.

    Finds the smallest degree q with rank V_{<=q} = n (q <= r-1 required) and
    returns (V_{<=q}, Delta with nu_j = j and block widths H_{j,d}, W_{<=q}).
    Raises FinitelySmoothError when no such degree exists within smoothness.
    """
    q, v, sigma_max = _smooth_degree(nodes, kernel.regularity, rank_tol)
    if q is None:
        raise FinitelySmoothError(
            "Vandermonde rank stays below n within the kernel's smoothness; "
            "use finite_smooth_flat_limit",
            v,
            sigma_max,
        )
    widths = MonomialBasis(nodes.d, q).block_widths
    scaling = DiagonalScaling(tuple((Exponent(t), widths[t]) for t in range(q + 1)))
    w = wronskian(kernel, nodes.d, q)
    return GkfForm(v, scaling, w)


def _smooth_degree(nodes: NodeSet, r, rank_tol: float):
    """Smallest degree q <= r-1 with numerical rank V_{<=q} = n, else None.

    Returns (q, v, sigma_max): v is V_{<=q}, or V up to the last degree tested
    when q is None, and sigma_max its largest singular value (both None when
    no degree was tested).  Degrees whose V has fewer than n columns cannot
    reach rank n and are not tested.
    """
    max_q = nodes.n - 1 if r == INFINITE else min(int(r) - 1, nodes.n - 1)
    blocks = []
    v = sigma_max = None
    for q, block in enumerate(_vandermonde_blocks(nodes, max_q)):
        blocks.append(block)
        if num_monomials_upto(q, nodes.d) < nodes.n:
            continue
        v = np.hstack(blocks)
        sv = np.linalg.svd(v, compute_uv=False)
        sigma_max = sv[0]
        if int(np.sum(sv > rank_tol * sv[0])) == nodes.n:
            return q, v, sigma_max
    return None, v, sigma_max


def finite_smooth_flat_limit(
    kernel: KernelModel, nodes: NodeSet, rank_tol: float = KERNEL_RANK_TOL
) -> GkfForm:
    """Flat-limit form for a finitely smooth kernel with rank V_{<=r-1} < n.

    V is extended by an orthonormal basis A of the complement of
    range(V_{<=r-1}); the scaling gains a final block at the fractional
    exponent r - 1/2 and W a distance-matrix block psi_{2r-1} A^T D^(2r-1) A.
    """
    r = kernel.regularity
    if r == INFINITE:
        raise ValueError("finitely smooth pipeline requires finite regularity")
    r = int(r)
    v_main = vandermonde(nodes, r - 1)
    u, sv, _ = np.linalg.svd(v_main, full_matrices=True)
    rank = int(np.sum(sv > rank_tol * sv[0]))
    if rank == nodes.n:
        raise ValueError("V_{<=r-1} has full row rank; the smooth pipeline applies")
    a = fix_column_signs(u[:, rank:])
    c = nodes.n - rank
    widths = MonomialBasis(nodes.d, r - 1).block_widths
    blocks = [(Exponent(t), widths[t]) for t in range(r)]
    blocks.append((Exponent(2 * r - 1, 2), c))
    scaling = DiagonalScaling(tuple(blocks))
    w_top = wronskian(kernel, nodes.d, r - 1)
    d_odd = distance_matrix(nodes, 2 * r - 1)
    w_bot = kernel.psi_coeff(2 * r - 1) * (a.T @ d_odd @ a)
    p = w_top.shape[0]
    w = np.zeros((p + c, p + c))
    w[:p, :p] = w_top
    w[p:, p:] = 0.5 * (w_bot + w_bot.T)
    v = np.hstack([v_main, a])
    return GkfForm(v, scaling, w)


def kernel_ase(kernel: KernelModel, nodes: NodeSet, rank_tol: float = KERNEL_RANK_TOL):
    """ASE of the kernel matrix on a node set, plus its eigen-readout.

    Dispatches between the smooth and finitely smooth pipelines.  When double
    precision cannot certify further rank growth of the Vandermonde blocks
    (deep smooth expansions), the ASE is truncated at the last certified
    group rather than silently mis-ranked.  The readout is one
    ``SpectralGroup`` per ASE group (valuation, count, leading values).
    """
    try:
        ase = ase_from_gkf(smooth_flat_limit(kernel, nodes, rank_tol), rank_tol)
    except FinitelySmoothError as exc:
        if kernel.regularity == INFINITE:
            ase = _stalled_smooth_ase(kernel, nodes, exc.v, exc.sigma_max, rank_tol)
        else:  # the scan found no degree q <= r-1 with rank n
            form = finite_smooth_flat_limit(kernel, nodes, rank_tol)
            ase = ase_from_gkf(form, rank_tol)
    return ase, eigen_readout(ase)


def _stalled_smooth_ase(
    kernel: KernelModel, nodes: NodeSet, v: np.ndarray, sigma_max: float, rank_tol: float
) -> Ase:
    """Partial smooth-regime ASE when rank growth stalls numerically.

    ``v`` is V_{<=n-1} and ``sigma_max`` its largest singular value.  Uses
    the degree blocks whose rank increments are certified at tolerance and
    truncates the expansion at the first uncertain group.
    """
    widths = MonomialBasis(nodes.d, nodes.n - 1).block_widths
    qr = _block_scan(v, widths, rank_tol * sigma_max)
    if qr is None:
        raise ValueError("no Vandermonde block has certified rank at tolerance")
    used = len(qr.ranks)
    h, sizes = build_H(qr, wronskian(kernel, nodes.d, used - 1))
    chain = schur_chain(h, sizes, rank_tol)
    nus = [Exponent(t) for t in range(used)]
    groups, _ = _chain_groups(chain, nus, _basis_lift(qr.q_blocks), rank_tol)
    # always truncated: degrees past the certified ones are invisible at
    # working precision, so the expansion stops at the last computed group
    return Ase(nodes.n, groups, Exponent(2 * (len(chain.complements) - 1)))


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


def generate_nodes(spec: str, d: int = 2, seed: int = 0) -> NodeSet:
    """Named node-set generators: 'equispaced:N', 'uniform:N', 'circle:N', 'cubic:N'.

    equispaced: N points on [0, 1] (d = 1).
    uniform:    N i.i.d. points in the unit cube of dimension d.
    circle:     N points on the unit circle (d = 2, non-unisolvent at degree 2).
    cubic:      N points on the curve x2^2 = x1^3 - x1 (d = 2, non-unisolvent
                at degree 3).
    """
    kind, _, count = spec.partition(":")
    if not count:
        raise ValueError(f"node spec {spec!r} must look like 'uniform:10'")
    n = int(count)
    rng = np.random.default_rng(seed)
    if kind == "equispaced":
        return NodeSet(np.linspace(0.0, 1.0, n)[:, None])
    if kind == "uniform":
        return NodeSet(rng.uniform(0.0, 1.0, size=(n, d)))
    if kind == "circle":
        theta = rng.uniform(0.0, 2.0 * np.pi, size=n)
        return NodeSet(np.column_stack([np.cos(theta), np.sin(theta)]))
    if kind == "cubic":
        x1 = rng.uniform(-1.0, 0.0, size=n)
        sign = rng.choice([-1.0, 1.0], size=n)
        x2 = sign * np.sqrt(np.maximum(x1**3 - x1, 0.0))
        return NodeSet(np.column_stack([x1, x2]))
    raise ValueError(f"unknown node generator {kind!r}")
