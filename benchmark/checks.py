"""Output checks whose expected answers come from this directory's own code.

Nothing here asks the package for the right answer.  Series answers are the
planted terms the generator built; kernel answers are group valuations and
counts derived from the node family's Hilbert-function increments; sweep
answers are eigenvalues recomputed with numpy from closed-form kernels.
``asymspec.Ase.validate`` is used only as a structural check of an ASE.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

REL_TOL = 1e-8  # planted series terms, relative Frobenius error
EIG_TOL = 1e-9  # sweep eigenvalues, relative to the largest magnitude
VECTOR_TOL = 1e-8  # predicted limiting vector, 1 - |cos angle|


class Mismatch(Exception):
    """The program's output disagrees with the expected answer."""


# ---------------------------------------------------------------------------
# expected answers
# ---------------------------------------------------------------------------


def hilbert_increments(family: str, d: int, n: int) -> list[int]:
    """Rank added by each total degree t of the Vandermonde matrix, up to n.

    equispaced (d = 1) adds 1 per degree; generic points in dimension d add
    C(t+d-1, d-1); the circle adds 1, 2, 2, ...; the cubic curve adds
    1, 2, 3, 3, ...  The last degree takes whatever is left of n.
    """
    out: list[int] = []
    t = 0
    while sum(out) < n:
        if family == "equispaced":
            h = 1
        elif family == "uniform":
            h = math.comb(t + d - 1, d - 1)
        elif family == "circle":
            h = 1 if t == 0 else 2
        elif family == "cubic":
            h = min(t + 1, 3)
        else:
            raise ValueError(f"unknown node family {family!r}")
        out.append(min(h, n - sum(out)))
        t += 1
    return out


def kernel_groups(kernel: str, family: str, d: int, n: int) -> list[tuple[Fraction, int]]:
    """Expected (valuation, count) of every eigenvalue group in the flat limit.

    gaussian is smooth: degree t gives valuation 2t.  matern2 has regularity
    r = 2: degrees 0 and 1, then the rest at 2r - 1 = 3.  exponential has
    r = 1: one eigenvalue at 0, the rest at 1.
    """
    h = hilbert_increments(family, d, n)
    if kernel == "gaussian":
        return [(Fraction(2 * t), c) for t, c in enumerate(h)]
    if kernel == "matern2":
        low = [(Fraction(2 * t), c) for t, c in enumerate(h[:2])]
        return low + [(Fraction(3), n - sum(h[:2]))]
    if kernel == "exponential":
        return [(Fraction(0), 1), (Fraction(1), n - 1)]
    raise ValueError(f"unknown kernel {kernel!r}")


def kernel_matrix(kernel: str, points: np.ndarray, eps: float) -> np.ndarray:
    """Closed-form radial kernel matrix psi(eps * ||x_i - x_j||)."""
    diff = points[:, None, :] - points[None, :, :]
    s = eps * np.sqrt(np.sum(diff * diff, axis=2))
    if kernel == "gaussian":
        return np.exp(-(s**2))
    if kernel == "exponential":
        return np.exp(-s)
    if kernel == "matern2":
        return (1.0 + s) * np.exp(-s)
    raise ValueError(f"unknown kernel {kernel!r}")


def eps_grid(spec: str) -> np.ndarray:
    """The decreasing log-spaced grid that 'start:stop:points' names."""
    start, stop, points = spec.split(":")
    lo, hi = sorted((float(start), float(stop)))
    return np.geomspace(lo, hi, int(points))[::-1]


def limit_vector_1d(points: np.ndarray, k: int) -> np.ndarray:
    """Limiting k-th eigenvector (1-based) of a smooth kernel on 1-D nodes.

    In the flat limit the eigenvectors of a smooth kernel on unisolvent 1-D
    nodes are the orthonormalized monomials 1, x, x^2, ... in degree order.
    """
    x = points[:, 0]
    q, _ = np.linalg.qr(np.vander(x, k, increasing=True))
    return q[:, k - 1]


# ---------------------------------------------------------------------------
# readers
# ---------------------------------------------------------------------------


def _valuation(obj) -> Fraction:
    if isinstance(obj, int):
        return Fraction(obj)
    return Fraction(obj["num"], obj.get("den", 1))


def read_ase(path):
    """(n, [(valuation, lambdas, vectors as columns)], truncated_at or None)."""
    with open(path, encoding="utf-8") as fh:
        obj = json.load(fh)
    n = obj["n"]
    groups = []
    for g in obj["groups"]:
        lam = np.asarray(g["lambda"], dtype=float)
        vec = np.asarray(g["vectors"], dtype=float).reshape(len(lam), n).T
        groups.append((_valuation(g["valuation"]), lam, vec))
    trunc = obj["truncated_at"]
    return n, groups, None if trunc is None else _valuation(trunc)


def _structural(n, groups, truncated_at):
    """Ase.validate on the terms rebuilt from the emitted eigenpairs."""
    from asymspec import Ase, Exponent

    terms = [
        (Exponent(v.numerator, v.denominator), (vec * lam) @ vec.T)
        for v, lam, vec in groups
    ]
    trunc = None
    if truncated_at is not None:
        trunc = Exponent(truncated_at.numerator, truncated_at.denominator)
    try:
        Ase(n, terms, trunc).validate()
    except ValueError as exc:
        raise Mismatch(f"structural check: {exc}") from exc


def _match_groups(got, want, truncated_at):
    """got/want are [(valuation, count)]; ``truncated_at`` is None when complete.

    A truncated result must be a prefix of the expected groups: every group
    below ``truncated_at`` matches exactly, and a group at ``truncated_at``
    itself, where the expansion stops being identified, may hold fewer
    eigenvalues than expected.
    """
    if truncated_at is None:
        if got != want:
            raise Mismatch(f"groups {_fmt_groups(got)} != expected {_fmt_groups(want)}")
        return
    head = [g for g in got if g[0] < truncated_at]
    edge = [g for g in got if g[0] >= truncated_at]
    ok = head == want[: len(head)] and len(edge) <= 1
    if ok and edge:
        nxt = want[len(head)] if len(head) < len(want) else None
        ok = nxt is not None and edge[0][0] == truncated_at == nxt[0] and edge[0][1] <= nxt[1]
    if not ok:
        raise Mismatch(
            f"groups {_fmt_groups(got)} truncated at eps^{truncated_at} are not a "
            f"prefix of {_fmt_groups(want)}"
        )


def _fmt_groups(groups) -> str:
    return "[" + ", ".join(f"{v}x{c}" for v, c in groups) + "]"


# ---------------------------------------------------------------------------
# per-command checks; each returns True for a complete result, False for a
# correct truncated one, and raises Mismatch otherwise
# ---------------------------------------------------------------------------


def _exit_agrees(code: int, complete: bool):
    if code != (0 if complete else 2):
        raise Mismatch(f"exit {code} but the ASE is {'complete' if complete else 'truncated'}")


@dataclass
class KernelAse:
    """`asymspec kernel`: group valuations and counts, positive leading values."""

    groups: list  # [(Fraction, count)]

    def check(self, code: int, path: str) -> bool:
        n, groups, truncated_at = read_ase(path)
        complete = truncated_at is None
        _exit_agrees(code, complete)
        _match_groups([(v, len(lam)) for v, lam, _ in groups], self.groups, truncated_at)
        for v, lam, _ in groups:
            # kernel matrices of these kernels are positive definite
            if not np.all(lam > 0):
                raise Mismatch(f"group at eps^{v} has a non-positive leading value")
        _structural(n, groups, truncated_at)
        return complete


@dataclass
class PlantedAse:
    """`asymspec analyze`: every term equals its planted value."""

    terms: list  # [(Fraction, ndarray, rank)]

    def check(self, code: int, path: str) -> bool:
        n, groups, truncated_at = read_ase(path)
        complete = truncated_at is None
        _exit_agrees(code, complete)
        want_groups = [(v, rank) for v, _, rank in self.terms]
        _match_groups([(v, len(lam)) for v, lam, _ in groups], want_groups, truncated_at)
        for (v, lam, vec), (_, want, _) in zip(groups, self.terms):
            term = (vec * lam) @ vec.T
            err = np.linalg.norm(term - want) / np.linalg.norm(want)
            if not err <= REL_TOL:
                raise Mismatch(f"term at eps^{v}: relative error {err:.3g} > {REL_TOL:g}")
        _structural(n, groups, truncated_at)
        return complete


@dataclass
class VerifyReport:
    """`asymspec verify`: the report passes and names the expected groups."""

    groups: list  # [(Fraction, count)]

    def check(self, code: int, path: str) -> bool:
        with open(path, encoding="utf-8") as fh:
            report = json.load(fh)
        if code != 0 or not report["passed"]:
            raise Mismatch(f"verify exit {code}, passed={report['passed']}")
        got = [(Fraction(g["valuation"]).limit_denominator(64), g["count"]) for g in report["groups"]]
        # the report covers the prediction; when that is truncated (the note
        # says so) its last group sits at the truncation point
        truncated_at = got[-1][0] if report["note"] and got else None
        _match_groups(got, self.groups, truncated_at)
        return True


@dataclass
class SweepCurves:
    """`asymspec sweep`: grid, eigenvalues at sampled rows, tracked vector."""

    kernel: str
    points: np.ndarray
    grid: str
    track: int | None = None

    def check(self, code: int, path: str) -> bool:
        if code != 0:
            raise Mismatch(f"sweep exit {code}")
        with open(path, encoding="utf-8", newline="") as fh:
            rows = list(csv.reader(fh))
        grid = eps_grid(self.grid)
        n = self.points.shape[0]
        curves = rows[1 : 1 + len(grid)]
        if rows[0] != ["eps"] + [f"lambda_{k}" for k in range(1, n + 1)]:
            raise Mismatch("sweep header is wrong")
        if len(curves) != len(grid) or any(len(r) != n + 1 for r in curves):
            raise Mismatch("sweep table has the wrong shape")
        eps = np.array([float(r[0]) for r in curves])
        if not np.allclose(eps, grid, rtol=1e-14, atol=0.0):
            raise Mismatch("sweep eps column differs from the requested grid")
        for i in (0, -1):  # the largest and the smallest eps
            lam = np.linalg.eigvalsh(kernel_matrix(self.kernel, self.points, grid[i]))
            want = lam[np.argsort(-np.abs(lam))]
            got = np.array([float(x) for x in curves[i][1:]])
            err = np.abs(got - want).max() / np.abs(want).max()
            if not err <= EIG_TOL:
                raise Mismatch(f"sweep eigenvalues at eps={grid[i]:.3g}: error {err:.3g}")
        if self.track is None:
            if len(rows) != 1 + len(grid):
                raise Mismatch("sweep has rows after the eigenvalue table")
            return True
        tail = rows[2 + len(grid) :]
        if len(tail) != 2 + len(grid) or tail[-1][0] != "limit":
            raise Mismatch("tracked-vector block has the wrong shape")
        limit = np.array([float(x) for x in tail[-1][1:]])
        want = limit_vector_1d(self.points, self.track)
        if not 1.0 - abs(limit @ want) <= VECTOR_TOL:
            raise Mismatch("predicted limiting vector differs from the monomial basis")
        return True
