"""Seeded inputs and fixed operation lists for each workload.

Every input comes from ``numpy.random.default_rng(seed)`` drawn in a fixed
order, so one seed always gives byte-identical files and argv lists.  The
program sees only these inputs: JSON and CSV files written here, or node
generator specs with a ``--seed`` drawn here.  Tolerances and eps grids are
always passed explicitly, so a change to a CLI default cannot move a result.
"""

from __future__ import annotations

import json
import os
import re
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

import checks
from ops import Op

SIZES = (10, 20, 50, 100, 200)
KERNELS = ("gaussian", "matern2", "exponential")
FAMILIES = (("equispaced", 1), ("uniform", 2), ("uniform", 3), ("circle", 2), ("cubic", 2))
VERIFY_GRID = "1e-4:1e-1:37"
SWEEP_GRID = "1e-2:1e-1:120"
TOLERANCES = ["--tol-coeff", "1e-2", "--tol-angle", "1e-2"]

# Operations that fail at commit 12a85b4, the program this benchmark was
# first run against, with the reason and on how many of the seeds scanned
# (0-129 for kernel ops, 0-59 for oracle ops, 0-5 for series ops) it
# happened.  Random node sets make many failures depend on the seed.  The timed workloads
# leave these out, so that every timed operation succeeds on every scanned
# seed; the `known-defects` workload runs exactly these and names each one
# that fails with its reason.  A fix moves its entry back into the timing.
_SINGULAR = "exit 1: W is singular at tolerance"
_NO_DIMS = "exit 1: column block introduces no new dimensions at tolerance"
_HORIZON = "exit 1: psi horizon 65 too small for degree 66"
_SLOW = "about 6.4 s, too close to the 10 s limit to time safely"
KNOWN_DEFECTS = {
    "kernel/gaussian/uniform-d2/50": f"{_NO_DIMS} (43/130 seeds)",
    "kernel/gaussian/uniform-d2/100": f"{_HORIZON} (some seeds); 1-3 s otherwise",
    "kernel/gaussian/uniform-d2/200": "over the limit (about 49 s uncapped)",
    "kernel/gaussian/uniform-d3/200": f"{_NO_DIMS} (7/130 seeds)",
    "kernel/gaussian/circle/20": f"{_NO_DIMS} or {_SINGULAR} (5/130 seeds)",
    "kernel/gaussian/circle/50": f"{_HORIZON} or {_SINGULAR} (38/130 seeds)",
    "kernel/gaussian/circle/100": _SLOW,
    "kernel/gaussian/cubic/10": f"{_NO_DIMS} (1/130 seeds)",
    "kernel/gaussian/cubic/20": f"{_NO_DIMS} or {_SINGULAR} (93/130 seeds)",
    "kernel/gaussian/cubic/100": _SLOW,
    "kernel/matern2/uniform-d2/200": f"{_SINGULAR} (2/130 seeds)",
    "kernel/matern2/circle/20": f"{_SINGULAR} (2/130 seeds)",
    "kernel/matern2/circle/50": f"{_SINGULAR} (24/130 seeds)",
    "kernel/matern2/circle/100": f"{_SINGULAR} (112/130 seeds)",
    "kernel/matern2/circle/200": f"{_SINGULAR} (every seed)",
    "kernel/matern2/cubic/10": f"{_SINGULAR} (1/130 seeds)",
    "kernel/matern2/cubic/20": f"{_SINGULAR} (8/130 seeds)",
    "kernel/matern2/cubic/50": f"{_SINGULAR} (42/130 seeds)",
    "kernel/matern2/cubic/100": f"{_SINGULAR} (119/130 seeds)",
    "kernel/matern2/cubic/200": f"{_SINGULAR} (every seed)",
    "kernel/exponential/cubic/200": f"{_SINGULAR} (1/130 seeds)",
    "analyze/rotated/200": "over the limit (about 15 s uncapped)",
    "verify/gaussian/uniform-d2/10": "verify exit 2 (19/60 seeds)",
    "verify/gaussian/uniform-d3/10": "verify exit 2 (17/60 seeds)",
    "verify/gaussian/uniform-d3/20": "verify exit 2 (45/60 seeds)",
    "verify/matern2/equispaced/50": "verify exit 2: the single-eps* coefficient check",
    "verify/matern2/equispaced/100": "verify exit 2: the single-eps* coefficient check",
    "verify/matern2/uniform-d2/50": "verify exit 2 (10/60 seeds)",
    "verify/matern2/uniform-d2/100": "verify exit 2 (39/60 seeds)",
    "verify/matern2/uniform-d2/200": f"verify exit 2, or {_SINGULAR} (every seed)",
    "verify/matern2/uniform-d2/20": "verify exit 2 (1 of about 200 draws)",
    "verify/matern2/uniform-d3/50": "verify exit 2 (1/60 seeds)",
    "verify/scaled/10": "verify exit 2: eps^(1/2) corrections defeat the single-eps* check (29/60)",
    "verify/scaled/20": "verify exit 2: eps^(1/2) corrections defeat the single-eps* check (29/60)",
    "verify/scaled/50": "verify exit 2: eps^(1/2) corrections defeat the single-eps* check (49/60)",
    "verify/scaled-int/10": "verify exit 2 (21/60 seeds)",
    "verify/scaled-int/20": "verify exit 2 (13/60 seeds)",
    "verify/scaled-int/50": "verify exit 2 (3/60 seeds)",
    "sweep/gaussian/uniform/50": f"{_NO_DIMS} (22/60 seeds)",
    "sweep/matern2/uniform/200": f"{_SINGULAR} (1/60 seeds)",
}


def known_defect(op_id: str):
    """The recorded reason, also for a repeated draw ("-b", "-c") of a listed op."""
    return KNOWN_DEFECTS.get(re.sub(r"-[bc]/", "/", op_id))


@dataclass
class Workload:
    name: str
    ops: list  # timed operations, in order
    warmup: Op  # a small operation run once before timing


class _Builder:
    """Draws inputs in a fixed order and writes them under ``workdir``."""

    def __init__(self, seed: int, workdir: str):
        self.rng = np.random.default_rng(seed)
        self.workdir = workdir
        self.ops: list[Op] = []

    def path(self, op_id: str, ext: str) -> str:
        return os.path.join(self.workdir, op_id.replace("/", "_") + ext)

    def cli_seed(self) -> str:
        return str(int(self.rng.integers(2**31)))

    def add(self, op_id, argv, n, expect, ext=".json"):
        out = self.path(op_id, ".out" + ext)
        self.ops.append(Op(op_id, argv + ["--output", out], n, out, expect))

    # -- kernels -----------------------------------------------------------

    def kernel_op(self, kernel, family, d, n, command="kernel", extra=(), tag=""):
        fam = f"{family}-d{d}" if family == "uniform" else family
        op_id = f"{command}/{kernel}/{fam}{tag}/{n}"
        argv = [command, "--kernel", kernel, "--nodes", f"{family}:{n}",
                "--dim", str(d), "--seed", self.cli_seed(), *extra]
        groups = checks.kernel_groups(kernel, family, d, n)
        expect = checks.KernelAse(groups) if command == "kernel" else checks.VerifyReport(groups)
        self.add(op_id, argv, n, expect)

    def node_file(self, op_id, points):
        path = self.path(op_id, ".nodes.csv")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(f"# d={points.shape[1]}\n")
            for row in points:
                fh.write(",".join(repr(float(x)) for x in row) + "\n")
        return path

    def sweep_op(self, kernel, points, label, track=None):
        n, d = points.shape
        op_id = f"sweep/{kernel}/{label}{'-d3' if d == 3 else ''}/{n}"
        if label == "equispaced":
            nodes = f"equispaced:{n}"  # the generator is documented as linspace(0, 1, n)
        else:
            nodes = self.node_file(op_id, points)
        argv = ["sweep", "--kernel", kernel, "--nodes", nodes, "--eps-grid", SWEEP_GRID,
                "--format", "csv"]
        if track is not None:
            argv += ["--track-vector", str(track)]
        self.add(op_id, argv, n, checks.SweepCurves(kernel, points, SWEEP_GRID, track), ".csv")

    # -- planted series ----------------------------------------------------

    def series_op(self, family, n, command="analyze", exponents=None, tag=""):
        """A planted series; ``exponents`` are the scaled family's nu in halves,
        or the rotated family's eigenvalue powers."""
        op_id = f"{command}/{family}{tag}/{n}"
        if family == "scaled":
            obj, terms = planted_scaled(self.rng, n, exponents or (0, 1, 2, 3, 4))
        else:
            obj, terms = planted_rotated(self.rng, n, exponents or (0, 1, 2, 3))
        path = self.path(op_id, ".in.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(obj, fh)
        argv = [command, "--input", path, "--mode", "auto"]
        if command == "verify":
            argv += ["--eps-grid", VERIFY_GRID, *TOLERANCES]
            expect = checks.VerifyReport([(v, rank) for v, _, rank in terms])
        else:
            expect = checks.PlantedAse(terms)
        self.add(op_id, argv, n, expect)


def _sym(m: np.ndarray) -> np.ndarray:
    return 0.5 * (m + m.T)  # exactly symmetric in floating point


def _block_sizes(n: int, k: int) -> list[int]:
    return [n // k + (1 if i < n % k else 0) for i in range(k)]


def _series_json(n: int, terms: dict, den: int, trunc_num: int) -> dict:
    return {
        "n": n,
        "symmetric": True,
        "trunc_order": {"num": trunc_num, "den": den},
        "terms": [
            {"exponent": {"num": int(e), "den": den}, "matrix": m.tolist()}
            for e, m in sorted(terms.items())
        ],
    }


def planted_scaled(rng, n: int, halves):
    """K = Delta (H + eps^(1/2) R1 + eps R2) Delta with Delta = diag(eps^nu_i).

    ``halves`` are the distinct nu in units of 1/2; rows are shuffled.  With
    H symmetric positive definite one scaling resolves K, and the term of the
    block at nu is the Schur complement of H on that block against every
    block of smaller nu, at valuation 2 nu.
    """
    hnu = np.repeat(np.asarray(halves), _block_sizes(n, len(halves)))
    rng.shuffle(hnu)
    b = rng.standard_normal((n, n))
    h = _sym(b @ b.T / n + np.eye(n))
    r1 = _sym(rng.standard_normal((n, n))) / np.sqrt(n)
    r2 = _sym(rng.standard_normal((n, n))) / np.sqrt(n)
    base = hnu[:, None] + hnu[None, :]
    terms: dict = {}
    for shift, mat in ((0, h), (1, r1), (2, r2)):
        e = base + shift
        for s in np.unique(e):
            terms[s] = terms.get(s, 0.0) + np.where(e == s, mat, 0.0)
    obj = _series_json(n, terms, 2, int(max(terms)) + 1)
    expected = []
    for hv in sorted(set(halves)):
        idx = np.flatnonzero(hnu == hv)
        prev = np.flatnonzero(hnu < hv)
        s = h[np.ix_(idx, idx)]
        if prev.size:
            s = s - h[np.ix_(idx, prev)] @ np.linalg.solve(h[np.ix_(prev, prev)], h[np.ix_(prev, idx)])
        term = np.zeros((n, n))
        term[np.ix_(idx, idx)] = s
        expected.append((Fraction(int(hv)), term, idx.size))
    return obj, expected


def planted_rotated(rng, n: int, powers):
    """K = Q diag(c_i eps^a_i) Q^T with Q dense orthogonal and c_i in [1, 2].

    Every entry has valuation 0, so no diagonal scaling helps and `auto`
    falls back to the iterative route.  The term at eps^a is Q_a diag(c_a) Q_a^T.
    """
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    c = rng.uniform(1.0, 2.0, size=n)
    a = np.repeat(np.asarray(powers), _block_sizes(n, len(powers)))
    terms = {}
    expected = []
    for p in powers:
        cols = a == p
        term = _sym((q[:, cols] * c[cols]) @ q[:, cols].T)
        terms[p] = term
        expected.append((Fraction(p), term, int(cols.sum())))
    return _series_json(n, terms, 1, max(powers) + 1), expected


# ---------------------------------------------------------------------------
# the workloads
# ---------------------------------------------------------------------------


def _kernel_flat(b: _Builder):
    for kernel in KERNELS:
        for family, d in FAMILIES:
            for n in SIZES:
                if kernel == "gaussian" and family in ("circle", "cubic") and n > 100:
                    continue  # each would add a 10 s abandoned op to every run
                b.kernel_op(kernel, family, d, n)


INSTANCES = ("", "-b", "-c")  # tags of repeated draws of one configuration


def _series_analyze(b: _Builder):
    for n in SIZES:
        repeats = INSTANCES if n <= 20 else INSTANCES[:1]
        for tag in repeats:
            b.series_op("scaled", n, tag=tag)
            b.series_op("scaled", n, exponents=(0, 2, 4), tag="-int" + tag)
            if n <= 50:
                b.series_op("scaled", n, exponents=(0, 1), tag="-2" + tag)
            b.series_op("rotated", n, tag=tag)
            if n <= 50:
                b.series_op("rotated", n, exponents=(0, 2), tag="-2" + tag)


def _oracle_check(b: _Builder):
    verify = ["--eps-grid", VERIFY_GRID, *TOLERANCES]
    for kernel, family, d, sizes in (
        ("gaussian", "equispaced", 1, (10, 20, 50)),
        ("gaussian", "uniform", 2, (10, 20)),
        ("gaussian", "uniform", 3, (10, 20)),
        ("matern2", "equispaced", 1, (20, 50, 100)),
        ("matern2", "uniform", 2, (20, 50, 100, 200)),
        ("matern2", "uniform", 3, (50,)),
        ("exponential", "equispaced", 1, (50, 200)),
        ("exponential", "uniform", 2, (50, 100, 200)),
        ("exponential", "circle", 2, (100,)),
    ):
        for n in sizes:
            # equispaced nodes do not depend on the seed, so one draw is enough
            for tag in INSTANCES[:1] if family == "equispaced" else INSTANCES:
                b.kernel_op(kernel, family, d, n, command="verify", extra=verify, tag=tag)
    for n in (10, 20, 50):
        for tag in INSTANCES:
            b.series_op("rotated", n, command="verify", tag=tag)
        b.series_op("scaled", n, command="verify")
        b.series_op("scaled", n, command="verify", exponents=(0, 2, 4), tag="-int")
    b.sweep_op("gaussian", np.linspace(0.0, 1.0, 20)[:, None], "equispaced", track=3)
    b.sweep_op("matern2", b.rng.uniform(0.0, 1.0, size=(200, 2)), "uniform")
    b.sweep_op("matern2", b.rng.uniform(0.0, 1.0, size=(200, 3)), "uniform")
    b.sweep_op("exponential", b.rng.uniform(0.0, 1.0, size=(100, 2)), "uniform")
    b.sweep_op("gaussian", b.rng.uniform(0.0, 1.0, size=(50, 2)), "uniform")


BUILDERS = {
    "kernel-flat": _kernel_flat,
    "series-analyze": _series_analyze,
    "oracle-check": _oracle_check,
}

# the small operation each workload warms up with (and set-up time runs)
WARMUP = {
    "kernel-flat": lambda b: b.kernel_op("gaussian", "equispaced", 1, 10, tag="-warmup"),
    "series-analyze": lambda b: b.series_op("scaled", 10, tag="-warmup"),
    "oracle-check": lambda b: b.kernel_op(
        "gaussian", "equispaced", 1, 10, command="verify",
        extra=["--eps-grid", VERIFY_GRID, *TOLERANCES], tag="-warmup"),
}


def _spread_sizes(ops: list) -> list:
    """Each size's ops spread evenly over the pass, in place of one run of them.

    Ops of one size then meet the machine at many moments of a pass, so a
    slow or fast stretch of a few seconds does not land on all of them.
    """
    by_n: dict = {}
    for op in ops:
        by_n.setdefault(op.n, []).append(op)
    keyed = [((j + 0.5) / len(group), n, op)
             for n, group in by_n.items() for j, op in enumerate(group)]
    return [op for _, _, op in sorted(keyed, key=lambda k: k[:2])]


def build(name: str, seed: int, workdir: str) -> Workload:
    """The workload's inputs, written under ``workdir``.

    ``name`` may also be ``known-defects``: the operations of every workload
    that KNOWN_DEFECTS lists.
    """
    source = list(BUILDERS) if name == "known-defects" else [name]
    ops = []
    for src in source:
        b = _Builder(seed, workdir)
        BUILDERS[src](b)  # draws every op, listed or not, so no draw ever shifts
        for op in b.ops:
            known = known_defect(op.id) is not None
            if known == (name == "known-defects"):
                ops.append(op)
    ops = _spread_sizes(ops)
    warm = _Builder(seed + 1, os.path.join(workdir, "warmup"))
    os.makedirs(warm.workdir, exist_ok=True)
    WARMUP["kernel-flat" if name == "known-defects" else name](warm)
    return Workload(name, ops, warm.ops[0])
