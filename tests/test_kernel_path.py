"""The kernel pipeline's Vandermonde matrix, degree scan, dense psi and readout.

The Vandermonde matrix must match the column-by-column reference bit for
bit (its layout too, since BLAS results depend on it).  The degree
scan's per-degree ranks must be a prefix of the node family's Hilbert
increments, and ``kernel_ase`` must not depend on the units or the origin
of the nodes, except where shrinking them puts a term below ``Ase``'s
absolute rank floor, or where the unit map's s^alpha leaves the floating
point range.  Its groups must agree with the paper's flat-limit GKF run
through ``ase_from_gkf``.
"""

import json
import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import asymspec
from asymspec import Exponent, generate_nodes, kernel_ase, kernel_matrix, kernel_model
from asymspec.ase import Ase, eigen_readout
from asymspec.cli import main
from asymspec.gkf import ase_from_gkf
from asymspec.kernels import (
    INFINITE,
    KERNEL_RANK_TOL,
    NodeSet,
    _degree_scan,
    _macaulay_bound,
    _unit_nodes,
    distance_matrix,
    monomials_upto,
)
from reference import (FinitelySmoothError, _principal_angles, block_widths,
                       finite_smooth_flat_limit, smooth_flat_limit, vandermonde)


def vandermonde_reference(nodes, s):
    """One column per multi-index, powers multiplied in coordinate order."""
    cols = []
    for alpha in monomials_upto(nodes.d, s):
        col = np.ones(nodes.n)
        for coord, power in enumerate(alpha):
            if power:
                col = col * nodes.points[:, coord] ** power
        cols.append(col)
    return np.column_stack(cols)


def hilbert_increments(family, d, n):
    """Rank each degree adds to V on a node family, up to n in all.

    Generic points in dimension d add C(t+d-1, d-1) (one per degree in 1-D);
    the circle adds 1, 2, 2, ...; the cubic curve adds 1, 2, 3, 3, ...
    """
    out = []
    while sum(out) < n:
        t = len(out)
        if family == "circle":
            h = 1 if t == 0 else 2
        elif family == "cubic":
            h = min(t + 1, 3)
        else:
            h = math.comb(t + d - 1, d - 1)
        out.append(min(h, n - sum(out)))
    return out


NODE_SETS = [
    ("equispaced:12", 1),
    ("equispaced:40", 1),
    ("uniform:25", 1),
    ("uniform:30", 2),
    ("uniform:60", 2),
    ("uniform:20", 3),
    ("uniform:60", 3),
    ("circle:20", 2),
    ("circle:40", 2),
    ("cubic:20", 2),
    ("cubic:30", 2),
    ("cubic:40", 2),
]

KERNELS = {
    "gaussian": kernel_model("gaussian"),
    "matern2": kernel_model("matern2"),
    # psi_5 != 0: regularity 3
    "custom-r3": kernel_model("custom", psi_coefficients=[1.0, 0.0, -1.0, 0.0, 0.5, 0.2]),
}


def _nodes(spec, d, seed):
    return generate_nodes(spec, d=d, seed=seed)


@pytest.mark.parametrize("spec,d", NODE_SETS)
def test_vandermonde_matches_reference_bitwise(spec, d):
    for seed in (0, 1):
        nodes = _nodes(spec, d, seed)
        for s in (0, 1, 3, min(nodes.n - 1, 12 if d > 1 else 39)):
            v = vandermonde(nodes, s)
            ref = vandermonde_reference(nodes, s)
            assert v.flags["C_CONTIGUOUS"]
            assert v.shape == ref.shape
            assert v.tobytes() == ref.tobytes()


def test_vandermonde_signed_and_zero_coordinates():
    pts = np.array([[-2.0, 0.0, 3.5], [0.0, -0.0, -1.25], [1e-3, -7.0, 0.5], [-0.5, 2.0, -0.0]])
    nodes = NodeSet(pts)
    for s in range(6):
        assert vandermonde(nodes, s).tobytes() == vandermonde_reference(nodes, s).tobytes()


#: Degree through which the scan certifies the cubic curve's increments on
#: every draw tried.  The nodes lie on the curve only up to rounding; from
#: degree 10 to 14, depending on the draw, a degree shows more rank than
#: Macaulay's bound allows after the degrees below it, and the scan stops.
CUBIC_CERTIFIED = 10


def _scan(kernel, nodes):
    return _degree_scan(kernel, _unit_nodes(nodes)[0], KERNEL_RANK_TOL)


def _scan_ranks(kernel, nodes):
    """The rank each degree of the scan adds."""
    return tuple(q.shape[1] for q in _scan(kernel, nodes)[0])


@pytest.mark.parametrize("kernel_name", sorted(KERNELS))
@pytest.mark.parametrize("spec,d", NODE_SETS)
def test_smooth_degree_matches_reference(kernel_name, spec, d):
    # smooth_flat_limit takes the degree q at which the family's Hilbert
    # increments reach n, and never another one: it raises only when q is out
    # of the kernel's reach (r-1, half the psi horizon) or on the cubic curve
    # past the certified degrees
    kernel = KERNELS[kernel_name]
    nodes = _nodes(spec, d, seed=3)
    q = len(hilbert_increments(spec.partition(":")[0], d, nodes.n)) - 1
    in_reach = q <= min(kernel.horizon // 2, kernel.regularity - 1)
    try:
        form = smooth_flat_limit(kernel, nodes)
    except FinitelySmoothError:
        assert not in_reach or (spec.startswith("cubic") and q > CUBIC_CERTIFIED)
        return
    assert in_reach
    assert form.widths == block_widths(d, q)
    assert form.V.tobytes() == vandermonde_reference(nodes, q).tobytes()


def _scan_case(spec, d, seed):
    if (spec, seed) == ("cubic:40", 3):
        return pytest.param(spec, d, seed, marks=pytest.mark.xfail(
            strict=True, reason="this draw's cubic-curve ranks are certified through degree 10 only"))
    return spec, d, seed


@pytest.mark.parametrize("spec,d,seed", [_scan_case(spec, d, 3) for spec, d in NODE_SETS] + [
    (spec, d, seed)
    for spec, d in [("uniform:100", 2), ("uniform:200", 2), ("uniform:200", 3),
                    ("circle:50", 2), ("circle:100", 2), ("cubic:100", 2)]
    for seed in (0, 1)
])
def test_scan_ranks_are_hilbert_increments(spec, d, seed):
    # the gaussian scan's per-degree ranks are a prefix of the family's
    # Hilbert increments; they reach rank n or half the psi horizon, and on
    # the cubic curve at least degree 12
    gaussian = KERNELS["gaussian"]
    nodes = _nodes(spec, d, seed)
    ref = hilbert_increments(spec.partition(":")[0], d, nodes.n)
    ranks = _scan_ranks(gaussian, nodes)
    assert ranks == tuple(ref[: len(ranks)])
    depth = min(len(ref), gaussian.horizon // 2 + 1)
    assert len(ranks) >= (min(depth, 13) if spec.startswith("cubic") else depth)


def test_macaulay_bound():
    # generic increments C(t+d-1, d-1) may grow to C(t+d, d-1); once an
    # increment a is at most its degree t it can no longer grow
    for t in range(1, 12):
        for d in (2, 3, 4):
            assert _macaulay_bound(math.comb(t + d - 1, d - 1), t) == math.comb(t + d, d - 1)
        for a in range(t + 1):
            assert _macaulay_bound(a, t) == a
    assert _macaulay_bound(4, 2) == 5  # 4 = C(3, 2) + C(1, 1)


def test_scan_basis_is_orthonormal_and_spans_v():
    nodes = _nodes("uniform:30", 2, seed=1)
    y = _unit_nodes(nodes)[0]
    q_blocks, r_blocks = _scan(KERNELS["gaussian"], nodes)
    q = np.hstack(q_blocks)
    np.testing.assert_allclose(q.T @ q, np.eye(q.shape[1]), atol=1e-13)
    # R_tt = Q_t^T V_t of the unit nodes, from the recurrence alone
    v = vandermonde_reference(NodeSet(y), len(q_blocks) - 1)
    c0 = 0
    for q_t, r_tt in zip(q_blocks, r_blocks):
        w = r_tt.shape[1]
        np.testing.assert_allclose(r_tt, q_t.T @ v[:, c0 : c0 + w], atol=1e-12)
        c0 += w


def _groups(ase):
    return [(alpha, len(g.leading_values)) for alpha, g in zip(ase.valuations, eigen_readout(ase))]


@pytest.mark.parametrize("kernel_name,spec,d", [
    ("gaussian", "uniform:20", 2),
    ("gaussian", "circle:20", 2),
    ("gaussian", "equispaced:15", 1),
    ("matern2", "uniform:20", 2),
    ("matern2", "equispaced:12", 1),
    ("custom-r3", "uniform:15", 2),
])
def test_kernel_ase_is_invariant_under_affine_maps(kernel_name, spec, d):
    # the expansion of a*x + b is that of x with the term at eps^alpha scaled
    # by a^alpha; it stops early only where such a term falls below Ase's
    # absolute rank floor in the new units
    kernel = KERNELS[kernel_name]
    nodes = _nodes(spec, d, seed=2)
    runs = [(a, kernel_ase(kernel, NodeSet(a * nodes.points + b)))
            for a, b in ((1.0, 0.0), (1e-2, 1e3), (1.0, 1e3), (1e2, 1e3))]
    a_full, full = max(runs, key=lambda run: len(run[1].groups))
    for a, ase in runs:
        ase.validate()
        kept, ratio = len(ase.groups), a / a_full
        assert _groups(ase) == _groups(full)[:kept]
        if kept == len(full.groups):
            assert ase.truncated_at == full.truncated_at
        else:
            alpha, term = full.groups[kept]
            assert ase.truncated_at == alpha
            below = Ase(nodes.n, [(alpha, ratio ** float(alpha) * term)]).term_rank_sum()
            assert below < _groups(full)[kept][1]
        for (alpha, term), (_, want) in zip(ase.groups, full.groups):
            want = ratio ** float(alpha) * want
            assert np.linalg.norm(term - want) <= 1e-8 * np.linalg.norm(want)


def test_finitely_smooth_route_after_a_stall():
    # two tight clusters at +-1: y^2 is constant at tolerance, so the scan of
    # a kernel with r = 3 stops after degree 1; kernel_ase still takes the
    # finitely smooth route that finite_smooth_flat_limit builds.  Its bottom
    # block is singular here, so the Schur chain stalls there and the ASE is
    # truncated at that block's valuation 2 (r - 1/2) = 5; the smooth route
    # would truncate at 2.  The GKF route keeps its whole-W test.
    custom = KERNELS["custom-r3"]
    nodes = NodeSet(np.array([-1.0 - 1e-10, -1.0, 1.0, 1.0 + 1e-10]))
    assert _scan_ranks(custom, nodes) == (1, 1)
    form = finite_smooth_flat_limit(custom, nodes)
    assert form.widths[-1] == 2
    ase = kernel_ase(custom, nodes)
    assert ase.valuations == [Exponent(0), Exponent(2)]
    assert ase.truncated_at == Exponent(5)
    with pytest.raises(ValueError, match="W is singular"):
        ase_from_gkf(form, KERNEL_RANK_TOL)


def _prefix_of(got, want, truncated_at):
    """Every group below truncated_at is expected; one at it may hold fewer."""
    head = [g for g in got if g[0] < truncated_at]
    edge = [g for g in got if g[0] >= truncated_at]
    if head != want[: len(head)] or len(edge) > 1:
        return False
    return not edge or (edge[0][0] == truncated_at == want[len(head)][0]
                        and edge[0][1] <= want[len(head)][1])


@pytest.mark.parametrize("spec", ["uniform:100", "uniform:200", "circle:50"])
def test_gaussian_former_failures_truncate(spec, tmp_path, capsys):
    # these crashed with "psi horizon 65 too small for degree 66"
    out = tmp_path / "ase.json"
    code = main(["kernel", "--kernel", "gaussian", "--nodes", spec, "--dim", "2",
                 "--seed", "0", "--output", str(out)])
    assert code == 2
    rows = [row.split(",") for row in capsys.readouterr().out.strip().splitlines()[1:]]
    got = [(Fraction(v), int(c)) for v, c, _ in rows]
    n = int(spec.partition(":")[2])
    want = [(Fraction(2 * t), c)
            for t, c in enumerate(hilbert_increments(spec.partition(":")[0], 2, n))]
    trunc = json.loads(out.read_text())["truncated_at"]
    assert _prefix_of(got, want, Fraction(trunc["num"], trunc["den"]))


class TestDensePsi:
    def test_coefficients_and_series_agree(self):
        for name, r in (("gaussian", INFINITE), ("exponential", 1), ("matern2", 2)):
            k = kernel_model(name)
            assert len(k.coeffs) == 65 and k.horizon == 64
            assert [k.psi_coeff(j) for j in range(65)] == list(k.coeffs)
            assert k.regularity == r

    def test_horizon_message(self):
        with pytest.raises(ValueError, match=r"^psi horizon 65 too small for degree 66$"):
            kernel_model("gaussian").psi_coeff(66)

    def test_custom_zero_coefficients_are_positive_zero(self):
        k = kernel_model("custom", psi_coefficients=[1.0, -0.0, -1.0])
        assert math.copysign(1.0, k.psi_coeff(1)) == 1.0
        assert k.regularity == INFINITE
        assert k.coeffs == kernel_model("custom", psi_coefficients=[1, 0, -1]).coeffs


def test_kernel_matrix_with_precomputed_distances():
    nodes = _nodes("uniform:15", 2, seed=4)
    dist = distance_matrix(nodes, 1)
    custom = kernel_model("custom", psi_coefficients=[1.0, 0.0, -1.0, 0.0, 0.5])
    for k in (kernel_model("gaussian"), kernel_model("matern2"), custom):
        for eps in (0.3, 1e-3):
            a = kernel_matrix(k, nodes, eps, dist)
            assert a.tobytes() == kernel_matrix(k, nodes, eps).tobytes()


def test_kernel_ase_readout_is_the_ase_readout():
    nodes = _nodes("uniform:12", 2, seed=5)
    ase = kernel_ase(kernel_model("matern2"), nodes)
    readout = ase.readout
    again = eigen_readout(ase)
    assert [g.leading_values for g in readout] == [g.leading_values for g in again]
    assert readout is ase.readout


def test_finitely_smooth_fallback_on_far_apart_nodes(tmp_path, capsys):
    # the relative rank test finds V_{<=1} rank deficient; the ASE comes from
    # the finitely smooth pipeline instead of an uncaught error
    path = tmp_path / "far.csv"
    path.write_text("0,0\n1000,0\n2000,0.000001\n")
    out = tmp_path / "far.json"
    code = main(["kernel", "--kernel", "matern2", "--nodes", str(path), "--output", str(out)])
    assert code == 0
    rows = capsys.readouterr().out.strip().splitlines()[1:]
    assert [row.split(",")[0] for row in rows] == ["0", "2", "3"]


@pytest.mark.parametrize("kernel_name,spec,d,seed", [
    ("gaussian", "uniform:10", 2, 0),
    ("gaussian", "equispaced:8", None, 0),
    ("gaussian", "uniform:20", 3, 1),
    ("exponential", "uniform:6", 2, 5),
    ("exponential", "circle:9", None, 2),
    ("matern2", None, None, 0),  # linspace(0, 1, 5)
    ("matern2", "uniform:12", 2, 3),
])
def test_kernel_ase_agrees_with_the_gkf_route(kernel_name, spec, d, seed):
    # the shipped route (degree scan of the unit nodes, then the Schur chain)
    # against the paper's form (V, Delta, W) with V the Vandermonde matrix;
    # where one route truncates earlier its groups are a prefix of the other's
    kernel = kernel_model(kernel_name)
    nodes = NodeSet(np.linspace(0.0, 1.0, 5)) if spec is None else _nodes(spec, d, seed)
    build = smooth_flat_limit if kernel.regularity == INFINITE else finite_smooth_flat_limit
    runs = [kernel_ase(kernel, nodes), ase_from_gkf(build(kernel, nodes))]
    shorter, longer = sorted(runs, key=lambda ase: len(ase.factors))
    assert _groups(shorter) == _groups(longer)[: len(shorter.factors)]
    for got, want in zip(shorter.readout, longer.readout):
        np.testing.assert_allclose(got.leading_values, want.leading_values, rtol=1e-10, atol=0)
        assert _principal_angles(got.vectors, want.vectors).max() <= 1e-10


def test_gkf_route_stops_where_the_scan_completes():
    gaussian, nodes = kernel_model("gaussian"), _nodes("equispaced:8", None, 0)
    assert kernel_ase(gaussian, nodes).complete
    assert ase_from_gkf(smooth_flat_limit(gaussian, nodes)).truncated_at == Exponent(14)


@pytest.mark.parametrize("kernel_name,power,count", [
    ("gaussian", 20, 10),  # s^16 overflows
    ("gaussian", -200, 4),  # s^2 underflows to 0
    ("matern2", -200, 4),  # so do s^2 and the block at r - 1/2
    ("matern2", 200, 5),  # s^2 overflows, and so do the distances of that block
])
def test_nodes_far_from_unit_scale_truncate(kernel_name, power, count, tmp_path):
    # nodes k * 10^power: the group at eps^alpha is that of the nodes k times
    # 10^(power alpha), and the expansion stops before the first group where
    # that factor leaves the floating-point range
    nodes = tmp_path / "nodes.csv"
    nodes.write_text("# d=1\n" + "".join(f"{k}e{power}\n" for k in range(count)))
    out = tmp_path / "ase.json"
    env = dict(os.environ, PYTHONPATH=str(Path(asymspec.__file__).resolve().parents[1]))
    proc = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m", "asymspec.cli", "kernel",
         "--kernel", kernel_name, "--nodes", str(nodes), "--output", str(out)],
        capture_output=True, text=True, timeout=120, env=env,
    )
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr and "Warning" not in proc.stderr
    doc = json.loads(out.read_text())
    got = [(Fraction(g["valuation"]["num"], g["valuation"]["den"]), g["lambda"])
           for g in doc["groups"]]
    base = kernel_ase(kernel_model(kernel_name), NodeSet(np.arange(float(count))))
    want = [(alpha, g.leading_values) for alpha, g in zip(base.valuations, base.readout)]
    assert 0 < len(got) < len(want)
    trunc = doc["truncated_at"]
    assert Fraction(trunc["num"], trunc["den"]) == want[len(got)][0]
    for (alpha, lam), (beta, ref) in zip(got, want):
        assert alpha == beta and len(lam) == len(ref)
        np.testing.assert_allclose(lam, np.array(ref) * float(f"1e{power}") ** float(alpha),
                                   rtol=1e-8, atol=0)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_floor_stop_forms_no_dense_term(seed, monkeypatch):
    # shrunk nodes put the group at eps^6 below the term rank floor; the stop
    # reads the group's leading values, never the dense n x n term
    nodes = NodeSet(1e-2 * _nodes("uniform:20", 2, seed).points)
    kernel = kernel_model("gaussian")
    want = kernel_ase(kernel, nodes)

    def forbidden(*args):
        raise AssertionError("kernel_ase formed a dense term")

    monkeypatch.setattr(Ase, "groups", property(forbidden))
    got = kernel_ase(kernel, nodes)
    assert len(got.factors) == 3 and got.truncated_at == Exponent(6)
    assert got.valuations == want.valuations and got.truncated_at == want.truncated_at
