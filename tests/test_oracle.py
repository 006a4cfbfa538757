"""Eigen-sweeps, slope estimation and prediction matching."""

import numpy as np
import pytest

from asymspec import (
    Ase,
    Exponent,
    MatrixSeries,
    analyze_series,
    ase_from_gkf,
    eigen_sweep,
    estimate_valuations,
    generate_nodes,
    kernel_ase,
    kernel_matrix,
    kernel_model,
    match_ase,
)
from asymspec.gkf import GkfForm
from asymspec.oracle import eps_star_indices
from asymspec.scaling import DiagonalScaling
from reference import _principal_angles


def default_grid(lo=1e-4, hi=1e-1, pts=37):
    return np.geomspace(lo, hi, pts)[::-1]


class TestEigenSweep:
    def test_2x2_curves(self, ex_2x2):
        grid = np.geomspace(1e-4, 1e-1, 16)[::-1]
        sweep = eigen_sweep(ex_2x2.evaluate, grid)
        assert np.allclose(sweep.eigenvalues[:, 0], 1.0, atol=0.02)
        ratio = sweep.eigenvalues[-1, 1] / grid[-1] ** 2
        assert ratio == pytest.approx(1.0, rel=1e-3)

    def test_identity_constant(self):
        k = MatrixSeries(3, [(0, np.eye(3))], 1, symmetric=True)
        sweep = eigen_sweep(k.evaluate, default_grid(pts=6))
        assert np.all(sweep.eigenvalues == 1.0)

    def test_equispaced_slopes_increase(self):
        g = kernel_model("gaussian")
        nodes = generate_nodes("equispaced:20")
        sweep = eigen_sweep(lambda eps: kernel_matrix(g, nodes, eps),
                            np.geomspace(1e-2, 1e-1, 24)[::-1])
        fits = estimate_valuations(sweep)
        slopes = [f.slope for f in fits[:4]]
        assert all(b - a > 1.5 for a, b in zip(slopes, slopes[1:]))

    def test_grid_validation(self, ex_2x2):
        with pytest.raises(ValueError):
            eigen_sweep(ex_2x2.evaluate, [1e-1, 1e-2, 1e-3])  # too few
        with pytest.raises(ValueError):
            eigen_sweep(ex_2x2.evaluate, [1e-3, 1e-2, 1e-1, 1.0])  # increasing


class TestValuesOnlySweep:
    """Eigenvectors only at the indices ``vectors`` names; ``eigvalsh`` everywhere else."""

    @staticmethod
    def _count_eigh(monkeypatch):
        calls = []
        eigh = np.linalg.eigh
        monkeypatch.setattr(np.linalg, "eigh", lambda a: calls.append(1) or eigh(a))
        return calls

    def test_values_only_makes_no_eigh_call(self, monkeypatch):
        kernel, nodes = kernel_model("matern2"), generate_nodes("uniform:50", seed=0)
        source = lambda eps: kernel_matrix(kernel, nodes, eps)
        grid = np.geomspace(1e-2, 1e-1, 24)[::-1]
        full = eigen_sweep(source, grid)
        calls = self._count_eigh(monkeypatch)
        partial = eigen_sweep(source, grid, {})
        assert calls == []
        assert partial.eigenvectors == {}
        scale = np.abs(full.eigenvalues).max()
        assert np.abs(partial.eigenvalues - full.eigenvalues).max() <= 1e-14 * scale
        eigen_sweep(source, grid, {3: [0], 7: []})
        assert len(calls) == 2

    def test_full_sweep_keys_every_point(self, ex_5x5):
        sweep = eigen_sweep(ex_5x5.evaluate, default_grid(pts=6))
        assert sorted(sweep.eigenvectors) == list(range(6))
        assert all(curves == tuple(range(5)) and u.shape == (5, 5)
                   for curves, u in sweep.eigenvectors.values())

    @pytest.mark.parametrize("index", [6, -1])
    def test_vectors_outside_the_grid(self, ex_5x5, index):
        with pytest.raises(ValueError, match="vectors must map grid indices"):
            eigen_sweep(ex_5x5.evaluate, default_grid(pts=6), {index: [0]})

    @pytest.mark.parametrize("case", ["ex_5x5", "ex_degenerate", "matern2"])
    def test_partial_sweep_matches_full(self, request, case):
        if case == "matern2":
            kernel, nodes = kernel_model("matern2"), generate_nodes("uniform:50", seed=0)
            ase = kernel_ase(kernel, nodes)
            source = lambda eps: kernel_matrix(kernel, nodes, eps)
        else:
            series = request.getfixturevalue(case)
            ase = analyze_series(series, "auto")
            source = series.evaluate
        grid = default_grid()
        stars = eps_star_indices(grid, ase.readout)
        vectors = {i: range(ase.n) for i in stars if i is not None}
        partial = eigen_sweep(source, grid, vectors)
        assert len(partial.eigenvectors) == len(vectors) >= 1
        want = match_ase(ase, eigen_sweep(source, grid), 1e-2, 1e-2)
        got = match_ase(ase, partial, 1e-2, 1e-2)
        assert got.passed == want.passed
        for g, w in zip(got.groups, want.groups):
            assert (g.verifiable, g.eps_star) == (w.verifiable, w.eps_star)
            assert g.coeff_rel_errors == w.coeff_rel_errors
            assert g.angle == w.angle
            assert (g.slope_ok, g.coeff_ok, g.angle_ok, g.passed) == (
                w.slope_ok, w.coeff_ok, w.angle_ok, w.passed)

    def test_eps_star_without_eigenvectors(self, ex_3x3):
        ase = analyze_series(ex_3x3, "auto")
        sweep = eigen_sweep(ex_3x3.evaluate, default_grid(), {})
        with pytest.raises(ValueError, match=r"keeps the eigenvectors of curves \[\] at grid index"):
            match_ase(ase, sweep, 1e-2, 1e-2)

    def test_eps_star_indices(self, ex_3x3):
        ase = analyze_series(ex_3x3, "auto")
        grid = default_grid()
        stars = eps_star_indices(grid, ase.readout)
        report = match_ase(ase, eigen_sweep(ex_3x3.evaluate, grid), 1e-2, 1e-2)
        assert [grid[i] for i in stars] == [g.eps_star for g in report.groups]
        # a group that never clears the ceiling has no eps*
        unseen = Ase(2, [(Exponent(0), np.diag([1.0, 0.0])), (Exponent(10), np.diag([0.0, 1.0]))])
        assert eps_star_indices(default_grid(1e-4, 1e-2, 25), unseen.readout)[1] is None

    def test_perturbed_eigenvalue_fails_the_check(self, ex_5x5, monkeypatch):
        eigvalsh = np.linalg.eigvalsh

        def off(a):
            w = eigvalsh(a)
            w[0] += 1e-8 * max(np.abs(a).max(), 1.0)
            return w

        monkeypatch.setattr(np.linalg, "eigvalsh", off)
        with pytest.raises(np.linalg.LinAlgError, match="norm and trace"):
            eigen_sweep(ex_5x5.evaluate, default_grid(pts=6), {})

    @pytest.mark.parametrize("vectors", [None, {}])
    def test_nan_entry_fails(self, vectors):
        a = np.diag([3.0, 2.0, 1.0])
        a[0, 1] = a[1, 0] = np.nan
        with pytest.raises(np.linalg.LinAlgError):
            eigen_sweep(lambda eps: a, default_grid(pts=6), vectors)

    @pytest.mark.parametrize("vectors", [None, {}])
    def test_huge_entries_pass(self, vectors):
        # ||a||_F would overflow if the values-only check did not scale first
        rng = np.random.default_rng(3)
        q = np.linalg.qr(rng.standard_normal((6, 6)))[0]
        base = (q * np.array([4.0, 3.0, 2.0, 1.0, 0.5, 0.25])) @ q.T
        sweep = eigen_sweep(lambda eps: 1e160 * (base + eps * np.eye(6)), default_grid(pts=6),
                            vectors)
        lam = sweep.eigenvalues[-1] / 1e160
        np.testing.assert_allclose(lam, [4.0, 3.0, 2.0, 1.0, 0.5, 0.25], rtol=1e-3)


class TestEstimateValuations:
    def test_5x5_slopes(self, ex_5x5):
        sweep = eigen_sweep(ex_5x5.evaluate, default_grid())
        fits = estimate_valuations(sweep)
        expect = [0, 2, 2, 4, 4]
        for f, e in zip(fits, expect):
            assert abs(f.slope - e) < 0.1
            assert f.reliable

    def test_constant_spd(self):
        rng = np.random.default_rng(2)
        a = rng.standard_normal((4, 4))
        k = MatrixSeries(4, [(0, a @ a.T + np.eye(4))], 1, symmetric=True)
        fits = estimate_valuations(eigen_sweep(k.evaluate, default_grid(pts=8)))
        assert all(abs(f.slope) < 0.01 for f in fits)

    def test_exponential_kernel_slopes(self):
        e = kernel_model("exponential")
        nodes = generate_nodes("uniform:5", d=1, seed=3)
        sweep = eigen_sweep(lambda eps: kernel_matrix(e, nodes, eps), default_grid())
        fits = estimate_valuations(sweep)
        expect = [0, 1, 1, 1, 1]
        for f, ex in zip(fits, expect):
            assert abs(f.slope - ex) < 0.1

    def test_below_floor_flagged(self, ex_5x5):
        # an eps^4 eigenvalue leaves too few points above the floor on a
        # narrow grid near the ceiling
        sweep = eigen_sweep(ex_5x5.evaluate, np.geomspace(1e-5, 2e-5, 6)[::-1])
        fits = estimate_valuations(sweep)
        assert not fits[-1].reliable
        assert fits[-1].n_points < 4


class TestMatchAse:
    def test_3x3_passes(self, ex_3x3):
        ase = analyze_series(ex_3x3, "auto")
        sweep = eigen_sweep(ex_3x3.evaluate, default_grid())
        report = match_ase(ase, sweep, tol_coeff=1e-2, tol_angle=1e-2)
        assert report.passed
        assert all(g.verifiable for g in report.groups)

    def test_corrupted_coefficients_fail(self, ex_3x3):
        ase = analyze_series(ex_3x3, "auto")
        doubled = Ase(ase.n, [(a, 2.0 * t) for a, t in ase.groups], ase.truncated_at)
        sweep = eigen_sweep(ex_3x3.evaluate, default_grid())
        report = match_ase(doubled, sweep, tol_coeff=1e-2, tol_angle=1e-2)
        assert not report.passed
        # slopes are untouched by coefficient scaling
        assert all(g.slope_ok for g in report.groups if g.verifiable)
        assert any(not g.coeff_ok for g in report.groups if g.verifiable)

    def test_tracked_vector_angle_shrinks(self):
        g = kernel_model("gaussian")
        nodes = generate_nodes("equispaced:20")
        ase = kernel_ase(g, nodes)
        from asymspec.cli import _predicted_vector

        pred = _predicted_vector(ase, 3)
        angles = []
        for eps in (1e-1, 3e-2, 1e-2):
            k = np.exp(-((eps * (nodes.points - nodes.points.T)) ** 2))
            w, u = np.linalg.eigh(k)
            u3 = u[:, np.argsort(-np.abs(w))[2]]
            angles.append(np.arccos(min(1.0, abs(pred @ u3))))
        assert angles[2] < angles[1] < angles[0]
        assert angles[2] < 2e-2

    def test_unverifiable_groups_never_fail(self):
        # a valuation-10 group is invisible in doubles everywhere on [1e-4, 1e-2]
        term0 = np.diag([1.0, 0.0])
        term1 = np.diag([0.0, 1.0])
        ase = Ase(2, [(Exponent(0), term0), (Exponent(10), term1)])
        k = MatrixSeries(2, {0: term0, 10: term1}, trunc_order=11, symmetric=True)
        sweep = eigen_sweep(k.evaluate, default_grid(1e-4, 1e-2, 25))
        report = match_ase(ase, sweep, 1e-2, 1e-2)
        rec = report.groups[1]
        assert not rec.verifiable
        assert rec.passed  # marked unverifiable, not failed
        assert report.passed

    def test_gkf_slopes_within_band(self):
        rng = np.random.default_rng(5)
        for _ in range(5):
            n = 5
            v = rng.standard_normal((n, n))
            a = rng.standard_normal((n, n))
            w = a @ a.T + 0.5 * np.eye(n)
            sc = DiagonalScaling(((Exponent(0), 2), (Exponent(1), 3)))
            form = GkfForm(v, sc, w)
            ase = ase_from_gkf(form)
            sweep = eigen_sweep(form.evaluate, default_grid())
            fits = estimate_valuations(sweep)
            idx = 0
            from asymspec import eigen_readout

            for g in eigen_readout(ase):
                for _lam in g.leading_values:
                    assert abs(fits[idx].slope - float(g.valuation)) < 0.05
                    idx += 1


class TestPrincipalAngles:
    """The numpy port against ``scipy.linalg.subspace_angles``.

    Both evaluate the same formulas, except that the port applies the
    arcsin/arccos choice in angle order, where the reference applies it in
    cosine order to the reversed angles; otherwise only the LAPACK builds
    differ, in the last bits of singular values.  On spans with known angles
    away from the ill-conditioned ends the two agree to 1e-14.
    """

    @pytest.fixture
    def reference(self):
        return pytest.importorskip("scipy.linalg").subspace_angles

    @staticmethod
    def _assert_same(a, b, reference, tol=1e-14):
        got = _principal_angles(a, b)
        want = reference(a, b)
        assert got.shape == want.shape
        assert np.abs(got - want).max(initial=0.0) <= tol
        return got

    @staticmethod
    def _spans_at(angles, m, rng, extra=0):
        """Bases of R^m with k and k + ``extra`` columns whose principal
        angles are ``angles`` (the extra columns are orthogonal to both)."""
        k = len(angles)
        q = np.linalg.qr(rng.standard_normal((m, 2 * k + extra)))[0]
        a = q[:, :k] @ rng.standard_normal((k, k))
        b = (q[:, :k] * np.cos(angles) + q[:, k : 2 * k] * np.sin(angles)) @ rng.standard_normal((k, k))
        return a, np.column_stack([b, q[:, 2 * k :]])

    @pytest.mark.parametrize(
        "angles",
        [
            [1e-9, 1e-6, 1e-3, 0.5],  # every cosine >= 1/sqrt(2): arcsin
            [1.0, 1.3, np.pi / 2],  # every cosine below it: arccos
            [0.3, 1.2],  # one of each
            [0.2, 0.6, 0.9, 1.4],
        ],
    )
    def test_known_angles_both_branches(self, reference, angles):
        rng = np.random.default_rng(14)
        want = sorted(angles, reverse=True)
        for m in (2 * len(angles), 50, 200):
            a, b = self._spans_at(np.array(angles), m, rng)
            got = self._assert_same(a, b, reference)
            np.testing.assert_allclose(got, want, rtol=1e-9, atol=1e-13)
            self._assert_same(b, a, reference)

    @pytest.mark.parametrize("m, extra", [(200, 150), (200, 1), (40, 31), (9, 3)])
    def test_unequal_column_counts_both_orders(self, reference, m, extra):
        rng = np.random.default_rng(12)
        angles = np.array([0.1, 0.4, 0.7, 1.1])[: (m - extra) // 2]
        a, b = self._spans_at(angles, m, rng, extra)
        assert self._assert_same(a, b, reference).size == len(angles)
        assert self._assert_same(b, a, reference).size == len(angles)

    def test_rank_deficient_inputs(self, reference):
        rng = np.random.default_rng(13)
        for m in (10, 60, 200):
            a, b = self._spans_at(np.array([0.25, 0.5, 1.25]), m, rng, extra=2)
            a = np.column_stack([a, a @ rng.standard_normal((3, 2)), np.zeros(m)])
            b = np.column_stack([np.zeros(m), b, b[:, :1]])
            assert self._assert_same(a, b, reference).size == 3
            assert self._assert_same(b, a, reference).size == 3
        self._assert_same(np.zeros((5, 2)), rng.standard_normal((5, 3)), reference)
        assert _principal_angles(np.zeros((5, 2)), np.eye(5)[:, :3]).size == 0

    def test_random_spans_up_to_200(self, reference):
        # generic spans reach angles within 0.1 rad of 0 or pi/2, where the
        # reference reads them through arccos or arcsin near 1; that magnifies
        # the last-bit differences up to 50-fold (2.3e-14 seen in 975 cases)
        rng = np.random.default_rng(11)
        for m in (1, 2, 3, 5, 8, 13, 30, 60, 100, 150, 200):
            for _ in range(4):
                ka = int(rng.integers(1, m + 1))
                kb = int(rng.integers(1, m - ka + 1)) if ka < m else 1
                a = rng.standard_normal((m, ka))
                b = rng.standard_normal((m, kb))
                self._assert_same(a, b, reference, tol=1e-13)
                self._assert_same(b, a, reference, tol=1e-13)

    def test_intersecting_spans(self, reference):
        # spans sharing directions have zero angles; where the branch choice
        # is mixed the reference reads them as arccos of a cosine within a
        # few ulps of 1, good only to about sqrt(eps), while the port reads
        # them as arcsines
        rng = np.random.default_rng(15)
        for m, ka, kb in ((200, 117, 105), (30, 20, 20), (8, 5, 6)):
            a = rng.standard_normal((m, ka))
            b = rng.standard_normal((m, kb))
            got = self._assert_same(a, b, reference, tol=8 * np.sqrt(np.finfo(float).eps))
            assert np.abs(got[m - ka - kb :]).max() <= 1e-13

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_rejected(self, bad):
        a = np.eye(4)[:, :2]
        b = np.ones((4, 2))
        b[1, 1] = bad
        with pytest.raises(ValueError):
            _principal_angles(a, b)
        with pytest.raises(ValueError):
            _principal_angles(b, a)

    def test_shape_errors(self):
        with pytest.raises(ValueError, match="2D"):
            _principal_angles(np.ones(4), np.ones((4, 1)))
        with pytest.raises(ValueError, match="2D"):
            _principal_angles(np.ones((4, 1)), np.ones((4, 1, 1)))
        with pytest.raises(ValueError, match="same number of rows"):
            _principal_angles(np.ones((4, 1)), np.ones((5, 1)))


def _loop_valuations(sweep, floor_factor=1e-13, min_points=4, r2_min=0.999):
    """The per-curve ``np.polyfit`` loop that ``estimate_valuations`` replaced:
    the reference for the array fit."""
    from asymspec.oracle import ValuationFit

    floor = floor_factor * float(np.abs(sweep.eigenvalues[0]).max())
    log_eps = np.log(sweep.eps_grid)
    fits = []
    for k in range(sweep.n):
        mags = np.abs(sweep.eigenvalues[:, k])
        mask = mags > floor
        pts = int(mask.sum())
        if pts < min_points:
            fits.append(ValuationFit(float("nan"), 0.0, pts, False))
            continue
        idx = np.nonzero(mask)[0]
        if pts >= 2 * min_points:
            idx = idx[pts // 2 :]
            pts = len(idx)
        x = log_eps[idx]
        y = np.log(mags[idx])
        slope, intercept = np.polyfit(x, y, 1)
        resid = y - (slope * x + intercept)
        ss_tot = np.sum((y - y.mean()) ** 2)
        r2 = 1.0 - float(np.sum(resid**2) / ss_tot) if ss_tot > 0 else 1.0
        rms = float(np.sqrt(np.mean(resid**2)))
        fits.append(ValuationFit(float(slope), r2, pts, r2 >= r2_min or rms <= 0.02))
    return fits


class TestArrayValuationFit:
    """The one-pass fit against the per-curve loop: slopes within 1e-12
    absolute, identical point counts and reliability flags, no warnings."""

    @staticmethod
    def _assert_matches_loop(sweep):
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = estimate_valuations(sweep)
        want = _loop_valuations(sweep)
        assert len(got) == len(want) == sweep.n
        for g, w in zip(got, want):
            assert (g.n_points, g.reliable) == (w.n_points, w.reliable)
            if np.isnan(w.slope):
                assert np.isnan(g.slope) and g.r_squared == 0.0
            else:
                assert abs(g.slope - w.slope) <= 1e-12
        return got

    @pytest.mark.parametrize("case", ["ex_2x2", "ex_example1", "ex_scaling_3x3",
                                      "ex_scaling_2x2", "ex_5x5", "ex_3x3", "ex_degenerate"])
    def test_conftest_series(self, request, case):
        series = request.getfixturevalue(case)
        self._assert_matches_loop(eigen_sweep(series.evaluate, default_grid()))

    def test_gaussian_equispaced(self):
        kernel, nodes = kernel_model("gaussian"), generate_nodes("equispaced:20")
        source = lambda eps: kernel_matrix(kernel, nodes, eps)
        fits = self._assert_matches_loop(eigen_sweep(source, np.geomspace(1e-2, 1e-1, 24)[::-1]))
        # deep curves sink below the floor and are flagged, not fitted
        assert any(np.isnan(f.slope) for f in fits)

    def test_exponential_uniform(self):
        kernel, nodes = kernel_model("exponential"), generate_nodes("uniform:5", d=1, seed=3)
        source = lambda eps: kernel_matrix(kernel, nodes, eps)
        self._assert_matches_loop(eigen_sweep(source, default_grid()))

    def test_curve_dips_under_the_floor(self):
        from asymspec.oracle import SweepResult

        grid = default_grid(pts=20)
        lam = np.column_stack([np.ones(20), grid, grid**3])
        lam[8:11, 2] = 1e-20  # under the floor mid-grid: both sides of it are fitted
        lam[5, 1] = 0.0
        fits = self._assert_matches_loop(SweepResult(grid, lam, {}))
        assert [f.n_points for f in fits] == [10, 10, 9]

    def test_constant_curve(self):
        from asymspec.oracle import SweepResult

        grid = default_grid(pts=9)
        lam = np.tile([3.0, -2.0, 0.5], (9, 1))  # ss_tot = 0: R^2 reads 1
        fits = self._assert_matches_loop(SweepResult(grid, lam, {}))
        assert all(f.slope == 0.0 and f.r_squared == 1.0 and f.reliable for f in fits)

    def test_too_few_usable_points(self, ex_5x5):
        from asymspec.oracle import SweepResult

        grid = np.geomspace(1e-5, 2e-5, 6)[::-1]
        fits = self._assert_matches_loop(eigen_sweep(ex_5x5.evaluate, grid))
        assert fits[-1].n_points < 4 and not fits[-1].reliable
        grid = default_grid(pts=6)
        lam = np.column_stack([np.ones(6), [1.0, 1e-20, 1e-20, 0.5, 1e-20, 0.25], np.zeros(6)])
        fits = self._assert_matches_loop(SweepResult(grid, lam, {}))
        assert [f.n_points for f in fits] == [6, 3, 0]


class TestAnglesOnOrthonormalBases:
    """``_angles`` reads principal angles straight off orthonormal bases."""

    @pytest.mark.parametrize("angles", [[1e-9, 1e-6, 1e-3, 0.5], [1.0, 1.3, np.pi / 2],
                                        [0.3, 1.2], [0.2, 0.6, 0.9, 1.4]])
    @pytest.mark.parametrize("extra", [0, 3])
    def test_equals_principal_angles(self, angles, extra):
        from asymspec.oracle import _angles

        rng = np.random.default_rng(16)
        for m in (2 * len(angles) + extra, 50, 200):
            a, b = TestPrincipalAngles._spans_at(np.array(angles), m, rng, extra)
            qa, qb = np.linalg.qr(a)[0], np.linalg.qr(b)[0]
            for x, y in ((qa, qb), (qb, qa)):
                got, want = _angles(x, y), _principal_angles(x, y)
                assert got.shape == want.shape == (len(angles),)
                assert np.abs(got - want).max() <= 1e-14


class TestMatchAseCalls:
    """``match_ase`` runs no per-curve ``np.polyfit`` and no SVD with vectors."""

    @pytest.mark.parametrize("case", ["ex_5x5", "ex_degenerate", "matern2"])
    def test_no_polyfit_no_svd_vectors(self, request, monkeypatch, case):
        if case == "matern2":
            kernel, nodes = kernel_model("matern2"), generate_nodes("uniform:50", seed=0)
            ase = kernel_ase(kernel, nodes)
            source = lambda eps: kernel_matrix(kernel, nodes, eps)
        else:
            series = request.getfixturevalue(case)
            ase = analyze_series(series, "auto")
            source = series.evaluate
        sweep = eigen_sweep(source, default_grid())
        ase.readout  # noqa: B018 - the readout is computed before counting
        calls = []
        polyfit, svd = np.polyfit, np.linalg.svd
        monkeypatch.setattr(np, "polyfit", lambda *a, **k: calls.append("polyfit") or polyfit(*a, **k))

        def counted_svd(a, full_matrices=True, compute_uv=True, **kwargs):
            calls.append("svd with vectors" if compute_uv else "svd")
            return svd(a, full_matrices=full_matrices, compute_uv=compute_uv, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", counted_svd)
        report = match_ase(ase, sweep, 1e-2, 1e-2)
        assert report.passed
        assert "polyfit" not in calls and "svd with vectors" not in calls
        assert "svd" in calls  # the angles still ran


class TestSweepColumns:
    """``vectors`` keeps only the named curves' eigenvectors."""

    def test_kept_column_equals_full_sweep(self):
        kernel, nodes = kernel_model("matern2"), generate_nodes("uniform:40", seed=1)
        source = lambda eps: kernel_matrix(kernel, nodes, eps)
        grid = default_grid(pts=12)
        full = eigen_sweep(source, grid)
        kept = eigen_sweep(source, grid, dict.fromkeys(range(len(grid)), [2]))
        assert all(curves == (2,) and u.shape == (40, 1)
                   for curves, u in kept.eigenvectors.values())
        np.testing.assert_array_equal(kept.eigenvalues, full.eigenvalues)
        for i in range(len(grid)):
            u = full.eigenvectors[i][1]
            np.testing.assert_array_equal(kept.vectors(i, [2]), u[:, 2:3])
            np.testing.assert_array_equal(full.vectors(i, [2, 0]), u[:, [2, 0]])

    def test_sweep_csv_identical(self):
        from asymspec.serialize import sweep_csv_lines

        kernel, nodes = kernel_model("gaussian"), generate_nodes("equispaced:20")
        source = lambda eps: kernel_matrix(kernel, nodes, eps)
        grid = default_grid(1e-2, 1e-1, 10)
        full = sweep_csv_lines(eigen_sweep(source, grid), 3, np.ones(20))
        kept = sweep_csv_lines(eigen_sweep(source, grid, dict.fromkeys(range(10), [2])), 3,
                               np.ones(20))
        assert kept == full

    def test_curve_not_kept(self, ex_5x5):
        sweep = eigen_sweep(ex_5x5.evaluate, default_grid(pts=6), {0: [1]})
        with pytest.raises(ValueError, match=r"keeps the eigenvectors of curves \[1\] at grid "
                           r"index 0, not of \[0, 1\]"):
            sweep.vectors(0, [0, 1])

    @pytest.mark.parametrize("columns", [[5], [-1]])
    def test_columns_outside_the_matrix(self, ex_5x5, columns):
        with pytest.raises(ValueError, match="vectors must hold curve positions"):
            eigen_sweep(ex_5x5.evaluate, default_grid(pts=6), {0: columns})
