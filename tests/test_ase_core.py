"""Schur chains, the scaled-form construction, eigen-readout and probes."""

import numpy as np
import pytest

from asymspec import (
    Ase,
    DiagonalScaling,
    Exponent,
    MatrixSeries,
    analyze_series,
    eigen_readout,
    schur_chain,
)
from reference import rank_probe_curve, regularized_inverse_probe


class TestSchurComplements:
    def test_worked_2x2(self):
        complements, stopped = schur_chain(np.array([[1.0, 1.0], [1.0, 2.0]]), (1, 1))
        assert not stopped
        np.testing.assert_allclose(complements[0], [[1.0]])
        np.testing.assert_allclose(complements[1], [[1.0]])

    def test_worked_5x5(self):
        h = np.array(
            [
                [1, 0.5, 0, 0, 0],
                [0.5, 0.25, 0.5, 0, 0],
                [0, 0.5, 1, 0.5, 0],
                [0, 0, 0.5, 0.125, 0.5],
                [0, 0, 0, 0.5, 1.0],
            ]
        )
        complements, stopped = schur_chain(h, (1, 2, 2))
        assert not stopped
        np.testing.assert_allclose(complements[0], [[1.0]])
        np.testing.assert_allclose(complements[1], [[0, 0.5], [0.5, 1]], atol=1e-15)
        np.testing.assert_allclose(complements[2], [[0.125, 0.5], [0.5, 1]], atol=1e-14)

    def test_worked_3x3_stops(self):
        h = np.array([[1.0, 1, 1], [1, 0, 0], [1, 0, 0]])
        complements, stopped = schur_chain(h, (1, 2))
        assert stopped
        np.testing.assert_allclose(complements[1], [[-1, -1], [-1, -1]])


class TestAseFromScaled:
    """The scaled construction, ``analyze_series(k, "scaled")``: one round of ``iterative_ase``."""

    def test_2x2(self, ex_2x2):
        ase = analyze_series(ex_2x2, "scaled")
        assert ase.complete
        assert ase.valuations == [Exponent(0), Exponent(2)]
        np.testing.assert_array_equal(ase.groups[0][1], [[1, 0], [0, 0]])
        np.testing.assert_array_equal(ase.groups[1][1], [[0, 0], [0, 1]])

    def test_example1_diag_pattern(self, ex_example1):
        ase = analyze_series(ex_example1, "scaled")
        assert ase.complete
        assert ase.valuations == [Exponent(0), Exponent(1), Exponent(2)]
        for k, (_, term) in enumerate(ase.groups):
            expect = np.zeros((3, 3))
            expect[k, k] = 1.0
            np.testing.assert_allclose(term, expect, atol=1e-14)

    def test_3x3_truncates(self, ex_3x3):
        ase = analyze_series(ex_3x3, "scaled")
        assert ase.truncated_at == Exponent(2)
        assert ase.valuations == [Exponent(0), Exponent(2)]
        np.testing.assert_allclose(
            ase.groups[1][1], [[0, 0, 0], [0, -1, -1], [0, -1, -1]], atol=1e-12
        )
        ase.validate()

    def test_invariants_validate(self, ex_5x5):
        ase = analyze_series(ex_5x5, "scaled")
        ase.validate()
        assert ase.term_rank_sum() == 5

    def test_unflagged_series_rejected(self, ex_2x2):
        # H is read as it stands, so the series must carry the symmetric flag
        k = MatrixSeries(ex_2x2.shape, ex_2x2.terms, ex_2x2.trunc_order)
        with pytest.raises(ValueError, match="must be symmetric"):
            analyze_series(k, "scaled")

    def test_permutation_equivariance(self, ex_5x5):
        # simultaneous permutation of K maps every term by the same permutation
        rng = np.random.default_rng(1)
        base = analyze_series(ex_5x5, "scaled")
        for _ in range(5):
            perm = rng.permutation(5)
            permuted = ex_5x5.permuted(perm)
            ase_p = analyze_series(permuted, "scaled")
            assert [float(v) for v in ase_p.valuations] == [float(v) for v in base.valuations]
            for (_, t_base), (_, t_perm) in zip(base.groups, ase_p.groups):
                np.testing.assert_allclose(t_perm, t_base[np.ix_(perm, perm)], atol=1e-10)


class TestEigenReadout:
    def test_distinct_values(self):
        # K0 = [[1, 1/2], [1/2, 1]] on the first two coordinates, eps * diag(0,0,2,1)
        k0 = np.zeros((4, 4))
        k0[:2, :2] = [[1, 0.5], [0.5, 1]]
        k1 = np.diag([0.0, 0, 2, 1])
        ase = Ase(4, [(Exponent(0), k0), (Exponent(1), k1)])
        groups = eigen_readout(ase)
        assert groups[0].leading_values == pytest.approx([1.5, 0.5])
        assert groups[1].leading_values == pytest.approx([2.0, 1.0])
        assert not groups[0].ambiguous and not groups[1].ambiguous
        # eigenvectors of K0 restricted to its range
        np.testing.assert_allclose(
            np.abs(groups[0].vectors[:2]), np.full((2, 2), 1 / np.sqrt(2)), atol=1e-12
        )

    def test_repeated_values_flag_ambiguous(self):
        k0 = np.zeros((4, 4))
        k0[:2, :2] = [[1, 0.5], [0.5, 1]]
        k1 = np.diag([0.0, 0, 1, 1])
        groups = eigen_readout(Ase(4, [(Exponent(0), k0), (Exponent(1), k1)]))
        assert not groups[0].ambiguous
        assert groups[1].ambiguous
        # the projector is still well defined
        p = groups[1].projector
        np.testing.assert_allclose(p @ p, p, atol=1e-10)
        assert np.trace(p) == pytest.approx(2.0)

    def test_5x5_values_and_vector(self, ex_5x5):
        ase = analyze_series(ex_5x5, "scaled")
        groups = eigen_readout(ase)
        assert groups[0].leading_values == pytest.approx([1.0])
        s2 = np.sqrt(2.0)
        assert groups[1].leading_values == pytest.approx([(1 + s2) / 2, (1 - s2) / 2], abs=1e-12)
        s113 = np.sqrt(113.0)
        assert groups[2].leading_values == pytest.approx(
            [(9 + s113) / 16, (9 - s113) / 16], abs=1e-12
        )
        lead_vec = groups[1].vectors[1:3, 0]
        np.testing.assert_allclose(lead_vec, [0.3827, 0.9239], atol=5e-4)

    def test_projector_properties(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            a = rng.standard_normal((4, 4))
            ase = Ase(4, [(Exponent(0), a + a.T)])
            (g,) = eigen_readout(ase)
            np.testing.assert_allclose(g.projector @ g.projector, g.projector, atol=1e-10)
            assert np.trace(g.projector) == pytest.approx(g.count)


class TestProbes:
    def test_2x2_probe_limits(self, ex_2x2):
        tau = 0.7
        eps = 1e-7
        m0 = regularized_inverse_probe(ex_2x2, 0, tau, eps)
        np.testing.assert_allclose(m0, np.diag([1 / (1 + tau), 0.0]), atol=1e-5)
        m1 = regularized_inverse_probe(ex_2x2, 1, tau, eps)
        np.testing.assert_allclose(m1, np.diag([1.0, 0.0]), atol=1e-5)
        m2 = regularized_inverse_probe(ex_2x2, 2, tau, eps)
        np.testing.assert_allclose(m2, np.diag([1.0, 1 / (1 + tau)]), atol=1e-5)

    def test_rank_counting(self, ex_2x2, ex_5x5):
        eps_seq = [10.0**-k for k in range(2, 7)]
        pts = rank_probe_curve(ex_2x2, [0, 1, 2], 1.0, eps_seq, 1e-3)
        assert [(int(p.s.numerator), p.rank) for p in pts] == [(0, 1), (1, 1), (2, 2)]
        assert all(p.stable for p in pts)
        pts5 = rank_probe_curve(ex_5x5, [0, 2, 4], 1.0, eps_seq, 1e-3)
        assert [p.rank for p in pts5] == [1, 3, 5]

    def test_identity_has_full_rank(self):
        k = MatrixSeries(4, [(0, np.eye(4))], 1, symmetric=True)
        pts = rank_probe_curve(k, [1, 2], 1.0, [1e-2, 1e-3, 1e-4], 1e-3)
        assert all(p.rank == 4 for p in pts)

    def test_unstable_estimate_flagged(self, ex_2x2):
        # the second singular value crosses the threshold between the two
        # sampled eps values, so the estimate has not settled
        (pt,) = rank_probe_curve(ex_2x2, [1], 1.0, [1e-1, 1e-4], 1e-3)
        assert not pt.stable

    def test_singular_shift_rejected(self):
        k = MatrixSeries(2, [(0, -np.eye(2))], 1, symmetric=True)
        with pytest.raises(ValueError, match="singular shift"):
            regularized_inverse_probe(k, 0, 1.0, 0.5)

    def test_projector_consistency(self, ex_5x5):
        # probe at s = 2 nu_1 approaches U_0 U_0^T + K1 (K1 + tau I)^{-1}
        tau = 1.0
        eps = 1e-5
        ase = analyze_series(ex_5x5, "scaled")
        groups = eigen_readout(ase)
        m = regularized_inverse_probe(ex_5x5, 2, tau, eps)
        k1 = ase.groups[1][1]
        expect = groups[0].projector + k1 @ np.linalg.inv(k1 + tau * np.eye(5))
        assert np.abs(m - expect).max() < 50 * eps

    def test_oracle_equivalence_small_random(self):
        # eigenvalues of K(eps) match group predictions at 1e-4 within 1%
        rng = np.random.default_rng(17)
        for _ in range(15):
            n = int(rng.integers(2, 7))
            a = rng.standard_normal((n, n))
            h = a @ a.T + 0.3 * np.eye(n)
            nu = np.sort(rng.integers(0, 3, size=n))
            k = MatrixSeries(h.shape, [(0, h)], 7, symmetric=True).scale_rows_cols(
                nu.tolist(), nu.tolist()
            )
            ase = analyze_series(k, "scaled")
            assert ase.complete
            eps = 1e-4
            lam = np.linalg.eigvalsh(k.evaluate(eps))
            lam = lam[np.argsort(-np.abs(lam))]
            idx = 0
            for g in eigen_readout(ase):
                alpha = float(g.valuation)
                for pred in g.leading_values:
                    got = lam[idx] / eps**alpha
                    assert abs(got - pred) <= 1e-2 * abs(pred)
                    idx += 1


class TestProjectorOnDemand:
    def test_computed_on_first_use(self, ex_5x5):
        ase = analyze_series(ex_5x5, "scaled")
        group = eigen_readout(ase)[1]
        assert "projector" not in vars(group)  # the readout forms no n x n product
        np.testing.assert_array_equal(group.projector, group.vectors @ group.vectors.T)
        assert group.projector is group.projector


# ---------------------------------------------------------------------------
# factored groups: the readout off each k x k complement against the dense
# n x n eigh readout it replaced
# ---------------------------------------------------------------------------

SERIES_FIXTURES = ("ex_2x2", "ex_example1", "ex_scaling_3x3", "ex_scaling_2x2", "ex_5x5",
                   "ex_3x3", "ex_degenerate")
KERNEL_CASES = (("gaussian", "equispaced:20", None), ("matern2", "uniform:50", 2),
                ("exponential", "circle:30", None))


def dense_readout(ase, zero_tol=1e-10, tie_tol=1e-9):
    """The readout as it ran before the factors were kept: one n x n eigh per
    dense term.  [(valuation, values, vectors, ambiguous)]"""
    from asymspec.ase import fix_column_signs

    out = []
    for alpha, term in ase.groups:
        w, u = np.linalg.eigh(term)
        big = np.abs(w).max()
        keep = np.abs(w) > zero_tol * big
        w = w[keep]
        u = u[:, keep]
        order = np.argsort(-w)
        w = w[order]
        u = fix_column_signs(u[:, order])
        ambiguous = any(
            abs(w[k] - w[k + 1]) <= tie_tol * max(abs(w[k]), abs(w[k + 1]))
            for k in range(len(w) - 1)
        )
        out.append((alpha, w, u, ambiguous))
    return out


def assert_readout_matches_dense(ase, readout):
    want = dense_readout(ase)
    assert len(readout) == len(want)
    for group, (alpha, w, u, ambiguous) in zip(readout, want):
        assert group.valuation == alpha
        assert group.count == len(w)
        assert group.ambiguous == ambiguous
        values = np.array(group.leading_values)
        assert np.abs(values - w).max() <= 1e-12 * np.abs(w).max()
        v = group.vectors
        assert v.shape == u.shape
        # the span of the group, whatever basis each side picked within ties
        assert np.linalg.norm(v - u @ (u.T @ v), 2) <= 1e-10
        # oracle._angles takes these columns as an orthonormal basis
        assert np.abs(v.T @ v - np.eye(v.shape[1])).max() <= 1e-13


def _series_ases(k):
    return [analyze_series(k, mode) for mode in ("auto", "scaled")]


class TestFactoredReadout:
    @pytest.mark.parametrize("fixture", SERIES_FIXTURES)
    def test_series_matches_dense(self, request, fixture):
        for ase in _series_ases(request.getfixturevalue(fixture)):
            assert all(q is not None for _, q, _ in ase.factors)
            assert_readout_matches_dense(ase, eigen_readout(ase))

    def test_gkf_matches_dense(self, ex_3x3_gkf):
        from asymspec import GkfForm, ase_from_gkf

        v, w = ex_3x3_gkf
        scaling = DiagonalScaling.from_exponents([Exponent(0), Exponent(1), Exponent(3, 2)])
        ase = ase_from_gkf(GkfForm(v, scaling, w))
        assert_readout_matches_dense(ase, eigen_readout(ase))

    @pytest.mark.parametrize("name, spec, d", KERNEL_CASES)
    def test_kernel_matches_dense(self, name, spec, d):
        from asymspec import generate_nodes, kernel_ase, kernel_model

        ase = kernel_ase(kernel_model(name), generate_nodes(spec, d=d, seed=0))
        readout = ase.readout
        assert readout is ase.readout
        assert_readout_matches_dense(ase, readout)

    def test_stopped_chain_with_cleaned_complement(self, ex_3x3):
        ase = analyze_series(ex_3x3, "scaled")
        assert not ase.complete
        alpha, q, s = ase.factors[-1]
        assert alpha == ase.truncated_at
        # the stalled complement is kept as its kept eigenpairs: Q U and diag(w)
        np.testing.assert_array_equal(s, np.diag(np.diag(s)))
        assert np.abs(q.T @ q - np.eye(q.shape[1])).max() <= 1e-13
        readout = eigen_readout(ase)
        assert s.shape[0] == readout[-1].count
        assert_readout_matches_dense(ase, readout)

    def test_dense_terms_are_their_own_factor(self):
        rng = np.random.default_rng(5)
        a = rng.standard_normal((6, 6))
        term = a + a.T
        ase = Ase(6, [(Exponent(1), term), (Exponent(0), np.diag([1.0, 0, 0, 0, 0, 0]))])
        assert [alpha for alpha, _, _ in ase.factors] == [Exponent(0), Exponent(1)]
        assert all(q is None for _, q, _ in ase.factors)
        np.testing.assert_array_equal(ase.groups[1][1], term)  # no product formed
        assert_readout_matches_dense(ase, eigen_readout(ase))


class TestFactoredGroups:
    def test_groups_are_the_symmetrized_lift(self):
        rng = np.random.default_rng(8)
        q, _ = np.linalg.qr(rng.standard_normal((7, 3)))
        a = rng.standard_normal((3, 3))
        s = a + a.T
        ase = Ase(7, [(Exponent(2), q, s)], truncated_at=Exponent(4))
        assert "groups" not in vars(ase)  # formed on first read only
        (alpha, term), = ase.groups
        lift = q @ s @ q.T
        np.testing.assert_array_equal(term, 0.5 * (lift + lift.T))
        assert alpha == Exponent(2)
        assert ase.groups is ase.groups
        assert not term.flags.writeable
        with pytest.raises(ValueError):
            term[0, 0] = 1.0
        assert not ase.factors[0][1].flags.writeable
        assert not ase.factors[0][2].flags.writeable

    def test_kernel_readout_eigh_sizes(self, monkeypatch):
        from asymspec import generate_nodes, kernel_ase, kernel_model

        sizes = []
        eigh = np.linalg.eigh

        def counted(a, *args, **kwargs):
            sizes.append(np.shape(a)[0])
            return eigh(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", counted)
        ase = kernel_ase(kernel_model("gaussian"), generate_nodes("equispaced:50"))
        readout = ase.readout
        assert sizes  # the readout ran inside kernel_ase
        assert max(sizes) <= max(g.count for g in readout)
        assert max(sizes) < ase.n



_E1 = np.diag([1.0, 0.0])
_E2 = np.diag([0.0, 1.0])


@pytest.mark.parametrize("n, groups, truncated_at, message", [
    (2, [(0, np.eye(3))], None, "term shape mismatch"),
    (2, [(0, np.array([[1.0, 1.0], [0.0, 1.0]]))], None, "term is not symmetric"),
    (2, [(0, np.eye(2)), (1, np.zeros((2, 2)))], None, "zero term stored"),
    (2, [(1, _E1), (1, _E2)], None, "valuations are not strictly increasing"),
    (2, [(0, _E1), (1, np.ones((2, 2)))], None, "terms 0 and 1 are not orthogonal"),
    # two rank-one terms of size 1e-6 on one coordinate: their product, 1e-12,
    # is inside the orthogonality slack, and each is above the rank floor
    (1, [(0, [[1e-6]]), (1, [[1e-6]])], Exponent(2), "term ranks sum beyond the dimension"),
    (2, [(0, _E1)], None, "complete ASE must have term ranks summing to n"),
])
def test_validate_rejects_each_broken_invariant(n, groups, truncated_at, message):
    with pytest.raises(ValueError, match=message):
        Ase(n, groups, truncated_at).validate()


def test_validate_accepts_a_truncated_ase_short_of_n():
    Ase(2, [(0, _E1)], Exponent(1)).validate()
