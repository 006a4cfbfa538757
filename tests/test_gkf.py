"""Block rank-revealing QR, H construction and the generalized-kernel ASE."""

import re

import numpy as np
import pytest

from asymspec import (
    DiagonalScaling,
    Exponent,
    GkfForm,
    MatrixSeries,
    ase_from_gkf,
    ase_from_scaled,
    block_rrqr,
    build_H,
    eigen_readout,
    extract_H,
    schur_chain,
)
from reference import r_diag_block, simplified_schur


def scaling_3x3():
    return DiagonalScaling(((Exponent(0), 1), (Exponent(1), 1), (Exponent(3, 2), 1)))


class TestBlockRrqr:
    def test_worked_3x3_factors(self, ex_3x3_gkf):
        v, _ = ex_3x3_gkf
        qr = block_rrqr(v, (1, 1, 1))
        assert qr.ranks == (1, 1, 1)
        s2 = 1 / np.sqrt(2)
        np.testing.assert_allclose(np.abs(qr.Q), [[1, 0, 0], [0, s2, s2], [0, s2, s2]], atol=1e-14)
        np.testing.assert_allclose(np.abs(np.diag(qr.R)), [1, np.sqrt(2), np.sqrt(2)])
        np.testing.assert_allclose(qr.Q @ qr.R, v, atol=1e-14)

    def test_identity(self):
        qr = block_rrqr(np.eye(4), (1, 1, 1, 1))
        np.testing.assert_array_equal(qr.Q, np.eye(4))
        np.testing.assert_array_equal(qr.R, np.eye(4))

    def test_random_wide_blocks_against_rank_oracle(self):
        # 6x10 with widths (1,2,3,4); new-direction counts (1,2,2,1) are built
        # in so every block contributes (a generic 6x10 would exhaust the six
        # rows by the third block and leave the fourth one empty)
        rng = np.random.default_rng(2)
        widths = (1, 2, 3, 4)
        increments = (1, 2, 2, 1)
        for _ in range(25):
            basis = np.linalg.qr(rng.standard_normal((6, 6)))[0]
            blocks = []
            used = 0
            for w, inc in zip(widths, increments):
                used += inc
                blocks.append(basis[:, :used] @ rng.standard_normal((used, w)))
            v = np.hstack(blocks)
            qr = block_rrqr(v, widths, rank_tol=1e-10)
            np.testing.assert_allclose(qr.Q.T @ qr.Q, np.eye(6), atol=1e-12)
            np.testing.assert_allclose(qr.Q @ qr.R, v, atol=1e-10)
            # independent oracle: rank increments from singular values of V_{<=i}
            prev = 0
            col = 0
            for i, w in enumerate(widths):
                col += w
                rank = np.linalg.matrix_rank(v[:, :col], 1e-10)
                assert qr.ranks[i] == rank - prev
                prev = rank
            assert qr.ranks == increments

    def test_zero_increment_block_rejected(self):
        v = np.array([[1.0, 1.0], [1.0, 1.0]])  # second column adds nothing
        with pytest.raises(ValueError, match="block 1"):
            block_rrqr(v, (1, 1))

    def test_rank_deficient_rejected(self):
        v = np.array([[1.0, 0.0], [0.0, 0.0]])
        with pytest.raises(ValueError):
            block_rrqr(v, (1, 1))

    @pytest.mark.parametrize(
        "v, widths, message",
        [
            (np.zeros((3, 3)), (1, 2), "column block 0 introduces no new dimensions at tolerance"),
            # the first two blocks already span R^3, so block 2 adds nothing
            (np.hstack([np.eye(3), np.ones((3, 2))]), (2, 1, 2),
             "column block 2 introduces no new dimensions at tolerance"),
            # every block adds a direction, but two directions cannot span R^3
            (np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]), (1, 1),
             "rank(V) = 2 < n = 3 at tolerance"),
        ],
        ids=("zero_v", "full_rank_before_last_block", "rank_below_n"),
    )
    def test_error_messages(self, v, widths, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            block_rrqr(v, widths)


class TestBuildH:
    def test_worked_3x3_h(self, ex_3x3_gkf):
        v, w = ex_3x3_gkf
        qr = block_rrqr(v, (1, 1, 1))
        h, sizes = build_H(qr, w)
        s2 = np.sqrt(2.0)
        np.testing.assert_allclose(np.abs(h), [[1, s2, 0], [s2, 0, 0], [0, 0, 2]], atol=1e-14)
        assert sizes == [1, 1, 1]

    def test_identity_blocks(self):
        qr = block_rrqr(np.eye(3), (1, 1, 1))
        h, _ = build_H(qr, np.eye(3))
        np.testing.assert_array_equal(h, np.eye(3))

    def test_random_matches_direct_product(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            widths = (2, 1, 3)
            v = rng.standard_normal((5, 6))
            w = rng.standard_normal((6, 6))
            w = w + w.T
            qr = block_rrqr(v, widths)
            h, _ = build_H(qr, w)
            d = np.zeros((5, 6))
            r0 = c0 = 0
            for i, wd in enumerate(widths):
                rb = r_diag_block(qr, i)
                d[r0 : r0 + rb.shape[0], c0 : c0 + wd] = rb
                r0 += rb.shape[0]
                c0 += wd
            np.testing.assert_allclose(h, d @ w @ d.T, atol=1e-12)


class TestAseFromGkf:
    def test_worked_3x3_groups(self, ex_3x3_gkf):
        v, w = ex_3x3_gkf
        form = GkfForm(v, scaling_3x3(), w)
        ase = ase_from_gkf(form)
        assert ase.complete
        assert ase.valuations == [Exponent(0), Exponent(2), Exponent(3)]
        np.testing.assert_allclose(ase.groups[0][1], np.diag([1.0, 0, 0]), atol=1e-12)
        np.testing.assert_allclose(
            ase.groups[1][1], [[0, 0, 0], [0, -1, -1], [0, -1, -1]], atol=1e-12
        )
        np.testing.assert_allclose(
            ase.groups[2][1], [[0, 0, 0], [0, 1, -1], [0, -1, 1]], atol=1e-12
        )

    def test_trivial_single_block(self):
        rng = np.random.default_rng(6)
        a = rng.standard_normal((4, 4))
        w = a @ a.T + 0.5 * np.eye(4)
        form = GkfForm(np.eye(4), DiagonalScaling(((Exponent(0), 4),)), w)
        ase = ase_from_gkf(form)
        assert len(ase.groups) == 1
        np.testing.assert_allclose(ase.groups[0][1], w, atol=1e-12)

    def test_random_oracle_equivalence(self):
        rng = np.random.default_rng(8)
        checked = 0
        for _ in range(15):
            n = int(rng.integers(2, 7))
            v = rng.standard_normal((n, n))
            while np.linalg.matrix_rank(v) < n:
                v = rng.standard_normal((n, n))
            a = rng.standard_normal((n, n))
            w = a @ a.T + 0.4 * np.eye(n)
            sizes = []
            left = n
            while left:
                b = int(rng.integers(1, left + 1))
                sizes.append(b)
                left -= b
            sc = DiagonalScaling(tuple((Exponent(i), b) for i, b in enumerate(sizes)))
            form = GkfForm(v, sc, w)
            ase = ase_from_gkf(form)
            assert ase.complete
            eps = 1e-4
            evaluated = form.evaluate(eps)
            ceiling = 1e-12 * np.abs(evaluated).max()
            lam = np.linalg.eigvalsh(evaluated)
            lam = lam[np.argsort(-np.abs(lam))]
            idx = 0
            for g in eigen_readout(ase):
                alpha = float(g.valuation)
                for pred in g.leading_values:
                    got = lam[idx] / eps**alpha
                    if abs(pred) * eps**alpha > ceiling:  # verifiable in doubles
                        assert abs(got - pred) <= 1e-2 * abs(pred)
                        checked += 1
                    idx += 1
        assert checked >= 30

    def test_singular_w_rejected(self, ex_3x3_gkf):
        v, _ = ex_3x3_gkf
        w = np.diag([1.0, 0.0, 1.0])
        with pytest.raises(ValueError, match="singular"):
            ase_from_gkf(GkfForm(v, scaling_3x3(), w))

    def test_matches_scaled_route_when_v_identity(self):
        rng = np.random.default_rng(12)
        for _ in range(10):
            n = 5
            a = rng.standard_normal((n, n))
            w = a @ a.T + 0.5 * np.eye(n)
            sizes = (2, 2, 1)
            sc = DiagonalScaling(tuple((Exponent(i), b) for i, b in enumerate(sizes)))
            form = GkfForm(np.eye(n), sc, w)
            via_gkf = ase_from_gkf(form)
            k = MatrixSeries.from_constant(w, trunc_order=9, symmetric=True).scale_rows_cols(
                sc.exponents(), sc.exponents()
            )
            via_scaled = ase_from_scaled(extract_H(k, sc))
            assert len(via_gkf.groups) == len(via_scaled.groups)
            for (v1, t1), (v2, t2) in zip(via_gkf.groups, via_scaled.groups):
                assert v1 == v2
                np.testing.assert_allclose(t1, t2, atol=1e-10)

    def test_orthogonal_congruence_equivariance(self, ex_3x3_gkf):
        v, w = ex_3x3_gkf
        rng = np.random.default_rng(13)
        base = ase_from_gkf(GkfForm(v, scaling_3x3(), w))
        for _ in range(5):
            q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
            rotated = ase_from_gkf(GkfForm(q @ v, scaling_3x3(), w))
            for (v1, t1), (v2, t2) in zip(base.groups, rotated.groups):
                assert v1 == v2
                np.testing.assert_allclose(t2, q @ t1 @ q.T, atol=1e-10)

    def test_completeness_rank_sum(self, ex_3x3_gkf):
        v, w = ex_3x3_gkf
        ase = ase_from_gkf(GkfForm(v, scaling_3x3(), w))
        assert ase.term_rank_sum() == 3


class TestSimplifiedSchur:
    def test_worked_3x3_values(self, ex_3x3_gkf):
        v, w = ex_3x3_gkf
        qr = block_rrqr(v, (1, 1, 1))
        np.testing.assert_allclose(simplified_schur(w, qr, 0), [[1.0]])
        np.testing.assert_allclose(simplified_schur(w, qr, 1), [[-2.0]])
        np.testing.assert_allclose(simplified_schur(w, qr, 2), [[2.0]])

    def test_matches_chain_on_unisolvent_random(self):
        rng = np.random.default_rng(14)
        for _ in range(15):
            n = 6
            widths = (1, 2, 3)
            v = rng.standard_normal((n, n))
            while np.linalg.matrix_rank(v) < n:
                v = rng.standard_normal((n, n))
            a = rng.standard_normal((n, n))
            w = a @ a.T + 0.4 * np.eye(n)
            qr = block_rrqr(v, widths)
            h, sizes = build_H(qr, w)
            chain = schur_chain(h, sizes)
            for j in range(3):
                np.testing.assert_allclose(
                    simplified_schur(w, qr, j), chain.complements[j], atol=1e-10
                )

    def test_precondition_violation(self):
        v = np.zeros((3, 4))
        v[:, 0] = [1, 0, 0]
        v[:, 1] = [1, 0, 0]  # width-2 block of rank 1
        v[:, 2] = [0, 1, 0]
        v[:, 3] = [0, 0, 1]
        qr = block_rrqr(v, (2, 1, 1))
        with pytest.raises(ValueError, match="general Schur chain"):
            simplified_schur(np.eye(4), qr, 1)
