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
    schur_chain,
)
from reference import simplified_schur


def scaling_3x3():
    return DiagonalScaling(((Exponent(0), 1), (Exponent(1), 1), (Exponent(3, 2), 1)))


def assert_block_qr(v, widths, q_blocks, r_blocks, atol):
    """Q R = V with R block upper triangular, through the returned blocks: each
    V_i lies in span(Q_0..Q_i), and R_ii = Q_i^T V_i."""
    cols = np.cumsum((0,) + tuple(widths))
    for i, r_ii in enumerate(r_blocks):
        v_i = v[:, cols[i] : cols[i + 1]]
        q = np.hstack(q_blocks[: i + 1])
        np.testing.assert_allclose(q @ (q.T @ v_i), v_i, atol=atol)
        np.testing.assert_allclose(r_ii, q_blocks[i].T @ v_i, atol=atol)


class TestBlockRrqr:
    def test_worked_3x3_factors(self, ex_3x3_gkf):
        v, _ = ex_3x3_gkf
        q_blocks, r_blocks = block_rrqr(v, (1, 1, 1))
        assert tuple(q.shape[1] for q in q_blocks) == (1, 1, 1)
        s2 = 1 / np.sqrt(2)
        np.testing.assert_allclose(np.abs(np.hstack(q_blocks)), [[1, 0, 0], [0, s2, s2], [0, s2, s2]],
                                   atol=1e-14)
        np.testing.assert_allclose(np.abs([r[0, 0] for r in r_blocks]), [1, np.sqrt(2), np.sqrt(2)])
        assert_block_qr(v, (1, 1, 1), q_blocks, r_blocks, atol=1e-14)

    def test_identity(self):
        q_blocks, r_blocks = block_rrqr(np.eye(4), (1, 1, 1, 1))
        np.testing.assert_array_equal(np.hstack(q_blocks), np.eye(4))
        np.testing.assert_array_equal(r_blocks, np.ones((4, 1, 1)))

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
            q_blocks, r_blocks = block_rrqr(v, widths, rank_tol=1e-10)
            q = np.hstack(q_blocks)
            np.testing.assert_allclose(q.T @ q, np.eye(6), atol=1e-12)
            assert_block_qr(v, widths, q_blocks, r_blocks, atol=1e-10)
            ranks = tuple(b.shape[1] for b in q_blocks)
            # independent oracle: rank increments from singular values of V_{<=i}
            prev = 0
            col = 0
            for i, w in enumerate(widths):
                col += w
                rank = np.linalg.matrix_rank(v[:, :col], 1e-10)
                assert ranks[i] == rank - prev
                prev = rank
            assert ranks == increments

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
        q_blocks, r_blocks = block_rrqr(v, (1, 1, 1))
        h = build_H(r_blocks, w)
        s2 = np.sqrt(2.0)
        np.testing.assert_allclose(np.abs(h), [[1, s2, 0], [s2, 0, 0], [0, 0, 2]], atol=1e-14)
        assert [r.shape[0] for r in r_blocks] == [1, 1, 1]

    def test_identity_blocks(self):
        _, r_blocks = block_rrqr(np.eye(3), (1, 1, 1))
        h = build_H(r_blocks, np.eye(3))
        np.testing.assert_array_equal(h, np.eye(3))

    def test_random_matches_direct_product(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            widths = (2, 1, 3)
            v = rng.standard_normal((5, 6))
            w = rng.standard_normal((6, 6))
            w = w + w.T
            q_blocks, r_blocks = block_rrqr(v, widths)
            h = build_H(r_blocks, w)
            d = np.zeros((5, 6))
            r0 = c0 = 0
            for q_i, wd in zip(q_blocks, widths):
                rb = q_i.T @ v[:, c0 : c0 + wd]  # R_ii = Q_i^T V_i
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
            via_scaled = ase_from_scaled(k, sc)
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
        _, r_blocks = block_rrqr(v, (1, 1, 1))
        np.testing.assert_allclose(simplified_schur(w, r_blocks, 0), [[1.0]])
        np.testing.assert_allclose(simplified_schur(w, r_blocks, 1), [[-2.0]])
        np.testing.assert_allclose(simplified_schur(w, r_blocks, 2), [[2.0]])

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
            q_blocks, r_blocks = block_rrqr(v, widths)
            complements, _ = schur_chain(build_H(r_blocks, w), [q.shape[1] for q in q_blocks])
            for j in range(3):
                np.testing.assert_allclose(
                    simplified_schur(w, r_blocks, j), complements[j], atol=1e-10
                )

    def test_precondition_violation(self):
        v = np.zeros((3, 4))
        v[:, 0] = [1, 0, 0]
        v[:, 1] = [1, 0, 0]  # width-2 block of rank 1
        v[:, 2] = [0, 1, 0]
        v[:, 3] = [0, 0, 1]
        _, r_blocks = block_rrqr(v, (2, 1, 1))
        with pytest.raises(ValueError, match="general Schur chain"):
            simplified_schur(np.eye(4), r_blocks, 1)
