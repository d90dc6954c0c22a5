"""Tests for BlockPermutedDiagonalMatrix, including the padding rules."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import BlockPermutedDiagonalMatrix, PermutationSpec

shapes = st.tuples(st.integers(1, 30), st.integers(1, 30))
block_sizes = st.integers(1, 9)


def _random_bpd(shape, p, seed=0, scheme="natural"):
    return BlockPermutedDiagonalMatrix.random(
        shape, p, spec=PermutationSpec(scheme=scheme, seed=seed), rng=seed
    )


class TestConstruction:
    def test_rejects_wrong_data_rank(self):
        with pytest.raises(ValueError):
            BlockPermutedDiagonalMatrix(np.zeros((2, 2)), np.zeros((2, 2)))

    def test_rejects_ks_shape_mismatch(self):
        with pytest.raises(ValueError):
            BlockPermutedDiagonalMatrix(np.zeros((2, 3, 4)), np.zeros((3, 2)))

    def test_rejects_inconsistent_logical_shape(self):
        with pytest.raises(ValueError):
            BlockPermutedDiagonalMatrix(
                np.zeros((2, 4, 2)), np.zeros((2, 2)), shape=(3, 8)
            )

    def test_default_shape_is_padded(self):
        bpd = BlockPermutedDiagonalMatrix(np.ones((2, 4, 3)), np.zeros((2, 3)))
        assert bpd.shape == (8, 12)

    def test_ks_reduced_modulo_p(self):
        bpd = BlockPermutedDiagonalMatrix(
            np.ones((1, 4, 1)), np.array([[7]])
        )
        assert bpd.ks[0, 0] == 3

    def test_zeros_constructor(self):
        bpd = BlockPermutedDiagonalMatrix.zeros((6, 9), p=3)
        assert bpd.to_dense().shape == (6, 9)
        assert np.all(bpd.to_dense() == 0)


class TestStructure:
    @given(shapes, block_sizes)
    @settings(max_examples=40)
    def test_nnz_counts_only_logical_entries(self, shape, p):
        bpd = _random_bpd(shape, p, seed=1)
        assert bpd.nnz == (bpd.to_dense() != 0).sum() or bpd.nnz >= (
            bpd.to_dense() != 0
        ).sum()
        # Every stored slot inside the logical region must be represented.
        assert bpd.nnz == int(bpd.dense_mask().sum())

    def test_nnz_exact_when_divisible(self):
        bpd = _random_bpd((12, 20), 4)
        assert bpd.nnz == 12 * 20 // 4

    def test_compression_ratio_equals_p_when_divisible(self):
        bpd = _random_bpd((12, 20), 4)
        assert bpd.compression_ratio == pytest.approx(4.0)

    @given(shapes, block_sizes)
    @settings(max_examples=40)
    def test_padding_region_forced_zero(self, shape, p):
        mb, nb = -(-shape[0] // p), -(-shape[1] // p)
        rng = np.random.default_rng(0)
        bpd = BlockPermutedDiagonalMatrix(
            rng.normal(size=(mb, p, nb)),
            np.zeros((mb, nb), dtype=int),
            shape=shape,
        )
        # data outside the support mask must have been zeroed
        assert np.all(bpd.data[~bpd.support_mask()] == 0)

    def test_one_nonzero_per_row_per_block(self):
        bpd = _random_bpd((8, 8), 4)
        dense = bpd.to_dense()
        # each row intersects n/p = 2 blocks -> at most 2 non-zeros
        assert np.all((dense != 0).sum(axis=1) <= 2)

    def test_dense_mask_matches_to_dense_support(self):
        bpd = _random_bpd((10, 14), 4, seed=3)
        # random normal values are never exactly zero on the support
        np.testing.assert_array_equal(bpd.dense_mask(), bpd.to_dense() != 0)

    def test_natural_indexing_matches_paper_example(self):
        # 4x16 with p=4: k0..k3 = 0..3 -> block (0, j) has shift j
        bpd = BlockPermutedDiagonalMatrix.zeros((4, 16), 4)
        np.testing.assert_array_equal(bpd.ks, [[0, 1, 2, 3]])


class TestDenseRoundTrip:
    @given(shapes, block_sizes)
    @settings(max_examples=40)
    def test_from_dense_to_dense_identity_on_support(self, shape, p):
        rng = np.random.default_rng(11)
        dense = rng.normal(size=shape)
        bpd = BlockPermutedDiagonalMatrix.from_dense(dense, p)
        mask = bpd.dense_mask()
        np.testing.assert_allclose(bpd.to_dense()[mask], dense[mask])
        assert np.all(bpd.to_dense()[~mask] == 0)

    def test_from_dense_rejects_3d(self):
        with pytest.raises(ValueError):
            BlockPermutedDiagonalMatrix.from_dense(np.zeros((2, 2, 2)), 2)

    def test_q_round_trip(self):
        bpd = _random_bpd((9, 7), 3, seed=5)
        again = BlockPermutedDiagonalMatrix.from_q(
            bpd.to_q(), bpd.shape, bpd.p, bpd.ks
        )
        np.testing.assert_allclose(again.to_dense(), bpd.to_dense())

    def test_from_q_wrong_length(self):
        with pytest.raises(ValueError):
            BlockPermutedDiagonalMatrix.from_q(
                np.zeros(5), (4, 4), 2, np.zeros((2, 2))
            )

    def test_q_length_is_mn_over_p(self):
        bpd = _random_bpd((8, 12), 4)
        assert bpd.to_q().size == 8 * 12 // 4


class TestProducts:
    @given(shapes, block_sizes, st.sampled_from(["natural", "random"]))
    @settings(max_examples=40)
    def test_matvec_matches_dense(self, shape, p, scheme):
        bpd = _random_bpd(shape, p, seed=2, scheme=scheme)
        rng = np.random.default_rng(3)
        x = rng.normal(size=shape[1])
        np.testing.assert_allclose(bpd.matvec(x), bpd.to_dense() @ x, atol=1e-12)

    @given(shapes, block_sizes, st.integers(1, 5))
    @settings(max_examples=40)
    def test_matmat_matches_dense(self, shape, p, batch):
        bpd = _random_bpd(shape, p, seed=4)
        rng = np.random.default_rng(5)
        x = rng.normal(size=(batch, shape[1]))
        np.testing.assert_allclose(
            bpd.matmat(x), x @ bpd.to_dense().T, atol=1e-12
        )

    @given(shapes, block_sizes)
    @settings(max_examples=30)
    def test_rmatvec_matches_dense(self, shape, p):
        bpd = _random_bpd(shape, p, seed=6)
        rng = np.random.default_rng(7)
        y = rng.normal(size=shape[0])
        np.testing.assert_allclose(
            bpd.rmatvec(y), bpd.to_dense().T @ y, atol=1e-12
        )

    def test_rmatmat_matches_dense(self):
        bpd = _random_bpd((10, 6), 4, seed=8)
        rng = np.random.default_rng(9)
        y = rng.normal(size=(3, 10))
        np.testing.assert_allclose(
            bpd.rmatmat(y), y @ bpd.to_dense(), atol=1e-12
        )

    def test_matmul_operator(self):
        bpd = _random_bpd((6, 8), 2, seed=10)
        x = np.arange(8.0)
        np.testing.assert_allclose(bpd @ x, bpd.to_dense() @ x)
        X = np.arange(16.0).reshape(8, 2)
        np.testing.assert_allclose(bpd @ X, bpd.to_dense() @ X)

    def test_matvec_shape_check(self):
        with pytest.raises(ValueError):
            _random_bpd((4, 4), 2).matvec(np.zeros(5))

    def test_matmat_shape_check(self):
        with pytest.raises(ValueError):
            _random_bpd((4, 4), 2).matmat(np.zeros((2, 5)))


class TestTransposeAndGrad:
    @given(shapes, block_sizes)
    @settings(max_examples=40)
    def test_transpose_matches_dense(self, shape, p):
        bpd = _random_bpd(shape, p, seed=13)
        np.testing.assert_allclose(
            bpd.transpose().to_dense(), bpd.to_dense().T, atol=1e-12
        )

    def test_transpose_is_block_pd(self):
        bpd = _random_bpd((8, 12), 4, seed=14)
        t = bpd.transpose()
        assert t.p == 4 and t.shape == (12, 8)
        np.testing.assert_array_equal(t.ks, (-bpd.ks.T) % 4)

    @given(st.tuples(st.integers(2, 12), st.integers(2, 12)), st.integers(1, 4))
    @settings(max_examples=25)
    def test_grad_data_matches_dense_masked_grad(self, shape, p):
        bpd = _random_bpd(shape, p, seed=15)
        rng = np.random.default_rng(16)
        x = rng.normal(size=(4, shape[1]))
        dy = rng.normal(size=(4, shape[0]))
        grad = bpd.grad_data(x, dy)
        # Dense reference: dW = dy.T @ x, masked to the PD support.
        dW = dy.T @ x
        ref = BlockPermutedDiagonalMatrix.from_dense(
            dW * bpd.dense_mask(), p, ks=bpd.ks
        )
        np.testing.assert_allclose(grad, ref.data, atol=1e-10)

    def test_grad_data_shape_check(self):
        bpd = _random_bpd((4, 4), 2)
        with pytest.raises(ValueError):
            bpd.grad_data(np.zeros((2, 4)), np.zeros((3, 4)))

    def test_frobenius_error_zero_when_support_captures_matrix(self):
        dense = np.eye(4)
        ks = np.zeros((2, 2), dtype=int)  # all-zero shifts hold the diagonal
        bpd = BlockPermutedDiagonalMatrix.from_dense(dense, 2, ks=ks)
        assert bpd.frobenius_error(dense) == pytest.approx(0.0)

    def test_frobenius_error_counts_missed_entries(self):
        # Natural indexing on eye(4)/p=2 gives block (1,1) shift 1, which
        # misses its two diagonal ones entirely.
        dense = np.eye(4)
        bpd = BlockPermutedDiagonalMatrix.from_dense(dense, 2)
        assert bpd.frobenius_error(dense) == pytest.approx(np.sqrt(2.0))


class TestRoundTripsNonDivisible:
    """Regression coverage for structure round-trips when ``p`` does not
    divide the shape and ``ks`` comes from a random PermutationSpec."""

    # Shapes chosen so p=4 never divides either dimension.
    odd_shapes = st.tuples(
        st.integers(1, 30).filter(lambda v: v % 4),
        st.integers(1, 30).filter(lambda v: v % 4),
    )

    @given(odd_shapes, st.integers(0, 5))
    @settings(max_examples=25)
    def test_q_round_trip_random_spec(self, shape, seed):
        bpd = _random_bpd(shape, 4, seed=seed, scheme="random")
        again = BlockPermutedDiagonalMatrix.from_q(
            bpd.to_q(), bpd.shape, bpd.p, bpd.ks
        )
        np.testing.assert_allclose(again.to_dense(), bpd.to_dense())
        assert again.shape == bpd.shape and again.nnz == bpd.nnz

    @given(odd_shapes, st.integers(0, 5))
    @settings(max_examples=25)
    def test_double_transpose_round_trip(self, shape, seed):
        bpd = _random_bpd(shape, 4, seed=seed, scheme="random")
        twice = bpd.transpose().transpose()
        assert twice.shape == bpd.shape
        np.testing.assert_array_equal(twice.ks, bpd.ks)
        np.testing.assert_allclose(twice.to_dense(), bpd.to_dense(), atol=1e-12)

    @given(odd_shapes, st.integers(0, 5))
    @settings(max_examples=25)
    def test_transpose_products_match_dense(self, shape, seed):
        bpd = _random_bpd(shape, 4, seed=seed, scheme="random")
        rng = np.random.default_rng(seed)
        y = rng.normal(size=(3, shape[0]))
        np.testing.assert_allclose(
            bpd.rmatmat(y), y @ bpd.to_dense(), atol=1e-12
        )
        np.testing.assert_allclose(
            bpd.transpose().matmat(y), y @ bpd.to_dense(), atol=1e-12
        )

    @given(odd_shapes)
    @settings(max_examples=25)
    def test_from_dense_round_trip_random_spec(self, shape):
        rng = np.random.default_rng(21)
        dense = rng.normal(size=shape)
        bpd = BlockPermutedDiagonalMatrix.from_dense(
            dense, 4, spec=PermutationSpec(scheme="random", seed=7)
        )
        again = BlockPermutedDiagonalMatrix.from_dense(bpd.to_dense(), 4, ks=bpd.ks)
        np.testing.assert_allclose(again.to_dense(), bpd.to_dense())
