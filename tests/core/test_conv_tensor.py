"""Tests for the 4-D block-PD convolution weight tensor."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import BlockPermDiagTensor4D


class TestConstruction:
    def test_rejects_wrong_rank(self):
        with pytest.raises(ValueError):
            BlockPermDiagTensor4D(np.zeros((2, 2, 3)), np.zeros((2, 2)))

    def test_random_shapes(self):
        t = BlockPermDiagTensor4D.random(16, 8, (3, 3), p=4, rng=0)
        assert t.shape == (16, 8, 3, 3)
        assert t.p == 4

    def test_channel_padding(self):
        t = BlockPermDiagTensor4D.random(10, 6, (3, 3), p=4, rng=0)
        assert t.channels == (10, 6)
        assert t.to_dense().shape == (10, 6, 3, 3)


class TestStructure:
    @given(
        st.integers(1, 4).map(lambda b: 4 * b),
        st.integers(1, 4).map(lambda b: 4 * b),
        st.sampled_from([1, 2, 4]),
    )
    @settings(max_examples=20)
    def test_nnz_kernels_is_cout_cin_over_p(self, c_out, c_in, p):
        t = BlockPermDiagTensor4D.random(c_out, c_in, (3, 3), p=p, rng=1)
        assert t.nnz_kernels == c_out * c_in // p

    def test_compression_ratio_equals_p(self):
        t = BlockPermDiagTensor4D.random(8, 8, (3, 3), p=2, rng=2)
        assert t.compression_ratio == pytest.approx(2.0)

    def test_channel_mask_one_per_block_row(self):
        t = BlockPermDiagTensor4D.random(8, 8, (1, 1), p=4, rng=3)
        mask = t.channel_mask()
        # each output channel connects to exactly c_in/p input channels
        np.testing.assert_array_equal(mask.sum(axis=1), np.full(8, 2))

    def test_p1_is_fully_dense_channel_plane(self):
        t = BlockPermDiagTensor4D.random(4, 4, (3, 3), p=1, rng=4)
        assert t.channel_mask().all()


class TestDenseRoundTrip:
    def test_from_dense_keeps_supported_kernels(self):
        rng = np.random.default_rng(5)
        dense = rng.normal(size=(8, 8, 3, 3))
        t = BlockPermDiagTensor4D.from_dense(dense, p=4)
        mask = t.dense_mask()
        np.testing.assert_allclose(t.to_dense()[mask], dense[mask])
        assert np.all(t.to_dense()[~mask] == 0)

    def test_from_dense_rejects_2d(self):
        with pytest.raises(ValueError):
            BlockPermDiagTensor4D.from_dense(np.zeros((4, 4)), 2)

    def test_round_trip_through_dense(self):
        t = BlockPermDiagTensor4D.random(8, 12, (5, 5), p=4, rng=6)
        again = BlockPermDiagTensor4D.from_dense(t.to_dense(), p=4, ks=t.ks)
        np.testing.assert_allclose(again.to_dense(), t.to_dense())


class TestGradProjection:
    def test_projects_off_support_to_zero(self):
        t = BlockPermDiagTensor4D.random(8, 8, (3, 3), p=4, rng=7)
        t.values[...] = t.pack(np.ones(t.shape))
        projected = t.to_dense()
        assert np.all(projected[~t.dense_mask()] == 0)
        np.testing.assert_allclose(projected[t.dense_mask()], 1.0)

    def test_shape_check(self):
        t = BlockPermDiagTensor4D.random(8, 8, (3, 3), p=4, rng=8)
        with pytest.raises(ValueError):
            t.pack(np.ones((8, 8, 5, 5)))

    def test_masked_update_preserves_structure(self):
        # simulate a few "training steps" of packed dense grads
        rng = np.random.default_rng(9)
        t = BlockPermDiagTensor4D.random(8, 8, (3, 3), p=2, rng=9)
        for _ in range(5):
            t.values -= 0.1 * t.pack(rng.normal(size=t.shape))
        dense = t.to_dense()
        assert np.all(dense[~t.dense_mask()] == 0)
        again = BlockPermDiagTensor4D.from_dense(dense, p=2, ks=t.ks)
        np.testing.assert_array_equal(again.values, t.values)


class TestOffsetMatrices:
    """``matrices`` are the engine's offset matrices over ``values``."""

    def test_offsets_view_values_and_share_one_plan(self):
        t = BlockPermDiagTensor4D.random(10, 6, (2, 3), p=4, rng=10)
        assert t.values.shape == (2, 3, 3, 2, 4)
        assert t.values.flags.c_contiguous
        plan = t.matrices[0]._get_plan()
        for offset, matrix in enumerate(t.matrices):
            dy, dx = divmod(offset, 3)
            assert np.shares_memory(matrix.data, t.values)
            np.testing.assert_array_equal(matrix.data, t.values[dy, dx])
            assert matrix._get_plan() is plan
            assert matrix.value_dtype == "float64"

    def test_clean_values_are_aliased(self):
        values = np.ones((1, 1, 2, 2, 3))
        assert BlockPermDiagTensor4D(values, np.zeros((2, 2))).values is values
        # Non-zero padding slots are zeroed in a copy instead.
        padded = BlockPermDiagTensor4D(values, np.zeros((2, 2)), (5, 6))
        support = padded.matrices[0].support_mask()
        assert not np.any(padded.values[:, :, ~support])
        assert values.all()

    def test_random_keeps_the_kernel_major_draw(self):
        t = BlockPermDiagTensor4D.random(8, 4, (3, 3), p=2, rng=12)
        kernels = np.random.default_rng(12).normal(
            0.0, np.sqrt(2.0 / 18.0), size=(4, 2, 2, 3, 3)
        )
        np.testing.assert_array_equal(
            t.values, kernels.transpose(3, 4, 0, 1, 2)
        )
