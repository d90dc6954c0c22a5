"""Tests for Linear, PermDiagLinear, MaskedLinear and BlockCirculantLinear."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import PermutationSpec
from repro.nn import (
    BlockCirculantLinear,
    Linear,
    MaskedLinear,
    PermDiagLinear,
)
from repro.nn.gradcheck import check_input_gradient, check_parameter_gradients

rng = np.random.default_rng(1234)


class TestLinear:
    def test_forward_matches_matmul(self):
        layer = Linear(6, 4, rng=0)
        x = rng.normal(size=(3, 6))
        expected = x @ layer.weight.value.T + layer.bias.value
        np.testing.assert_allclose(layer.forward(x), expected)

    def test_no_bias(self):
        layer = Linear(6, 4, bias=False, rng=0)
        assert layer.bias is None
        x = rng.normal(size=(2, 6))
        np.testing.assert_allclose(layer.forward(x), x @ layer.weight.value.T)

    def test_input_shape_check(self):
        with pytest.raises(ValueError):
            Linear(6, 4).forward(np.zeros((2, 5)))

    def test_backward_before_forward_raises(self):
        with pytest.raises(RuntimeError):
            Linear(6, 4).backward(np.zeros((2, 4)))

    def test_gradcheck(self):
        layer = Linear(5, 7, rng=1)
        x = rng.normal(size=(4, 5))
        assert check_input_gradient(layer, x) < 1e-6
        assert check_parameter_gradients(layer, x) < 1e-6

    def test_grad_accumulates_across_calls(self):
        layer = Linear(3, 2, rng=2)
        x = rng.normal(size=(2, 3))
        layer.forward(x)
        layer.backward(np.ones((2, 2)))
        first = layer.weight.grad.copy()
        layer.forward(x)
        layer.backward(np.ones((2, 2)))
        np.testing.assert_allclose(layer.weight.grad, 2 * first)


class TestPermDiagLinear:
    def test_forward_matches_dense_weight(self):
        layer = PermDiagLinear(12, 8, p=4, rng=3)
        x = rng.normal(size=(5, 12))
        expected = x @ layer.to_dense_weight().T + layer.bias.value
        np.testing.assert_allclose(layer.forward(x), expected, atol=1e-12)

    @given(st.integers(1, 6), st.sampled_from(["natural", "random"]))
    @settings(max_examples=15, deadline=None)
    def test_gradcheck_over_block_sizes(self, p, scheme):
        layer = PermDiagLinear(
            12, 9, p=p, spec=PermutationSpec(scheme, seed=0), rng=4
        )
        x = np.random.default_rng(5).normal(size=(3, 12))
        assert check_input_gradient(layer, x) < 1e-5
        assert check_parameter_gradients(layer, x) < 1e-5

    def test_equivalent_to_masked_dense_layer(self):
        """PD layer == dense layer masked to the PD support: identical
        forward values and identical gradient flow (cross-check of the
        structure-preserving training rule)."""
        pd = PermDiagLinear(10, 8, p=2, rng=6)
        mask = pd.matrix.dense_mask()
        masked = MaskedLinear(10, 8, mask, rng=7)
        masked.weight.value[...] = pd.to_dense_weight()
        masked.bias.value[...] = pd.bias.value

        x = rng.normal(size=(4, 10))
        np.testing.assert_allclose(pd.forward(x), masked.forward(x), atol=1e-12)

        dy = rng.normal(size=(4, 8))
        pd.zero_grad()
        masked.zero_grad()
        dx_pd = pd.backward(dy)
        dx_masked = masked.backward(dy)
        np.testing.assert_allclose(dx_pd, dx_masked, atol=1e-12)
        # masked dense grad restricted to support == packed PD grad
        from repro.core import BlockPermutedDiagonalMatrix

        packed = BlockPermutedDiagonalMatrix.from_dense(
            masked.weight.grad, 2, ks=pd.ks
        )
        np.testing.assert_allclose(pd.weight.grad, packed.data, atol=1e-12)

    def test_structure_preserved_after_sgd_steps(self):
        from repro.nn import SGD

        layer = PermDiagLinear(9, 6, p=3, rng=8)
        opt = SGD(layer.parameters(), lr=0.05, momentum=0.9)
        mask = layer.matrix.dense_mask()
        for _ in range(10):
            x = rng.normal(size=(4, 9))
            y = layer.forward(x)
            layer.zero_grad()
            layer.backward(y)  # arbitrary upstream gradient
            opt.step()
        dense = layer.to_dense_weight()
        assert np.all(dense[~mask] == 0)

    def test_compression_ratio(self):
        layer = PermDiagLinear(16, 8, p=4, rng=9)
        assert layer.compression_ratio == pytest.approx(4.0)

    def test_parameter_count_is_compressed(self):
        layer = PermDiagLinear(16, 8, p=4, bias=False, rng=10)
        assert layer.num_parameters() == 16 * 8 // 4

    def test_from_matrix_round_trip(self):
        from repro.core import approximate_pd

        dense = rng.normal(size=(8, 12))
        approx = approximate_pd(dense, p=4)
        layer = PermDiagLinear.from_matrix(approx, bias=np.arange(8.0))
        np.testing.assert_allclose(layer.to_dense_weight(), approx.to_dense())
        np.testing.assert_allclose(layer.bias.value, np.arange(8.0))

    def test_from_matrix_non_divisible_shape_random_spec(self):
        """Regression: from_matrix used to rebuild with a fresh layer and
        poke ``ks``/``shape`` behind validation, breaking non-multiple-of-p
        shapes and non-natural permutation specs."""
        from repro.core import BlockPermutedDiagonalMatrix

        matrix = BlockPermutedDiagonalMatrix.random(
            (10, 13), 4, spec=PermutationSpec(scheme="random", seed=3), rng=3
        )
        layer = PermDiagLinear.from_matrix(matrix, bias=np.ones(10))
        assert layer.in_features == 13 and layer.out_features == 10
        np.testing.assert_array_equal(layer.ks, matrix.ks)
        np.testing.assert_allclose(layer.to_dense_weight(), matrix.to_dense())
        x = rng.normal(size=(4, 13))
        np.testing.assert_allclose(
            layer.forward(x), x @ matrix.to_dense().T + 1.0, atol=1e-12
        )

    def test_from_matrix_gradcheck_non_divisible(self):
        from repro.core import BlockPermutedDiagonalMatrix

        matrix = BlockPermutedDiagonalMatrix.random(
            (9, 11), 4, spec=PermutationSpec(scheme="random", seed=5), rng=5
        )
        layer = PermDiagLinear.from_matrix(matrix, bias=np.zeros(9))
        x = np.random.default_rng(6).normal(size=(3, 11))
        assert check_input_gradient(layer, x) < 1e-5
        assert check_parameter_gradients(layer, x) < 1e-5

    def test_from_matrix_shares_storage_with_parameter(self):
        from repro.core import BlockPermutedDiagonalMatrix

        matrix = BlockPermutedDiagonalMatrix.random((8, 8), 4, rng=7)
        layer = PermDiagLinear.from_matrix(matrix)
        assert layer.weight.value is layer.matrix.data
        layer.weight.value += 1.0  # optimizer-style in-place update
        np.testing.assert_allclose(layer.matrix.data, layer.weight.value)
        assert layer.bias is None

    def test_from_matrix_rejects_reduced_precision_storage(self):
        from repro.core import BlockPermutedDiagonalMatrix

        matrix = BlockPermutedDiagonalMatrix.random(
            (8, 8), 4, rng=9
        ).with_value_dtype("float32")
        with pytest.raises(TypeError, match="float64"):
            PermDiagLinear.from_matrix(matrix)

    def test_from_matrix_rejects_bad_bias(self):
        from repro.core import BlockPermutedDiagonalMatrix

        matrix = BlockPermutedDiagonalMatrix.random((8, 8), 4, rng=8)
        with pytest.raises(ValueError):
            PermDiagLinear.from_matrix(matrix, bias=np.zeros(5))

    def test_from_matrix_structure_preserved_through_training(self):
        from repro.core import BlockPermutedDiagonalMatrix
        from repro.nn import SGD

        matrix = BlockPermutedDiagonalMatrix.random(
            (10, 13), 4, spec=PermutationSpec(scheme="random", seed=9), rng=9
        )
        layer = PermDiagLinear.from_matrix(matrix, bias=np.zeros(10))
        mask = layer.matrix.dense_mask()
        opt = SGD(layer.parameters(), lr=0.05)
        for _ in range(5):
            x = rng.normal(size=(4, 13))
            y = layer.forward(x)
            layer.zero_grad()
            layer.backward(y)
            opt.step()
        dense = layer.to_dense_weight()
        assert np.all(dense[~mask] == 0)
        assert np.any(dense != 0)

    def test_optimizer_update_reflected_in_matrix(self):
        """The Parameter and the structured matrix share storage."""
        layer = PermDiagLinear(6, 6, p=2, rng=11)
        layer.weight.value += 1.0
        x = np.eye(6)
        np.testing.assert_allclose(
            layer.forward(x) - layer.bias.value, layer.to_dense_weight().T
        )

    def test_input_shape_check(self):
        with pytest.raises(ValueError):
            PermDiagLinear(6, 4, p=2).forward(np.zeros((2, 5)))


class TestMaskedLinear:
    def test_mask_shape_check(self):
        with pytest.raises(ValueError):
            MaskedLinear(4, 3, np.ones((4, 4), dtype=bool))

    def test_pruned_weights_stay_zero_through_training(self):
        from repro.nn import SGD

        mask = rng.random((6, 8)) > 0.6
        layer = MaskedLinear(8, 6, mask, rng=12)
        opt = SGD(layer.parameters(), lr=0.1)
        for _ in range(5):
            x = rng.normal(size=(3, 8))
            y = layer.forward(x)
            layer.zero_grad()
            layer.backward(y)
            opt.step()
        assert np.all(layer.weight.value[~mask] * 1.0 == 0)

    def test_gradcheck(self):
        mask = rng.random((5, 7)) > 0.5
        layer = MaskedLinear(7, 5, mask, rng=13)
        x = rng.normal(size=(3, 7))
        assert check_input_gradient(layer, x) < 1e-6
        assert check_parameter_gradients(layer, x) < 1e-6

    def test_density(self):
        mask = np.zeros((4, 5), dtype=bool)
        mask[0, :2] = True
        layer = MaskedLinear(5, 4, mask)
        assert layer.nnz == 2
        assert layer.density == pytest.approx(0.1)


class TestBlockCirculantLinear:
    def test_forward_matches_dense_circulant(self):
        layer = BlockCirculantLinear(12, 8, k=4, rng=14)
        x = rng.normal(size=(5, 12))
        expected = x @ layer.to_dense_weight().T + layer.bias.value
        np.testing.assert_allclose(layer.forward(x), expected, atol=1e-10)

    def test_forward_with_padding(self):
        layer = BlockCirculantLinear(10, 7, k=4, rng=15)
        x = rng.normal(size=(3, 10))
        expected = x @ layer.to_dense_weight().T + layer.bias.value
        np.testing.assert_allclose(layer.forward(x), expected, atol=1e-10)

    @given(st.integers(1, 6))
    @settings(max_examples=10, deadline=None)
    def test_gradcheck_over_block_sizes(self, k):
        layer = BlockCirculantLinear(8, 8, k=k, rng=16)
        x = np.random.default_rng(17).normal(size=(3, 8))
        assert check_input_gradient(layer, x) < 1e-5
        assert check_parameter_gradients(layer, x) < 1e-5

    def test_compression_ratio_matches_pd_with_same_block(self):
        circ = BlockCirculantLinear(16, 16, k=4, bias=False, rng=18)
        pd = PermDiagLinear(16, 16, p=4, bias=False, rng=19)
        assert circ.weight.size == pd.weight.size

    def test_rejects_bad_k(self):
        with pytest.raises(ValueError):
            BlockCirculantLinear(8, 8, k=0)

    def test_dense_weight_blocks_are_circulant(self):
        layer = BlockCirculantLinear(8, 8, k=4, rng=20)
        dense = layer.to_dense_weight()
        block = dense[:4, :4]
        for r in range(4):
            for c in range(4):
                assert block[r, c] == pytest.approx(block[(r + 1) % 4, (c + 1) % 4])
