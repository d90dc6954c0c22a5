"""Tests for Conv2D / PermDiagConv2D and the im2col machinery."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nn import Conv2D, PermDiagConv2D
from repro.nn.functional import col2im, conv_output_hw, im2col, lower_columns
from repro.nn.gradcheck import check_input_gradient, check_parameter_gradients

rng = np.random.default_rng(77)


def _reference_conv(x, weight, bias, stride, pad):
    """Naive direct convolution for cross-checking."""
    batch, c_in, height, width = x.shape
    c_out, _, kh, kw = weight.shape
    if pad:
        x = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    oh = (x.shape[2] - kh) // stride + 1
    ow = (x.shape[3] - kw) // stride + 1
    out = np.zeros((batch, c_out, oh, ow))
    for b in range(batch):
        for co in range(c_out):
            for i in range(oh):
                for j in range(ow):
                    patch = x[
                        b,
                        :,
                        i * stride : i * stride + kh,
                        j * stride : j * stride + kw,
                    ]
                    out[b, co, i, j] = (patch * weight[co]).sum()
    if bias is not None:
        out += bias[None, :, None, None]
    return out


class TestIm2Col:
    def test_shapes(self):
        x = rng.normal(size=(2, 3, 8, 8))
        cols, (oh, ow) = im2col(x, 3, 3, stride=1, pad=0)
        assert (oh, ow) == (6, 6)
        assert cols.shape == (2, 36, 27)

    def test_stride_and_padding(self):
        x = rng.normal(size=(1, 2, 7, 7))
        cols, (oh, ow) = im2col(x, 3, 3, stride=2, pad=1)
        assert (oh, ow) == (4, 4)

    def test_rejects_too_small_input(self):
        with pytest.raises(ValueError):
            im2col(rng.normal(size=(1, 1, 2, 2)), 3, 3, 1, 0)

    @settings(max_examples=60, deadline=None)
    @given(
        batch=st.integers(1, 3),
        channels=st.integers(1, 4),
        kernel=st.tuples(st.integers(1, 3), st.integers(1, 3)),
        extra=st.tuples(st.integers(0, 4), st.integers(0, 4)),
        stride=st.integers(1, 3),
        pad=st.integers(0, 2),
        dtype=st.sampled_from([np.float64, np.float32]),
        seed=st.integers(0, 2**16),
    )
    def test_lower_columns_is_im2col_offset_major(
        self, batch, channels, kernel, extra, stride, pad, dtype, seed
    ):
        """One patch view, two layouts: offset ``(dy, dx)``'s column batch
        is that offset's entries of every ``im2col`` row, bit for bit."""
        kh, kw = kernel
        x = np.random.default_rng(seed).normal(
            size=(batch, channels, kh + extra[0], kw + extra[1])
        ).astype(dtype)
        cols, (oh, ow) = im2col(x, kh, kw, stride, pad)
        lowered = lower_columns(x, kh, kw, stride, pad)
        assert lowered.shape == (kh * kw, batch * oh * ow, channels)
        assert lowered.dtype == dtype and lowered.flags.c_contiguous
        patches = cols.reshape(batch * oh * ow, channels, kh, kw)
        for dy in range(kh):
            for dx in range(kw):
                np.testing.assert_array_equal(
                    lowered[dy * kw + dx], patches[:, :, dy, dx]
                )

    @pytest.mark.parametrize(
        "stride,pad,input_hw",
        [(0, 0, (8, 8)), (-1, 0, (8, 8)), (1, -1, (8, 8)), (1, 1, (0, 8))],
    )
    def test_rejects_invalid_geometry(self, stride, pad, input_hw):
        """Bad geometry fails with ``ValueError`` wherever patches are
        cut, ``Conv2D.forward`` included: a zero stride would divide by
        zero, a negative padding or an empty input give a meaningless
        output size."""
        with pytest.raises(ValueError, match="invalid conv geometry"):
            conv_output_hw(input_hw, (3, 3), stride, pad)
        x = np.zeros((1, 2, *input_hw))
        for unfold in (im2col, lower_columns):
            with pytest.raises(ValueError, match="invalid conv geometry"):
                unfold(x, 3, 3, stride, pad)
        with pytest.raises(ValueError, match="invalid conv geometry"):
            Conv2D(2, 4, 3, stride=stride, padding=pad).forward(x)

    def test_col2im_is_adjoint_of_im2col(self):
        """<im2col(x), c> == <x, col2im(c)> for random c (adjoint test)."""
        x = rng.normal(size=(2, 3, 6, 6))
        cols, _ = im2col(x, 3, 3, stride=2, pad=1)
        c = rng.normal(size=cols.shape)
        lhs = (cols * c).sum()
        rhs = (x * col2im(c, x.shape, 3, 3, stride=2, pad=1)).sum()
        assert lhs == pytest.approx(rhs)


class TestConv2D:
    @pytest.mark.parametrize("stride,pad", [(1, 0), (1, 1), (2, 1), (2, 0)])
    def test_matches_reference_conv(self, stride, pad):
        layer = Conv2D(3, 4, 3, stride=stride, padding=pad, rng=0)
        x = rng.normal(size=(2, 3, 8, 8))
        expected = _reference_conv(
            x, layer.weight.value, layer.bias.value, stride, pad
        )
        np.testing.assert_allclose(layer.forward(x), expected, atol=1e-10)

    def test_non_square_kernel(self):
        layer = Conv2D(2, 3, (1, 3), rng=1)
        x = rng.normal(size=(2, 2, 5, 7))
        expected = _reference_conv(x, layer.weight.value, layer.bias.value, 1, 0)
        np.testing.assert_allclose(layer.forward(x), expected, atol=1e-10)

    def test_gradcheck(self):
        layer = Conv2D(2, 3, 3, stride=2, padding=1, rng=2)
        x = rng.normal(size=(2, 2, 6, 6))
        assert check_input_gradient(layer, x) < 1e-5
        assert check_parameter_gradients(layer, x) < 1e-5

    def test_output_shape_helper(self):
        assert conv_output_hw((32, 32), (3, 3), 2, 1) == (16, 16)

    def test_input_shape_check(self):
        with pytest.raises(ValueError):
            Conv2D(3, 4, 3).forward(np.zeros((2, 2, 8, 8)))


class TestPermDiagConv2D:
    def test_kernels_off_support_are_zero(self):
        layer = PermDiagConv2D(8, 8, 3, p=4, rng=3)
        mask = layer.channel_mask
        weight = layer._effective_weight()
        for i in range(8):
            for j in range(8):
                if not mask[i, j]:
                    assert np.all(weight[i, j] == 0)

    def test_forward_matches_masked_dense_conv(self):
        layer = PermDiagConv2D(4, 8, 3, p=2, padding=1, rng=4)
        dense = Conv2D(4, 8, 3, padding=1, rng=5)
        dense.weight.value[...] = layer._effective_weight()
        dense.bias.value[...] = layer.bias.value
        x = rng.normal(size=(2, 4, 6, 6))
        np.testing.assert_allclose(layer.forward(x), dense.forward(x), atol=1e-12)

    def test_gradcheck(self):
        layer = PermDiagConv2D(4, 6, 3, p=2, stride=2, padding=1, rng=6)
        x = rng.normal(size=(2, 4, 6, 6))
        assert check_input_gradient(layer, x) < 1e-5
        assert check_parameter_gradients(layer, x) < 1e-5

    def test_structure_preserved_after_adam_steps(self):
        from repro.nn import Adam

        layer = PermDiagConv2D(4, 4, 3, p=2, rng=7)
        mask = layer.tensor.dense_mask()
        opt = Adam(layer.parameters(), lr=0.01)
        for _ in range(5):
            x = rng.normal(size=(2, 4, 5, 5))
            y = layer.forward(x)
            layer.zero_grad()
            layer.backward(y)
            opt.step()
        assert np.all(layer._effective_weight()[~mask] == 0)

    def test_compression_ratio(self):
        layer = PermDiagConv2D(8, 8, 3, p=4, rng=8)
        assert layer.compression_ratio == pytest.approx(4.0)

    def test_num_parameters_counts_stored_taps(self):
        # 8*8/4 kernels of 3x3 taps, plus 8 biases.
        assert PermDiagConv2D(8, 8, 3, p=4, rng=8).num_parameters() == 152

    def test_p1_equals_dense_support(self):
        layer = PermDiagConv2D(4, 4, 3, p=1, rng=9)
        assert layer.tensor.dense_mask().all()

    def test_to_tensor_round_trip(self):
        layer = PermDiagConv2D(4, 8, 3, p=2, rng=10)
        tensor = layer.tensor
        assert np.shares_memory(layer.weight.value, tensor.values)
        np.testing.assert_allclose(tensor.to_dense(), layer._effective_weight())

    def test_from_tensor(self):
        from repro.core import BlockPermDiagTensor4D

        tensor = BlockPermDiagTensor4D.random(6, 4, (3, 3), p=2, rng=11)
        layer = PermDiagConv2D.from_tensor(tensor, padding=1)
        np.testing.assert_allclose(layer._effective_weight(), tensor.to_dense())
