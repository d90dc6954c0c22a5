"""Conversion units: convert_model / convert_cell / compress_arrays."""

import numpy as np
import pytest

from repro.compress import (
    CompressionError,
    compress_arrays,
    convert_cell,
    convert_model,
)
from repro.nn import (
    Dropout,
    Flatten,
    Linear,
    MaxPool2D,
    PermDiagConv2D,
    PermDiagLinear,
    ReLU,
    Sequential,
)
from repro.nn.layers.conv2d import Conv2D
from repro.nn.layers.recurrent import LSTMCell


def _mlp(seed=0, bias=False):
    rng = np.random.default_rng(seed)
    return Sequential(
        Linear(16, 24, bias=bias, rng=rng),
        ReLU(),
        Linear(24, 24, bias=bias, rng=rng),
        ReLU(),
        Linear(24, 5, bias=bias, rng=rng),
    )


class TestConvertModel:
    def test_all_layers_become_pd(self):
        compressed, reports = convert_model(_mlp(), fc_p=8, head_p=1)
        kinds = [type(layer) for layer in compressed.layers]
        assert kinds == [PermDiagLinear, ReLU, PermDiagLinear, ReLU,
                         PermDiagLinear]
        assert [r.p for r in reports] == [8, 8, 1]
        assert all(layer.bias is None
                   for layer in compressed.layers
                   if isinstance(layer, PermDiagLinear))

    def test_source_model_not_mutated(self):
        model = _mlp(seed=1)
        snapshot = [layer.weight.value.copy()
                    for layer in model.layers if isinstance(layer, Linear)]
        convert_model(model, fc_p=8, strategy="anneal")
        for layer, before in zip(
            [l for l in model.layers if isinstance(l, Linear)], snapshot
        ):
            np.testing.assert_array_equal(layer.weight.value, before)

    def test_p1_is_lossless(self):
        model = _mlp(seed=2)
        compressed, reports = convert_model(model, fc_p=1, head_p=1)
        x = np.random.default_rng(0).normal(size=(4, 16))
        np.testing.assert_allclose(
            compressed.forward(x), model.forward(x), atol=1e-12
        )
        assert all(r.retained_mass == pytest.approx(1.0) for r in reports)

    def test_narrow_layers_clamp_to_p1(self):
        rng = np.random.default_rng(3)
        model = Sequential(
            Conv2D(1, 6, 3, bias=False, rng=rng),  # in_channels=1 < conv_p
            ReLU(),
            Flatten(),
            Linear(6 * 4 * 4, 5, bias=False, rng=rng),
        )
        _, reports = convert_model(model, conv_p=4, head_p=1)
        assert reports[0].p == 1
        assert "p clamped to 1" in reports[0].note

    def test_nonzero_bias_is_dropped_and_noted(self):
        model = _mlp(seed=4, bias=True)
        for layer in model.layers:
            if isinstance(layer, Linear):
                layer.bias.value[...] = 1.0
        compressed, reports = convert_model(model, fc_p=8)
        assert all(layer.bias is None
                   for layer in compressed.layers
                   if isinstance(layer, PermDiagLinear))
        assert all("bias dropped" in r.note for r in reports)

    def test_already_pd_layers_pass_through(self):
        rng = np.random.default_rng(5)
        dense = Sequential(
            Linear(16, 24, bias=False, rng=rng),
            ReLU(),
            Linear(24, 5, bias=False, rng=rng),
        )
        once, _ = convert_model(dense, fc_p=8, head_p=1)
        twice, reports = convert_model(once, fc_p=8, head_p=1)
        x = rng.normal(size=(3, 16))
        np.testing.assert_array_equal(twice.forward(x), once.forward(x))
        assert all("already PD" in r.note for r in reports)

    def test_conv_and_pool_pipeline(self):
        rng = np.random.default_rng(6)
        model = Sequential(
            Conv2D(4, 8, 3, padding=1, bias=False, rng=rng),
            ReLU(),
            MaxPool2D(2),
            Dropout(0.25),
            Flatten(),
            Linear(8 * 4 * 4, 5, bias=False, rng=rng),
        )
        compressed, reports = convert_model(model, conv_p=4, head_p=1)
        assert isinstance(compressed.layers[0], PermDiagConv2D)
        assert reports[0].kind == "conv"
        assert reports[0].p == 4
        x = rng.normal(size=(2, 4, 8, 8))
        assert compressed.forward(x).shape == (2, 5)

    def test_unconvertible_layer_raises_typed_error(self):
        class Exotic:
            pass

        with pytest.raises(CompressionError, match="no PD conversion rule"):
            convert_model(Sequential(Linear(8, 8, bias=False), Exotic()))


class TestConvertCell:
    def test_projects_every_gate(self):
        dense = LSTMCell(16, 32, p=None, rng=0)
        dense.bias.value[...] = np.arange(128.0)
        pd, reports = convert_cell(dense, p=8)
        assert pd.p == 8
        assert [r.name for r in reports] == ["LSTM.W", "LSTM.U"]
        assert {r.kind for r in reports} == {"lstm-gate"}
        # Dense cells stack gates in blocks of h, PD cells in blocks of p.
        np.testing.assert_array_equal(
            pd.bias.value.reshape(-1, 4, 8).transpose(1, 0, 2).reshape(-1),
            dense.bias.value,
        )

    def test_rejects_already_pd_cell(self):
        with pytest.raises(CompressionError, match="already uses PD"):
            convert_cell(LSTMCell(16, 32, p=8, rng=0))

    def test_p_clamps_to_smallest_dimension(self):
        dense = LSTMCell(4, 32, p=None, rng=0)
        pd, reports = convert_cell(dense, p=8)
        assert pd.p == 1
        assert all("p clamped to 1" in r.note for r in reports)

    def test_p_clamps_when_it_does_not_divide_hidden_size(self):
        dense = LSTMCell(16, 20, p=None, rng=0)
        pd, reports = convert_cell(dense, p=8)
        assert pd.p == 1
        assert all("does not divide hidden 20" in r.note for r in reports)


class TestCompressArrays:
    def test_named_checkpoint(self):
        rng = np.random.default_rng(0)
        arrays = {
            "fc6": rng.normal(size=(32, 16)),
            "fc7": rng.normal(size=(16, 16)),
        }
        matrices, reports = compress_arrays(arrays, 4)
        assert set(matrices) == {"fc6", "fc7"}
        assert matrices["fc6"].nnz == 32 * 16 // 4
        assert [r.name for r in reports] == ["fc6", "fc7"]
        kept = matrices["fc7"].to_dense()
        mask = kept != 0
        np.testing.assert_array_equal(kept[mask], arrays["fc7"][mask])

    def test_value_dtype_forwarded(self):
        arrays = {"w": np.random.default_rng(1).normal(size=(8, 8))}
        matrices, _ = compress_arrays(arrays, 4, value_dtype="int16")
        assert matrices["w"].value_dtype == "int16"

    def test_non_2d_raises_typed_error(self):
        with pytest.raises(CompressionError, match="2-D weight matrices"):
            compress_arrays({"k": np.zeros((4, 4, 3, 3))}, 4)
