"""Tests for conv lowering, batched FC execution, and Case 2/3 engine runs."""

import numpy as np
import pytest

from repro.core import BlockPermDiagTensor4D, BlockPermutedDiagonalMatrix
from repro.hw import EngineConfig, PEConfig, PermDNNEngine
from repro.nn import PermDiagConv2D
from repro.serve import LoweredConvStage


def _small_engine(n_pe=4, n_mul=2, n_acc=8):
    return PermDNNEngine(
        EngineConfig(n_pe=n_pe, pe=PEConfig(n_mul=n_mul, n_acc=n_acc))
    )


def _run_conv(engine, tensor, x, stride=1, padding=0):
    """One ``(c_in, H, W)`` input through a 1-shard lowered conv stage:
    ``(output (c_out, oh, ow), cycles, macs)``."""
    stage = LoweredConvStage(
        tensor, None, 1, input_hw=x.shape[1:], stride=stride, padding=padding
    )
    out, (cycles,), (macs,) = stage.run_batch([engine], x.reshape(1, -1))
    return out.reshape(tensor.shape[0], *stage.conv_hw), cycles, macs


class TestConvLowering:
    @pytest.mark.parametrize("stride,pad", [(1, 0), (1, 1), (2, 1)])
    def test_matches_software_convolution(self, stride, pad):
        rng = np.random.default_rng(0)
        tensor = BlockPermDiagTensor4D.random(8, 4, (3, 3), p=2, rng=rng)
        x = rng.normal(size=(4, 6, 6))
        engine = _small_engine()
        output, _, _ = _run_conv(engine, tensor, x, stride=stride, padding=pad)
        layer = PermDiagConv2D.from_tensor(
            tensor, stride=stride, padding=pad, bias=np.zeros(8)
        )
        expected = layer.forward(x[None])[0]
        np.testing.assert_allclose(output, expected, atol=1e-10)

    def test_too_small_spatial_input(self):
        tensor = BlockPermDiagTensor4D.random(4, 4, (5, 5), p=2, rng=0)
        with pytest.raises(ValueError):
            _run_conv(_small_engine(), tensor, np.zeros((4, 3, 3)))

    def test_zero_channels_skipped(self):
        # enough channels that per-column cycles dominate (Case 1)
        rng = np.random.default_rng(1)
        tensor = BlockPermDiagTensor4D.random(32, 32, (3, 3), p=2, rng=rng)
        engine = _small_engine()
        dense_in = rng.normal(size=(32, 4, 4))
        sparse_in = dense_in.copy()
        sparse_in[::2] = 0.0  # zero half the channels
        _, dense_cycles, _ = _run_conv(engine, tensor, dense_in)
        _, sparse_cycles, _ = _run_conv(engine, tensor, sparse_in)
        assert sparse_cycles < dense_cycles

    def test_macs_scale_with_compression(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(8, 5, 5))
        engine = _small_engine()
        _, _, dense_macs = _run_conv(
            engine, BlockPermDiagTensor4D.random(8, 8, (3, 3), p=1, rng=4), x
        )
        _, _, pd_macs = _run_conv(
            engine, BlockPermDiagTensor4D.random(8, 8, (3, 3), p=4, rng=4), x
        )
        assert pd_macs == pytest.approx(dense_macs / 4, rel=0.01)


class TestBatchedFC:
    def test_outputs_match_matmat(self):
        rng = np.random.default_rng(0)
        matrix = BlockPermutedDiagonalMatrix.random((16, 24), 4, rng=rng)
        x_batch = rng.normal(size=(5, 24))
        engine = _small_engine()
        outputs, cycles, _ = engine.run_fc_batch_detailed(matrix, x_batch)
        np.testing.assert_allclose(outputs, matrix.matmat(x_batch), atol=1e-12)
        assert cycles > 0

    def test_pipeline_fill_paid_once(self):
        rng = np.random.default_rng(1)
        matrix = BlockPermutedDiagonalMatrix.random((16, 16), 4, rng=rng)
        engine = _small_engine()
        x = rng.normal(size=(3, 16))
        __, batch_cycles, _ = engine.run_fc_batch_detailed(matrix, x)
        singles = sum(
            engine.run_fc_layer(matrix, xi).compute_cycles
            + engine.run_fc_layer(matrix, xi).writeback_cycles
            for xi in x
        )
        assert batch_cycles == engine.config.pipeline_stages + singles

    def test_shape_check(self):
        matrix = BlockPermutedDiagonalMatrix.random((8, 8), 2, rng=0)
        with pytest.raises(ValueError):
            _small_engine().run_fc_batch_detailed(matrix, np.zeros((2, 9)))

    def test_sparser_batch_is_faster(self):
        rng = np.random.default_rng(2)
        matrix = BlockPermutedDiagonalMatrix.random((32, 64), 4, rng=rng)
        engine = _small_engine()
        dense = rng.normal(size=(4, 64))
        sparse = dense * (rng.random((4, 64)) < 0.2)
        __, dense_cycles, _ = engine.run_fc_batch_detailed(matrix, dense)
        __, sparse_cycles, _ = engine.run_fc_batch_detailed(matrix, sparse)
        assert sparse_cycles < dense_cycles


class TestCase2And3OnEngine:
    def test_case2_layer_runs_and_verifies(self):
        """n_acc < rows/PE: chunked Case 2 execution, functionally exact."""
        engine = PermDNNEngine(
            EngineConfig(n_pe=2, pe=PEConfig(n_mul=2, n_acc=8))
        )
        rng = np.random.default_rng(0)
        matrix = BlockPermutedDiagonalMatrix.random((64, 32), 2, rng=rng)
        x = rng.normal(size=32)
        result = engine.run_fc_layer(matrix, x)
        assert result.case == 2
        np.testing.assert_allclose(result.output, matrix.matvec(x), atol=1e-12)
        # Case 2 costs more cycles/column than an n_acc-rich Case 1 engine
        rich = PermDNNEngine(EngineConfig(n_pe=2, pe=PEConfig(n_mul=2, n_acc=32)))
        assert result.compute_cycles >= rich.run_fc_layer(matrix, x).compute_cycles

    def test_case3_layer_runs_and_verifies(self):
        """rows/PE < p*n_mul: multi-column Case 3 execution."""
        engine = PermDNNEngine(
            EngineConfig(n_pe=8, pe=PEConfig(n_mul=8, n_acc=16))
        )
        rng = np.random.default_rng(1)
        matrix = BlockPermutedDiagonalMatrix.random((32, 64), 16, rng=rng)
        x = rng.normal(size=64)
        result = engine.run_fc_layer(matrix, x)
        assert result.case == 3
        np.testing.assert_allclose(result.output, matrix.matvec(x), atol=1e-12)
        # multiple columns retire per cycle
        assert result.compute_cycles < result.nonzero_columns
