"""Vectorized batch path vs the per-sample model it replaced.

``run_fc_batch_detailed`` computes one batched product and evaluates the
cycle model for the whole batch at once; these tests pin its contract:
bit-identical outputs, identical cycle/MAC totals, and identical SRAM
counters to a sample-by-sample ``run_fc_layer`` loop, at every value
dtype.
"""

import numpy as np
import pytest

from repro.core import BlockPermutedDiagonalMatrix
from repro.hw.engine import PermDNNEngine


def _batch(n, rng, sparsity=0.5, size=7):
    x = rng.normal(size=(size, n))
    x[rng.random(size=x.shape) < sparsity] = 0.0
    return x


@pytest.mark.parametrize("value_dtype", ["float64", "float32", "int16"])
@pytest.mark.parametrize("shape,p", [((96, 64), 8), ((100, 68), 8)])
def test_batched_matches_per_sample_loop(value_dtype, shape, p):
    matrix = BlockPermutedDiagonalMatrix.random(
        shape, p, rng=3, value_dtype=value_dtype
    )
    x_batch = _batch(shape[1], np.random.default_rng(0))

    batched = PermDNNEngine()
    out, cycles, macs = batched.run_fc_batch_detailed(
        matrix, x_batch, activation="relu", enforce_capacity=False
    )

    looped = PermDNNEngine()
    total = looped.config.pipeline_stages
    loop_macs = 0
    ref = np.empty((x_batch.shape[0], shape[0]))
    for row, x in enumerate(x_batch):
        result = looped.run_fc_layer(
            matrix, x, activation="relu", enforce_capacity=False
        )
        ref[row] = result.output
        total += result.compute_cycles + result.writeback_cycles
        loop_macs += result.macs

    assert out.dtype == matrix.compute_dtype
    np.testing.assert_array_equal(out.astype(np.float64), ref)
    assert cycles == total
    assert macs == loop_macs
    for name in ("weight_sram", "perm_sram", "act_sram"):
        got = getattr(batched, name).stats
        want = getattr(looped, name).stats
        assert (got.reads, got.writes) == (want.reads, want.writes), name


def test_zero_skip_off_counts_every_column():
    matrix = BlockPermutedDiagonalMatrix.random((64, 64), 8, rng=0)
    x_batch = _batch(64, np.random.default_rng(1), sparsity=0.8)
    engine = PermDNNEngine()
    _, skipped_cycles, _ = engine.run_fc_batch_detailed(
        matrix, x_batch, zero_skip=True, enforce_capacity=False
    )
    _, dense_cycles, _ = engine.run_fc_batch_detailed(
        matrix, x_batch, zero_skip=False, enforce_capacity=False
    )
    assert dense_cycles > skipped_cycles


def test_batch_rejects_bad_activation_and_shape():
    matrix = BlockPermutedDiagonalMatrix.random((32, 32), 8, rng=0)
    engine = PermDNNEngine()
    with pytest.raises(ValueError, match="activation"):
        engine.run_fc_batch_detailed(
            matrix, np.zeros((2, 32)), activation="gelu"
        )
    with pytest.raises(ValueError, match="expected batch"):
        engine.run_fc_batch_detailed(matrix, np.zeros((2, 31)))


def test_tanh_batch_matches_per_sample():
    matrix = BlockPermutedDiagonalMatrix.random((48, 32), 8, rng=5)
    x_batch = _batch(32, np.random.default_rng(2))
    engine = PermDNNEngine()
    out, _, _ = engine.run_fc_batch_detailed(
        matrix, x_batch, activation="tanh", enforce_capacity=False
    )
    ref = np.stack(
        [
            engine.run_fc_layer(
                matrix, x, activation="tanh", enforce_capacity=False
            ).output
            for x in x_batch
        ]
    )
    np.testing.assert_array_equal(out, ref)
