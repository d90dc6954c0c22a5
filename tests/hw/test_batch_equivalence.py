"""Vectorized batch path vs the per-sample model it replaced.

``run_fc_batch_detailed`` computes one batched product and evaluates the
cycle model for the whole batch at once; these tests pin its contract:
bit-identical outputs, identical cycle/MAC totals, and identical SRAM
counters to a sample-by-sample ``run_fc_layer`` loop, at every value
dtype -- and the same again when the caller hands in each row's
processed-column count (``columns=``) instead of the engine taking it.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import BlockPermutedDiagonalMatrix
from repro.hw.config import EngineConfig, PEConfig
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


@settings(max_examples=100, deadline=None)
@given(
    m=st.integers(1, 40),
    n=st.integers(1, 40),
    p=st.integers(1, 5),
    batch=st.integers(1, 5),
    sparsity=st.sampled_from([0.0, 0.5, 1.0]),
    value_dtype=st.sampled_from(["float64", "float32", "int16"]),
    pe=st.sampled_from([(32, 8, 128), (1, 1, 4), (2, 2, 128)]),
    seed=st.integers(0, 2**16),
)
def test_precomputed_columns_match_the_engines_own_count(
    m, n, p, batch, sparsity, value_dtype, pe, seed
):
    """``columns=``, a served stage's once-per-slot-input count, gives the
    outputs, cycles, MACs and SRAM counters of the engine's own count:
    padded shapes and every scheduler case included."""
    n_pe, n_mul, n_acc = pe
    config = EngineConfig(n_pe=n_pe, pe=PEConfig(n_mul=n_mul, n_acc=n_acc))
    matrix = BlockPermutedDiagonalMatrix.random(
        (m, n), p, rng=seed, value_dtype=value_dtype
    )
    x_batch = _batch(n, np.random.default_rng(seed), sparsity, batch)
    own, given_counts = PermDNNEngine(config), PermDNNEngine(config)
    out, cycles, macs = own.run_fc_batch_detailed(
        matrix, x_batch, activation="relu", enforce_capacity=False
    )
    got, got_cycles, got_macs = given_counts.run_fc_batch_detailed(
        matrix, x_batch, activation="relu", enforce_capacity=False,
        columns=np.count_nonzero(x_batch, axis=1),
    )
    assert got.dtype == out.dtype
    np.testing.assert_array_equal(got, out)
    assert (got_cycles, got_macs) == (cycles, macs)
    for name in ("weight_sram", "perm_sram", "act_sram"):
        assert getattr(given_counts, name).stats == getattr(own, name).stats


def test_precomputed_columns_need_one_count_per_row():
    matrix = BlockPermutedDiagonalMatrix.random((32, 32), 8, rng=0)
    with pytest.raises(ValueError, match="column counts"):
        PermDNNEngine().run_fc_batch_detailed(
            matrix, np.ones((3, 32)), columns=np.full(2, 32)
        )
