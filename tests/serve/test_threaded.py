"""Thread-parallel shard execution: determinism and lifecycle.

Every assertion here is internal consistency (threaded vs sequential on
the *same* server inputs), so each test runs at float64 and at float32
value storage.
"""

import threading

import numpy as np
import pytest

from repro.core import BlockPermutedDiagonalMatrix
from repro.serve.server import ModelServer, ShardedLayer


@pytest.fixture(params=["float64", "float32"])
def value_dtype(request):
    return request.param


def _layers(value_dtype, seed=0):
    return [
        (BlockPermutedDiagonalMatrix.random(
            (128, 96), 8, rng=seed, value_dtype=value_dtype
        ), "relu"),
        (BlockPermutedDiagonalMatrix.random(
            (64, 128), 8, rng=seed + 1, value_dtype=value_dtype
        ), None),
    ]


def _workload(rng, n=96, count=23):
    x = rng.normal(size=(count, n))
    x[rng.random(size=x.shape) < 0.4] = 0.0
    arrivals = np.sort(rng.uniform(0.0, 400.0, size=count))
    return x, arrivals


def _drain(value_dtype, num_threads, **kwargs):
    server = ModelServer(
        _layers(value_dtype),
        num_shards=4,
        num_threads=num_threads,
        **kwargs,
    )
    x, arrivals = _workload(np.random.default_rng(7))
    server.submit_many(x, arrivals)
    return server.drain()


@pytest.mark.parametrize("num_threads", [2, 4, 8])
def test_threaded_drain_bit_identical_to_sequential(value_dtype, num_threads):
    sequential = _drain(value_dtype, 1)
    threaded = _drain(value_dtype, num_threads)
    np.testing.assert_array_equal(
        np.stack(sequential.outputs), np.stack(threaded.outputs)
    )
    np.testing.assert_array_equal(
        sequential.latencies_us, threaded.latencies_us
    )
    assert sequential.layer_cycles == threaded.layer_cycles
    assert sequential.batch_sizes == threaded.batch_sizes

    def flat(report):
        return [
            (s.cycles, s.macs, s.batches, s.samples)
            for row in report.layer_stats
            for s in row
        ]

    assert flat(sequential) == flat(threaded)


def test_threaded_drain_with_shedding_is_deterministic(value_dtype):
    a = _drain(value_dtype, 4, queue_capacity=8, max_batch_size=4)
    b = _drain(value_dtype, 1, queue_capacity=8, max_batch_size=4)
    assert a.shed_rids == b.shed_rids
    np.testing.assert_array_equal(np.stack(a.outputs), np.stack(b.outputs))


def test_no_threads_outlive_the_drain(value_dtype):
    before = {t.ident for t in threading.enumerate()}
    _drain(value_dtype, 4)
    leaked = [
        t
        for t in threading.enumerate()
        if t.ident not in before and t.name.startswith("repro-shard")
    ]
    assert not leaked, leaked


def test_num_threads_default_and_validation(value_dtype):
    server = ModelServer(_layers(value_dtype), num_shards=4)
    assert 1 <= server.num_threads <= 4  # min(shards, host CPUs)
    assert f"threads={server.num_threads}" in repr(server)
    with pytest.raises(ValueError, match="num_threads"):
        ModelServer(_layers(value_dtype), num_shards=4, num_threads=0)


def test_sharded_layer_executor_path_matches_direct_call(value_dtype):
    from concurrent.futures import ThreadPoolExecutor

    matrix = BlockPermutedDiagonalMatrix.random(
        (128, 96), 8, rng=2, value_dtype=value_dtype
    )
    layer = ShardedLayer(matrix, "relu", 4)
    server = ModelServer([layer], num_threads=1)
    engines = server.engines[0]
    x = _workload(np.random.default_rng(3))[0]
    seq_out, seq_cycles, seq_macs = layer.run_batch(engines, x)
    with ThreadPoolExecutor(max_workers=4) as pool:
        thr_out, thr_cycles, thr_macs = layer.run_batch(
            engines, x, executor=pool
        )
    np.testing.assert_array_equal(seq_out, thr_out)
    assert seq_cycles == thr_cycles
    # engine counters doubled identically: both paths ran the same work
    assert seq_macs == thr_macs
