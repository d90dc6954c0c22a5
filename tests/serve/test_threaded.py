"""Thread-parallel shard execution: determinism, lifecycle, crossover.

Every assertion here is internal consistency (threaded vs sequential on
the *same* server inputs), so each test runs at float64 and at float32
value storage (the drawn-stage test at every value dtype).  The layers
here are far below ``_THREAD_MIN_MACS``, the product size under which a
batch runs its shards inline, so the tests of the executor path force
it by setting the crossover to 0 (``force_threads``); the crossover
tests pin both sides of it.
"""

import dataclasses
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.serve.server as server_module
from repro.core import BlockPermDiagTensor4D, BlockPermutedDiagonalMatrix
from repro.hw import PermDNNEngine
from repro.nn.layers.recurrent import LSTMCell
from repro.serve.server import (
    LoweredConvStage,
    ModelServer,
    RecurrentStage,
    ShardedLayer,
)


@pytest.fixture(params=["float64", "float32"])
def value_dtype(request):
    return request.param


@pytest.fixture
def force_threads(monkeypatch):
    """Every multi-shard batch runs on the drain's executor."""
    monkeypatch.setattr(server_module, "_THREAD_MIN_MACS", 0)


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


@pytest.mark.usefixtures("force_threads")
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


@pytest.mark.usefixtures("force_threads")
def test_threaded_drain_with_shedding_is_deterministic(value_dtype):
    a = _drain(value_dtype, 4, queue_capacity=8, max_batch_size=4)
    b = _drain(value_dtype, 1, queue_capacity=8, max_batch_size=4)
    assert a.shed_rids == b.shed_rids
    np.testing.assert_array_equal(np.stack(a.outputs), np.stack(b.outputs))


@pytest.mark.usefixtures("force_threads")
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


@pytest.mark.usefixtures("force_threads")
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


def _record_engine_threads(monkeypatch) -> list[str]:
    """The name of the thread each engine batch call runs on, in order."""
    names = []
    original = PermDNNEngine.run_fc_batch_detailed

    def recording(self, *args, **kwargs):
        names.append(threading.current_thread().name)
        return original(self, *args, **kwargs)

    monkeypatch.setattr(PermDNNEngine, "run_fc_batch_detailed", recording)
    return names


@pytest.mark.parametrize("reaches", [False, True])
def test_crossover_picks_where_engine_calls_run(
    value_dtype, monkeypatch, reaches
):
    """A batch whose largest shard slot product stores ``_THREAD_MIN_MACS``
    MACs makes every engine call on the drain's ``repro-shard`` threads;
    one MAC short of it, every call runs on the calling thread."""
    layer = ShardedLayer(_layers(value_dtype)[0][0], "relu", 4)
    x = _workload(np.random.default_rng(5))[0][:6]
    product = len(x) * max(shard.nnz for (shard,) in layer.shard_slots)
    monkeypatch.setattr(
        server_module, "_THREAD_MIN_MACS", product + (0 if reaches else 1)
    )
    names = _record_engine_threads(monkeypatch)
    server = ModelServer([layer], num_threads=2, max_batch_size=len(x))
    server.submit_many(x)
    server.drain()
    assert len(names) == layer.num_shards
    if reaches:
        assert all(name.startswith("repro-shard") for name in names), names
    else:
        assert names == [threading.current_thread().name] * len(names)


def test_default_crossover_runs_small_batches_inline(value_dtype, monkeypatch):
    names = _record_engine_threads(monkeypatch)
    report = _drain(value_dtype, 4)
    assert len(names) == 2 * 4 * len(report.batch_sizes)
    assert set(names) == {threading.current_thread().name}


_VALUE_DTYPES = ("float64", "float32", "int16")


@st.composite
def _stages(draw):
    """A small FC, conv or recurrent stage with 2-3 shards."""
    kind = draw(st.sampled_from(("fc", "conv", "recurrent")))
    value_dtype = draw(st.sampled_from(_VALUE_DTYPES))
    p = draw(st.integers(1, 3))
    shards = draw(st.integers(2, 3))
    blocks = shards + draw(st.integers(0, 2))
    seed = draw(st.integers(0, 2**16))
    if kind == "fc":
        matrix = BlockPermutedDiagonalMatrix.random(
            (blocks * p, draw(st.integers(1, 20))), p, rng=seed,
            value_dtype=value_dtype,
        )
        activation = draw(st.sampled_from((None, "relu", "tanh")))
        return ShardedLayer(matrix, activation, shards)
    if kind == "conv":
        tensor = BlockPermDiagTensor4D.random(
            blocks * p, draw(st.integers(1, 4)), (2, 2), p, rng=seed
        )
        pool = draw(st.sampled_from((None, 2)))
        return LoweredConvStage(
            tensor, draw(st.sampled_from((None, "relu"))), shards,
            input_hw=(5, 5), padding=draw(st.integers(0, 1)) if pool else 0,
            pool=pool, value_dtype=value_dtype,
        )
    cell = LSTMCell(draw(st.integers(1, 8)), blocks * p, p=p, rng=seed)
    return RecurrentStage(cell, shards, value_dtype=value_dtype)


def _sram(server) -> list:
    return [
        (engine.weight_sram.stats, engine.perm_sram.stats,
         engine.act_sram.stats)
        for row in server.engines
        for engine in row
    ]


@settings(max_examples=60, deadline=None)
@given(
    stage=_stages(),
    count=st.integers(1, 12),
    max_batch_size=st.integers(1, 5),
    seed=st.integers(0, 2**16),
)
def test_crossover_never_changes_a_drain(stage, count, max_batch_size, seed):
    """Every ``ServeReport`` field and every engine's SRAM counters are
    the same whether each batch runs its shards on the executor (the
    crossover at 0) or inline (at its default, above these stages)."""
    rng = np.random.default_rng(seed)
    xs = rng.normal(size=(count, stage.in_features))
    xs[rng.random(size=xs.shape) < 0.4] = 0.0
    arrivals = np.cumsum(rng.exponential(5.0, size=count))
    runs = []
    for crossover in (0, server_module._THREAD_MIN_MACS):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(server_module, "_THREAD_MIN_MACS", crossover)
            server = ModelServer(
                [stage], num_threads=2, max_batch_size=max_batch_size
            )
            server.submit_many(xs, arrivals)
            runs.append((server.drain(), _sram(server)))
    (threaded, threaded_sram), (inline, inline_sram) = runs
    for field in dataclasses.fields(threaded):
        got, want = getattr(threaded, field.name), getattr(inline, field.name)
        if field.name == "outputs":
            assert [o.dtype for o in got] == [o.dtype for o in want]
            np.testing.assert_array_equal(np.stack(got), np.stack(want))
        elif isinstance(got, np.ndarray):
            np.testing.assert_array_equal(got, want)
        else:
            assert got == want, field.name
    assert threaded_sram == inline_sram
