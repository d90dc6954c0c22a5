"""Equivalent execution paths report identical cycle and MAC counters.

Outputs are cross-checked elsewhere; this module pins the counters.
Every pair below claims the same engine work, so it must count the same
cycles and MACs at every value dtype and on padded shapes (``p`` does
not divide the layer dimensions):

- a 1-shard ``LoweredConvStage`` is its per-column engine reference:
  every lowered column, cut by explicit indexing into the padded input,
  through ``run_fc_layer`` and summed in offset order, bit for bit, with
  one pipeline fill per offset product and the same SRAM traffic (also
  on Hypothesis-drawn conv shapes);
- a recurrent step costs exactly its two stacked engine batch calls
  (``W`` and ``U``) and does the MACs of its 8 per-gate products (also
  on Hypothesis-drawn cell shapes, where sharded and served steps match
  the 1-shard stage and ``LSTMCell.step`` bitwise);
- a 1-shard ``ShardedLayer`` is one ``run_fc_batch_detailed`` call
  (also on Hypothesis-drawn FC shapes);
- 1-shard FC and recurrent stages are their per-row engine references
  (``run_fc_layer`` on each request row, the recurrent one adding the
  bias and the cell's ``lstm_update``) in bits, cycles, MACs and SRAM
  counters, on drawn shapes at every value dtype; at float64 their
  outputs are also the executable spec's forward (``_spec_products``),
  which shares no index code with the kernel -- bit for bit on the CSR
  forward, to 1e-10 on the PBD GEMMs, which sum in another order;
- the three reference checks run on both forward paths
  (``forward_path``): a batched stage equals its one-row references bit
  for bit on the PBD GEMMs too, because their fixed tiles make a row's
  bits independent of its batch;
- a 1-shard ``ModelServer`` at B=1 matches ``run_network`` layer by
  layer, and with the whole request set as one batch it matches the
  per-layer ``run_fc_batch_detailed`` loop, makespan included;
- row sharding redistributes MACs without creating or losing any, on
  every shape: the engine counts the weights stored in each input's
  non-zero columns, so shard counts add up to the unsharded count even
  when a row-padded last block row stores fewer weights in some columns
  than in others.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import BlockPermDiagTensor4D, BlockPermutedDiagonalMatrix
from repro.core.block_perm_diag import convert_values
from repro.hw import PermDNNEngine
from repro.hw.engine import apply_activation
from repro.nn.layers.recurrent import LSTMCell, lstm_update
from repro.serve import (
    LoweredConvStage,
    ModelServer,
    RecurrentStage,
    ShardedLayer,
)
from tests.core.test_backend_conformance import _spec_products

VALUE_DTYPES = ["float64", "float32", "int16"]


def _sparse(shape, seed, density=0.6):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=shape)
    x[rng.random(size=shape) > density] = 0.0
    return x


def _fc_layers(value_dtype):
    """A padded FC stack: no dimension is a multiple of its ``p``."""
    shapes = [
        ((100, 68), 8, "relu"),
        ((30, 100), 8, "tanh"),
        ((13, 30), 3, None),
    ]
    layers = []
    for seed, (shape, p, activation) in enumerate(shapes):
        matrix = BlockPermutedDiagonalMatrix.random(shape, p, rng=seed)
        layers.append((matrix.with_value_dtype(value_dtype), activation))
    return layers


def _conv_tensor():
    return BlockPermDiagTensor4D.random(13, 7, (3, 3), p=3, rng=0)


def _cell():
    return LSTMCell(10, 21, p=3, rng=0)


def _stage(kind, num_shards, value_dtype):
    if kind == "fc":
        matrix, activation = _fc_layers(value_dtype)[0]
        return ShardedLayer(matrix, activation, num_shards)
    if kind == "conv":
        return LoweredConvStage(
            _conv_tensor(), "relu", num_shards, input_hw=(9, 9), padding=1,
            value_dtype=value_dtype,
        )
    return RecurrentStage(_cell(), num_shards, value_dtype=value_dtype)


def _per_column_conv(tensor, x, stride, padding, value_dtype):
    """A conv stage's engine work on one ``(c_in, H, W)`` input, one
    lowered column at a time.

    Explicit indexing into the zero-padded input cuts each offset's
    channel column at each output position, and ``run_fc_layer`` runs it
    on that offset's channel matrix.  The outputs sum in offset order,
    as the stage sums its offset products; the cycles are one pipeline
    fill per offset product plus every column's compute and writeback.

    Returns:
        ``(flat c_out*oh*ow output, cycles, macs, engine)``.
    """
    engine = PermDNNEngine()
    kh, kw = tensor.kernel_size
    padded = np.pad(x, ((0, 0), (padding, padding), (padding, padding)))
    oh = (padded.shape[1] - kh) // stride + 1
    ow = (padded.shape[2] - kw) // stride + 1
    cycles = kh * kw * engine.config.pipeline_stages
    macs = 0
    products = []
    matrices = convert_values(tensor.matrices, value_dtype)
    for offset, matrix in enumerate(matrices):
        dy, dx = divmod(offset, kw)
        outputs = []
        for oy in range(oh):
            for ox in range(ow):
                column = padded[:, oy * stride + dy, ox * stride + dx]
                single = engine.run_fc_layer(matrix, column)
                outputs.append(single.output)
                cycles += single.compute_cycles + single.writeback_cycles
                macs += single.macs
        products.append(np.stack(outputs))
    return sum(products).T.reshape(-1), cycles, macs, engine


def _check_one_shard_conv_stage(tensor, x, stride, padding, value_dtype):
    """A 1-shard conv stage serving ``x`` is its per-column reference in
    bits, cycles, MACs and every SRAM counter."""
    stage = LoweredConvStage(
        tensor, None, 1, input_hw=x.shape[1:], stride=stride,
        padding=padding, value_dtype=value_dtype,
    )
    engine = PermDNNEngine()
    out, cycles, macs = stage.run_batch([engine], x.reshape(1, -1))
    expected, ref_cycles, ref_macs, reference = _per_column_conv(
        tensor, x, stride, padding, value_dtype
    )
    assert out.dtype == expected.dtype
    np.testing.assert_array_equal(out[0], expected)
    assert cycles == [ref_cycles]
    assert macs == [ref_macs]
    for name in ("weight_sram", "perm_sram", "act_sram"):
        got = getattr(engine, name).stats
        want = getattr(reference, name).stats
        assert (got.reads, got.writes) == (want.reads, want.writes), name
    return stage


@pytest.mark.usefixtures("forward_path")
@pytest.mark.parametrize("value_dtype", VALUE_DTYPES)
@pytest.mark.parametrize("stride,padding", [(1, 1), (2, 0)])
def test_one_shard_conv_stage_is_its_per_column_reference(
    value_dtype, stride, padding
):
    _check_one_shard_conv_stage(
        _conv_tensor(), _sparse((7, 9, 9), seed=1), stride, padding,
        value_dtype,
    )


def _gate_rows(matrix, gate):
    """Gate ``gate``'s ``(h, n)`` matrix: a row view of a stacked one."""
    return BlockPermutedDiagonalMatrix(
        matrix.data[gate::4],
        matrix.ks[gate::4],
        shape=(matrix.shape[0] // 4, matrix.shape[1]),
        value_dtype=matrix.value_dtype,
        fixed_point=matrix.fixed_point,
    )


def _check_recurrent_step_counts(cell, xs, value_dtype):
    """A 1-shard recurrent stage costs its two stacked engine calls, and
    does the MACs of the cell's eight per-gate products."""
    stage = RecurrentStage(cell, 1, value_dtype=value_dtype)
    engine = PermDNNEngine()
    out, cycles, macs = stage.run_batch([engine], xs)

    stacked, per_gate = PermDNNEngine(), PermDNNEngine()
    ref_cycles = ref_macs = 0
    split = np.cumsum([cell.input_size, cell.hidden_size])
    for op, inputs in zip(cell.weight_matrices, np.split(xs, split, axis=1)):
        matrix = op.matrix.with_value_dtype(value_dtype)
        _, op_cycles, _ = stacked.run_fc_batch_detailed(matrix, inputs)
        ref_cycles += op_cycles
        for gate in range(4):
            _, _, gate_macs = per_gate.run_fc_batch_detailed(
                _gate_rows(matrix, gate), inputs
            )
            ref_macs += gate_macs
    assert cycles == [ref_cycles]
    assert macs == [ref_macs]
    for name in ("weight_sram", "perm_sram", "act_sram"):
        got = getattr(engine, name).stats
        want = getattr(stacked, name).stats
        assert (got.reads, got.writes) == (want.reads, want.writes), name
    return out, macs


@pytest.mark.parametrize("value_dtype", VALUE_DTYPES)
def test_recurrent_step_counts_its_gate_products(value_dtype):
    _check_recurrent_step_counts(
        _cell(), _sparse((5, 10 + 2 * 21), seed=2), value_dtype
    )


@settings(max_examples=100, deadline=None)
@given(
    p=st.integers(1, 4),
    blocks=st.integers(1, 4),
    input_size=st.integers(1, 12),
    batch=st.integers(1, 5),
    value_dtype=st.sampled_from(VALUE_DTYPES),
    seed=st.integers(0, 2**16),
)
def test_recurrent_paths_agree_on_drawn_shapes(
    p, blocks, input_size, batch, value_dtype, seed
):
    hidden = p * blocks
    cell = LSTMCell(input_size, hidden, p=p, rng=seed)
    xs = _sparse((batch, input_size + 2 * hidden), seed=seed)
    reference, macs = _check_recurrent_step_counts(cell, xs, value_dtype)
    if value_dtype == "float64":
        x, h_prev, c_prev = np.split(xs, [input_size, input_size + hidden], 1)
        h, c, _ = cell.step(x, h_prev, c_prev)
        np.testing.assert_array_equal(reference, np.concatenate([h, c], 1))
    for num_shards in range(2, min(3, blocks) + 1):
        stage = RecurrentStage(cell, num_shards, value_dtype=value_dtype)
        engines = [PermDNNEngine() for _ in range(num_shards)]
        sharded, _, shard_macs = stage.run_batch(engines, xs)
        np.testing.assert_array_equal(sharded, reference)
        assert sum(shard_macs) == sum(macs)


@pytest.mark.parametrize("value_dtype", VALUE_DTYPES)
def test_one_shard_server_matches_run_network(value_dtype):
    layers = _fc_layers(value_dtype)
    x = _sparse(68, seed=3)
    output, results = PermDNNEngine().run_network(layers, x)
    server = ModelServer(layers, num_shards=1, max_batch_size=1)
    server.submit(x)
    report = server.drain()
    np.testing.assert_array_equal(report.outputs[0], output)
    assert report.layer_cycles == [result.cycles for result in results]
    assert [row[0].macs for row in report.layer_stats] == [
        result.macs for result in results
    ]

    # The whole request set as one batch is the per-layer
    # run_fc_batch_detailed loop in outputs, cycles and makespan: the
    # reference every AlexNet shard sweep is measured against.
    xs = _sparse((32, 68), seed=5)
    engine = PermDNNEngine()
    expected, cycles = xs, []
    for matrix, activation in layers:
        expected, layer_cycles, _ = engine.run_fc_batch_detailed(
            matrix, expected, activation=activation
        )
        cycles.append(layer_cycles)
    server = ModelServer(
        layers, num_shards=1, num_threads=1, max_batch_size=len(xs)
    )
    server.submit_many(xs)
    report = server.drain()
    np.testing.assert_array_equal(np.stack(report.outputs), expected)
    assert report.layer_cycles == cycles
    assert report.makespan_us == sum(cycles) / server.cycles_per_us


@pytest.mark.parametrize("value_dtype", VALUE_DTYPES)
@pytest.mark.parametrize("kind", ["fc", "conv", "recurrent"])
@pytest.mark.parametrize("num_shards", [2, 4])
def test_sharding_preserves_total_macs(kind, num_shards, value_dtype):
    single = _stage(kind, 1, value_dtype)
    sharded = _stage(kind, num_shards, value_dtype)
    xs = _sparse((6, single.in_features), seed=4)
    _, _, macs = single.run_batch([PermDNNEngine()], xs)
    _, _, shard_macs = sharded.run_batch(
        [PermDNNEngine() for _ in range(num_shards)], xs
    )
    assert len(shard_macs) == num_shards
    assert sum(shard_macs) == sum(macs)
    if kind == "fc":  # the stack's other padded FC shapes as well
        for matrix, activation in _fc_layers(value_dtype)[1:]:
            xs = _sparse((6, matrix.shape[1]), seed=5)
            _, _, macs = ShardedLayer(matrix, activation, 1).run_batch(
                [PermDNNEngine()], xs
            )
            _, _, shard_macs = ShardedLayer(
                matrix, activation, num_shards
            ).run_batch([PermDNNEngine() for _ in range(num_shards)], xs)
            assert sum(shard_macs) == sum(macs), matrix.shape


@pytest.mark.parametrize("channel,stored", [(0, 4), (1, 8)])
def test_row_padded_conv_shards_conserve_macs(channel, stored):
    """Regression: a 1x1 conv with ``c_out=4, c_in=2, p=3`` has two block
    rows, the second holding one real row.  With one non-zero input
    channel on a 2x2 map, the stored weights give 4 MACs for channel 0
    and 8 for channel 1; the average-per-column model counted 8 on one
    shard and 4 + 0 over two, for either channel."""
    tensor = BlockPermDiagTensor4D.random(4, 2, (1, 1), 3, rng=0)
    x = np.zeros((1, 2, 2, 2))
    x[0, channel] = 1.0
    xs = x.reshape(1, -1)
    for num_shards in (1, 2):
        stage = LoweredConvStage(tensor, None, num_shards, input_hw=(2, 2))
        engines = [PermDNNEngine() for _ in range(num_shards)]
        _, _, shard_macs = stage.run_batch(engines, xs)
        assert sum(shard_macs) == stored, num_shards


@settings(max_examples=150, deadline=None)
@given(
    c_in=st.integers(1, 10),
    c_out=st.integers(1, 10),
    p=st.integers(1, 4),
    kernel_size=st.tuples(st.integers(1, 3), st.integers(1, 3)),
    stride=st.integers(1, 2),
    padding=st.integers(0, 1),
    extra_hw=st.tuples(st.integers(0, 3), st.integers(0, 3)),
    value_dtype=st.sampled_from(VALUE_DTYPES),
    seed=st.integers(0, 2**16),
)
def test_conv_paths_agree_on_drawn_shapes(
    c_in, c_out, p, kernel_size, stride, padding, extra_hw, value_dtype, seed
):
    tensor = BlockPermDiagTensor4D.random(
        c_out, c_in, kernel_size, p, rng=seed
    )
    np.testing.assert_array_equal(tensor.pack(tensor.to_dense()), tensor.values)
    input_hw = tuple(k + extra for k, extra in zip(kernel_size, extra_hw))
    geometry = dict(input_hw=input_hw, stride=stride, padding=padding)
    single = _check_one_shard_conv_stage(
        tensor, _sparse((c_in, *input_hw), seed=seed), stride, padding,
        value_dtype,
    )

    xs = _sparse((3, single.in_features), seed=seed + 1)
    reference, _, reference_macs = single.run_batch([PermDNNEngine()], xs)
    for num_shards in range(2, min(3, -(-c_out // p)) + 1):
        stage = LoweredConvStage(
            tensor, None, num_shards, value_dtype=value_dtype, **geometry
        )
        engines = [PermDNNEngine() for _ in range(num_shards)]
        sharded, _, shard_macs = stage.run_batch(engines, xs)
        np.testing.assert_array_equal(sharded, reference)
        assert sum(shard_macs) == sum(reference_macs)


@settings(max_examples=150, deadline=None)
@given(
    m=st.integers(1, 40),
    n=st.integers(1, 40),
    p=st.integers(1, 5),
    batch=st.integers(1, 5),
    activation=st.sampled_from([None, "relu"]),
    value_dtype=st.sampled_from(VALUE_DTYPES),
    seed=st.integers(0, 2**16),
)
def test_fc_paths_agree_on_drawn_shapes(
    m, n, p, batch, activation, value_dtype, seed
):
    """A 1-shard FC stage is one engine batch call in bits, cycles and
    MACs, and 2 or 3 row shards (where the block rows allow) serve the
    same bits and the same MAC total, padded axes included."""
    matrix = BlockPermutedDiagonalMatrix.random(
        (m, n), p, rng=seed
    ).with_value_dtype(value_dtype)
    xs = _sparse((batch, n), seed=seed)
    out, cycles, macs = PermDNNEngine().run_fc_batch_detailed(
        matrix, xs, activation=activation
    )
    single = ShardedLayer(matrix, activation, 1)
    reference, stage_cycles, stage_macs = single.run_batch(
        [PermDNNEngine()], xs
    )
    np.testing.assert_array_equal(reference, out)
    assert stage_cycles == [cycles]
    assert stage_macs == [macs]
    for num_shards in range(2, min(3, matrix.mb) + 1):
        stage = ShardedLayer(matrix, activation, num_shards)
        engines = [PermDNNEngine() for _ in range(num_shards)]
        sharded, _, shard_macs = stage.run_batch(engines, xs)
        np.testing.assert_array_equal(sharded, reference)
        assert sum(shard_macs) == macs


def _assert_same_sram(engine, reference):
    for name in ("weight_sram", "perm_sram", "act_sram"):
        assert getattr(engine, name).stats == getattr(reference, name).stats


def _account(single, totals):
    """Add one ``run_fc_layer`` result's compute, writeback and MACs."""
    totals[0] += single.compute_cycles + single.writeback_cycles
    totals[1] += single.macs


def _per_row_fc(matrix, xs, activation):
    """A FC stage's engine work, one request row at a time.

    ``run_fc_layer`` runs each row alone; the cycles are one pipeline
    fill for the stage's one slot plus every row's compute and writeback.

    Returns:
        ``(outputs, cycles, macs, engine)``.
    """
    engine = PermDNNEngine()
    totals = [engine.config.pipeline_stages, 0]
    outputs = []
    for x in xs:
        single = engine.run_fc_layer(matrix, x, activation=activation)
        outputs.append(single.output)
        _account(single, totals)
    return np.stack(outputs), *totals, engine


def _per_row_recurrent(cell, xs, value_dtype):
    """A recurrent stage's engine work, one request row at a time.

    ``run_fc_layer`` computes the row's ``W x`` and ``U h``; then
    ``(W x + U h) + b`` and the cell's ``lstm_update`` give ``[h | c]``.
    The cycles are one pipeline fill per slot plus every row's compute
    and writeback on both.

    Returns:
        ``(outputs, cycles, macs, engine)``.
    """
    engine = PermDNNEngine()
    w, u = convert_values(
        [op.matrix for op in cell.weight_matrices], value_dtype
    )
    bias = np.asarray(cell.bias.value, dtype=w.compute_dtype)
    totals = [2 * engine.config.pipeline_stages, 0]
    outputs = []
    split = [cell.input_size, cell.input_size + cell.hidden_size]
    for row in xs:
        x, h_prev, c_prev = np.split(row, split)
        w_x, u_h = engine.run_fc_layer(w, x), engine.run_fc_layer(u, h_prev)
        _account(w_x, totals)
        _account(u_h, totals)
        pre = w_x.output + u_h.output + bias
        h, c, _ = lstm_update(
            pre[None], c_prev[None].astype(w.compute_dtype), cell.p
        )
        outputs.append(np.concatenate([h[0], c[0]]))
    return np.stack(outputs), *totals, engine


def _spec_forward(matrix, x):
    """``W x`` for the batch ``x`` from ``(data, ks, shape)`` alone."""
    dy = np.zeros((x.shape[0], matrix.shape[0]))
    return _spec_products(matrix.data, matrix.ks, matrix.shape, x, dy)[0]


def _assert_spec(out, want, forward_path):
    """The CSR forward accumulates each row in the spec's order; the PBD
    GEMMs meet it at the 1e-10 dense bar."""
    if forward_path == "csr":
        np.testing.assert_array_equal(out, want)
    else:
        np.testing.assert_allclose(out, want, rtol=0, atol=1e-10)


# ``forward_path`` only patches a module constant, which holds for every
# drawn example.
@settings(
    max_examples=100,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(
    m=st.integers(1, 40),
    n=st.integers(1, 40),
    p=st.integers(1, 5),
    batch=st.integers(1, 5),
    activation=st.sampled_from([None, "relu", "tanh"]),
    value_dtype=st.sampled_from(VALUE_DTYPES),
    seed=st.integers(0, 2**16),
)
def test_one_shard_fc_stage_is_its_per_row_reference(
    forward_path, m, n, p, batch, activation, value_dtype, seed
):
    matrix = BlockPermutedDiagonalMatrix.random(
        (m, n), p, rng=seed
    ).with_value_dtype(value_dtype)
    xs = _sparse((batch, n), seed=seed)
    engine = PermDNNEngine()
    out, cycles, macs = ShardedLayer(matrix, activation, 1).run_batch(
        [engine], xs
    )
    expected, ref_cycles, ref_macs, reference = _per_row_fc(
        matrix, xs, activation
    )
    assert out.dtype == expected.dtype
    np.testing.assert_array_equal(out, expected)
    assert (cycles, macs) == ([ref_cycles], [ref_macs])
    _assert_same_sram(engine, reference)
    if value_dtype == "float64":
        _assert_spec(
            out,
            apply_activation(_spec_forward(matrix, xs), activation),
            forward_path,
        )


@settings(
    max_examples=100,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(
    p=st.integers(1, 4),
    blocks=st.integers(1, 4),
    input_size=st.integers(1, 12),
    batch=st.integers(1, 5),
    value_dtype=st.sampled_from(VALUE_DTYPES),
    seed=st.integers(0, 2**16),
)
def test_one_shard_recurrent_stage_is_its_per_row_reference(
    forward_path, p, blocks, input_size, batch, value_dtype, seed
):
    cell = LSTMCell(input_size, p * blocks, p=p, rng=seed)
    xs = _sparse((batch, input_size + 2 * p * blocks), seed=seed)
    engine = PermDNNEngine()
    out, cycles, macs = RecurrentStage(
        cell, 1, value_dtype=value_dtype
    ).run_batch([engine], xs)
    expected, ref_cycles, ref_macs, reference = _per_row_recurrent(
        cell, xs, value_dtype
    )
    assert out.dtype == expected.dtype
    np.testing.assert_array_equal(out, expected)
    assert (cycles, macs) == ([ref_cycles], [ref_macs])
    _assert_same_sram(engine, reference)
    if value_dtype == "float64":
        w, u = (op.matrix for op in cell.weight_matrices)
        x, h_prev, c_prev = np.split(
            xs, [input_size, input_size + cell.hidden_size], axis=1
        )
        pre = _spec_forward(w, x) + _spec_forward(u, h_prev) + cell.bias.value
        h, c, _ = lstm_update(pre, c_prev, p)
        _assert_spec(out, np.concatenate([h, c], axis=1), forward_path)
