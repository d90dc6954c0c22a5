"""Sharded serving: bit-exact outputs, ordering, determinism, stats."""

import numpy as np
import pytest

from repro.core import BlockPermutedDiagonalMatrix, PermutationSpec
from repro.hw import EngineConfig, PermDNNEngine
from repro.serve import ModelServer, ShardedLayer


def _stack(seed=0):
    """A 3-layer FC stack with padded shapes in the middle."""
    rng = np.random.default_rng(seed)
    spec = PermutationSpec(scheme="random", seed=seed)
    l1 = BlockPermutedDiagonalMatrix.random((64, 48), 4, spec=spec, rng=rng)
    l2 = BlockPermutedDiagonalMatrix.random((30, 64), 8, spec=spec, rng=rng)
    l3 = BlockPermutedDiagonalMatrix.random((16, 30), 2, spec=spec, rng=rng)
    return [(l1, "relu"), (l2, "tanh"), (l3, None)]


def _requests(num, n, seed=1, density=0.5):
    rng = np.random.default_rng(seed)
    xs = rng.normal(size=(num, n))
    xs[rng.random(size=xs.shape) > density] = 0.0
    return xs


def _unsharded_reference(layers, xs):
    engine = PermDNNEngine()
    current = xs
    for matrix, activation in layers:
        current, _, _ = engine.run_fc_batch_detailed(
            matrix, current, activation=activation
        )
    return current


class TestShardedCorrectness:
    @pytest.mark.parametrize("num_shards", [1, 2, 3])
    def test_sharded_equals_run_fc_batch_bit_for_bit(self, num_shards):
        layers = _stack()
        xs = _requests(7, 48)
        reference = _unsharded_reference(layers, xs)
        server = ModelServer(layers, num_shards=num_shards, max_batch_size=4)
        server.submit_many(xs)
        report = server.drain()
        np.testing.assert_array_equal(np.stack(report.outputs), reference)

    def test_single_layer_matches_engine_batch(self):
        matrix, activation = _stack()[0]
        xs = _requests(5, 48)
        outputs, _, _ = PermDNNEngine().run_fc_batch_detailed(
            matrix, xs, activation=activation
        )
        server = ModelServer([(matrix, activation)], num_shards=2)
        server.submit_many(xs)
        report = server.drain()
        np.testing.assert_array_equal(np.stack(report.outputs), outputs)

    def test_outputs_in_submission_order_despite_batching(self):
        layers = _stack()
        xs = _requests(9, 48)
        server = ModelServer(layers, num_shards=2, max_batch_size=2)
        rids = [server.submit(x, arrival_us=5.0 * i) for i, x in enumerate(xs)]
        assert rids == list(range(9))
        report = server.drain()
        assert len(report.batch_sizes) > 1  # really crossed batch boundaries
        np.testing.assert_array_equal(
            np.stack(report.outputs), _unsharded_reference(layers, xs)
        )

    def test_live_weight_updates_reach_shards(self):
        layers = _stack()
        server = ModelServer(layers, num_shards=2)
        xs = _requests(3, 48)
        layers[0][0].data[...] = 0.0  # zero the first layer in place
        server.submit_many(xs)
        report = server.drain()
        np.testing.assert_array_equal(
            np.stack(report.outputs), _unsharded_reference(layers, xs)
        )


class TestDeterminism:
    def test_identical_submissions_produce_identical_reports(self):
        layers = _stack()
        rng = np.random.default_rng(3)
        xs = _requests(8, 48, seed=4)
        arrivals = np.sort(rng.uniform(0, 40, size=8))
        reports = []
        for _ in range(2):
            server = ModelServer(
                layers, num_shards=2, max_batch_size=3, flush_deadline_us=10.0
            )
            server.submit_many(xs, arrivals_us=arrivals)
            reports.append(server.drain())
        first, second = reports
        assert first.batch_sizes == second.batch_sizes
        np.testing.assert_array_equal(first.latencies_us, second.latencies_us)
        np.testing.assert_array_equal(
            np.stack(first.outputs), np.stack(second.outputs)
        )
        assert first.makespan_us == second.makespan_us
        assert first.throughput_rps == second.throughput_rps


class TestTimingAndStats:
    def test_stats_cover_every_layer_and_shard(self):
        layers = _stack()
        server = ModelServer(layers, num_shards=2, max_batch_size=4)
        server.submit_many(_requests(6, 48))
        report = server.drain()
        assert len(report.layer_stats) == 3
        for per_shard in report.layer_stats:
            assert len(per_shard) == 2
            for stats in per_shard:
                assert stats.cycles > 0
                assert stats.batches == len(report.batch_sizes)
                assert stats.samples == 6
        assert all(c > 0 for c in report.layer_cycles)
        assert report.num_requests == 6
        assert report.throughput_rps > 0
        assert report.latency_percentile(99) >= report.latency_percentile(50)

    def test_sharding_improves_throughput(self):
        layers = _stack()
        xs = _requests(6, 48)
        results = {}
        for num_shards in (1, 2):
            server = ModelServer(layers, num_shards=num_shards, max_batch_size=6)
            server.submit_many(xs)
            results[num_shards] = server.drain().throughput_rps
        assert results[2] > results[1]

    def test_latency_includes_queueing_until_deadline_flush(self):
        layers = _stack()
        server = ModelServer(
            layers, num_shards=2, max_batch_size=16, flush_deadline_us=25.0
        )
        server.submit(_requests(1, 48)[0], arrival_us=0.0)
        report = server.drain()
        # one request never fills the batch: it waits out the deadline
        assert report.latencies_us[0] >= 25.0

    def test_idle_entry_layer_reports_zero_queueing(self):
        # At this arrival the us -> cycles -> us round trip of the batch's
        # ready time lands one ulp early.
        server = ModelServer(
            _stack(), num_shards=1, max_batch_size=1, flush_deadline_us=0.0
        )
        server.submit(_requests(1, 48)[0], arrival_us=109.30753943394252)
        report = server.drain()
        assert report.queue_us[0] == 0.0
        assert report.compute_us[0] == report.latencies_us[0]

    def test_drain_clears_the_queue(self):
        layers = _stack()
        server = ModelServer(layers, num_shards=2)
        server.submit_many(_requests(3, 48))
        assert server.drain().num_requests == 3
        empty = server.drain()
        assert empty.num_requests == 0
        assert empty.throughput_rps == 0.0


class TestValidation:
    def test_layer_chain_mismatch_rejected(self):
        l1 = BlockPermutedDiagonalMatrix.random((64, 48), 4, rng=0)
        l2 = BlockPermutedDiagonalMatrix.random((30, 60), 2, rng=0)
        with pytest.raises(ValueError, match="chain mismatch"):
            ModelServer([(l1, "relu"), (l2, None)], num_shards=2)

    @pytest.mark.parametrize("value", [1.5, 2.5, True])
    def test_num_threads_checked_not_truncated(self, value):
        with pytest.raises(ValueError, match="num_threads"):
            ModelServer(_stack(), num_shards=2, num_threads=value)

    @pytest.mark.parametrize("value", [2.5, True])
    def test_queue_capacity_checked_not_truncated(self, value):
        with pytest.raises(ValueError, match="queue_capacity"):
            ModelServer(_stack(), num_shards=2, queue_capacity=value)

    @pytest.mark.parametrize("value", [2.0, 2.5, True])
    def test_num_shards_checked_not_truncated(self, value):
        """Every shard count passes through ``row_shard_bounds``, which
        raises ``ValueError`` rather than serving one shard for ``True``
        or failing deep inside with ``TypeError`` for a float."""
        with pytest.raises(ValueError, match="num_shards"):
            ModelServer(_stack(), num_shards=value)

    @pytest.mark.parametrize("value", [0, -1, 2.5, True])
    def test_num_shards_checked_beside_prebuilt_stages(self, value):
        """A pre-built stage keeps its own shard count, but a meaningless
        ``num_shards`` beside it is still an error, not ignored."""
        matrix = BlockPermutedDiagonalMatrix.random((8, 8), 2, rng=0)
        with pytest.raises(ValueError, match="num_shards"):
            ModelServer([ShardedLayer(matrix, None, 2)], num_shards=value)

    def test_wrong_input_width_rejected(self):
        server = ModelServer(_stack(), num_shards=2)
        with pytest.raises(ValueError, match="expected input"):
            server.submit(np.zeros(47))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 1.0 + 2.0j])
    @pytest.mark.parametrize("batched", [False, True])
    def test_non_finite_or_complex_request_rejected(self, bad, batched):
        from repro.serve import InvalidRequestError

        server = ModelServer(_stack(), num_shards=2)
        xs = _requests(3, 48).astype(np.result_type(bad, np.float64))
        xs[1, 5] = bad
        with pytest.raises(InvalidRequestError):
            if batched:
                server.submit_many(xs)
            else:
                server.submit(xs[1])
        # Nothing of the rejected batch was queued.
        assert server.drain().num_requests == 0

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 1.0 + 2.0j])
    @pytest.mark.parametrize("batched", [False, True])
    def test_non_finite_or_complex_arrival_rejected(self, bad, batched):
        from repro.serve import InvalidRequestError

        server = ModelServer(_stack(), num_shards=2, max_batch_size=2)
        xs = _requests(4, 48)
        with pytest.raises(InvalidRequestError, match="arrival times must"):
            if batched:
                server.submit_many(xs, arrivals_us=[0.0, bad, 10.0, 20.0])
            else:
                server.submit(xs[1], arrival_us=bad)
        # Nothing of the rejected batch was queued.
        report = server.drain()
        assert report.num_submitted == 0

    def test_arrivals_of_wrong_shape_rejected(self):
        from repro.serve import InvalidRequestError

        server = ModelServer(_stack(), num_shards=2)
        with pytest.raises(InvalidRequestError, match="arrival times"):
            server.submit_many(_requests(3, 48), arrivals_us=[0.0, 1.0])
        assert server.drain().num_submitted == 0

    def test_arrivals_clamped_non_decreasing(self):
        server = ModelServer(_stack(), num_shards=2)
        xs = _requests(2, 48)
        server.submit(xs[0], arrival_us=10.0)
        server.submit(xs[1], arrival_us=5.0)  # clamped up to 10.0
        report = server.drain()
        assert report.num_requests == 2

    def test_from_model_wraps_live_weights(self):
        from repro.models import build_alexnet_fc

        model = build_alexnet_fc(scale=64, dropout=0.0, rng=0)
        server = ModelServer.from_model(model, num_shards=2)
        xs = _requests(3, server.in_features)
        server.submit_many(xs)
        report = server.drain()
        model.eval()
        expected = model.forward(xs)
        np.testing.assert_allclose(
            np.stack(report.outputs), expected, atol=1e-10
        )

    def test_from_model_unsupported_layer_typed_error(self):
        from repro.nn import Linear, PermDiagLinear, ReLU, Sequential
        from repro.serve import UnsupportedLayerError

        model = Sequential(
            PermDiagLinear(16, 32, p=4, bias=False, rng=0),
            ReLU(),
            Linear(32, 4, rng=1),
        )
        with pytest.raises(
            UnsupportedLayerError, match=r"module 3 \(Linear\) is not servable"
        ) as excinfo:
            ModelServer.from_model(model, num_shards=2)
        assert excinfo.value.index == 3
        assert excinfo.value.layer_type == "Linear"

    def test_sharded_layer_from_mismatched_shards_rejected(self):
        """A stage adopts whole slot matrices of one ``p`` and height, and
        cuts them only at integer bounds that tile their block rows."""
        from repro.serve import LoweredConvStage

        a = BlockPermutedDiagonalMatrix.random((8, 8), 2, rng=0)
        b = BlockPermutedDiagonalMatrix.random((6, 8), 2, rng=0)
        conv = {
            "activation": None, "kernel_size": [1, 2], "input_hw": [2, 2],
            "stride": 1, "padding": 0, "pool": None,
            "shard_block_bounds": [[0, 4]],
        }
        with pytest.raises(ValueError, match="disagree on p or rows"):
            LoweredConvStage.from_manifest(conv, [a, b], None)

        def fc(bounds, matrices=(a,)):
            entry = {"activation": None, "shard_block_bounds": bounds}
            return ShardedLayer.from_manifest(entry, list(matrices), None)

        assert fc([[0, 1], [1, 4]]).shard_slots[1][0].shape == (6, 8)
        with pytest.raises(ValueError, match="holds 2 matrices"):
            fc([[0, 4]], matrices=(a, a))
        with pytest.raises(ValueError, match="bounds must be an integer"):
            fc([[0, 2.0], [2, 4]])
        for bounds in (
            [], [[0, 2], [3, 4]], [[1, 4]], [[0, 2]], [[0, 2], [2, 5]],
            [[0, 2], [2, 2], [2, 4]], [[0, 3], [3, 2], [2, 4]],
        ):
            with pytest.raises(ValueError, match="contiguous non-empty"):
                fc(bounds)


class TestAliasingContract:
    """The zero-copy chain: Parameter -> layer matrix -> every shard
    (for a conv layer, every offset matrix of every shard)."""

    def test_parameter_to_shard_memory_chain(self):
        from repro.debug import sanitize
        from repro.models import build_alexnet_fc
        from repro.nn import PermDiagLinear
        from repro.serve import LoweredConvStage
        from repro.serve.bench import build_workload

        model = build_alexnet_fc(scale=64, dropout=0.0, rng=0)
        with sanitize() as s:
            server = ModelServer.from_model(model, num_shards=2)
            pd_layers = [
                m for m in model.modules() if isinstance(m, PermDiagLinear)
            ]
            assert len(pd_layers) == len(server.layers)
            for module, sharded in zip(pd_layers, server.layers):
                for (shard,) in sharded.shard_slots:
                    assert np.shares_memory(shard.data, module.weight.value)
            expected_checks = sum(l.num_shards for l in server.layers)
            assert s.stats.shard_checks == expected_checks

        # Conv: every offset slot of every shard views the layer's values.
        lenet = build_workload("lenet", rng=0)
        with sanitize():
            server = ModelServer.from_model(
                lenet.model, input_hw=lenet.input_hw, num_shards=2
            )
            conv = lenet.model.layers[0]
            assert isinstance(server.layers[0], LoweredConvStage)
            for slots in server.layers[0].shard_slots:
                assert len(slots) == 25
                for shard in slots:
                    assert np.shares_memory(shard.data, conv.weight.value)

    def test_in_place_weight_update_visible_to_serving(self):
        from repro.models import build_alexnet_fc
        from repro.nn import PermDiagConv2D, PermDiagLinear
        from repro.serve.bench import build_workload

        model = build_alexnet_fc(scale=64, dropout=0.0, rng=0)
        server = ModelServer.from_model(model, num_shards=2)
        xs = _requests(3, server.in_features)
        # mutate weights in place *after* the server was built
        for module in model.modules():
            if isinstance(module, PermDiagLinear):
                module.weight.value *= 0.5
        server.submit_many(xs)
        report = server.drain()
        model.eval()
        np.testing.assert_allclose(
            np.stack(report.outputs), model.forward(xs), atol=1e-10
        )

        lenet = build_workload("lenet", rng=0)
        server = ModelServer.from_model(
            lenet.model, input_hw=lenet.input_hw, num_shards=2
        )
        xs = _requests(3, server.in_features)
        # conv weights too: the offset matrices view the trained values
        for module in lenet.model.modules():
            if isinstance(module, PermDiagConv2D):
                module.weight.value *= 0.5
        server.submit_many(xs)
        report = server.drain()
        np.testing.assert_allclose(
            np.stack(report.outputs),
            lenet.model.forward(xs.reshape(3, 6, *lenet.input_hw)),
            atol=1e-10,
        )
