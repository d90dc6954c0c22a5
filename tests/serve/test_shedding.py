"""Admission control: bounded queues, reject-newest shedding, SLO holds."""

import numpy as np
import pytest

from repro.core import BlockPermutedDiagonalMatrix, PermutationSpec
from repro.hw import PermDNNEngine
from repro.serve import ModelServer, PoissonArrivals, run_open_loop_sweep


def _stack(seed=0):
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


def _overloaded_server(layers, xs, capacity, seed=2):
    """A bounded-queue server under a Poisson stream far past capacity.

    The toy stack serves a micro-batch in a few hundredths of a simulated
    microsecond, so overload means a *very* fast stream: 1e9 rps packs
    the whole set into less time than one batch's service.
    """
    arrivals = PoissonArrivals(1e9, seed=seed).generate(xs.shape[0])
    server = ModelServer(
        layers,
        num_shards=2,
        max_batch_size=4,
        flush_deadline_us=10.0,
        queue_capacity=capacity,
    )
    rids = server.submit_many(xs, arrivals_us=arrivals)
    return server, rids


class TestRejectNewest:
    def test_burst_at_t0_sheds_everything_past_capacity(self):
        layers = _stack()
        xs = _requests(10, 48)
        server = ModelServer(
            layers, num_shards=2, max_batch_size=8, queue_capacity=3
        )
        server.submit_many(xs)  # all at t=0
        report = server.drain()
        # Reject-newest: the first `capacity` requests are admitted, every
        # later one finds the queue full at the same instant.
        assert report.shed_rids == list(range(3, 10))
        assert report.num_requests == 3
        assert sorted(r.tolist() for r in report.outputs)  # smoke: outputs exist

    def test_shed_counts_reconcile_with_submissions(self):
        layers = _stack()
        xs = _requests(24, 48)
        server, _ = _overloaded_server(layers, xs, capacity=5)
        report = server.drain()
        assert report.num_shed > 0
        assert report.num_requests + report.num_shed == 24
        assert report.num_submitted == 24
        assert len(report.outputs) == report.num_requests
        assert report.latencies_us.shape == (report.num_requests,)

    def test_shed_accounted_on_entry_layer_shards_only(self):
        layers = _stack()
        xs = _requests(24, 48)
        server, _ = _overloaded_server(layers, xs, capacity=5)
        report = server.drain()
        for stats in report.layer_stats[0]:
            assert stats.shed == report.num_shed
        for per_shard in report.layer_stats[1:]:
            assert all(stats.shed == 0 for stats in per_shard)

    def test_admitted_outputs_bit_identical_to_baseline_subset(self):
        layers = _stack()
        xs = _requests(24, 48)
        reference = _unsharded_reference(layers, xs)
        server, rids = _overloaded_server(layers, xs, capacity=5)
        report = server.drain()
        shed = set(report.shed_rids)
        admitted_rows = [row for row, rid in enumerate(rids) if rid not in shed]
        assert 0 < len(admitted_rows) < 24
        np.testing.assert_array_equal(
            np.stack(report.outputs), reference[admitted_rows]
        )

    def test_unbounded_queue_never_sheds(self):
        layers = _stack()
        xs = _requests(24, 48)
        arrivals = PoissonArrivals(1e9, seed=2).generate(24)
        server = ModelServer(
            layers, num_shards=2, max_batch_size=4, flush_deadline_us=10.0
        )
        server.submit_many(xs, arrivals_us=arrivals)
        report = server.drain()
        assert report.shed_rids == []
        assert report.num_requests == 24

    def test_bounded_run_is_a_pure_function_of_the_stream(self):
        layers = _stack()
        xs = _requests(24, 48)
        traces = []
        for _ in range(2):
            server, _ = _overloaded_server(layers, xs, capacity=5)
            traces.append(server.drain())
        first, second = traces
        assert first.shed_rids == second.shed_rids
        np.testing.assert_array_equal(first.latencies_us, second.latencies_us)
        np.testing.assert_array_equal(first.queue_us, second.queue_us)

    def test_wide_spacing_admits_everything_under_a_tight_bound(self):
        layers = _stack()
        xs = _requests(8, 48)
        server = ModelServer(
            layers,
            num_shards=2,
            max_batch_size=4,
            flush_deadline_us=5.0,
            queue_capacity=1,
        )
        # Arrivals far apart: each request completes before the next lands.
        arrivals = np.arange(8) * 1e5
        server.submit_many(xs, arrivals_us=arrivals)
        report = server.drain()
        assert report.shed_rids == []
        assert report.num_requests == 8

    def test_capacity_validation(self):
        with pytest.raises(ValueError, match="queue_capacity"):
            ModelServer(_stack(), num_shards=2, queue_capacity=0)

    def test_repr_mentions_capacity(self):
        server = ModelServer(_stack(), num_shards=2, queue_capacity=7)
        assert "queue_capacity=7" in repr(server)


class TestSheddingUnderSanitizer:
    def test_shedding_drain_rebuilds_no_plans(self):
        from repro.debug import sanitize

        layers = _stack()
        xs = _requests(24, 48)
        with sanitize() as sanitizer:
            server, _ = _overloaded_server(layers, xs, capacity=5)
            report = server.drain()
            assert report.num_shed > 0
            sanitizer.assert_no_plan_rebuild()


class TestOverloadMeetsSlo:
    def test_two_x_knee_overload_keeps_admitted_p99_within_slo(self):
        # The full study at toy scale: knee by bisection, then 2x-knee
        # overload with the Little's-law queue bound.  failures() covers
        # the SLO and bit-exactness contracts; assert the key ones
        # directly too so a report-format change can't mask them.
        report = run_open_loop_sweep(
            arrivals=("poisson",),
            load_fractions=(0.5, 1.0),
            num_requests=16,
            num_shards=2,
            scale=64,
            knee_iters=3,
        )
        assert report.failures() == []
        assert report.knees["poisson"] > 0
        for point in report.shed_points:
            assert point.outputs_match
            if point.num_admitted:
                assert point.p99_us <= report.slo_us
