"""Open-loop measurement plumbing: knee finding, trace determinism."""

import numpy as np
import pytest

from repro.core import BlockPermutedDiagonalMatrix, PermutationSpec
from repro.hw import PermDNNEngine
from repro.serve import (
    ModelServer,
    make_arrival_process,
    max_sustainable_qps,
    measure_stream,
)


def _stack(seed=0):
    rng = np.random.default_rng(seed)
    spec = PermutationSpec(scheme="random", seed=seed)
    l1 = BlockPermutedDiagonalMatrix.random((64, 48), 4, spec=spec, rng=rng)
    l2 = BlockPermutedDiagonalMatrix.random((16, 64), 2, spec=spec, rng=rng)
    return [(l1, "relu"), (l2, None)]


def _requests(num, n, seed=1, density=0.5):
    rng = np.random.default_rng(seed)
    xs = rng.normal(size=(num, n))
    xs[rng.random(size=xs.shape) > density] = 0.0
    return xs


def _point(layers, xs, reference, process, offered_qps, seed):
    server = ModelServer(
        layers, num_shards=2, max_batch_size=4, flush_deadline_us=20.0
    )
    arrivals = make_arrival_process(process, offered_qps, seed=seed)
    return measure_stream(
        server, xs, reference, arrivals.generate(len(xs)),
        workload="toy", process=process, offered_qps=offered_qps,
    )


def _reference(layers, xs):
    # The served reference must itself reproduce the independent
    # single-engine loop, so a defect shared by 1- and 2-shard servers
    # cannot pass the sharded comparisons against it.
    server = ModelServer(layers, num_shards=1, num_threads=1,
                         max_batch_size=len(xs))
    report = measure_stream(server, xs, workload="toy")[1]
    np.testing.assert_array_equal(
        np.stack(report.outputs), _baseline(layers, xs)
    )
    return report


def _baseline(layers, xs):
    engine = PermDNNEngine()
    current = xs
    for matrix, activation in layers:
        current, _, _ = engine.run_fc_batch_detailed(
            matrix, current, activation=activation
        )
    return current


class TestMaxSustainableQps:
    def test_bisection_converges_on_linear_latency(self):
        # latency(q) = q: the knee is exactly at the SLO.
        knee = max_sustainable_qps(lambda q: q, 60.0, 10.0, 100.0, iters=20)
        assert knee == pytest.approx(60.0, abs=1e-3)
        assert knee <= 60.0  # the returned load is always feasible

    def test_step_latency_localizes_the_cliff(self):
        knee = max_sustainable_qps(
            lambda q: 0.0 if q <= 42.0 else 1e9, 10.0, 1.0, 100.0, iters=25
        )
        assert knee == pytest.approx(42.0, abs=1e-3)

    def test_infeasible_low_bracket_returns_zero(self):
        assert max_sustainable_qps(lambda q: 1e9, 10.0, 1.0, 100.0) == 0.0

    def test_fully_feasible_range_returns_ceiling(self):
        assert max_sustainable_qps(lambda q: 0.0, 10.0, 1.0, 100.0) == 100.0

    def test_probes_stay_inside_the_bracket(self):
        seen = []

        def measure(q):
            seen.append(q)
            return q

        max_sustainable_qps(measure, 50.0, 10.0, 100.0, iters=8)
        assert all(10.0 <= q <= 100.0 for q in seen)

    def test_validation(self):
        with pytest.raises(ValueError, match="slo_us"):
            max_sustainable_qps(lambda q: q, 0.0, 1.0, 2.0)
        with pytest.raises(ValueError, match="lo_qps"):
            max_sustainable_qps(lambda q: q, 10.0, 0.0, 2.0)
        with pytest.raises(ValueError, match="lo_qps"):
            max_sustainable_qps(lambda q: q, 10.0, 5.0, 2.0)


class TestTraceDeterminism:
    @pytest.mark.parametrize("process", ["poisson", "bursty", "diurnal"])
    def test_identical_seeds_identical_latency_trace(self, process):
        layers = _stack()
        xs = _requests(20, 48)
        baseline = _reference(layers, xs)
        runs = [
            _point(layers, xs, baseline, process, 50_000.0, seed=13)
            for _ in range(2)
        ]
        (p1, r1), (p2, r2) = runs
        np.testing.assert_array_equal(r1.latencies_us, r2.latencies_us)
        np.testing.assert_array_equal(r1.queue_us, r2.queue_us)
        np.testing.assert_array_equal(r1.compute_us, r2.compute_us)
        np.testing.assert_array_equal(
            np.stack(r1.outputs), np.stack(r2.outputs)
        )
        assert p1 == p2

    def test_point_asserts_bit_exactness_against_baseline(self):
        layers = _stack()
        xs = _requests(12, 48)
        baseline = _reference(layers, xs)
        point, report = _point(layers, xs, baseline, "poisson", 20_000.0, seed=0)
        assert point.outputs_match
        assert point.num_admitted == 12
        assert point.num_shed == 0
        # Latency split: queue + compute == total, per request.
        np.testing.assert_allclose(
            report.queue_us + report.compute_us, report.latencies_us
        )


class TestTimestampRegressions:
    def test_out_of_order_submission_is_clamped_deterministically(self):
        # submit() clamps arrivals to non-decreasing; an out-of-order
        # stream must serve exactly like its clamped counterpart, with
        # submission order preserved in the outputs.
        layers = _stack()
        xs = _requests(6, 48)
        raw = [0.0, 30.0, 10.0, 40.0, 35.0, 50.0]
        clamped = [0.0, 30.0, 30.0, 40.0, 40.0, 50.0]
        reports = []
        for arrivals in (raw, clamped):
            server = ModelServer(
                layers, num_shards=2, max_batch_size=2, flush_deadline_us=15.0
            )
            for x, t in zip(xs, arrivals):
                server.submit(x, arrival_us=t)
            reports.append(server.drain())
        first, second = reports
        assert first.batch_sizes == second.batch_sizes
        np.testing.assert_array_equal(first.latencies_us, second.latencies_us)
        np.testing.assert_array_equal(
            np.stack(first.outputs), np.stack(second.outputs)
        )
        np.testing.assert_array_equal(
            np.stack(first.outputs), _baseline(layers, xs)
        )

    def test_closed_loop_t0_burst_batches_unchanged(self):
        # The streaming assembler must preserve the offline plan()
        # semantics for the classic all-at-t=0 closed-loop drain: full
        # batches plus one tail flush, in submission order.
        layers = _stack()
        xs = _requests(10, 48)
        server = ModelServer(layers, num_shards=2, max_batch_size=4)
        server.submit_many(xs)
        report = server.drain()
        assert report.batch_sizes == [4, 4, 2]
        np.testing.assert_array_equal(
            np.stack(report.outputs), _baseline(layers, xs)
        )

    def test_batch_never_flushes_before_its_last_member_arrives(self):
        # A full batch's pipeline entry is its last member's arrival, so
        # no request can have negative queue latency.
        layers = _stack()
        xs = _requests(16, 48)
        rng = np.random.default_rng(5)
        arrivals = np.sort(rng.uniform(0, 200, size=16))
        server = ModelServer(
            layers, num_shards=2, max_batch_size=4, flush_deadline_us=30.0
        )
        server.submit_many(xs, arrivals_us=arrivals)
        report = server.drain()
        assert np.all(report.queue_us >= 0)
        assert np.all(report.compute_us > 0)
