"""Micro-batcher: order preservation, fill/deadline closes, determinism."""

import numpy as np
import pytest

from repro.serve import BatchAssembler, MicroBatcher, Request


def _requests(arrivals):
    return [
        Request(rid, np.asarray([float(rid)]), arrival)
        for rid, arrival in enumerate(arrivals)
    ]


class TestMicroBatcher:
    def test_full_batches_close_at_last_arrival(self):
        batcher = MicroBatcher(max_batch_size=3, flush_deadline_us=100.0)
        batches = batcher.plan(_requests([0.0, 1.0, 2.0, 3.0, 4.0, 5.0]))
        assert [b.size for b in batches] == [3, 3]
        assert [b.ready_us for b in batches] == [2.0, 5.0]

    def test_deadline_flush_closes_partial_batch(self):
        batcher = MicroBatcher(max_batch_size=8, flush_deadline_us=10.0)
        batches = batcher.plan(_requests([0.0, 5.0, 50.0, 52.0]))
        assert [b.size for b in batches] == [2, 2]
        # partial batches are stamped ready at open + deadline
        assert [b.ready_us for b in batches] == [10.0, 60.0]

    def test_submission_order_preserved_across_batches(self):
        batcher = MicroBatcher(max_batch_size=4, flush_deadline_us=5.0)
        arrivals = [0.0, 1.0, 2.0, 20.0, 21.0, 40.0]
        batches = batcher.plan(_requests(arrivals))
        flattened = [r.rid for b in batches for r in b.requests]
        assert flattened == list(range(len(arrivals)))

    def test_plan_is_deterministic(self):
        batcher = MicroBatcher(max_batch_size=3, flush_deadline_us=7.0)
        rng = np.random.default_rng(0)
        arrivals = np.sort(rng.uniform(0, 100, size=20))
        first = batcher.plan(_requests(arrivals))
        second = batcher.plan(_requests(arrivals))
        assert [b.size for b in first] == [b.size for b in second]
        assert [b.ready_us for b in first] == [b.ready_us for b in second]

    def test_ready_never_precedes_members(self):
        batcher = MicroBatcher(max_batch_size=4, flush_deadline_us=3.0)
        rng = np.random.default_rng(1)
        arrivals = np.sort(rng.uniform(0, 50, size=17))
        for batch in batcher.plan(_requests(arrivals)):
            assert batch.ready_us >= max(r.arrival_us for r in batch.requests)

    def test_out_of_order_arrivals_rejected(self):
        batcher = MicroBatcher()
        with pytest.raises(ValueError, match="non-decreasing"):
            batcher.plan(_requests([5.0, 1.0]))

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError, match="max_batch_size"):
            MicroBatcher(max_batch_size=0)
        with pytest.raises(ValueError, match="flush_deadline_us"):
            MicroBatcher(flush_deadline_us=-1.0)

    @pytest.mark.parametrize("value", [2.5, True])
    def test_max_batch_size_checked_not_truncated(self, value):
        """A fractional size never closes a batch on size, and ``True``
        would act as 1."""
        with pytest.raises(ValueError, match="max_batch_size"):
            MicroBatcher(max_batch_size=value)

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_flush_deadline_must_be_finite(self, value):
        """Either would stamp the tail batch ready at a time that is not
        finite, so no latency would be."""
        with pytest.raises(ValueError, match="flush_deadline_us"):
            MicroBatcher(flush_deadline_us=value)

    def test_stacked_inputs_follow_request_order(self):
        batcher = MicroBatcher(max_batch_size=4, flush_deadline_us=10.0)
        (batch,) = batcher.plan(_requests([0.0, 0.0, 0.0]))
        np.testing.assert_array_equal(
            batch.stacked_inputs(), [[0.0], [1.0], [2.0]]
        )


class TestBatchAssembler:
    """The streaming former plan() is built on (so the two cannot drift)."""

    def _drive(self, assembler, requests, poll=False):
        batches = []
        for request in requests:
            if poll:
                flushed = assembler.poll(request.arrival_us)
                if flushed is not None:
                    batches.append(flushed)
            batches.extend(assembler.offer(request))
        tail = assembler.finish()
        if tail is not None:
            batches.append(tail)
        return batches

    @pytest.mark.parametrize("poll", [False, True])
    def test_streaming_equals_offline_plan(self, poll):
        batcher = MicroBatcher(max_batch_size=3, flush_deadline_us=7.0)
        rng = np.random.default_rng(2)
        requests = _requests(np.sort(rng.uniform(0, 120, size=25)))
        planned = batcher.plan(requests)
        # An extra poll() before each offer() must not change the cut:
        # offer() applies the same deadline flush internally.
        streamed = self._drive(batcher.assembler(), requests, poll=poll)
        assert [b.size for b in planned] == [b.size for b in streamed]
        assert [b.ready_us for b in planned] == [b.ready_us for b in streamed]
        assert [r.rid for b in planned for r in b.requests] == [
            r.rid for b in streamed for r in b.requests
        ]

    def test_poll_flushes_once_past_deadline(self):
        assembler = MicroBatcher(max_batch_size=8, flush_deadline_us=10.0).assembler()
        assert assembler.offer(_requests([0.0])[0]) == []
        assert assembler.poll(5.0) is None  # deadline not reached
        flushed = assembler.poll(11.0)
        assert flushed is not None
        assert flushed.size == 1
        assert flushed.ready_us == 10.0  # open + deadline, not poll time
        # Idempotent: nothing left to flush at the same instant.
        assert assembler.poll(11.0) is None
        assert assembler.finish() is None

    def test_pending_count_tracks_the_forming_batch(self):
        assembler = MicroBatcher(max_batch_size=3, flush_deadline_us=50.0).assembler()
        requests = _requests([0.0, 1.0, 2.0])
        assert assembler.pending_count == 0
        assembler.offer(requests[0])
        assembler.offer(requests[1])
        assert assembler.pending_count == 2
        (full,) = assembler.offer(requests[2])
        assert full.size == 3
        assert assembler.pending_count == 0

    def test_offer_rejects_out_of_order_arrivals(self):
        assembler = MicroBatcher(max_batch_size=4, flush_deadline_us=50.0).assembler()
        assembler.offer(_requests([5.0])[0])
        with pytest.raises(ValueError, match="non-decreasing"):
            assembler.offer(Request(1, np.asarray([1.0]), 1.0))

    def test_finish_flushes_the_tail_as_a_deadline_batch(self):
        assembler = MicroBatcher(max_batch_size=4, flush_deadline_us=9.0).assembler()
        for request in _requests([2.0, 3.0]):
            assembler.offer(request)
        tail = assembler.finish()
        assert tail.size == 2
        assert tail.ready_us == 2.0 + 9.0

    def test_assembler_factory_binds_the_policy(self):
        batcher = MicroBatcher(max_batch_size=2, flush_deadline_us=1.0)
        assembler = batcher.assembler()
        assert isinstance(assembler, BatchAssembler)
        a, b = _requests([0.0, 0.5])
        assembler.offer(a)
        (full,) = assembler.offer(b)
        assert full.ready_us == 0.5  # fill close at last arrival
