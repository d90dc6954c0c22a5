"""Micro-batching queue for the sharded serving runtime.

Requests accumulate into micro-batches under two limits: a batch closes as
soon as it holds ``max_batch_size`` requests, or when the next request in
the queue arrived more than ``flush_deadline_us`` after the batch's first
member (the deadline flush that bounds queueing latency under light
traffic).  The policy is a pure function of the request arrival times, so
a fixed submission sequence always produces the same batches -- the
determinism the serving tests pin down -- and batches preserve submission
order end to end.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.nn.functional import checked_int

__all__ = ["BatchAssembler", "MicroBatch", "MicroBatcher", "Request"]


@dataclass(frozen=True)
class Request:
    """One queued inference request.

    Attributes:
        rid: server-assigned id; also the position in the output order.
        x: input activation vector.
        arrival_us: simulated arrival time in microseconds.
    """

    rid: int
    x: np.ndarray
    arrival_us: float


@dataclass(frozen=True)
class MicroBatch:
    """A closed batch, ready to enter the layer pipeline at ``ready_us``.

    ``ready_us`` is the arrival of the last member for a full batch and
    ``first_arrival + flush_deadline_us`` for a deadline flush -- the
    instant the batcher hands the batch to the first layer.
    """

    requests: tuple[Request, ...]
    ready_us: float

    @property
    def size(self) -> int:
        return len(self.requests)

    def stacked_inputs(self) -> np.ndarray:
        """Member inputs stacked into a ``(size, n)`` batch."""
        return np.stack([request.x for request in self.requests])


class MicroBatcher:
    """Order-preserving micro-batch former.

    Args:
        max_batch_size: close a batch once it holds this many requests.
        flush_deadline_us: close a batch once the next request arrives more
            than this many microseconds after the batch opened (and stamp
            the batch ready at ``open + deadline``).
    """

    def __init__(
        self, max_batch_size: int = 16, flush_deadline_us: float = 50.0
    ) -> None:
        if checked_int("max_batch_size", max_batch_size) <= 0:
            raise ValueError(f"max_batch_size must be positive, got {max_batch_size}")
        # NaN fails both comparisons; a NaN or infinite deadline would
        # stamp the tail batch ready at a time that is not finite.
        if not 0 <= flush_deadline_us < np.inf:
            raise ValueError(
                f"flush_deadline_us must be finite and >= 0, got {flush_deadline_us}"
            )
        self.max_batch_size = max_batch_size
        self.flush_deadline_us = flush_deadline_us

    def plan(self, requests: list[Request]) -> list[MicroBatch]:
        """Cut an arrival-ordered request list into micro-batches.

        Requests must be in non-decreasing ``arrival_us`` order (the
        server's submission queue guarantees it); batches keep that order,
        so concatenating the batches reproduces the request sequence.

        The plan honors arrival timestamps: a batch is never stamped
        ready before its last member arrived -- a full batch closes at
        its last arrival, and a deadline flush (``open + deadline``) by
        construction postdates every member it covers.
        """
        assembler = self.assembler()
        batches: list[MicroBatch] = []
        for request in requests:
            batches.extend(assembler.offer(request))
        tail = assembler.finish()
        if tail is not None:
            batches.append(tail)
        return batches

    def assembler(self) -> "BatchAssembler":
        """An online former with this batcher's policy (see below)."""
        return BatchAssembler(self)

    def _close(self, pending: list[Request], full: bool) -> MicroBatch:
        if full:
            ready = pending[-1].arrival_us
        else:
            ready = pending[0].arrival_us + self.flush_deadline_us
        return MicroBatch(tuple(pending), ready_us=ready)


class BatchAssembler:
    """Streaming micro-batch former -- :meth:`MicroBatcher.plan`, one
    request at a time.

    ``plan`` is implemented on top of this class, so the two can never
    drift; the point of the streaming form is
    :meth:`~repro.serve.ModelServer.drain`, which must interleave batch
    formation with admission control (a shed decision needs to know the
    in-flight population *at that request's arrival instant*, which means
    deadline flushes of earlier batches have to be applied first).

    Typical loop::

        assembler = batcher.assembler()
        for request in requests:
            run(assembler.poll(request.arrival_us))   # deadline flush
            if admit(request):
                run(*assembler.offer(request))        # fill flush
        run(assembler.finish())                       # tail flush
    """

    def __init__(self, batcher: MicroBatcher) -> None:
        self._batcher = batcher
        self._pending: list[Request] = []

    @property
    def pending_count(self) -> int:
        """Requests sitting in the currently-forming batch."""
        return len(self._pending)

    def poll(self, now_us: float) -> MicroBatch | None:
        """Close the forming batch if ``now_us`` is past its deadline.

        Idempotent: once the batch flushed (or none is forming), further
        polls at the same instant return ``None``.
        """
        if (
            self._pending
            and now_us
            > self._pending[0].arrival_us + self._batcher.flush_deadline_us
        ):
            return self._flush(full=False)
        return None

    def offer(self, request: Request) -> list[MicroBatch]:
        """Admit one request; returns every batch this closed (0..2).

        A request arriving past the forming batch's deadline first
        flushes that batch (same as :meth:`poll`), then opens a new one;
        filling the batch to ``max_batch_size`` closes it at the
        request's own arrival time.
        """
        closed: list[MicroBatch] = []
        flushed = self.poll(request.arrival_us)
        if flushed is not None:
            closed.append(flushed)
        if self._pending and request.arrival_us < self._pending[-1].arrival_us:
            raise ValueError(
                "requests must be ordered by non-decreasing arrival time"
            )
        self._pending.append(request)
        if len(self._pending) == self._batcher.max_batch_size:
            closed.append(self._flush(full=True))
        return closed

    def finish(self) -> MicroBatch | None:
        """Flush the tail batch (stream over); ``None`` if empty."""
        if self._pending:
            return self._flush(full=False)
        return None

    def _flush(self, full: bool) -> MicroBatch:
        batch = self._batcher._close(self._pending, full=full)
        self._pending = []
        return batch
