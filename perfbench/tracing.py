"""Span tracing for the benchmark, installed from outside the program.

The benchmark records a span around each call into a layer's public
functions. Calls the benchmark makes itself (``submit_many``, ``drain``,
``from_model``, ``Module.forward`` ...) are wrapped at the call site with
:meth:`Tracer.span`; calls the program makes internally (stage
``run_batch``, ``PermDNNEngine.run_fc_batch_detailed``, the kernel
products, ``load_staged_bundle``) are wrapped by patching the class or
module attribute for the lifetime of :meth:`Tracer.install`. Nothing in
the program is edited, and with tracing off nothing is patched.

Spans live in memory until the run ends. Shard threads run concurrently,
so a span opened on a worker thread with no open span of its own takes
the innermost span open on the installing thread as its parent -- that
thread is blocked inside the stage's ``run_batch`` while the shard tasks
run.
"""

from __future__ import annotations

import contextlib
import json
import threading
import time

import numpy as np

import repro.serve.bundle as bundle_module
from repro.core import BlockPermutedDiagonalMatrix
from repro.hw import PermDNNEngine
from repro.serve import LoweredConvStage, RecurrentStage, ShardedLayer

_STAGE_CLASSES = (ShardedLayer, LoweredConvStage, RecurrentStage)
_KERNEL_OPS = ("matmat", "rmatmat", "grad_data")


class Span:
    """One timed call: name, start, end, parent and round id."""

    __slots__ = ("name", "start", "end", "parent", "round", "info")

    def __init__(self, name, start, parent, round_id):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.round = round_id
        self.info = None


def null_span(name):
    """The untraced stand-in for :meth:`Tracer.span`."""
    return contextlib.nullcontext()


class Tracer:
    """Records spans in memory; analysis runs after the timed region."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.round = None
        self._main = threading.get_ident()
        self._main_stack: list[Span] = []
        self._local = threading.local()

    # -- recording -----------------------------------------------------

    def _stack(self) -> list[Span]:
        if threading.get_ident() == self._main:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str) -> Span:
        stack = self._stack()
        if stack:
            parent = stack[-1]
        else:
            parent = self._main_stack[-1] if self._main_stack else None
        span = Span(name, time.perf_counter(), parent, self.round)
        stack.append(span)
        self.spans.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack().pop()

    @contextlib.contextmanager
    def span(self, name: str):
        span = self.open(name)
        try:
            yield span
        finally:
            self.close(span)

    # -- patching the program's internal calls -------------------------

    def _wrap(self, name, fn, record):
        tracer = self

        def traced(*args, **kwargs):
            span = tracer.open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer.close(span)
            span.info = record(args, out)
            return out

        return traced

    @contextlib.contextmanager
    def install(self):
        """Patch the program's layer entry points for the ``with`` body."""
        patches = []
        for cls in _STAGE_CLASSES:
            patches.append((
                cls, "run_batch", f"stage.{cls.stage_kind}",
                lambda a, out: a[0],
            ))
        patches.append((
            PermDNNEngine, "run_fc_batch_detailed", "engine",
            lambda a, out: (a[2].shape[0], out[1], out[2]),
        ))
        for op in _KERNEL_OPS:
            patches.append((
                BlockPermutedDiagonalMatrix, op, f"kernel.{op}",
                lambda a, out: (a[0], a[1].shape[0]),
            ))
        patches.append((
            bundle_module, "load_staged_bundle", "bundle.load",
            lambda a, out: None,
        ))
        originals = []
        try:
            for owner, attr, name, record in patches:
                original = owner.__dict__[attr]
                originals.append((owner, attr, original))
                setattr(owner, attr, self._wrap(name, original, record))
            yield self
        finally:
            for owner, attr, original in reversed(originals):
                setattr(owner, attr, original)

    def write(self, path) -> None:
        """Write every span as one JSON array per line."""
        index = {id(span): i for i, span in enumerate(self.spans)}
        with open(path, "w", encoding="utf-8") as handle:
            for i, span in enumerate(self.spans):
                parent = index.get(id(span.parent), -1)
                handle.write(json.dumps([
                    i, span.name, span.round, parent,
                    round(span.start, 9), round(span.end, 9),
                ]) + "\n")


# ---------------------------------------------------------------------------
# Analysis


def self_times(spans: list[Span]) -> dict[int, float]:
    """Wall-clock self time of every span, keyed by ``id(span)``.

    A span's self time is its duration minus the union of its children's
    intervals. Where shard threads overlap, the remaining instants are
    shared evenly by the spans that are in their own code at that
    instant, so the self times of a round's spans add up to the wall
    time its top-level spans cover.
    """
    events = []
    for span in spans:
        events.append((span.start, 1, span))
        events.append((span.end, 0, span))
    # Ends before starts at equal times; ties otherwise keep list order.
    events.sort(key=lambda event: (event[0], event[1]))
    active: dict[int, Span] = {}
    open_children: dict[int, int] = {}
    result = {id(span): 0.0 for span in spans}
    last = None
    for when, is_start, span in events:
        if last is not None and active and when > last:
            leaves = [
                key for key in active if open_children.get(key, 0) == 0
            ]
            share = (when - last) / len(leaves)
            for key in leaves:
                result[key] += share
        last = when
        parent = span.parent
        parent_key = id(parent) if parent is not None else None
        if is_start:
            active[id(span)] = span
            if parent_key in active:
                open_children[parent_key] = open_children.get(parent_key, 0) + 1
        else:
            active.pop(id(span), None)
            if parent_key in active:
                open_children[parent_key] -= 1
    return result


def ancestor(span: Span, prefix: str) -> Span | None:
    """The nearest enclosing span whose name starts with ``prefix``."""
    node = span.parent
    while node is not None and not node.name.startswith(prefix):
        node = node.parent
    return node


def time_dense_reference(keys: dict, seed: int) -> tuple[float, float]:
    """PD kernel vs dense BLAS on each distinct (shard shape, batch).

    ``keys`` maps ``(shape, rows)`` to ``(matrix, calls)``. Both products
    run on the same random input, after the traced rounds and one after
    the other; returns ``(pd_ms, dense_ms)`` summed over the traced calls.
    """
    rng = np.random.default_rng(seed)
    pd_total = dense_total = 0.0
    for (shape, rows), (matrix, calls) in keys.items():
        dense = matrix.to_dense()
        x = rng.normal(size=(rows, shape[1])).astype(matrix.compute_dtype)
        pd_ms = _median_ms(lambda: matrix.matmat(x))
        dense_ms = _median_ms(lambda: x @ dense.T)
        pd_total += pd_ms * calls
        dense_total += dense_ms * calls
        del dense
    return pd_total, dense_total


def _median_ms(fn, reps: int = 5, min_s: float = 0.02) -> float:
    fn()
    samples = []
    start = time.perf_counter()
    while len(samples) < reps or time.perf_counter() - start < min_s:
        t0 = time.perf_counter()
        fn()
        samples.append((time.perf_counter() - t0) * 1e3)
        if len(samples) >= 200:
            break
    return float(np.median(samples))
