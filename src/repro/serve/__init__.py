"""Batched, sharded multi-engine serving on top of engine images.

The deployment layer of the reproduction: a multi-layer PD model executes
across an array of :class:`~repro.hw.PermDNNEngine` instances, each layer
row-sharded so every engine owns a contiguous block-row slice (the cached
index plan is *sliced*, never recomputed, and shard values alias the layer
storage).  Requests flow through a micro-batching queue and micro-batches
pipeline between the per-layer shard arrays.

- :class:`ModelServer` -- submit / submit_many / drain front end with
  per-layer, per-shard and per-request statistics, plus admission
  control (bounded queue, reject-newest shedding) for graceful
  degradation past the saturation knee.
- :class:`ServedStage` -- the slotted stage skeleton (per shard, a
  fixed number of PD slot matrices cut at one set of block-row bounds)
  and its one batch body, ``run_batch``, which counts each slot input's
  zero-skip columns once, runs small products inline and big ones on
  the drain's shard threads, and runs the stage's nonlinear tail once
  per batch.  Three kinds differ only in how they build slot inputs,
  reduce a shard's slot products to its pre-activation columns, and
  finish the stitched columns: :class:`ShardedLayer` (one FC layer, 1
  slot), :class:`LoweredConvStage` (a PD convolution lowered to ``kh*kw``
  per-offset FC batches, row-sharded over output channels), and
  :class:`RecurrentStage` (one LSTM-cell timestep, 2 stacked gate
  matrices row-sharded over hidden units).  :class:`InvalidRequestError` rejects
  malformed, non-finite, or complex requests and arrival times at
  submission.
- :class:`MicroBatcher` / :class:`BatchAssembler` / :class:`Request` /
  :class:`MicroBatch` -- the deterministic, order-preserving batching
  queue (offline plan and streaming forms).
- :mod:`repro.serve.traffic` -- seeded open-loop arrival processes
  (deterministic / Poisson / bursty / diurnal) for tail-latency
  benchmarking.
- :func:`export_staged_bundle` / :func:`export_model_bundle` /
  :func:`load_staged_bundle` -- one engine image per shard plus a
  manifest; images store values and ``ks``, and the loader decodes each
  stage slot's shards as one whole matrix, whose index plan the stage's
  shards slice; a damaged bundle raises
  :class:`~repro.serve.bundle.BundleError`.  A raw
  ``(matrix, activation)`` stack exports as
  ``export_staged_bundle(d, [ShardedLayer(m, a, n) ...])``.
- :func:`measure_stream` -- the one serving-benchmark measurement:
  drain one request stream (a t=0 burst or given arrival times) and
  return a :class:`BenchRecord`, bit-exactness checked against a
  reference: the whole request set drained as one batch on 1 shard and
  1 thread.  :func:`run_workload_matrix` (closed-loop bursts,
  including the AlexNet shard sweep), :func:`run_open_loop_sweep`
  (latency vs offered load, :func:`max_sustainable_qps` knee finding
  under an SLO, overload shedding) and :func:`run_mixed_traffic` loop
  over it; :func:`format_records` (headed by :func:`mixed_heading` for
  mixed traffic) and :func:`record_failures` are the table and the exit
  check behind ``repro serve-bench`` and ``benchmarks/bench_serving.py``.
"""

from repro.serve.batching import BatchAssembler, MicroBatch, MicroBatcher, Request
from repro.serve.bench import (
    BenchRecord,
    OpenLoopReport,
    WorkloadSpec,
    build_workload,
    format_records,
    make_requests,
    max_sustainable_qps,
    measure_stream,
    mixed_heading,
    record_failures,
    run_mixed_traffic,
    run_open_loop_sweep,
    run_workload_matrix,
    workload_names,
)
from repro.serve.bundle import (
    BundleError,
    export_model_bundle,
    export_staged_bundle,
    load_staged_bundle,
)
from repro.nn.serialization import UnsupportedLayerError
from repro.serve.server import (
    EmptyServeReportError,
    InvalidRequestError,
    LayerShardStats,
    LoweredConvStage,
    ModelServer,
    RecurrentStage,
    ServeReport,
    ServedStage,
    ShardedLayer,
    build_stages,
)
from repro.serve.traffic import (
    ArrivalProcess,
    BurstyArrivals,
    DeterministicArrivals,
    DiurnalArrivals,
    PoissonArrivals,
    UnknownArrivalProcessError,
    arrival_process_names,
    make_arrival_process,
)

__all__ = [
    "ArrivalProcess",
    "BatchAssembler",
    "BenchRecord",
    "BundleError",
    "BurstyArrivals",
    "DeterministicArrivals",
    "DiurnalArrivals",
    "EmptyServeReportError",
    "InvalidRequestError",
    "LayerShardStats",
    "LoweredConvStage",
    "MicroBatch",
    "MicroBatcher",
    "ModelServer",
    "OpenLoopReport",
    "PoissonArrivals",
    "RecurrentStage",
    "Request",
    "ServeReport",
    "ServedStage",
    "ShardedLayer",
    "UnknownArrivalProcessError",
    "UnsupportedLayerError",
    "WorkloadSpec",
    "arrival_process_names",
    "build_stages",
    "build_workload",
    "export_model_bundle",
    "export_staged_bundle",
    "format_records",
    "load_staged_bundle",
    "make_requests",
    "make_arrival_process",
    "max_sustainable_qps",
    "measure_stream",
    "mixed_heading",
    "record_failures",
    "run_mixed_traffic",
    "run_open_loop_sweep",
    "run_workload_matrix",
    "workload_names",
]
