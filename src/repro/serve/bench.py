"""Serving benchmark: one measurement behind every ``serve-bench`` mode.

:func:`measure_stream` drains one request stream -- a closed-loop burst
at t=0, or an open-loop stream with given arrival times -- through a
:class:`~repro.serve.ModelServer` the caller built, and returns one
:class:`BenchRecord` plus the drain's :class:`~repro.serve.ServeReport`.
Throughput and latency are simulated engine time (cycles at the
configured clock), the repo's standard accounting; the host drain wall
time is recorded beside them.  Every stream's admitted outputs must
match a reference **bit for bit**, and every reference is the same
function over the same requests: the whole set drained as one batch, at
1 shard and 1 thread.

The benchmark modes are loops over that function:

- :func:`run_workload_matrix` -- closed-loop bursts of each named
  workload at every (shard count, thread count) pair.  The AlexNet
  shard sweep is its ``alexnet-fc`` case; its reference is the
  single-engine ``run_fc_batch`` loop.
- :func:`run_open_loop_sweep` -- latency percentiles vs offered load,
  the SLO knee and overload shedding, summarized by
  :class:`OpenLoopReport`.
- :func:`run_mixed_traffic` -- one arrival stream split between a
  vision and a translation server.

:func:`format_records` renders records as one table (headed by
:func:`mixed_heading` for mixed traffic) and :func:`record_failures`
lists the ones that must fail a run; both serve ``repro serve-bench``
and ``benchmarks/bench_serving.py``.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from repro.hw.config import EngineConfig
from repro.serve.server import ModelServer, ServeReport
from repro.serve.traffic import US_PER_S, make_arrival_process

__all__ = [
    "BenchRecord",
    "OpenLoopReport",
    "WorkloadSpec",
    "build_workload",
    "format_records",
    "make_requests",
    "max_sustainable_qps",
    "measure_stream",
    "mixed_heading",
    "record_failures",
    "run_mixed_traffic",
    "run_open_loop_sweep",
    "run_workload_matrix",
    "workload_names",
]

# Table VII activation density of Alex-FC6's input.
_ALEX_FC6_INPUT_DENSITY = 0.358


def make_requests(
    n: int,
    num_requests: int,
    density: float = _ALEX_FC6_INPUT_DENSITY,
    rng: np.random.Generator | int | None = 0,
) -> np.ndarray:
    """``(num_requests, n)`` inputs at the given activation density."""
    if not isinstance(rng, np.random.Generator):
        rng = np.random.default_rng(rng)
    xs = np.zeros((num_requests, n))
    nnz = max(int(round(n * density)), 1)
    for row in range(num_requests):
        positions = rng.choice(n, size=nnz, replace=False)
        xs[row, positions] = rng.normal(size=nnz)
    return xs


# ---------------------------------------------------------------------------
# Workloads: FC, conv, and recurrent pipelines through one harness.


@dataclass
class WorkloadSpec:
    """A servable benchmark workload: a model plus its request recipe.

    ``input_hw`` is the first conv stage's spatial input size (``None``
    for FC / recurrent workloads); ``density`` is the activation density
    requests are drawn at (recurrent requests carry dense state, vision
    feature maps are dense post-normalization).
    """

    name: str
    model: object
    in_features: int
    density: float
    input_hw: tuple[int, int] | None = None


def workload_names() -> tuple[str, ...]:
    """The serving workloads ``--workload`` accepts."""
    return ("alexnet-fc", "lenet", "resnet20", "nmt")


def build_workload(
    name: str,
    scale: int = 8,
    rng: np.random.Generator | int | None = 0,
) -> WorkloadSpec:
    """Build one named serving workload.

    - ``alexnet-fc``: the paper's AlexNet FC stack (Table II block
      sizes), width-divided by ``scale``, requests at Alex-FC6's Table
      VII activation density.
    - ``lenet``: a LeNet-style PD conv pipeline (PD conv 6->16 5x5 on a
      14x14 map + ReLU + 2x2 max-pool, then the classic 400-120-84 FC
      tail), fully PD so every stage runs on the engine.
    - ``resnet20``: a ResNet-20-style PD conv backbone (three 3x3 PD
      conv stages at widths 16/32/64 with stride-2 downsampling, no
      batch-norm or residual adds -- those have no engine datapath) plus
      pool and FC head.
    - ``nmt``: one PD LSTM cell (the paper's Table III NMT layer shape
      at reduced width, ``p = 8``), served one timestep per request with
      ``[x | h | c]`` inputs.

    ``scale`` only affects ``alexnet-fc``; the other workloads are
    fixed small pipelines sized for simulation.
    """
    from repro.models import build_alexnet_fc
    from repro.nn import (
        Flatten,
        MaxPool2D,
        PermDiagConv2D,
        PermDiagLinear,
        ReLU,
        Sequential,
    )
    from repro.nn.layers.recurrent import LSTMCell

    if not isinstance(rng, np.random.Generator):
        rng = np.random.default_rng(rng)
    if name == "alexnet-fc":
        model = build_alexnet_fc(scale=scale, dropout=0.0, rng=rng)
        in_features = model.layers[0].matrix.shape[1]
        return WorkloadSpec(
            name, model, in_features, _ALEX_FC6_INPUT_DENSITY
        )
    if name == "lenet":
        model = Sequential(
            PermDiagConv2D(6, 16, 5, p=2, bias=False, rng=rng),
            ReLU(),
            MaxPool2D(2),
            Flatten(),
            PermDiagLinear(400, 120, p=4, bias=False, rng=rng),
            ReLU(),
            PermDiagLinear(120, 84, p=4, bias=False, rng=rng),
            ReLU(),
        )
        return WorkloadSpec(
            name, model, 6 * 14 * 14, 1.0, input_hw=(14, 14)
        )
    if name == "resnet20":
        model = Sequential(
            PermDiagConv2D(
                16, 16, 3, p=4, stride=1, padding=1, bias=False, rng=rng
            ),
            ReLU(),
            PermDiagConv2D(
                16, 32, 3, p=4, stride=2, padding=1, bias=False, rng=rng
            ),
            ReLU(),
            PermDiagConv2D(
                32, 64, 3, p=4, stride=2, padding=1, bias=False, rng=rng
            ),
            ReLU(),
            MaxPool2D(2),
            Flatten(),
            PermDiagLinear(64, 10, p=2, bias=False, rng=rng),
        )
        return WorkloadSpec(
            name, model, 16 * 8 * 8, 1.0, input_hw=(8, 8)
        )
    if name == "nmt":
        cell = LSTMCell(32, 64, p=8, rng=rng)
        return WorkloadSpec(
            name, cell, cell.input_size + 2 * cell.hidden_size, 1.0
        )
    raise ValueError(
        f"unknown workload {name!r} (expected one of {workload_names()})"
    )


def _workload_stream(
    name: str,
    num_requests: int,
    *,
    scale: int,
    seed: int,
    request_seed: int,
    value_dtype: str | None,
    config: EngineConfig | None,
    flush_deadline_us: float,
):
    """One workload's seeded requests, server factory and reference.

    Returns ``(xs, serve, (record, report))``: ``serve(**kwargs)`` builds
    a :meth:`ModelServer.from_model` server (callers add shards,
    threads and batching), and the reference is ``xs`` drained as one
    batch at 1 shard and 1 thread.
    """
    spec = build_workload(name, scale=scale, rng=seed)
    xs = make_requests(
        spec.in_features, num_requests, density=spec.density,
        rng=request_seed,
    )
    serve = partial(
        ModelServer.from_model,
        spec.model,
        input_hw=spec.input_hw,
        value_dtype=value_dtype,
        config=config,
        flush_deadline_us=flush_deadline_us,
    )
    reference = measure_stream(
        serve(num_shards=1, num_threads=1, max_batch_size=num_requests),
        xs,
        workload=name,
    )
    return xs, serve, reference


# ---------------------------------------------------------------------------
# One record, one measurement, one table, one failure check.


@dataclass
class BenchRecord:
    """One measured request stream.

    ``process`` names the arrival process (``"burst"`` for a closed-loop
    t=0 burst, whose ``offered_qps`` is infinite).  Of ``num_requests``
    submitted, ``num_admitted`` were served in ``num_batches``
    micro-batches and ``num_shed`` rejected by a bounded
    ``queue_capacity``.  Rates are simulated requests/second and
    latencies simulated microseconds; ``reference_rps`` is the
    reference stream's rate and ``outputs_match`` asserts the admitted
    outputs equal its rows bit for bit.  ``host_wall_s`` (real drain
    time) is excluded from ``==``, so seeded records compare equal.
    """

    workload: str
    process: str
    offered_qps: float
    num_shards: int
    num_threads: int
    value_dtype: str
    max_batch_size: int
    num_stages: int
    num_requests: int
    num_admitted: int
    num_shed: int
    num_batches: int
    achieved_qps: float
    reference_rps: float
    p50_us: float
    p90_us: float
    p99_us: float
    queue_p99_us: float
    outputs_match: bool
    queue_capacity: int | None = None
    host_wall_s: float = field(default=0.0, compare=False)

    @property
    def speedup(self) -> float:
        """Achieved over reference requests/second."""
        if self.reference_rps <= 0:
            return 0.0
        return self.achieved_qps / self.reference_rps


def measure_stream(
    server: ModelServer,
    xs: np.ndarray,
    reference: ServeReport | None = None,
    arrivals_us: np.ndarray | None = None,
    *,
    workload: str,
    process: str = "burst",
    offered_qps: float = math.inf,
) -> tuple[BenchRecord, ServeReport]:
    """Drain one request stream through a fresh ``server`` and measure it.

    ``arrivals_us=None`` submits a closed-loop burst (every request at
    t=0); otherwise the given arrival times, labelled ``process`` at
    ``offered_qps``.  Seeded inputs give a record that is a pure
    function of the arguments, down to the per-request latency trace.

    Admitted outputs are compared bit for bit with the matching rows of
    ``reference``, a drain whose request set starts with ``xs``:
    per-row outputs are independent of batch composition, so the
    subset comparison is exact.  Without a reference the stream *is*
    the reference: it matches itself and its rate is the record's
    ``reference_rps``.
    """
    rids = server.submit_many(xs, arrivals_us=arrivals_us)
    start = time.perf_counter()
    report = server.drain()
    host_wall_s = time.perf_counter() - start
    outputs_match = True
    if report.num_requests:
        p50, p90, p99 = report.percentile_curve((50.0, 90.0, 99.0))
        queue_p99 = report.latency_percentile(99.0, which="queue")
        if reference is not None:
            shed = set(report.shed_rids)
            expected = [
                reference.outputs[row]
                for row, rid in enumerate(rids)
                if rid not in shed
            ]
            outputs_match = bool(
                np.array_equal(np.stack(report.outputs), np.stack(expected))
            )
    else:
        p50 = p90 = p99 = queue_p99 = math.nan
    record = BenchRecord(
        workload=workload,
        process=process,
        offered_qps=offered_qps,
        num_shards=server.num_shards,
        num_threads=server.num_threads,
        value_dtype=server.layers[0].shard_slots[0][0].value_dtype,
        max_batch_size=server.batcher.max_batch_size,
        num_stages=len(server.layers),
        num_requests=len(rids),
        num_admitted=report.num_requests,
        num_shed=report.num_shed,
        num_batches=len(report.batch_sizes),
        achieved_qps=report.throughput_rps,
        reference_rps=(reference or report).throughput_rps,
        p50_us=float(p50),
        p90_us=float(p90),
        p99_us=float(p99),
        queue_p99_us=float(queue_p99),
        outputs_match=outputs_match,
        queue_capacity=server.queue_capacity,
        host_wall_s=host_wall_s,
    )
    return record, report


def record_failures(records: list[BenchRecord]) -> list[str]:
    """Every stream whose outputs diverge from its reference.

    Any entry should make a benchmark run exit non-zero.
    """
    return [
        f"{r.workload} {r.process} @ {r.num_shards} shards, "
        f"{r.num_threads} threads"
        + ("" if math.isinf(r.offered_qps) else f", {r.offered_qps:,.0f} qps")
        + ": outputs diverge from the 1-shard reference"
        for r in records
        if not r.outputs_match
    ]


_COLUMNS = (
    "workload", "process", "shards", "thr", "dtype", "batch", "qcap",
    "stages", "reqs", "shed", "batches", "offered_qps", "load", "req/s",
    "ref_req/s", "speedup", "makespan_us", "p50_us", "p90_us", "p99_us",
    "q_p99_us", "exact", "host_ms",
)


def format_records(
    records: list[BenchRecord], study: OpenLoopReport | None = None
) -> str:
    """One table row per measured stream, for every ``serve-bench`` mode.

    ``offered_qps`` and ``load`` read ``-`` for a burst; ``load`` is the
    offered rate over an open-loop ``study``'s capacity anchor (``-``
    without one).  ``ref_req/s`` and ``speedup`` compare bursts only and
    read ``-`` for an arrival-driven stream, whose rate the arrivals
    bound.  ``makespan_us`` is first arrival to last completion and
    ``exact`` the bit-for-bit verdict against the reference.  With a
    ``study``, its capacity anchor and SLO head the table and its knees
    follow it.
    """
    rows = [_COLUMNS]
    for r in records:
        burst = math.isinf(r.offered_qps)
        makespan_us = (
            r.num_admitted / r.achieved_qps * 1e6 if r.achieved_qps else 0.0
        )
        qcap = "-" if r.queue_capacity is None else r.queue_capacity
        rows.append((
            r.workload, r.process, str(r.num_shards), str(r.num_threads),
            r.value_dtype,
            *map(str, (r.max_batch_size, qcap, r.num_stages, r.num_requests,
                       r.num_shed, r.num_batches)),
            "-" if burst else f"{r.offered_qps:,.0f}",
            "-" if burst or study is None
            else f"{r.offered_qps / study.capacity_qps:.2f}x",
            f"{r.achieved_qps:,.0f}",
            f"{r.reference_rps:,.0f}" if burst else "-",
            f"{r.speedup:.2f}x" if burst else "-",
            *(f"{us:.1f}" for us in (makespan_us, r.p50_us, r.p90_us,
                                     r.p99_us, r.queue_p99_us)),
            "yes" if r.outputs_match else "NO", f"{r.host_wall_s * 1e3:.1f}",
        ))
    widths = [max(map(len, column)) for column in zip(*rows)]
    table = [
        " ".join(map(str.ljust, row, widths)).rstrip() for row in rows
    ]
    table.insert(1, "-" * len(table[0]))
    if study is None:
        return "\n".join(table)
    knees = [
        f"knee[{process}]: max sustainable {knee:,.0f} qps under "
        f"p{study.slo_q:g} <= {study.slo_us:.1f} us "
        f"({knee / study.capacity_qps:.2f}x of capacity)"
        + (" [>= search ceiling]" if knee >= 0.999 * study.knee_ceiling_qps
           else "")
        for process, knee in study.knees.items()
    ]
    return "\n".join([
        f"capacity anchor   : {study.capacity_qps:,.0f} qps (bottleneck "
        "stage)",
        f"SLO               : p{study.slo_q:g} <= {study.slo_us:.1f} us "
        f"(unloaded p99 {study.unloaded_p99_us:.1f} us)",
        "",
        *table,
        *([""] + knees if knees else []),
    ])


def mixed_heading(records: list[BenchRecord], load: float) -> str:
    """The heading of a :func:`run_mixed_traffic` table.

    Names the shared arrival process and the total stream rate (the sum
    of the class rates), at ``load`` of the slower class's capacity.
    """
    classes = [r for r in records if not math.isinf(r.offered_qps)]
    total_qps = sum(r.offered_qps for r in classes)
    return (
        f"mixed traffic: {classes[0].process} arrivals, {total_qps:,.0f} "
        f"qps total ({load:.2f}x of the slower class's capacity)"
    )


def _capacity_qps(server: ModelServer, xs: np.ndarray) -> float:
    """Steady-state pipeline capacity of ``server``'s stack.

    One full micro-batch is drained.  The slowest stage's critical path
    is what every later batch queues behind, so saturation sits at
    ``max_batch / bottleneck stage time``.  A burst makespan would
    underestimate it badly: it charges pipeline fill and every stage to
    a short stream.
    """
    batch = server.batcher.max_batch_size
    server.submit_many(xs[:batch])
    bottleneck_us = max(server.drain().layer_cycles) / server.cycles_per_us
    return batch / (bottleneck_us * 1e-6)


# ---------------------------------------------------------------------------
# Closed loop: shard sweep, thread comparison, workload matrix.


def run_workload_matrix(
    workloads: tuple[str, ...] | None = None,
    shard_counts: tuple[int, ...] = (4,),
    thread_counts: tuple[int | None, ...] = (1,),
    num_requests: int = 16,
    max_batch_size: int = 8,
    flush_deadline_us: float = 50.0,
    scale: int = 8,
    seed: int = 0,
    config: EngineConfig | None = None,
    value_dtype: str | None = None,
) -> list[BenchRecord]:
    """Closed-loop bursts of each workload at every (shards, threads) pair.

    Per workload the model and the request set are built once.  Its
    first record is the reference: the whole set drained as one batch
    at 1 shard and 1 thread (for ``alexnet-fc``, the single-engine
    ``run_fc_batch`` loop in outputs and makespan).  Every following
    record must reproduce it bit for bit, across FC, lowered-conv and
    recurrent stages alike.

    The batch limit is capped at the request count, so a never-filling
    batch does not sit out the deadline flush (which would measure the
    deadline, not the engines).  ``value_dtype`` converts the value
    storage before serving (quantize-at-export) for the reference and
    contenders alike.
    """
    batch = min(max_batch_size, num_requests)
    records = []
    for name in workloads or workload_names():
        xs, serve, (reference, ref_report) = _workload_stream(
            name, num_requests, scale=scale, seed=seed,
            request_seed=seed + 1, value_dtype=value_dtype, config=config,
            flush_deadline_us=flush_deadline_us,
        )
        records.append(reference)
        for num_shards in shard_counts:
            for num_threads in thread_counts:
                server = serve(
                    num_shards=num_shards,
                    num_threads=num_threads,
                    max_batch_size=batch,
                )
                records.append(
                    measure_stream(server, xs, ref_report, workload=name)[0]
                )
    return records


# ---------------------------------------------------------------------------
# Open loop: arrival processes, tail-latency SLOs, knee finding, shedding.


@dataclass
class OpenLoopReport:
    """The open-loop study's summary.

    ``records`` holds every measured stream: the 1-shard reference
    burst, then per arrival process its load points and its overload
    run with a bounded queue (:attr:`shed_points`).  ``capacity_qps``
    is the steady-state pipeline capacity, the anchor for offered-load
    fractions; ``slo_us`` is the p``slo_q`` target, by default twice the
    unloaded tail latency; ``knees`` maps each arrival process to its
    max sustainable QPS under the SLO.  A knee at ``knee_ceiling_qps``,
    the search's upper bracket, means the stack sustains every load in
    range.
    """

    capacity_qps: float
    unloaded_p99_us: float
    slo_us: float
    slo_q: float
    knee_ceiling_qps: float
    records: list[BenchRecord] = field(default_factory=list)
    knees: dict[str, float] = field(default_factory=dict)

    @property
    def shed_points(self) -> list[BenchRecord]:
        """The overload runs, each with a bounded queue."""
        return [r for r in self.records if r.queue_capacity is not None]

    def failures(self) -> list[str]:
        """Everything that should make a benchmark run exit non-zero."""
        problems = record_failures(self.records)
        for process, knee in self.knees.items():
            if knee <= 0:
                problems.append(
                    f"{process}: no sustainable load meets the "
                    f"p{self.slo_q:g} <= {self.slo_us:.1f} us SLO"
                )
        for point in self.shed_points:
            if point.num_admitted and point.p99_us > self.slo_us:
                problems.append(
                    f"{point.process} overload with shedding: admitted "
                    f"p99 {point.p99_us:.1f} us exceeds the "
                    f"{self.slo_us:.1f} us SLO"
                )
        return problems


def max_sustainable_qps(
    measure,
    slo_us: float,
    lo_qps: float,
    hi_qps: float,
    iters: int = 9,
) -> float:
    """Largest offered load whose measured tail latency meets the SLO.

    Bisection over ``[lo_qps, hi_qps]``: ``measure(qps)`` returns the
    tail-latency statistic (e.g. seeded open-loop p99 in microseconds)
    at that offered load, and the knee is the largest load with
    ``measure(qps) <= slo_us``.  Queueing delay grows monotonically with
    load around the knee, which is what bisection relies on; with seeded
    generators the whole search is deterministic.

    Returns ``0.0`` when even ``lo_qps`` misses the SLO and ``hi_qps``
    when the whole range meets it (the knee lies above the bracket).
    """
    if slo_us <= 0:
        raise ValueError(f"slo_us must be positive, got {slo_us}")
    if not 0 < lo_qps < hi_qps:
        raise ValueError(
            f"need 0 < lo_qps < hi_qps, got [{lo_qps}, {hi_qps}]"
        )
    if measure(lo_qps) > slo_us:
        return 0.0
    if measure(hi_qps) <= slo_us:
        return hi_qps
    lo, hi = lo_qps, hi_qps
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if measure(mid) <= slo_us:
            lo = mid
        else:
            hi = mid
    return lo


def run_open_loop_sweep(
    arrivals: tuple[str, ...] = ("poisson", "bursty", "diurnal"),
    load_fractions: tuple[float, ...] = (0.5, 0.8, 1.0, 1.3),
    num_requests: int = 48,
    num_shards: int = 4,
    scale: int = 1,
    seed: int = 0,
    slo_us: float | None = None,
    slo_q: float = 99.0,
    max_batch_size: int = 16,
    flush_deadline_us: float = 50.0,
    config: EngineConfig | None = None,
    knee_iters: int = 9,
    find_knee: bool = True,
    overload_factor: float | None = 2.0,
    workload: str = "alexnet-fc",
    num_threads: int | None = 1,
    value_dtype: str | None = None,
) -> OpenLoopReport:
    """The open-loop study of one workload (``serve-bench --arrivals``).

    Methodology (documented in ``docs/BENCHMARKS.md``):

    1. **Reference and anchor**: one seeded pool of ``2 x
       num_requests`` inputs covers every measurement; its 1-shard
       whole-pool burst is the bit-exactness reference.  The
       steady-state capacity (:func:`_capacity_qps`) sets the
       offered-load scale.
    2. **SLO**: unless given, ``2 x`` the unloaded tail latency -- a
       deterministic stream with inter-arrivals of twice the flush
       deadline, so every request pays the full deadline plus a
       singleton-batch service (the honest light-traffic latency; at
       low rates batch-*fill* wait otherwise dominates and shrinks with
       load, which would poison both the anchor and the knee search).
    3. **Sweep**: every arrival process runs at each load fraction of
       capacity with an unbounded queue.  ``num_requests`` is the
       measurement window for *every* loaded point: queueing past
       saturation accumulates over the stream, so a short window
       under-reports tail latency and inflates the knee (a knee at the
       search ceiling means the window never saturated; a few hundred
       requests at full scale puts the knee near the capacity anchor).
    4. **Knee**: per process, :func:`max_sustainable_qps` bisects
       offered load between the unloaded rate and ``2.5 x`` capacity
       for the largest QPS whose p``slo_q`` meets the SLO over the same
       window.
    5. **Shedding**: per process, re-run at ``overload_factor x knee``
       over the whole pool with the queue bounded to ``slo x knee / 2``
       in-flight requests (Little's law sizing), showing admitted
       tails stay inside the SLO while the excess is shed.
    """
    pool, serve, (reference, ref_report) = _workload_stream(
        workload, 2 * num_requests, scale=scale, seed=seed,
        request_seed=seed + 1, value_dtype=value_dtype, config=config,
        flush_deadline_us=flush_deadline_us,
    )
    capacity_qps = _capacity_qps(
        serve(
            num_shards=num_shards,
            num_threads=num_threads,
            max_batch_size=min(max_batch_size, num_requests),
        ),
        pool,
    )

    def measure(process, offered_qps, count=num_requests, capacity=None):
        server = serve(
            num_shards=num_shards,
            num_threads=num_threads,
            max_batch_size=max_batch_size,
            queue_capacity=capacity,
        )
        arrivals_us = make_arrival_process(
            process, offered_qps, seed=seed
        ).generate(count)
        return measure_stream(
            server, pool[:count], ref_report, arrivals_us,
            workload=workload, process=process, offered_qps=offered_qps,
        )

    # Unloaded = singleton batches: inter-arrivals of twice the deadline
    # make every request wait out the flush and serve alone.
    if flush_deadline_us > 0:
        unloaded_qps = min(
            0.1 * capacity_qps, US_PER_S / (2.0 * flush_deadline_us)
        )
    else:
        unloaded_qps = 0.1 * capacity_qps
    unloaded_p99 = measure("deterministic", unloaded_qps)[0].p99_us
    report = OpenLoopReport(
        capacity_qps=capacity_qps,
        unloaded_p99_us=unloaded_p99,
        slo_us=2.0 * unloaded_p99 if slo_us is None else slo_us,
        slo_q=slo_q,
        knee_ceiling_qps=2.5 * capacity_qps,
        records=[reference],
    )
    for process in arrivals:
        for fraction in load_fractions:
            report.records.append(measure(process, fraction * capacity_qps)[0])
        if not find_knee:
            continue

        def tail(qps: float, p: str = process) -> float:
            return measure(p, qps)[1].latency_percentile(slo_q)

        knee = max_sustainable_qps(
            tail,
            report.slo_us,
            lo_qps=unloaded_qps,
            hi_qps=report.knee_ceiling_qps,
            iters=knee_iters,
        )
        report.knees[process] = knee
        if overload_factor and knee > 0:
            # Little's law: in-flight bound ~ SLO x service rate keeps
            # the queueing delay of admitted requests within the SLO;
            # halve it for safety margin.
            bound = max(1, int(report.slo_us * 1e-6 * knee * 0.5))
            report.records.append(
                measure(process, overload_factor * knee, len(pool), bound)[0]
            )
    return report


# ---------------------------------------------------------------------------
# Mixed traffic: vision + translation classes sharing one arrival stream.


def run_mixed_traffic(
    process: str = "poisson",
    load: float = 0.8,
    num_requests: int = 24,
    num_shards: int = 4,
    num_threads: int | None = 1,
    seed: int = 0,
    max_batch_size: int = 8,
    flush_deadline_us: float = 50.0,
    config: EngineConfig | None = None,
    vision: str = "lenet",
    translation: str = "nmt",
    value_dtype: str | None = None,
) -> list[BenchRecord]:
    """Serve vision and translation classes off one arrival stream.

    One seeded stream of ``2 x num_requests`` arrivals is split request
    by request -- even indices to the vision class, odd to the
    translation class -- so both classes see the same burstiness.  Each
    class's capacity is probed with one full micro-batch
    (:func:`_capacity_qps`); the stream rate is ``2 x load x
    min(capacities)``, so the slower class runs at ``load`` fraction of
    saturation and each class record's ``offered_qps`` is half the
    stream rate.

    Returns both classes' references (each class's whole request set as
    one batch on 1 shard), then the two class records, each checked bit for bit against its own reference
    (per-request outputs are independent of batching and arrival
    times).
    """
    batch = min(max_batch_size, num_requests)
    classes = [
        _workload_stream(
            name, num_requests, scale=8, seed=seed,
            request_seed=seed + 1 + idx, value_dtype=value_dtype,
            config=config, flush_deadline_us=flush_deadline_us,
        )
        for idx, name in enumerate((vision, translation))
    ]
    capacities = [
        _capacity_qps(
            serve(num_shards=num_shards, num_threads=1, max_batch_size=batch),
            xs,
        )
        for xs, serve, _ in classes
    ]
    offered_qps = 2.0 * load * min(capacities)
    arrivals_us = make_arrival_process(
        process, offered_qps, seed=seed
    ).generate(2 * num_requests)
    records = [reference for _, _, (reference, _) in classes]
    for idx, (xs, serve, (reference, ref_report)) in enumerate(classes):
        server = serve(
            num_shards=num_shards,
            num_threads=num_threads,
            max_batch_size=batch,
        )
        record, _ = measure_stream(
            server, xs, ref_report, arrivals_us[idx::2],
            workload=reference.workload, process=process,
            offered_qps=offered_qps / 2,
        )
        records.append(record)
    return records
