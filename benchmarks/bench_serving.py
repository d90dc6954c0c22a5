"""Sharded serving throughput vs the single-engine batch baseline.

Runs the AlexNet-FC serving workload (FC6 -> FC7 -> FC8 at Table II block
sizes, inputs at Alex-FC6's Table VII activation density) through
``repro.serve.ModelServer`` at several shard counts and compares simulated
requests/sec and latency against the natural single-engine loop: the
whole request set served as one batch on one shard, which is
``PermDNNEngine.run_fc_batch_detailed`` layer by layer.  Outputs must
match that reference **bit for bit** at every shard count.

The tracked acceptance point is the 4-shard row: ``speedup >= 2.0`` on the
full-scale stack (the script exits non-zero below that bar, or on any
output mismatch).

``--open-loop`` switches to the tail-latency study: seeded Poisson /
bursty / diurnal arrival streams drive the 4-shard stack across offered
loads, reporting p50/p90/p99 latency vs offered load, the max sustainable
QPS under a p99 SLO (knee found by bisection), and graceful degradation
under 2x-knee overload with a bounded queue (reject-newest shedding).
Exit is non-zero on any admitted-output mismatch vs the 1-shard
reference, a missing knee, or an SLO miss under shedding.  Methodology in
``docs/BENCHMARKS.md``.

Usage::

    python benchmarks/bench_serving.py            # full scale, shards 1/2/4/8
    python benchmarks/bench_serving.py --smoke    # CI canary (scale 1/8)
    python benchmarks/bench_serving.py --shards 4 --requests 64
    python benchmarks/bench_serving.py --dtype float32        # storage mode
    python benchmarks/bench_serving.py --open-loop            # latency vs load
    python benchmarks/bench_serving.py --open-loop --smoke    # CI canary
    python benchmarks/bench_serving.py --workloads            # FC+conv+recurrent
    python benchmarks/bench_serving.py --workloads --smoke    # CI canary

``--workloads`` serves the whole workload matrix -- the AlexNet FC
stack, LeNet-style and ResNet-20-style PD conv pipelines, and the NMT
LSTM cell -- sharded and multi-threaded against unsharded sequential
references (bit-exactness required for every stage kind), then splits
one bursty open-loop arrival stream between a vision (LeNet) and a
translation (NMT) server.

The closed-loop run also emits a host-time thread comparison: the same
drain at the acceptance shard count across executor thread counts, with
real wall-clock per drain and the bit-exactness check.  Simulated
metrics are thread-count independent by construction (shard outputs are
stitched in shard order), so only wall time moves -- and only on hosts
with more than one CPU.

Every mode prints one table (``repro.serve.format_records``) with a row
per measured stream, reference streams included, and writes it to
``benchmarks/results/``; ``--smoke`` and non-float64 ``--dtype`` runs
get their own file names (e.g. ``bench_serving_smoke_float32.txt``).
"""

from __future__ import annotations

import argparse
import os
import sys
import time

from _common import emit
from repro.serve import (
    format_records,
    mixed_heading,
    record_failures,
    run_mixed_traffic,
    run_open_loop_sweep,
    run_workload_matrix,
)

FULL_SHARDS = (1, 2, 4, 8)
SMOKE_SHARDS = (1, 4)

# The acceptance criterion is pinned to this shard count.
ACCEPTANCE_SHARDS = 4
ACCEPTANCE_SPEEDUP = 2.0

OPEN_LOOP_ARRIVALS = ("poisson", "bursty", "diurnal")

# The mixed run offers this fraction of the slower class's capacity.
MIXED_LOAD = 0.8


def artifact(name: str, args) -> str:
    """Result file name: smoke runs and non-float64 storage get their own.

    A CI canary never clobbers the committed full-scale reference table,
    and a reduced-precision run never clobbers the float64 one.
    """
    if args.smoke:
        name += "_smoke"
    if args.dtype != "float64":
        name += f"_{args.dtype}"
    return name


def finish(name: str, args, text: str, failures: list[str]) -> int:
    """Emit the result table, report failures, and pick the exit code."""
    emit(artifact(name, args), text)
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    return 1 if failures else 0


def run_open_loop(args) -> int:
    """The ``--open-loop`` path: latency percentiles vs offered load."""
    smoke = args.smoke
    scale = args.scale if args.scale is not None else (8 if smoke else 1)
    # The window doubles as the measurement length for knee evaluations:
    # it must be long enough for queueing past saturation to express
    # (see run_open_loop_sweep), hence the large full-scale default.
    requests = (
        args.requests if args.requests is not None else (16 if smoke else 256)
    )
    start = time.perf_counter()
    study = run_open_loop_sweep(
        arrivals=OPEN_LOOP_ARRIVALS,
        load_fractions=(0.5, 1.0) if smoke else (0.5, 0.8, 1.0, 1.3),
        num_requests=requests,
        num_shards=args.shards[-1] if args.shards else ACCEPTANCE_SHARDS,
        scale=scale,
        seed=args.seed,
        slo_us=args.slo_us,
        max_batch_size=args.max_batch,
        flush_deadline_us=args.deadline_us,
        knee_iters=5 if smoke else 8,
        num_threads=args.threads[-1] if args.threads else None,
        value_dtype=args.dtype,
    )
    wall = time.perf_counter() - start
    text = (
        f"open-loop serving, AlexNet-FC stack (scale 1/{scale}), "
        f"deadline {args.deadline_us:.0f} us, seed {args.seed}\n"
        + format_records(study.records, study)
        + f"\n\n(wall time {wall:.1f}s)"
    )
    return finish("bench_serving_openloop", args, text, study.failures())


def run_workloads(args) -> int:
    """The ``--workloads`` path: FC + conv + recurrent serving matrix.

    Every named workload (AlexNet-FC, LeNet-style conv, ResNet-20-style
    conv, NMT LSTM cell) runs sharded and multi-threaded against its
    unsharded sequential reference, bit-exactness required, followed by
    a mixed vision+translation run: one open-loop arrival stream split
    between a LeNet server and an NMT server.
    """
    scale = args.scale if args.scale is not None else 8
    # Default to a multiple of the batch limit: a trailing partial batch
    # would wait out the deadline flush and the matrix would measure the
    # deadline, not the engines.
    requests = (
        args.requests if args.requests is not None
        else (8 if args.smoke else 32)
    )
    shard_counts = tuple(args.shards) if args.shards else (ACCEPTANCE_SHARDS,)
    thread_counts = tuple(args.threads) if args.threads else (
        (2,) if args.smoke else (1, 2)
    )
    common = dict(
        num_requests=requests,
        max_batch_size=args.max_batch,
        flush_deadline_us=args.deadline_us,
        seed=args.seed,
        value_dtype=args.dtype,
    )
    start = time.perf_counter()
    matrix = run_workload_matrix(
        shard_counts=shard_counts,
        thread_counts=thread_counts,
        scale=scale,
        **common,
    )
    mixed = run_mixed_traffic(
        process="bursty",
        load=MIXED_LOAD,
        num_shards=shard_counts[-1],
        num_threads=thread_counts[-1],
        **common,
    )
    wall = time.perf_counter() - start
    text = (
        f"workload matrix (AlexNet-FC scale 1/{scale}), deadline "
        f"{args.deadline_us:.0f} us, seed {args.seed}\n"
        + format_records(matrix)
        + f"\n\n{mixed_heading(mixed, MIXED_LOAD)}\n"
        + format_records(mixed)
        + f"\n\n(wall time {wall:.1f}s)"
    )
    return finish(
        "bench_serving_workloads", args, text, record_failures(matrix + mixed)
    )


def run_shard_sweep(args) -> int:
    """The default path: AlexNet-FC shard sweep plus thread comparison."""
    scale = args.scale if args.scale is not None else (8 if args.smoke else 1)
    requests = (
        args.requests if args.requests is not None
        else (8 if args.smoke else 32)
    )
    shard_counts = tuple(args.shards) if args.shards else (
        SMOKE_SHARDS if args.smoke else FULL_SHARDS
    )
    sweep = dict(
        workloads=("alexnet-fc",),
        num_requests=requests,
        max_batch_size=args.max_batch,
        flush_deadline_us=args.deadline_us,
        scale=scale,
        seed=args.seed,
        value_dtype=args.dtype,
    )
    start = time.perf_counter()
    shards = run_workload_matrix(shard_counts=shard_counts, **sweep)
    wall = time.perf_counter() - start
    # Host-time thread comparison: the same drain at the acceptance
    # shard count across executor thread counts.  Simulated columns do
    # not move; only real wall time can.
    threads = run_workload_matrix(
        shard_counts=(ACCEPTANCE_SHARDS,),
        thread_counts=tuple(args.threads) if args.threads else (1, 2, 4),
        **sweep,
    )
    failures = record_failures(shards + threads) + [
        f"{record.num_shards}-shard speedup {record.speedup:.2f}x below "
        f"the {ACCEPTANCE_SPEEDUP:.1f}x acceptance bar"
        for record in shards
        if record.num_shards == ACCEPTANCE_SHARDS
        and record.speedup < ACCEPTANCE_SPEEDUP
    ]
    host_cpus = os.cpu_count() or 1
    text = (
        f"AlexNet-FC serving, scale 1/{scale}, deadline "
        f"{args.deadline_us:.0f} us, seed {args.seed}; reference: the "
        f"whole request set as one batch on 1 shard (run_fc_batch_detailed)\n"
        + format_records(shards)
        + f"\n\n(sweep wall time {wall:.1f}s)\n\n"
        f"host-time thread comparison ({ACCEPTANCE_SHARDS} shards, "
        f"{host_cpus}-CPU host):\n"
        + format_records(threads)
    )
    if host_cpus == 1:
        text += (
            "\n(single-CPU host: thread counts cannot change wall time "
            "here; the comparison pins determinism and overhead)"
        )
    return finish("bench_serving", args, text, failures)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--smoke", action="store_true",
                        help="small scale + few requests for CI")
    parser.add_argument("--shards", type=int, action="append", default=None,
                        help="shard count to measure (repeatable; "
                             "--open-loop and the mixed run use the last)")
    parser.add_argument("--requests", type=int, default=None)
    parser.add_argument("--scale", type=int, default=None,
                        help="divide the AlexNet-FC widths by this factor")
    parser.add_argument("--max-batch", type=int, default=16)
    parser.add_argument("--deadline-us", type=float, default=50.0)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--dtype", default="float64",
                        choices=("float64", "float32", "int16"),
                        help="value-storage mode served "
                             "(quantize-at-export)")
    parser.add_argument("--threads", type=int, action="append", default=None,
                        help="executor thread count (repeatable; default "
                             "1/2/4 for the host-time comparison, 1/2 for "
                             "--workloads; --open-loop and the mixed run "
                             "use the last)")
    parser.add_argument("--open-loop", action="store_true",
                        help="tail-latency study under open-loop arrivals "
                             "(Poisson/bursty/diurnal) instead of the "
                             "closed-loop shard sweep")
    parser.add_argument("--workloads", action="store_true",
                        help="serve the whole workload matrix (FC + conv + "
                             "recurrent) plus a mixed vision+translation "
                             "traffic run instead of the shard sweep")
    parser.add_argument("--slo-us", type=float, default=None,
                        help="p99 SLO for knee finding (open-loop mode; "
                             "default 2x the unloaded p99)")
    args = parser.parse_args()

    if args.open_loop:
        return run_open_loop(args)
    if args.workloads:
        return run_workloads(args)
    return run_shard_sweep(args)


if __name__ == "__main__":
    sys.exit(main())
