"""Command-line interface to the main experiments.

Usage (module form):

    python -m repro.cli simulate    --workload Alex-FC6 [--pes 32]
    python -m repro.cli compare     --workload Alex-FC7
    python -m repro.cli storage     --model alexnet|resnet20|wrn48
    python -m repro.cli scale       --workload NMT-1
    python -m repro.cli memory      --sram-mb 16
    python -m repro.cli serve-bench --shards 4 [--requests 32] [--scale 1]
    python -m repro.cli serve-bench --arrivals poisson [--slo-us 150] [--load 0.8]
    python -m repro.cli serve-bench --workload lenet|resnet20|nmt|all [--arrivals poisson]
    python -m repro.cli serve-bench --mixed [--arrivals bursty] [--load 0.8]
    python -m repro.cli compress     --entry lenet --out runs/compress
    python -m repro.cli compress-zoo --out runs/compress_zoo [--entry nmt]

The kernel backend used for the numerical products is selected
process-wide with the ``REPRO_BACKEND`` environment variable
(``csr``/``numba``; see :mod:`repro.core.backends`); an unknown or
unavailable name exits cleanly through :func:`main`.

Command implementations are plain library code: they raise typed errors
(e.g. :class:`repro.hw.UnknownWorkloadError`) and only :func:`main`
converts those into ``SystemExit`` for terminal users.
"""

from __future__ import annotations

import argparse
import sys

__all__ = ["build_parser", "main"]


def _cmd_simulate(args) -> int:
    from repro.hw import EngineConfig, PermDNNEngine, find_workload, make_workload_instance
    from repro.hw.verify import verify_engine

    workload = find_workload(args.workload)
    engine = PermDNNEngine(EngineConfig(n_pe=args.pes))
    matrix, x = make_workload_instance(workload, rng=args.seed)
    verify_engine(engine, matrix, x)
    result = engine.run_fc_layer(matrix, x, enforce_capacity=not args.no_capacity)
    perf = engine.performance(result, (workload.m, workload.n))
    print(f"workload      : {workload.name} ({workload.m} x {workload.n}, p={workload.p})")
    print(f"engine        : {args.pes} PEs @ {engine.config.clock_ghz} GHz")
    print(f"cycles        : {result.cycles} (case {result.case}, "
          f"{result.nonzero_columns} non-zero columns, "
          f"{result.skipped_columns} skipped)")
    print(f"latency       : {perf.latency_us:.2f} us")
    print(f"utilization   : {result.utilization:.2%}")
    print(f"throughput    : {perf.gops:.1f} GOPS compressed / "
          f"{perf.equivalent_gops:.1f} GOPS dense-equivalent")
    print(f"power / area  : {engine.power_w:.3f} W / {engine.area_mm2:.2f} mm2")
    return 0


def _cmd_compare(args) -> int:
    from repro.hw import PermDNNEngine, find_workload, make_workload_instance
    from repro.hw.baselines import EIEConfig, EIESimulator

    workload = find_workload(args.workload)
    engine = PermDNNEngine()
    eie = EIESimulator(EIEConfig.projected_28nm())
    matrix, x = make_workload_instance(workload, rng=args.seed)
    perm = engine.performance(
        engine.run_fc_layer(matrix, x), (workload.m, workload.n)
    )
    pruned = EIESimulator.prune_reference(
        (workload.m, workload.n), workload.weight_density, rng=args.seed + 1
    )
    ref = eie.performance(eie.run_fc_layer(pruned, x), (workload.m, workload.n))
    print(f"{workload.name}: PermDNN vs EIE (28 nm projected)")
    print(f"speedup           : {perm.speedup_over(ref):.2f}x")
    print(f"area efficiency   : {perm.area_efficiency_ratio(ref):.2f}x")
    print(f"energy efficiency : {perm.energy_efficiency_ratio(ref):.2f}x")
    return 0


def _cmd_storage(args) -> int:
    from repro.metrics import model_storage_report

    if args.model == "alexnet":
        from repro.models import build_alexnet_fc

        model = build_alexnet_fc(scale=1, dropout=0.0, rng=0)
    elif args.model == "resnet20":
        from repro.models import RESNET20_POLICY, build_resnet

        model = build_resnet(depth=20, policy=RESNET20_POLICY, base_width=16, rng=0)
    elif args.model == "wrn48":
        from repro.models import WRN48_POLICY, build_resnet

        model = build_resnet(
            depth=50, policy=WRN48_POLICY, base_width=16, widen_factor=8, rng=0
        )
    else:  # unreachable through argparse choices; typed for library callers
        raise ValueError(f"unknown model {args.model!r}")
    report = model_storage_report(model)
    print(f"model              : {args.model}")
    print(f"dense weights      : {report.dense_weights:,}")
    print(f"stored weights     : {report.stored_weights:,}")
    print(f"compression        : {report.compression_ratio:.2f}x")
    print(f"size 32-bit        : {report.megabytes(32):.2f} MB "
          f"(dense {report.dense_megabytes(32):.2f} MB)")
    print(f"size 16-bit fixed  : {report.megabytes(16):.2f} MB")
    return 0


def _cmd_scale(args) -> int:
    from repro.hw import EngineConfig, PermDNNEngine, find_workload, make_workload_instance

    workload = find_workload(args.workload)
    matrix, x = make_workload_instance(workload, rng=args.seed)
    base = None
    print(f"{workload.name}: speedup vs 1 PE")
    for n_pe in (1, 2, 4, 8, 16, 32, 64):
        engine = PermDNNEngine(EngineConfig(n_pe=n_pe))
        cycles = engine.run_fc_layer(matrix, x, enforce_capacity=False).cycles
        base = base or cycles
        print(f"  {n_pe:3d} PEs: {base / cycles:6.2f}x  ({cycles} cycles)")
    return 0


def _cmd_memory(args) -> int:
    from repro.analysis import weight_access_energy
    from repro.metrics import model_storage_report
    from repro.models import build_alexnet_fc

    budget = int(args.sram_mb * 1e6 / 4)  # 32-bit words
    dense = model_storage_report(build_alexnet_fc(None, scale=1, dropout=0.0))
    compressed = model_storage_report(build_alexnet_fc(scale=1, dropout=0.0))
    for label, report in (("dense", dense), ("PD", compressed)):
        access = weight_access_energy(report.stored_weights, budget)
        print(
            f"{label:6s}: {report.stored_weights:>11,} weights  "
            f"fits on-chip: {access.fits_on_chip!s:5s}  "
            f"weight-fetch energy {access.energy_uj:10.1f} uJ/inference"
        )
    return 0


def _cmd_serve_bench(args) -> int:
    from repro.serve import (
        format_records,
        mixed_heading,
        record_failures,
        run_mixed_traffic,
        run_open_loop_sweep,
        run_workload_matrix,
        workload_names,
    )

    workloads = (
        workload_names() if args.workload == "all" else (args.workload,)
    )
    common = dict(
        num_requests=args.requests,
        max_batch_size=args.max_batch,
        flush_deadline_us=args.deadline_us,
        seed=args.seed,
        value_dtype=args.dtype,
    )
    lines = [
        f"serve-bench: scale 1/{args.scale}, deadline "
        f"{args.deadline_us:.1f} us, seed {args.seed}"
    ]
    if args.mixed:
        load = (args.load or [0.8])[0]
        records = run_mixed_traffic(
            process=(args.arrivals or ["poisson"])[0],
            load=load,
            num_shards=args.shards,
            num_threads=args.threads,
            **common,
        )
        lines += [mixed_heading(records, load), format_records(records)]
        failures = record_failures(records)
    elif args.arrivals:
        failures = []
        for workload in workloads:
            study = run_open_loop_sweep(
                arrivals=tuple(args.arrivals),
                load_fractions=tuple(args.load or (0.5, 0.8, 1.0, 1.3)),
                num_shards=args.shards,
                scale=args.scale,
                slo_us=args.slo_us,
                workload=workload,
                num_threads=args.threads,
                **common,
            )
            lines.append(format_records(study.records, study))
            failures += study.failures()
    else:
        records = run_workload_matrix(
            workloads,
            shard_counts=(args.shards,),
            thread_counts=(args.threads,),
            scale=args.scale,
            **common,
        )
        lines.append(format_records(records))
        failures = record_failures(records)
    print("\n".join(lines))
    # A sharded/unsharded mismatch is a correctness failure, not a perf
    # number -- make it visible to scripts.
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    return 1 if failures else 0


def _compress_overrides(args) -> dict:
    """Recipe overrides shared by ``compress`` and ``compress-zoo``.

    Only explicitly given flags are forwarded so every other knob keeps
    the entry's own recipe value.
    """
    overrides = {}
    if args.strategy is not None:
        overrides["strategy"] = args.strategy
    if args.dtype is not None:
        overrides["value_dtype"] = args.dtype
    if args.shards is not None:
        overrides["num_shards"] = args.shards
    if args.seed is not None:
        overrides["seed"] = args.seed
    return overrides


def _cmd_compress(args) -> int:
    import os

    from repro.compress import run_zoo_entry, zoo_entry

    overrides = _compress_overrides(args)
    if args.epochs is not None:
        overrides["finetune_epochs"] = args.epochs
    entry = zoo_entry(args.entry, **overrides)
    entry_dir = (
        os.path.join(args.out, entry.name) if args.out is not None else None
    )
    result = run_zoo_entry(entry, entry_dir)
    print(result.report.summary())
    if entry_dir is not None:
        print(f"report             : {os.path.join(entry_dir, 'report.json')}")
        print(f"bundle             : {os.path.join(entry_dir, 'bundle')}")
    return 0


def _cmd_compress_zoo(args) -> int:
    from repro.compress import format_zoo_results, run_zoo

    results = run_zoo(
        args.out,
        entries=tuple(args.entry) if args.entry else None,
        resume=not args.no_resume,
        progress=print,
        **_compress_overrides(args),
    )
    print()
    print(format_zoo_results(results))
    return 0 if all(r.report.verified for r in results) else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description="PermDNN reproduction experiments"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="run the engine on a Table VII layer")
    sim.add_argument("--workload", default="Alex-FC6")
    sim.add_argument("--pes", type=int, default=32)
    sim.add_argument("--seed", type=int, default=0)
    sim.add_argument("--no-capacity", action="store_true",
                     help="waive the per-PE SRAM capacity check")
    sim.set_defaults(func=_cmd_simulate)

    cmp_ = sub.add_parser("compare", help="PermDNN vs EIE on one layer")
    cmp_.add_argument("--workload", default="Alex-FC6")
    cmp_.add_argument("--seed", type=int, default=0)
    cmp_.set_defaults(func=_cmd_compare)

    sto = sub.add_parser("storage", help="storage accounting of a paper model")
    sto.add_argument("--model", default="alexnet",
                     choices=("alexnet", "resnet20", "wrn48"))
    sto.set_defaults(func=_cmd_storage)

    sca = sub.add_parser("scale", help="PE-count scalability sweep (Fig. 13)")
    sca.add_argument("--workload", default="Alex-FC6")
    sca.add_argument("--seed", type=int, default=0)
    sca.set_defaults(func=_cmd_scale)

    mem = sub.add_parser("memory", help="DRAM-vs-SRAM weight-fetch energy")
    mem.add_argument("--sram-mb", type=float, default=16.0)
    mem.set_defaults(func=_cmd_memory)

    srv = sub.add_parser(
        "serve-bench",
        help="sharded multi-engine serving throughput vs one engine",
    )
    srv.add_argument("--shards", type=int, default=4)
    srv.add_argument("--workload", default="alexnet-fc",
                     choices=("alexnet-fc", "lenet", "resnet20", "nmt",
                              "all"),
                     help="serving workload: the AlexNet FC stack "
                          "(default), a conv pipeline (lenet/resnet20), "
                          "the NMT LSTM cell, or every one ('all'); "
                          "--arrivals runs each one's open-loop study")
    srv.add_argument("--mixed", action="store_true",
                     help="mixed-traffic mode: split one open-loop "
                          "arrival stream between a vision (lenet) and a "
                          "translation (nmt) server")
    srv.add_argument("--requests", type=int, default=32)
    srv.add_argument("--max-batch", type=int, default=16)
    srv.add_argument("--deadline-us", type=float, default=50.0)
    srv.add_argument("--scale", type=int, default=1,
                     help="divide the AlexNet-FC widths by this factor")
    srv.add_argument("--seed", type=int, default=0)
    srv.add_argument("--threads", type=int, default=None,
                     help="host threads per drain's shard executor "
                          "(default: min(shards, host CPUs); simulated "
                          "metrics are thread-count independent)")
    srv.add_argument("--dtype", default=None,
                     choices=("float64", "float32", "int16"),
                     help="value-storage mode to serve at "
                          "(quantize-at-export; default float64)")
    srv.add_argument("--arrivals", action="append", default=None,
                     choices=["deterministic", "poisson", "bursty", "diurnal"],
                     help="open-loop mode: measure latency percentiles vs "
                          "offered load under this arrival process "
                          "(repeatable; omit for the closed-loop benchmark)")
    srv.add_argument("--load", type=float, action="append", default=None,
                     help="offered-load fraction of closed-loop capacity "
                          "(repeatable; open-loop mode only)")
    srv.add_argument("--slo-us", type=float, default=None,
                     help="p99 SLO for knee finding in microseconds "
                          "(default: 2x the unloaded p99)")
    srv.set_defaults(func=_cmd_serve_bench)

    def _add_compress_flags(p):
        p.add_argument("--strategy", default=None,
                       help="permutation-search strategy override "
                            "(greedy/anneal; default: the entry's recipe)")
        p.add_argument("--dtype", default=None,
                       choices=("float64", "float32", "int16"),
                       help="bundle value-storage override "
                            "(default: the entry's recipe)")
        p.add_argument("--shards", type=int, default=None,
                       help="bundle shard-count override")
        p.add_argument("--seed", type=int, default=None,
                       help="recipe seed override")

    cps = sub.add_parser(
        "compress",
        help="compress one zoo entry into a staged serving bundle",
    )
    cps.add_argument("--entry", default="lenet-smoke",
                     help="zoo entry name (see compress-zoo; default "
                          "lenet-smoke)")
    cps.add_argument("--out", default=None,
                     help="output root; writes <out>/<entry>/bundle/ and "
                          "<out>/<entry>/report.json (default: in-memory "
                          "run, no export)")
    cps.add_argument("--epochs", type=int, default=None,
                     help="fine-tune epoch override")
    _add_compress_flags(cps)
    cps.set_defaults(func=_cmd_compress)

    czo = sub.add_parser(
        "compress-zoo",
        help="batch-compress the model zoo (resume + index.json)",
    )
    czo.add_argument("--out", required=True,
                     help="output root for bundles, reports, and index.json")
    czo.add_argument("--entry", action="append", default=None,
                     help="entry to run (repeatable; default: every "
                          "registered entry except the CI smoke entry)")
    czo.add_argument("--no-resume", action="store_true",
                     help="re-run entries even when their report and "
                          "bundle already exist")
    _add_compress_flags(czo)
    czo.set_defaults(func=_cmd_compress_zoo)
    return parser


def main(argv: list[str] | None = None) -> int:
    """Parse arguments and run the selected command.

    This is the only place user-facing errors become ``SystemExit``; the
    command implementations raise typed exceptions so they stay usable as
    library functions.
    """
    from repro.compress import UnknownStrategyError, ZooEntryError
    from repro.core import BackendUnavailableError, UnknownBackendError
    from repro.hw import UnknownWorkloadError
    from repro.serve import UnknownArrivalProcessError

    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (
        UnknownWorkloadError,
        UnknownBackendError,
        BackendUnavailableError,
        UnknownArrivalProcessError,
        UnknownStrategyError,
        ZooEntryError,
    ) as exc:
        # Only user-input errors become clean exits; genuine library bugs
        # (arbitrary ValueError and friends) keep their tracebacks.
        raise SystemExit(f"error: {exc}") from exc


if __name__ == "__main__":
    sys.exit(main())
