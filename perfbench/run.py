"""Host-time benchmark of PermDNN serving and fine-tuning.

Usage (from the repository root)::

    python3 perfbench/run.py --workload fc-burst --seed 1 --seconds 25 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off.
``--trace 1`` alternates traced and untraced rounds and reports the
per-layer metrics from the traced ones. Human-readable
lines come first; the last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``. Spans and a full
record of each run are written under ``.perfbench_out/``. The exit code
is 1 when any output or counter check fails. See ``perfbench/README.md``
for the metrics and the workloads.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import sys
import time
from contextlib import nullcontext
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
if not (ROOT / "src" / "repro").is_dir():
    sys.exit(f"perfbench: no program source at {ROOT / 'src' / 'repro'}")
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

import numpy as np  # noqa: E402
import scipy  # noqa: E402

from repro.core import available_backends, default_backend  # noqa: E402
from repro.core import default_value_dtype  # noqa: E402
from repro.debug import sanitize  # noqa: E402

from tracing import (  # noqa: E402
    Tracer,
    ancestor,
    null_span,
    self_times,
    time_dense_reference,
)
from workloads import WORKLOADS  # noqa: E402

OUT_DIR = ROOT / ".perfbench_out"
SETUP_REPS = 5
# Metric names and units are defined once, in BENCHMARK.json.
_SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
E2E_UNITS = {m["name"]: m["unit"] for m in _SPEC["end_to_end"]}
LAYER_UNITS = {m["name"]: m["unit"] for m in _SPEC["per_layer"]}


class Ledger:
    """Operations attempted and failed over the whole run."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.notes: list[str] = []

    def add(self, items: int, failed: int) -> None:
        self.attempted += items
        self.failed += failed


def host_facts(workload) -> dict:
    return {
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "default_backend": default_backend(),
        "available_backends": list(available_backends()),
        "value_dtype": default_value_dtype(),
        "shard_threads": 2 if workload.kind == "serve" else 1,
        "env": {
            key: os.environ[key]
            for key in (
                "REPRO_BACKEND",
                "REPRO_VALUE_DTYPE",
                "REPRO_SANITIZE",
                "OMP_NUM_THREADS",
                "OPENBLAS_NUM_THREADS",
                "MKL_NUM_THREADS",
            )
            if key in os.environ
        },
    }


def set_up(workload, ledger, tracer=None):
    """Build from scratch and run round 0, ``SETUP_REPS`` times.

    Returns the last state, its round-0 report and per-rep timings; each
    rep starts from fresh weights, so lazy plan and skeleton work is paid
    every time.
    """
    span = tracer.span if tracer is not None else null_span
    state = report = None
    samples = {"setup_s": [], "build_ms": [], "first_round_ms": []}
    plan_builds = []
    for rep in range(SETUP_REPS):
        state = report = None
        gc.collect()
        workload.fresh()
        if tracer is not None:
            tracer.round = f"setup{rep}"
        with sanitize() if tracer is not None else nullcontext() as scope:
            t0 = time.perf_counter()
            state = workload.build(span)
            t1 = time.perf_counter()
            report, items, failed = workload.run_round(state, 0, span)
            t2 = time.perf_counter()
        if scope is not None:
            plan_builds.append(scope.stats.plan_builds)
        ledger.add(items, failed)
        samples["setup_s"].append(t2 - t0)
        samples["build_ms"].append((t1 - t0) * 1e3)
        samples["first_round_ms"].append((t2 - t1) * 1e3)
    return state, report, samples, plan_builds


def measure(workload, state, seconds, ledger, tracer=None, min_rounds=1):
    """Rounds 1, 2, ... until ``seconds`` have passed; one record each.

    With a tracer, odd rounds are traced and even rounds are not, so
    both halves see the same host conditions and their difference is the
    tracing overhead.
    """
    records = []
    r = 1
    start = time.perf_counter()
    while True:
        traced = tracer is not None and r % 2 == 1
        span = null_span
        scope = nullcontext()
        if traced:
            tracer.round = r
            span = tracer.span
            scope = tracer.install()
        with scope:
            t0 = time.perf_counter()
            report, items, failed = workload.run_round(state, r, span)
            wall = time.perf_counter() - t0
        ledger.add(items, failed)
        # Reports are kept only where read later, so memory does not grow
        # with the number of rounds a run happens to fit in.
        records.append({
            "round": r, "wall_s": wall, "items": items, "traced": traced,
            "report": report if traced or r < min_rounds else None,
        })
        r += 1
        if time.perf_counter() - start >= seconds and r >= min_rounds:
            return records


def end_to_end(records, setup_samples) -> dict:
    walls = np.array([rec["wall_s"] for rec in records])
    items = sum(rec["items"] for rec in records)
    return {
        "round_ms_p50": float(np.percentile(walls, 50) * 1e3),
        "round_ms_p90": float(np.percentile(walls, 90) * 1e3),
        "items_per_s": float(items / walls.sum()),
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "setup_s": float(np.median(setup_samples["setup_s"])),
    }


def sim_metrics(server, reports) -> dict:
    """Simulated-clock figures of a server's first ``len(pool)`` rounds.

    Each of those rounds replays a distinct pool entry with fixed
    arrival offsets, so every figure here is a pure function of the seed.
    """
    count = len(reports)
    batches = sum(len(rep.batch_sizes) for rep in reports)
    served = sum(rep.num_requests for rep in reports)
    out = {
        "batching.batches": batches / count,
        "batching.mean_batch_size": served / batches,
        "batching.queue_us_p99": float(np.percentile(
            np.concatenate([rep.queue_us for rep in reports]), 99
        )),
        "sim.rps": served / (sum(rep.makespan_us for rep in reports) * 1e-6),
        "sim.latency_us_p99": float(np.percentile(
            np.concatenate([rep.latencies_us for rep in reports]), 99
        )),
        "engine.sim_cycles": 0.0,
        "engine.macs": 0.0,
    }
    for rep in reports:
        for layer, cycles, stats in zip(
            server.layers, rep.layer_cycles, rep.layer_stats
        ):
            key = f"stage.{layer.stage_kind}.sim_cycles"
            out[key] = out.get(key, 0.0) + cycles / count
            out["engine.sim_cycles"] += sum(s.cycles for s in stats) / count
            out["engine.macs"] += sum(s.macs for s in stats) / count
    return out


def check_counters(tracer, server, records, ledger) -> None:
    """Engine cycles and MACs seen by the wrappers vs ``layer_stats``.

    A drain whose per-stage totals disagree counts all its requests as
    failed: the wrappers missed or double-counted engine calls.
    """
    stage_index = {id(layer): i for i, layer in enumerate(server.layers)}
    seen: dict = {}
    for span in tracer.spans:
        if span.name != "engine" or not isinstance(span.round, int):
            continue
        stage = ancestor(span, "stage.")
        idx = stage_index.get(id(stage.info)) if stage is not None else None
        totals = seen.setdefault((span.round, idx), [0, 0])
        totals[0] += span.info[1]
        totals[1] += span.info[2]
    for rec in records:
        report = rec["report"]
        for idx, stats in enumerate(report.layer_stats):
            expected = [sum(s.cycles for s in stats), sum(s.macs for s in stats)]
            if seen.get((rec["round"], idx), [0, 0]) != expected:
                ledger.failed += rec["items"]
                ledger.notes.append(
                    f"round {rec['round']} stage {idx}: traced cycles/MACs "
                    f"{seen.get((rec['round'], idx))} != layer_stats {expected}"
                )
                break


def per_layer(tracer, records, seed) -> tuple[dict, dict]:
    """Per-round layer figures from the traced rounds; also the layer split."""
    steady = {rec["round"]: rec for rec in records}
    by_round: dict = {r: [] for r in steady}
    for span in tracer.spans:
        if span.round in by_round:
            by_round[span.round].append(span)
    total: dict = {}

    def add(key, value):
        total[key] = total.get(key, 0.0) + value

    dense_keys: dict = {}
    coverage = []
    split: dict = {}
    for r, spans in by_round.items():
        selfs = self_times(spans)
        covered = 0.0
        for span in spans:
            dur = (span.end - span.start) * 1e3
            own = selfs[id(span)] * 1e3
            covered += own
            split[span.name] = split.get(span.name, 0.0) + own
            name = span.name
            if name.startswith("kernel."):
                add(f"{name}.ms", dur)
                add(f"{name}.self_ms", own)
                if name == "kernel.matmat":
                    matrix, rows = span.info
                    m, n = matrix.shape
                    item = np.dtype(matrix.compute_dtype).itemsize
                    add("kernel.matmat.calls", 1)
                    add("_macs", matrix.nnz * rows)
                    add("kernel.matmat.mb_moved", (
                        matrix.nnz * (item + 4) + (m + 1) * 4
                        + rows * (n + m) * item
                    ) / 1e6)
                    key = (matrix.shape, rows)
                    entry = dense_keys.setdefault(key, [matrix, 0])
                    entry[1] += 1
            elif name == "engine":
                add("engine.ms", dur)
                add("engine.self_ms", own)
                add("engine.calls", 1)
                add("engine.rows", span.info[0])
            elif name.startswith("stage."):
                add(f"{name}.ms", dur)
                add(f"{name}.self_ms", own)
            elif name == "server.submit":
                add("server.submit_ms", dur)
            elif name == "server.drain":
                add("server.drain_self_ms", own)
            elif name in ("nn.forward", "nn.backward", "nn.optim"):
                add(f"{name}_ms", dur)
        coverage.append(covered / (steady[r]["wall_s"] * 1e3))
    rounds = len(by_round)
    out = {key: value / rounds for key, value in total.items()}
    matmat_s = total.get("kernel.matmat.ms", 0.0) / 1e3
    out["kernel.matmat.gmac_per_s"] = (
        total.get("_macs", 0.0) / matmat_s / 1e9 if matmat_s else 0.0
    )
    out.pop("_macs", None)
    pd_ms, dense_ms = time_dense_reference(
        {key: tuple(value) for key, value in dense_keys.items()}, seed
    )
    out["kernel.matmat.dense_ratio"] = pd_ms / dense_ms if dense_ms else 0.0
    out["trace.coverage_pct"] = float(np.mean(coverage) * 100)
    split = {name: ms / rounds for name, ms in sorted(split.items())}
    return out, split


def run(workload, seconds: float, trace: bool, seed: int):
    ledger = Ledger()
    workload.prepare()
    pool = len(workload.pool)
    if not trace:
        state, first, setup_samples, _ = set_up(workload, ledger)
        records = measure(workload, state, seconds, ledger, min_rounds=pool)
        metrics = end_to_end(records, setup_samples)
        extra = {}
        if workload.kind == "serve":
            extra = {
                name: value
                for name, value in _sim(state, first, records, pool).items()
                if name.startswith(("sim.", "batching."))
            }
        _finish_training(workload, state, ledger)
        return metrics, extra, ledger, setup_samples, None

    tracer = Tracer()
    with sanitize() as outer:
        with tracer.install():
            state, first, setup_samples, plan_builds = set_up(
                workload, ledger, tracer=tracer
            )
        records = measure(
            workload, state, seconds, ledger, tracer=tracer,
            min_rounds=max(pool, 3),
        )
    _finish_training(workload, state, ledger)
    traced = [rec for rec in records if rec["traced"]]
    plain = [rec for rec in records if not rec["traced"]]
    if workload.kind == "serve":
        check_counters(tracer, state, traced, ledger)
    layer, split = per_layer(tracer, traced, seed)
    metrics = dict.fromkeys(LAYER_UNITS, 0.0)
    metrics.update(layer)
    if workload.kind == "serve":
        metrics.update(_sim(state, first, records, pool))
    load = [
        (s.end - s.start) * 1e3 for s in tracer.spans if s.name == "bundle.load"
    ]
    metrics.update({
        "setup.build_ms": float(np.median(setup_samples["build_ms"])),
        "setup.first_round_ms": float(np.median(setup_samples["first_round_ms"])),
        "core.plan_builds": float(np.median(plan_builds)),
        "core.plan_rebuilds": float(outer.stats.plan_rebuilds),
        "bundle.load_ms": float(np.median(load)) if load else 0.0,
    })
    plain_p50 = np.percentile([rec["wall_s"] for rec in plain], 50)
    traced_p50 = np.percentile([rec["wall_s"] for rec in traced], 50)
    metrics["trace.overhead_pct"] = float((traced_p50 / plain_p50 - 1) * 100)
    extra = {
        "layer_split_ms": split,
        "untraced_round_ms_p50": plain_p50 * 1e3,
        "traced_round_ms_p50": traced_p50 * 1e3,
    }
    return metrics, extra, ledger, setup_samples, tracer


def _sim(server, first, records, pool) -> dict:
    reports = [first] + [rec["report"] for rec in records[: pool - 1]]
    return sim_metrics(server, reports)


def _finish_training(workload, state, ledger) -> None:
    if workload.kind == "train" and not workload.verify(state):
        ledger.notes.append("trained kernel disagrees with its dense product")
        ledger.failed = ledger.attempted


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    OUT_DIR.mkdir(exist_ok=True)
    workload = WORKLOADS[args.workload](args.seed, str(OUT_DIR))
    try:
        metrics, extra, ledger, setup_samples, tracer = run(
            workload, args.seconds, bool(args.trace), args.seed
        )
    finally:
        workload.cleanup()
    units = LAYER_UNITS if args.trace else E2E_UNITS
    facts = host_facts(workload)
    correct = ledger.failed == 0

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    print(f"perfbench {args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print("host: " + json.dumps(facts, sort_keys=True))
    for name, unit in units.items():
        print(f"  {name:28s} {metrics[name]:14.4f} {unit}")
    for name, value in extra.items():
        if name == "layer_split_ms":
            print("  layer split (wall-clock self time per round):")
            for span_name, ms in value.items():
                print(f"    {span_name:24s} {ms:10.3f} ms")
        elif name.startswith(("sim.", "batching.")):
            print(f"  {name:28s} {value:14.4f} {LAYER_UNITS[name]} (simulated clock)")
        else:
            print(f"  {name:28s} {value:14.4f} ms")
    rate = ledger.failed / ledger.attempted
    print(f"  error_rate {rate:g} ({ledger.failed} of {ledger.attempted} failed)")
    if args.trace:
        print("  kernel.matmat.mb_moved is computed from tensor sizes, not measured")
    for note in ledger.notes[:10]:
        print(f"  FAILED: {note}")

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "host": facts,
        "metrics": metrics,
        "extra": extra,
        "setup_samples": setup_samples,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "error_rate": rate,
        "notes": ledger.notes,
    }
    (OUT_DIR / f"{tag}.json").write_text(json.dumps(record, indent=1, default=float))
    if tracer is not None:
        tracer.write(OUT_DIR / f"{tag}.spans.jsonl")
    print(json.dumps({
        "correct": correct,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {
            name: {"value": float(metrics[name]), "unit": unit}
            for name, unit in units.items()
        },
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
