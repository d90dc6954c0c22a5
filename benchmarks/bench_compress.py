"""Compression-factory benchmark: wall time and accuracy-vs-compression.

Drives ``repro.compress`` the way the factory is meant to run: the full
zoo batch (``run_zoo``) with per-phase wall time (permutation search,
fine-tune, bundle export) per entry, followed by a compression-vs-
accuracy curve on the AlexNet-FC stack -- the same pretrained dense
model compressed at ``p`` in {2, 4, 8, 16} to trace how retained
accuracy falls as the block size (and so the compression ratio) grows.

Every zoo bundle must come back ``verified=True`` (bit-identical
from-bundle serving, zero index-plan rebuilds under the sanitizer) and
every entry must hit >= 2x parameter compression; the script exits
non-zero otherwise.

Usage::

    python benchmarks/bench_compress.py            # full zoo + p-sweep
    python benchmarks/bench_compress.py --smoke    # CI canary (seconds)
    python benchmarks/bench_compress.py --out runs/zoo   # keep bundles
"""

from __future__ import annotations

import argparse
import sys
import tempfile

from _common import emit, format_table
from repro.compress import (
    compress_model,
    format_zoo_results,
    run_zoo,
    zoo_entry,
)

MIN_COMPRESSION = 2.0


def _run_batch(out_dir: str, entries: tuple[str, ...], name: str) -> bool:
    results = run_zoo(out_dir, entries, progress=print)
    timing_rows = [
        (
            r.name,
            f"{r.report.compression_ratio:.2f}x",
            f"{r.report.timings.search_s:.2f}",
            f"{r.report.timings.finetune_s:.2f}",
            f"{r.report.timings.export_s:.2f}",
            f"{r.report.timings.total_s:.2f}",
            str(r.report.verified),
        )
        for r in results
    ]
    text = format_zoo_results(results) + "\n\n" + format_table(
        ["entry", "compress", "search_s", "finetune_s", "export_s",
         "total_s", "verified"],
        timing_rows,
    )
    emit(name, text)
    ok = True
    for r in results:
        if not r.report.verified:
            print(f"FAIL: {r.name}: bundle not verified", file=sys.stderr)
            ok = False
        if r.report.compression_ratio < MIN_COMPRESSION:
            print(
                f"FAIL: {r.name}: compression "
                f"{r.report.compression_ratio:.2f}x < {MIN_COMPRESSION}x",
                file=sys.stderr,
            )
            ok = False
    return ok


def _accuracy_curve(name: str, p_values: tuple[int, ...]) -> None:
    """Same pretrained dense FC stack, compressed at increasing p."""
    from repro.nn import Adam, CrossEntropyLoss, Trainer

    entry = zoo_entry("alexnet-fc")
    data = entry.dataset(entry.seed)
    model = entry.builder(entry.seed)
    Trainer(
        model,
        Adam(model.parameters(), lr=entry.pretrain_lr),
        CrossEntropyLoss(),
        batch_size=entry.batch_size,
        rng=entry.seed,
    ).fit(data[0], data[1], epochs=entry.pretrain_epochs)

    rows = []
    for p in p_values:
        result = compress_model(
            model,
            data,
            name=f"alexnet-fc@p={p}",
            fc_p=p,
            head_p=min(p, entry.head_p),
            strategy=entry.strategy,
            finetune_epochs=entry.finetune_epochs,
            lr=entry.finetune_lr,
            batch_size=entry.batch_size,
            seed=entry.seed,
        )
        report = result.report
        rows.append(
            (
                p,
                f"{report.compression_ratio:.2f}x",
                f"{report.dense_metric:.4f}",
                f"{report.projected_metric:.4f}",
                f"{report.finetuned_metric:.4f}",
                f"{report.metric_delta:+.4f}",
            )
        )
        print(f"p={p}: {report.compression_ratio:.2f}x, "
              f"accuracy {report.finetuned_metric:.4f}")
    emit(name, format_table(
        ["p", "compress", "dense", "projected", "fine-tuned", "delta"],
        rows,
    ))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true",
                        help="CI canary: the tiny lenet-smoke entry and a "
                             "two-point p-sweep")
    parser.add_argument("--out", default=None,
                        help="keep bundles/reports here (default: a "
                             "temporary directory)")
    args = parser.parse_args(argv)

    if args.smoke:
        entries = ("lenet-smoke",)
        batch_name = "bench_compress_smoke"
        curve_name = "bench_compress_curve_smoke"
        p_values = (2, 8)
    else:
        entries = tuple(
            n for n in ("lenet", "alexnet-fc", "resnet20", "nmt")
        )
        batch_name = "bench_compress"
        curve_name = "bench_compress_curve"
        p_values = (2, 4, 8, 16)

    if args.out is not None:
        ok = _run_batch(args.out, entries, batch_name)
    else:
        with tempfile.TemporaryDirectory() as out_dir:
            ok = _run_batch(out_dir, entries, batch_name)
    _accuracy_curve(curve_name, p_values)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
