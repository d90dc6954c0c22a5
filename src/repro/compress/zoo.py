"""The factory's model zoo: manifest registry + batch runner.

Each :class:`ZooEntry` is a complete factory recipe -- a dense model
builder, a procedural dataset, block sizes, the search strategy, the
fine-tuning schedule, and the bundle's value dtype / shard count.
:func:`run_zoo` runs the pipeline over the registry at small scale,
**resumes** entries whose report and bundle already exist, and maintains
an ``index.json`` mapping every entry to its report and headline numbers
-- bundle production as a batch workload, per the ROADMAP.

Built-in entries mirror the serving workload matrix: ``lenet`` (conv +
FC tail on procedural digits), ``alexnet-fc`` (the FC stack on a
Gaussian-mixture ImageNet stand-in, annealed search, float32 bundle),
``resnet20`` (a conv backbone on CIFAR-like textures), ``nmt`` (a dense
LSTM cell distilled into a PD cell), plus ``lenet-smoke`` -- a tiny
seconds-scale entry for CI.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from repro.compress.errors import ZooEntryError
from repro.compress.pipeline import (
    CompressionResult,
    compress_cell,
    compress_model,
)
from repro.compress.report import CompressionReport

__all__ = [
    "ZooEntry",
    "ZooRunResult",
    "format_zoo_results",
    "register_zoo_entry",
    "run_zoo",
    "run_zoo_entry",
    "zoo_entry",
    "zoo_names",
]

_INDEX_NAME = "index.json"
_REPORT_NAME = "report.json"
_BUNDLE_DIR = "bundle"
_BUNDLE_MANIFEST = "manifest.json"


@dataclass(frozen=True)
class ZooEntry:
    """One factory recipe: dense builder + dataset + compression knobs.

    ``builder(seed)`` returns the dense model (a Sequential for
    ``kind == "classifier"``, an :class:`LSTMCell` for ``"recurrent"``);
    ``dataset(seed)`` returns ``(x_train, y_train, x_test, y_test)``
    (classifiers only -- recurrent entries distill against the dense
    cell on seeded probes).
    """

    name: str
    description: str
    builder: Callable
    dataset: Callable | None = None
    kind: str = "classifier"
    fc_p: int = 8
    conv_p: int = 4
    head_p: int = 1
    rnn_p: int = 8
    strategy: str = "greedy"
    value_dtype: str | None = None
    pretrain_epochs: int = 2
    finetune_epochs: int = 2
    distill_steps: int = 200
    pretrain_lr: float = 2e-3
    finetune_lr: float = 1e-3
    batch_size: int = 64
    num_shards: int = 2
    input_hw: tuple[int, int] | None = None
    seed: int = 0


@dataclass
class ZooRunResult:
    """Outcome of one zoo entry: fresh run or resumed from disk."""

    name: str
    status: str  # "ok" | "cached"
    report: CompressionReport
    entry_dir: str | None = None


_ZOO: dict[str, ZooEntry] = {}


def register_zoo_entry(entry: ZooEntry) -> ZooEntry:
    """Add (or replace) an entry in the factory manifest registry."""
    _ZOO[entry.name] = entry
    return entry


def zoo_names() -> tuple[str, ...]:
    """Registered entry names, in registration order."""
    return tuple(_ZOO)


def zoo_entry(name: str, **overrides) -> ZooEntry:
    """Look up an entry, optionally overriding recipe fields.

    Raises:
        ZooEntryError: for a name not in the registry.
    """
    try:
        entry = _ZOO[name]
    except KeyError:
        raise ZooEntryError(name, zoo_names()) from None
    return replace(entry, **overrides) if overrides else entry


# ----------------------------------------------------------------------
# Built-in entries
# ----------------------------------------------------------------------


def _build_lenet(seed: int):
    from repro.nn import Flatten, Linear, MaxPool2D, ReLU, Sequential
    from repro.nn.layers.conv2d import Conv2D

    rng = np.random.default_rng(seed)
    return Sequential(
        Conv2D(1, 6, 5, padding=2, bias=False, rng=rng),
        ReLU(),
        MaxPool2D(2),
        Conv2D(6, 16, 5, bias=False, rng=rng),
        ReLU(),
        MaxPool2D(2),
        Flatten(),
        Linear(400, 120, bias=False, rng=rng),
        ReLU(),
        Linear(120, 84, bias=False, rng=rng),
        ReLU(),
        Linear(84, 10, bias=False, rng=rng),
    )


def _digits_data(train: int, test: int):
    def build(seed: int):
        from repro.datasets import make_digits

        x_train, y_train = make_digits(train, noise=0.12, seed=seed)
        x_test, y_test = make_digits(test, noise=0.12, seed=seed + 1)
        return x_train, y_train, x_test, y_test

    return build


def _build_alexnet_fc(seed: int):
    from repro.nn import Linear, ReLU, Sequential

    rng = np.random.default_rng(seed)
    return Sequential(
        Linear(144, 64, bias=False, rng=rng),
        ReLU(),
        Linear(64, 64, bias=False, rng=rng),
        ReLU(),
        Linear(64, 16, bias=False, rng=rng),
    )


def _gaussian_data(seed: int):
    from repro.datasets import GaussianMixtureDataset

    dataset = GaussianMixtureDataset(
        num_features=144, num_classes=16, separation=4.0, seed=1234
    )
    return dataset.train_test_split(2000, 500, seed=seed + 1)


def _build_resnet20(seed: int):
    from repro.nn import Flatten, Linear, MaxPool2D, ReLU, Sequential
    from repro.nn.layers.conv2d import Conv2D

    rng = np.random.default_rng(seed)
    return Sequential(
        Conv2D(3, 16, 3, stride=1, padding=1, bias=False, rng=rng),
        ReLU(),
        Conv2D(16, 32, 3, stride=2, padding=1, bias=False, rng=rng),
        ReLU(),
        Conv2D(32, 64, 3, stride=2, padding=1, bias=False, rng=rng),
        ReLU(),
        MaxPool2D(2),
        Flatten(),
        Linear(256, 10, bias=False, rng=rng),
    )


def _cifar_data(seed: int):
    from repro.datasets import make_cifar_like

    x_train, y_train = make_cifar_like(800, image_size=16, seed=seed)
    x_test, y_test = make_cifar_like(240, image_size=16, seed=seed + 7)
    return x_train, y_train, x_test, y_test


def _build_nmt_cell(seed: int):
    """Dense LSTM cell with trained-network-like redundancy.

    A freshly initialized random cell has no structure a compressor
    could exploit -- every PD projection of an iid matrix loses
    ``1 - 1/p`` of the energy, so distillation hits an irreducible
    floor.  Trained recurrent models are the paper's target precisely
    because they *are* redundant; this procedural stand-in plants a
    PD-dominant component plus broadband noise (norm-preserving, so the
    gate dynamics stay in range) the same way the procedural datasets
    plant recoverable class structure.
    """
    from repro.core import BlockPermutedDiagonalMatrix
    from repro.nn.layers.recurrent import LSTMCell

    boost = 8.0
    cell = LSTMCell(32, 64, p=None, rng=seed)
    for op in cell.weight_matrices:
        for dense in op.weight.value.reshape(4, cell.hidden_size, -1):
            norm = np.linalg.norm(dense)
            planted = BlockPermutedDiagonalMatrix.from_dense(dense, 8).to_dense()
            mixed = dense + boost * planted
            dense[...] = mixed * (norm / np.linalg.norm(mixed))
    return cell


register_zoo_entry(ZooEntry(
    name="lenet",
    description="LeNet-5-style conv+FC classifier on procedural digits",
    builder=_build_lenet,
    dataset=_digits_data(1500, 400),
    fc_p=8,
    conv_p=2,
    head_p=2,
    pretrain_epochs=3,
    finetune_epochs=8,
    input_hw=(28, 28),
))

register_zoo_entry(ZooEntry(
    name="lenet-smoke",
    description="tiny LeNet entry for CI smoke runs (seconds, not minutes)",
    builder=_build_lenet,
    dataset=_digits_data(240, 120),
    fc_p=8,
    conv_p=2,
    head_p=2,
    pretrain_epochs=1,
    finetune_epochs=1,
    input_hw=(28, 28),
))

register_zoo_entry(ZooEntry(
    name="alexnet-fc",
    description="AlexNet-style FC stack on a Gaussian-mixture feature set "
                "(annealed hidden-permutation search, float32 bundle)",
    builder=_build_alexnet_fc,
    dataset=_gaussian_data,
    fc_p=4,
    head_p=4,
    strategy="anneal",
    value_dtype="float32",
    pretrain_epochs=6,
    finetune_epochs=6,
))

register_zoo_entry(ZooEntry(
    name="resnet20",
    description="ResNet-20-style conv backbone on CIFAR-like textures",
    builder=_build_resnet20,
    dataset=_cifar_data,
    conv_p=4,
    head_p=2,
    pretrain_epochs=3,
    finetune_epochs=2,
    input_hw=(16, 16),
))

register_zoo_entry(ZooEntry(
    name="nmt",
    description="redundant dense NMT LSTM cell distilled into a p=8 PD cell",
    builder=_build_nmt_cell,
    kind="recurrent",
    rnn_p=8,
    distill_steps=300,
    finetune_lr=5e-4,
    batch_size=32,
))


# ----------------------------------------------------------------------
# Batch runner
# ----------------------------------------------------------------------


def run_zoo_entry(entry: ZooEntry, entry_dir=None) -> CompressionResult:
    """Run the full pipeline for one entry (pretrain included).

    ``entry_dir`` receives ``bundle/`` and ``report.json`` when given;
    without it the pipeline runs in memory (no export, no verification).
    """
    bundle_dir = (
        os.path.join(entry_dir, _BUNDLE_DIR) if entry_dir is not None else None
    )
    if entry.kind == "recurrent":
        cell = entry.builder(entry.seed)
        result = compress_cell(
            cell,
            name=entry.name,
            p=entry.rnn_p,
            strategy=entry.strategy,
            value_dtype=entry.value_dtype,
            distill_steps=entry.distill_steps,
            lr=entry.finetune_lr,
            batch_size=entry.batch_size,
            seed=entry.seed,
            num_shards=entry.num_shards,
            bundle_dir=bundle_dir,
        )
    else:
        from repro.nn import Adam, CrossEntropyLoss, Trainer

        data = entry.dataset(entry.seed)
        model = entry.builder(entry.seed)
        if entry.pretrain_epochs > 0:
            Trainer(
                model,
                Adam(model.parameters(), lr=entry.pretrain_lr),
                CrossEntropyLoss(),
                batch_size=entry.batch_size,
                rng=entry.seed,
            ).fit(data[0], data[1], epochs=entry.pretrain_epochs)
        result = compress_model(
            model,
            data,
            name=entry.name,
            fc_p=entry.fc_p,
            conv_p=entry.conv_p,
            head_p=entry.head_p,
            strategy=entry.strategy,
            value_dtype=entry.value_dtype,
            finetune_epochs=entry.finetune_epochs,
            lr=entry.finetune_lr,
            batch_size=entry.batch_size,
            seed=entry.seed,
            num_shards=entry.num_shards,
            input_hw=entry.input_hw,
            bundle_dir=bundle_dir,
        )
    if entry_dir is not None:
        result.report.save(os.path.join(entry_dir, _REPORT_NAME))
    return result


def _cached_report(entry_dir: str) -> CompressionReport | None:
    """The entry's completed report, iff report + bundle both exist."""
    report_path = os.path.join(entry_dir, _REPORT_NAME)
    manifest_path = os.path.join(entry_dir, _BUNDLE_DIR, _BUNDLE_MANIFEST)
    if not (os.path.exists(report_path) and os.path.exists(manifest_path)):
        return None
    try:
        return CompressionReport.load(report_path)
    except (OSError, ValueError, KeyError, TypeError):
        return None  # corrupt report: rerun the entry


def _index_entry(result: ZooRunResult) -> dict:
    report = result.report
    return {
        "status": result.status,
        "report": f"{result.name}/{_REPORT_NAME}",
        "bundle": f"{result.name}/{_BUNDLE_DIR}",
        "strategy": report.strategy,
        "value_dtype": report.value_dtype,
        "compression_ratio": round(report.compression_ratio, 4),
        "metric_name": report.metric_name,
        "dense_metric": round(report.dense_metric, 6),
        "finetuned_metric": round(report.finetuned_metric, 6),
        "metric_delta": round(report.metric_delta, 6),
        "verified": report.verified,
    }


def run_zoo(
    out_dir,
    entries: tuple[str, ...] | None = None,
    *,
    resume: bool = True,
    progress: Callable[[str], None] | None = None,
    **overrides,
) -> list[ZooRunResult]:
    """Run the factory over (a subset of) the zoo, resuming finished work.

    Args:
        out_dir: output root; each entry writes ``<name>/bundle/`` and
            ``<name>/report.json``, and the run maintains
            ``index.json`` at the root (rewritten after every entry, so
            an interrupted batch resumes where it stopped).
        entries: entry names (default: every registered entry except the
            CI smoke entry).
        resume: reuse entries whose report and bundle already exist.
        progress: optional callable for one-line status updates.
        overrides: recipe overrides applied to every entry
            (e.g. ``num_shards=4``).
    """
    if entries is None:
        entries = tuple(n for n in zoo_names() if not n.endswith("-smoke"))
    say = progress if progress is not None else (lambda message: None)
    os.makedirs(out_dir, exist_ok=True)
    index_path = os.path.join(out_dir, _INDEX_NAME)
    index: dict = {"schema_version": 1, "entries": {}}
    if resume and os.path.exists(index_path):
        try:
            with open(index_path) as handle:
                index = json.load(handle)
            index.setdefault("entries", {})
        except (OSError, ValueError):
            index = {"schema_version": 1, "entries": {}}

    results: list[ZooRunResult] = []
    for name in entries:
        entry = zoo_entry(name, **overrides)
        entry_dir = os.path.join(out_dir, name)
        cached = _cached_report(entry_dir) if resume else None
        if cached is not None:
            result = ZooRunResult(name, "cached", cached, entry_dir)
            say(f"{name}: cached ({cached.compression_ratio:.2f}x, "
                f"{cached.metric_name} {cached.finetuned_metric:.4f})")
        else:
            say(f"{name}: running ({entry.description})")
            run = run_zoo_entry(entry, entry_dir)
            result = ZooRunResult(name, "ok", run.report, entry_dir)
            say(f"{name}: done ({run.report.compression_ratio:.2f}x, "
                f"{run.report.metric_name} "
                f"{run.report.finetuned_metric:.4f})")
        results.append(result)
        index["entries"][name] = _index_entry(result)
        with open(index_path, "w") as handle:
            json.dump(index, handle, indent=2, sort_keys=True)
            handle.write("\n")
    return results


def format_zoo_results(results: list[ZooRunResult]) -> str:
    """Fixed-width summary table for terminals and bench artifacts."""
    headers = (
        "entry", "status", "strategy", "dtype", "compress",
        "metric", "dense", "tuned", "delta",
    )
    rows = [
        (
            r.name,
            r.status,
            r.report.strategy,
            r.report.value_dtype,
            f"{r.report.compression_ratio:.2f}x",
            r.report.metric_name,
            f"{r.report.dense_metric:.4f}",
            f"{r.report.finetuned_metric:.4f}",
            f"{r.report.metric_delta:+.4f}",
        )
        for r in results
    ]
    widths = [
        max(len(str(headers[i])), *(len(str(row[i])) for row in rows)) + 2
        for i in range(len(headers))
    ]
    lines = ["".join(str(h).ljust(w) for h, w in zip(headers, widths))]
    lines.append("-" * sum(widths))
    for row in rows:
        lines.append("".join(str(v).ljust(w) for v, w in zip(row, widths)))
    return "\n".join(lines)
