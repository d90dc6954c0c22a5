"""Sharded engine-image bundles: one engine image per shard.

A bundle is a directory holding ``shard<K>.npz`` engine images (the exact
:func:`~repro.hw.export_engine_image` format -- each contains shard ``K``'s
row slice of **every** served stage: values, ``ks`` and dtype tags) plus
a ``manifest.json`` describing the pipeline.  Since v3 each manifest layer
entry carries a ``stage_kind`` tag (``"fc"`` / ``"conv"`` /
``"recurrent"``) and a ``slots`` count -- the number of consecutive image
entries the stage occupies per shard (1 for FC, ``kh*kw`` offset matrices
for a lowered conv, 2 stacked gate matrices for an LSTM cell step; older
recurrent entries hold 8 per-gate slots and are restacked at load).
v1/v2 manifests predate the tag and load as single-slot FC stages, so
old FC-only bundles keep cold-starting unchanged.

Stages that need non-matrix state (the recurrent stage's gate biases)
store it in per-stage ``stage<L>_aux.npz`` sidecars referenced from the
manifest.

Loading a bundle cold-starts a whole sharded server: every shard matrix
is rebuilt through :meth:`~repro.core.BlockPermutedDiagonalMatrix.from_q`
and derives its index plan from ``ks`` on first use, once.  Bundles hold
no index state, so one is about the size of its values plus ``ks``.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from repro.core import BlockPermutedDiagonalMatrix
from repro.hw.engine import export_engine_image, load_engine_image
from repro.serve.server import (
    LoweredConvStage,
    RecurrentStage,
    ShardedLayer,
    build_stages,
)

__all__ = [
    "export_model_bundle",
    "export_staged_bundle",
    "load_staged_bundle",
]

# v2 added per-layer ``value_dtype`` / ``fixed_point`` manifest entries
# (cross-checked against the shard images at load); v3 added the
# ``stage_kind`` / ``slots`` tags plus conv and recurrent stages.  v1
# bundles predate reduced-precision storage and always hold float64
# layers; v1/v2 entries have no tag and load as FC.
_BUNDLE_FORMAT_VERSION = 3
_BUNDLE_MIN_FORMAT_VERSION = 1
_MANIFEST_NAME = "manifest.json"
# Stage classes by manifest ``stage_kind``; each rebuilds itself from its
# manifest entry (``ServedStage.from_manifest``).
_STAGE_CLASSES = {
    cls.stage_kind: cls
    for cls in (ShardedLayer, LoweredConvStage, RecurrentStage)
}


def _shard_file(shard_idx: int) -> str:
    return f"shard{shard_idx}.npz"


def _aux_file(stage_idx: int) -> str:
    return f"stage{stage_idx}_aux.npz"


def export_staged_bundle(directory, stages: list) -> None:
    """Persist a served pipeline as ``num_shards`` engine images.

    Args:
        directory: bundle directory (created if missing).
        stages: :class:`~repro.serve.server.ServedStage` objects, input to
            output, all sharded to the same shard count.  Each stage
            contributes its :meth:`manifest_entry` to the manifest, its
            :meth:`image_slots` to every shard image, and (optionally) an
            :meth:`aux_payload` sidecar.
    """
    if not stages:
        raise ValueError("cannot export an empty stage stack")
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    num_shards = stages[0].num_shards
    if any(stage.num_shards != num_shards for stage in stages):
        raise ValueError(
            "all stages of one bundle must share a shard count, got "
            f"{[stage.num_shards for stage in stages]}"
        )
    for shard_idx in range(num_shards):
        slots = []
        for stage in stages:
            slots.extend(stage.image_slots(shard_idx))
        export_engine_image(directory / _shard_file(shard_idx), slots)
    entries = []
    for stage_idx, stage in enumerate(stages):
        entry = stage.manifest_entry()
        payload = stage.aux_payload()
        if payload is not None:
            entry["aux_file"] = _aux_file(stage_idx)
            np.savez(directory / entry["aux_file"], **payload)
        entries.append(entry)
    manifest = {
        "bundle_version": _BUNDLE_FORMAT_VERSION,
        "num_shards": num_shards,
        "num_layers": len(stages),
        "layers": entries,
        "shard_files": [_shard_file(idx) for idx in range(num_shards)],
    }
    with open(directory / _MANIFEST_NAME, "w", encoding="utf-8") as handle:
        json.dump(manifest, handle, indent=2)
        handle.write("\n")


def export_model_bundle(
    directory,
    model,
    num_shards: int,
    value_dtype: str | None = None,
    input_hw: tuple[int, int] | None = None,
) -> None:
    """Export a trained model as a sharded image bundle.

    The model is walked by
    :func:`repro.nn.serialization.model_stage_specs` (which rejects
    anything the engine cannot serve) and the resulting stages -- FC,
    lowered-conv, recurrent -- are handed to :func:`export_staged_bundle`.
    ``value_dtype`` quantizes at export (float32 or int16 fixed-point
    serving copies, one format per stage; the training weights stay
    float64);
    ``input_hw`` is the first conv stage's input spatial size (required
    iff the model has conv layers).
    """
    from repro.nn.serialization import model_stage_specs

    export_staged_bundle(
        directory,
        build_stages(
            model_stage_specs(model),
            num_shards,
            input_hw=input_hw,
            value_dtype=value_dtype,
        ),
    )


def _check_slot(
    stage_idx: int,
    shard_idx: int,
    matrix: BlockPermutedDiagonalMatrix,
    slot_activation: str | None,
    rows: int,
    expected_activation: str | None,
    p: int,
    value_dtype: str,
    fixed_point,
) -> None:
    shard_fmt = (
        (matrix.fixed_point.total_bits, matrix.fixed_point.frac_bits)
        if matrix.fixed_point is not None
        else None
    )
    if (
        matrix.p != p
        or matrix.shape[0] != rows
        or slot_activation != expected_activation
        or matrix.value_dtype != value_dtype
        or shard_fmt != fixed_point
    ):
        raise ValueError(
            f"layer {stage_idx} shard {shard_idx}: image "
            f"(shape={matrix.shape}, p={matrix.p}, "
            f"activation={slot_activation!r}, "
            f"value_dtype={matrix.value_dtype!r}) does not match "
            f"the manifest"
        )


def load_staged_bundle(directory) -> tuple[list, dict]:
    """Reload a bundle as ready-to-serve stage objects.

    Every shard matrix is decoded from its values and ``ks`` (its index
    plan is derived on first use), and shard shapes, dtypes, and stage
    layouts are cross-checked against the manifest so a truncated or
    mixed-up bundle fails loudly.  v1/v2 manifests (no ``stage_kind``)
    load every entry as a single-slot FC stage.

    Args:
        directory: bundle directory written by one of the exporters.

    Returns:
        ``(stages, manifest)`` where ``stages`` are
        :class:`~repro.serve.server.ServedStage` objects ready to hand to
        :class:`~repro.serve.server.ModelServer`.
    """
    directory = Path(directory)
    manifest_path = directory / _MANIFEST_NAME
    if not manifest_path.is_file():
        raise FileNotFoundError(
            f"no {_MANIFEST_NAME} in {directory} -- not a sharded bundle"
        )
    with open(manifest_path, encoding="utf-8") as handle:
        manifest = json.load(handle)
    version = int(manifest.get("bundle_version", -1))
    if not _BUNDLE_MIN_FORMAT_VERSION <= version <= _BUNDLE_FORMAT_VERSION:
        raise ValueError(
            f"unsupported bundle version {version} (supported: "
            f"{_BUNDLE_MIN_FORMAT_VERSION}..{_BUNDLE_FORMAT_VERSION})"
        )
    num_shards = int(manifest["num_shards"])
    num_layers = int(manifest["num_layers"])
    specs = manifest["layers"]
    if len(specs) != num_layers:
        raise ValueError(
            f"manifest lists {len(specs)} layers, says {num_layers}"
        )
    shard_images = [
        load_engine_image(directory / shard_file)
        for shard_file in manifest["shard_files"]
    ]
    slots_per_stage = [int(spec.get("slots", 1)) for spec in specs]
    total_slots = sum(slots_per_stage)
    if len(shard_images) != num_shards or any(
        len(image) != total_slots for image in shard_images
    ):
        raise ValueError(
            f"bundle {directory} does not match its manifest "
            f"({num_shards} shards x {total_slots} image slots)"
        )
    stages = []
    cursor = 0
    for stage_idx, spec in enumerate(specs):
        kind = spec.get("stage_kind", "fc")
        if kind not in _STAGE_CLASSES:
            raise ValueError(
                f"layer {stage_idx}: unknown stage_kind {kind!r}"
            )
        cls = _STAGE_CLASSES[kind]
        slots = slots_per_stage[stage_idx]
        p = int(spec["p"])
        m, n = (int(v) for v in spec["shape"])
        # v1 manifests predate value dtypes: their images store float64.
        value_dtype = spec.get("value_dtype", "float64")
        fixed_point = (
            tuple(int(v) for v in spec["fixed_point"])
            if spec.get("fixed_point") is not None
            else None
        )
        bounds = spec["shard_block_bounds"]
        if len(bounds) != num_shards:
            raise ValueError(
                f"layer {stage_idx}: bundle {directory} does not match its "
                f"manifest ({len(bounds)} shard bounds for {num_shards} "
                f"shards)"
            )
        activation = spec["activation"] if cls.engine_activation else None
        # Flat-slot layout: shard K's entries ``cursor..cursor+slots`` all
        # belong to this stage and share its row bounds.
        shard_slots: list[list[BlockPermutedDiagonalMatrix]] = []
        covered = 0
        for shard_idx, (start, stop) in enumerate(bounds):
            rows = min((stop - start) * p, m - start * p)
            image = shard_images[shard_idx][cursor : cursor + slots]
            for matrix, slot_activation in image:
                _check_slot(
                    stage_idx, shard_idx, matrix, slot_activation, rows,
                    activation, p, value_dtype, fixed_point,
                )
            shard_slots.append([matrix for matrix, _ in image])
            covered += rows
        if covered != m:
            raise ValueError(
                f"layer {stage_idx}: shards cover {covered} rows, "
                f"manifest says {m}"
            )
        cursor += slots
        stage = cls.from_manifest(spec, shard_slots, directory)
        width = stage.shard_slots[0][0].shape[1]
        if width != n:
            raise ValueError(
                f"layer {stage_idx}: shards take {width} inputs, "
                f"manifest says {n}"
            )
        stages.append(stage)
    return stages, manifest
