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
manifest.  A manifest names only these files, under exactly these
names, so nothing it lists is read from outside the bundle.

Loading a bundle cold-starts a whole sharded server.  Every shard image
is read with :func:`~repro.hw.engine.read_engine_image`, which decodes
nothing, and its entries are checked against the manifest; then each
stage slot's shards are decoded as one whole matrix
(:func:`~repro.hw.engine.decode_image_rows`, through
:meth:`~repro.core.BlockPermutedDiagonalMatrix.from_q`), and the stage
cuts it at the manifest's block bounds
(:meth:`~repro.serve.server.ServedStage.from_manifest`), as a stage
built from a live model cuts its layer's matrices.  So a cold start
derives one index plan per stage slot from ``ks``, which the slot's
shards slice, and every shard takes the kernel path the live model's
would.  Bundles hold no index state, so one is about the size of its
values plus ``ks``.  Whatever fails past a missing manifest raises
:class:`BundleError`, chained to its cause.
"""

from __future__ import annotations

import json
import zipfile
from pathlib import Path

import numpy as np

from repro.hw.engine import (
    decode_image_rows,
    export_engine_image,
    read_engine_image,
)
from repro.nn.functional import checked_int
from repro.nn.quantization import FixedPointFormat
from repro.serve.server import (
    LoweredConvStage,
    RecurrentStage,
    ShardedLayer,
    build_stages,
)

__all__ = [
    "BundleError",
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


# What a damaged manifest, shard image or sidecar raises while it loads:
# a missing field or file, a truncated archive, a value of the wrong type.
_DAMAGE = (
    AttributeError, EOFError, IndexError, KeyError, OSError, TypeError,
    ValueError, zipfile.BadZipFile,
)


class BundleError(ValueError):
    """A bundle directory whose manifest, shard images or sidecars cannot
    be loaded: damaged, truncated, tampered with or mixed up."""


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


def load_staged_bundle(directory) -> tuple[list, dict]:
    """Reload a bundle as ready-to-serve stage objects.

    Every shard's stored image entries are checked against the manifest
    (``p``, the height the stage's block bounds give the shard, width,
    activation and value storage), so a truncated or mixed-up bundle
    fails loudly; then each stage slot's shards are decoded as one whole
    matrix, which the stage cuts at the manifest's bounds.  Shard images
    and sidecars are read only under the names the exporter gives them.
    v1/v2 manifests (no ``stage_kind``) load every entry as a single-slot
    FC stage.

    Args:
        directory: bundle directory written by one of the exporters.

    Returns:
        ``(stages, manifest)`` where ``stages`` are
        :class:`~repro.serve.server.ServedStage` objects ready to hand to
        :class:`~repro.serve.server.ModelServer`.

    Raises:
        FileNotFoundError: ``directory`` holds no manifest.
        BundleError: anything else the bundle holds cannot be loaded; a
            damaged field or file is the error's cause.
    """
    directory = Path(directory)
    manifest_path = directory / _MANIFEST_NAME
    if not manifest_path.is_file():
        raise FileNotFoundError(
            f"no {_MANIFEST_NAME} in {directory} -- not a sharded bundle"
        )
    try:
        with open(manifest_path, encoding="utf-8") as handle:
            manifest = json.load(handle)
        return _stages(directory, manifest), manifest
    except BundleError:
        raise
    except _DAMAGE as exc:
        raise BundleError(
            f"bundle {directory}: {type(exc).__name__}: {exc}"
        ) from exc


def _stages(directory: Path, manifest: dict) -> list:
    """The stages ``manifest`` describes (see :func:`load_staged_bundle`)."""
    version = checked_int("bundle_version", manifest.get("bundle_version", -1))
    if not _BUNDLE_MIN_FORMAT_VERSION <= version <= _BUNDLE_FORMAT_VERSION:
        raise BundleError(
            f"unsupported bundle version {version} (supported: "
            f"{_BUNDLE_MIN_FORMAT_VERSION}..{_BUNDLE_FORMAT_VERSION})"
        )
    num_shards = checked_int("num_shards", manifest["num_shards"])
    num_layers = checked_int("num_layers", manifest["num_layers"])
    specs = manifest["layers"]
    if len(specs) != num_layers:
        raise BundleError(
            f"manifest lists {len(specs)} layers, says {num_layers}"
        )
    names = [_shard_file(idx) for idx in range(num_shards)]
    if manifest["shard_files"] != names:
        raise BundleError(
            f"bundle {directory} names shard files "
            f"{manifest['shard_files']!r}, not its own {names!r}"
        )
    shard_images = [read_engine_image(directory / name) for name in names]
    slots_per_stage = [
        checked_int("slots", spec.get("slots", 1)) for spec in specs
    ]
    total_slots = sum(slots_per_stage)
    if any(len(image) != total_slots for image in shard_images):
        raise BundleError(
            f"bundle {directory} does not match its manifest "
            f"({num_shards} shards x {total_slots} image slots)"
        )
    stages = []
    cursor = 0
    for stage_idx, (spec, slots) in enumerate(zip(specs, slots_per_stage)):
        kind = spec.get("stage_kind", "fc")
        if kind not in _STAGE_CLASSES:
            raise BundleError(
                f"layer {stage_idx}: unknown stage_kind {kind!r}"
            )
        cls = _STAGE_CLASSES[kind]
        p = checked_int("p", spec["p"])
        m, n = (checked_int("shape", v) for v in spec["shape"])
        # v1 manifests predate value dtypes: their images store float64.
        value_dtype = spec.get("value_dtype", "float64")
        fixed_point = (
            FixedPointFormat(
                *(checked_int("fixed_point", v) for v in spec["fixed_point"])
            )
            if spec.get("fixed_point") is not None
            else None
        )
        bounds = spec["shard_block_bounds"]
        if len(bounds) != num_shards:
            raise BundleError(
                f"layer {stage_idx}: bundle {directory} does not match its "
                f"manifest ({len(bounds)} shard bounds for {num_shards} "
                f"shards)"
            )
        aux_file = _aux_file(stage_idx)
        if spec.get("aux_file", aux_file) != aux_file:
            raise BundleError(
                f"layer {stage_idx}: bundle {directory} names aux file "
                f"{spec['aux_file']!r}, not its own {aux_file!r}"
            )
        activation = spec["activation"] if cls.engine_activation else None
        storage = (p, activation, value_dtype, fixed_point)
        # The stage checks that the bounds tile the block rows; a shard's
        # stored rows must be the ones its bounds give it.
        heights = [min((b - a) * p, m - a * p) for a, b in bounds]
        # Flat-slot layout: shard K's entries ``cursor..cursor+slots`` all
        # belong to this stage and share its block bounds.  Slot widths
        # may differ (a recurrent stage's W and U); the manifest records
        # the first's.
        matrices = []
        for slot in range(cursor, cursor + slots):
            entries = [image[slot] for image in shard_images]
            width = n if slot == cursor else entries[0].shape[1]
            for shard_idx, (entry, rows) in enumerate(zip(entries, heights)):
                if (
                    entry.shape, entry.p, entry.activation,
                    entry.value_dtype, entry.fixed_point,
                ) != ((rows, width), *storage):
                    raise BundleError(
                        f"layer {stage_idx} shard {shard_idx}: image "
                        f"(shape={entry.shape}, p={entry.p}, "
                        f"activation={entry.activation!r}, "
                        f"value_dtype={entry.value_dtype!r}) does not match "
                        f"the manifest"
                    )
            matrices.append(decode_image_rows(entries, (m, width)))
        cursor += slots
        stages.append(cls.from_manifest(spec, matrices, directory))
    return stages
