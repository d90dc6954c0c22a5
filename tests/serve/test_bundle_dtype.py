"""Sharded bundles (manifest v2) carry and cross-check value dtypes."""

import json

import numpy as np
import pytest

from repro.core import BlockPermutedDiagonalMatrix
from repro.nn.quantization import FixedPointFormat
from repro.serve.bundle import export_staged_bundle, load_staged_bundle
from repro.serve.server import ModelServer, ShardedLayer


def _export_fc_stack(directory, layers, num_shards):
    export_staged_bundle(
        directory, [ShardedLayer(m, a, num_shards) for m, a in layers]
    )


def _load_fc_stack(directory):
    stages, manifest = load_staged_bundle(directory)
    layers = [
        ([shard for (shard,) in stage.shard_slots], stage.activation)
        for stage in stages
    ]
    return layers, manifest


def _layers():
    return [
        (
            BlockPermutedDiagonalMatrix.random(
                (64, 48), 8, rng=1, value_dtype="float32"
            ),
            "relu",
        ),
        (
            BlockPermutedDiagonalMatrix.random(
                (32, 64),
                8,
                rng=2,
                value_dtype="int16",
                fixed_point=FixedPointFormat(16, 13),
            ),
            None,
        ),
    ]


def test_bundle_round_trip_preserves_value_dtypes(tmp_path):
    _export_fc_stack(tmp_path, _layers(), num_shards=4)
    layers, manifest = _load_fc_stack(tmp_path)
    assert manifest["layers"][0]["value_dtype"] == "float32"
    assert manifest["layers"][0]["fixed_point"] is None
    assert manifest["layers"][1]["value_dtype"] == "int16"
    assert manifest["layers"][1]["fixed_point"] == [16, 13]
    for (shards, _), (orig, _) in zip(layers, _layers()):
        for shard in shards:
            assert shard.value_dtype == orig.value_dtype
            assert shard.fixed_point == orig.fixed_point
            assert shard.data.dtype == orig.data.dtype


def test_bundle_server_matches_direct_chain(tmp_path):
    layers = _layers()
    _export_fc_stack(tmp_path, layers, num_shards=4)
    server = ModelServer.from_bundle(tmp_path)
    x = np.random.default_rng(0).normal(size=(5, 48))
    server.submit_many(x)
    report = server.drain()
    hidden = np.maximum(layers[0][0].matmat(x), 0.0)
    expected = layers[1][0].matmat(hidden)
    np.testing.assert_array_equal(np.stack(report.outputs), expected)


def test_manifest_dtype_mismatch_fails_loudly(tmp_path):
    _export_fc_stack(tmp_path, _layers(), num_shards=2)
    manifest_path = tmp_path / "manifest.json"
    manifest = json.loads(manifest_path.read_text())
    manifest["layers"][0]["value_dtype"] = "int16"
    manifest["layers"][0]["fixed_point"] = [16, 12]
    manifest_path.write_text(json.dumps(manifest))
    with pytest.raises(ValueError, match="does not match"):
        _load_fc_stack(tmp_path)


def test_v1_manifest_loads_float64_layers(tmp_path):
    float_layers = [
        (BlockPermutedDiagonalMatrix.random((32, 32), 8, rng=5), "relu")
    ]
    _export_fc_stack(tmp_path, float_layers, num_shards=2)
    manifest_path = tmp_path / "manifest.json"
    manifest = json.loads(manifest_path.read_text())
    manifest["bundle_version"] = 1
    for spec in manifest["layers"]:
        del spec["value_dtype"]
        del spec["fixed_point"]
    manifest_path.write_text(json.dumps(manifest))
    layers, loaded_manifest = _load_fc_stack(tmp_path)
    assert int(loaded_manifest["bundle_version"]) == 1
    assert all(shard.value_dtype == "float64" for shard in layers[0][0])
