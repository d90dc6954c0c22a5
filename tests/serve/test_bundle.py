"""Sharded image bundles: round trips, plans derived once per matrix,
manifest validation, and the committed zoo bundles' compatibility."""

import json
from pathlib import Path

import numpy as np
import pytest

from repro.core import BlockPermutedDiagonalMatrix, PermutationSpec
from repro.serve import (
    ModelServer,
    ShardedLayer,
    export_model_bundle,
    export_staged_bundle,
    load_staged_bundle,
)


# Bundles the compression factory committed, written with image format v2
# (every shard image still carries a serialized ``layer<i>_plan``).
_ZOO = Path(__file__).resolve().parents[2] / "benchmarks/results/compress_zoo"


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


def _stack(seed=0):
    rng = np.random.default_rng(seed)
    spec = PermutationSpec(scheme="random", seed=seed)
    l1 = BlockPermutedDiagonalMatrix.random((64, 48), 4, spec=spec, rng=rng)
    l2 = BlockPermutedDiagonalMatrix.random((30, 64), 8, spec=spec, rng=rng)
    return [(l1, "relu"), (l2, None)]


class TestBundleRoundTrip:
    def test_loaded_bundle_serves_identically(self, tmp_path):
        layers = _stack()
        xs = np.random.default_rng(1).normal(size=(5, 48))
        ref = ModelServer(layers, num_shards=2, max_batch_size=4)
        ref.submit_many(xs)
        reference = ref.drain()

        _export_fc_stack(tmp_path, layers, num_shards=2)
        server = ModelServer.from_bundle(tmp_path, max_batch_size=4)
        assert server.num_shards == 2
        server.submit_many(xs)
        report = server.drain()
        np.testing.assert_array_equal(
            np.stack(report.outputs), np.stack(reference.outputs)
        )
        assert report.batch_sizes == reference.batch_sizes

    def test_manifest_describes_the_model(self, tmp_path):
        _export_fc_stack(tmp_path, _stack(), num_shards=2)
        layers, manifest = _load_fc_stack(tmp_path)
        assert manifest["num_shards"] == 2 and manifest["num_layers"] == 2
        assert [spec["shape"] for spec in manifest["layers"]] == [
            [64, 48], [30, 64],
        ]
        (shards1, act1), (shards2, act2) = layers
        assert act1 == "relu" and act2 is None
        assert sum(s.shape[0] for s in shards1) == 64
        assert sum(s.shape[0] for s in shards2) == 30

    def test_export_model_bundle(self, tmp_path):
        from repro.models import build_alexnet_fc

        model = build_alexnet_fc(scale=64, dropout=0.0, rng=0)
        export_model_bundle(tmp_path, model, num_shards=2)
        server = ModelServer.from_bundle(tmp_path)
        xs = np.random.default_rng(3).normal(size=(3, server.in_features))
        server.submit_many(xs)
        model.eval()
        np.testing.assert_allclose(
            np.stack(server.drain().outputs), model.forward(xs), atol=1e-10
        )


class TestBundleValidation:
    def test_missing_manifest_rejected(self, tmp_path):
        with pytest.raises(FileNotFoundError, match="manifest"):
            _load_fc_stack(tmp_path)

    def test_version_mismatch_rejected(self, tmp_path):
        _export_fc_stack(tmp_path, _stack(), num_shards=2)
        manifest_path = tmp_path / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        manifest["bundle_version"] = 999
        manifest_path.write_text(json.dumps(manifest))
        with pytest.raises(ValueError, match="version"):
            _load_fc_stack(tmp_path)

    def test_shape_tampering_rejected(self, tmp_path):
        _export_fc_stack(tmp_path, _stack(), num_shards=2)
        manifest_path = tmp_path / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        manifest["layers"][0]["shape"] = [63, 48]
        manifest_path.write_text(json.dumps(manifest))
        with pytest.raises(ValueError, match="does not match"):
            _load_fc_stack(tmp_path)

    def test_truncated_block_bounds_rejected(self, tmp_path):
        _export_fc_stack(tmp_path, _stack(), num_shards=2)
        manifest_path = tmp_path / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        del manifest["layers"][1]["shard_block_bounds"][-1]
        manifest_path.write_text(json.dumps(manifest))
        with pytest.raises(ValueError, match="does not match its manifest"):
            _load_fc_stack(tmp_path)

    def test_empty_stack_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="empty"):
            _export_fc_stack(tmp_path, [], num_shards=2)

    def test_unservable_model_rejected(self, tmp_path):
        from repro.models import build_alexnet_fc

        dense = build_alexnet_fc(None, scale=64, dropout=0.0, rng=0)
        with pytest.raises(ValueError, match="not servable"):
            export_model_bundle(tmp_path, dense, num_shards=2)


class TestBundleSanitizer:
    def test_bundle_boot_and_serve_builds_each_plan_once(self, tmp_path):
        """Sanitizer-counted cold-start property: a bundle stores no index
        state, so every loaded slot matrix derives its plan and its
        forward CSR skeleton exactly once, and nothing is rebuilt."""
        from repro.debug import sanitize

        layers = _stack()
        _export_fc_stack(tmp_path, layers, num_shards=2)
        xs = np.random.default_rng(2).normal(size=(4, 48))
        with sanitize() as s:
            server = ModelServer.from_bundle(tmp_path, max_batch_size=4)
            server.submit_many(xs)
            server.drain()
            slot_matrices = sum(
                len(slots)
                for stage in server.layers
                for slots in stage.shard_slots
            )
            assert slot_matrices == 4
            assert s.stats.plan_builds == slot_matrices
            assert s.stats.plan_rebuilds == 0
            assert s.stats.skeleton_builds == slot_matrices
            s.assert_no_plan_rebuild()


class TestCommittedZooBundles:
    @pytest.mark.parametrize("name", ["alexnet-fc", "lenet", "nmt", "resnet20"])
    def test_legacy_bundle_serves_like_its_reexport(self, tmp_path, name):
        """A bundle written with plans still cold-starts, and serves bit
        for bit like the same stages re-exported without them."""
        legacy_dir = _ZOO / name / "bundle"
        with np.load(legacy_dir / "shard0.npz") as image:
            assert "layer0_plan" in image.files
        stages, _ = load_staged_bundle(legacy_dir)
        export_staged_bundle(tmp_path, stages)
        reports = []
        for directory in (legacy_dir, tmp_path):
            server = ModelServer.from_bundle(directory, max_batch_size=4)
            xs = np.random.default_rng(12).normal(
                size=(12, server.in_features)
            )
            server.submit_many(xs)
            reports.append(server.drain())
        legacy, fresh = reports
        np.testing.assert_array_equal(
            np.stack(legacy.outputs), np.stack(fresh.outputs)
        )
        np.testing.assert_array_equal(legacy.latencies_us, fresh.latencies_us)
        np.testing.assert_array_equal(legacy.queue_us, fresh.queue_us)
        assert legacy.layer_cycles == fresh.layer_cycles
        assert [
            [(shard.cycles, shard.macs) for shard in layer]
            for layer in legacy.layer_stats
        ] == [
            [(shard.cycles, shard.macs) for shard in layer]
            for layer in fresh.layer_stats
        ]
