"""Sharded image bundles: round trips, plans derived once per slot
matrix, manifest validation and typed load errors, the committed zoo
bundles' compatibility, and the loader's decode of each slot's shards as
one whole matrix."""

import json
import tempfile
import zipfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import BlockPermutedDiagonalMatrix, PermutationSpec
from repro.hw import export_engine_image
from repro.nn.layers.recurrent import LSTMCell
from repro.serve import (
    BundleError,
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


def _set_top(manifest, name, value):
    manifest[name] = value


def _set_entry(manifest, name, value):
    manifest["layers"][0][name] = value


def _set_first(manifest, name, value):
    manifest["layers"][0][name][1] = value


# Every integer a manifest holds, where it sits, and whether the bundle
# is an int16 FC stack or a recurrent cell.  A non-integer must fail the
# load with the field's name, not be truncated by ``int()`` into a
# plausible bundle or fail later on another error.
_MANIFEST_INTEGERS = [
    ("bundle_version", _set_top, "fc"),
    ("num_shards", _set_top, "fc"),
    ("num_layers", _set_top, "fc"),
    ("slots", _set_entry, "fc"),
    ("p", _set_entry, "fc"),
    ("shape", _set_first, "fc"),
    ("fixed_point", _set_first, "fc"),
    ("input_size", _set_entry, "recurrent"),
    ("hidden_size", _set_entry, "recurrent"),
]


class TestManifestIntegers:
    @pytest.mark.parametrize("value", [2.5, True])
    @pytest.mark.parametrize("name,tamper,kind", _MANIFEST_INTEGERS)
    def test_non_integer_fails_the_load(
        self, tmp_path, name, tamper, kind, value
    ):
        if kind == "fc":
            layers = [(m.with_value_dtype("int16"), a) for m, a in _stack()]
            _export_fc_stack(tmp_path, layers, num_shards=2)
        else:
            export_model_bundle(tmp_path, LSTMCell(6, 16, p=2, rng=0), 2)
        manifest_path = tmp_path / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        tamper(manifest, name, value)
        manifest_path.write_text(json.dumps(manifest))
        with pytest.raises(ValueError, match=f"{name} must be an integer"):
            load_staged_bundle(tmp_path)


def _tamper(directory, edit):
    """Rewrite a bundle's manifest through ``edit(manifest)``."""
    manifest_path = Path(directory) / "manifest.json"
    manifest = json.loads(manifest_path.read_text())
    edit(manifest)
    manifest_path.write_text(json.dumps(manifest))


def _tamper_image(path, **values):
    """Rewrite entries of a stored engine image."""
    with np.load(path) as archive:
        payload = {key: archive[key] for key in archive.files}
    payload.update({key: np.asarray(value) for key, value in values.items()})
    np.savez_compressed(path, **payload)


class TestBundleFileNames:
    """A manifest names only its bundle's own files, ``shard<K>.npz``
    and ``stage<L>_aux.npz`` as the exporter writes them: a name that
    reaches another bundle is rejected, not served."""

    @pytest.mark.parametrize("absolute", [True, False])
    def test_shard_file_outside_the_bundle_rejected(
        self, tmp_path, absolute
    ):
        ours, other = tmp_path / "ours", tmp_path / "other"
        _export_fc_stack(ours, _stack(0), num_shards=2)
        _export_fc_stack(other, _stack(1), num_shards=2)
        name = str(other / "shard0.npz") if absolute else "../other/shard0.npz"
        _tamper(ours, lambda m: m["shard_files"].__setitem__(0, name))
        with pytest.raises(BundleError, match="names shard files"):
            load_staged_bundle(ours)

    @pytest.mark.parametrize("absolute", [True, False])
    def test_aux_file_outside_the_bundle_rejected(self, tmp_path, absolute):
        ours, other = tmp_path / "ours", tmp_path / "other"
        export_model_bundle(ours, LSTMCell(6, 16, p=2, rng=0), 2)
        export_model_bundle(other, LSTMCell(6, 16, p=2, rng=1), 2)
        name = (
            str(other / "stage0_aux.npz") if absolute
            else "../other/stage0_aux.npz"
        )
        _tamper(ours, lambda m: m["layers"][0].__setitem__("aux_file", name))
        with pytest.raises(BundleError, match="names aux file"):
            load_staged_bundle(ours)


def _drop_shard_files(directory):
    _tamper(directory, lambda m: m.pop("shard_files"))


def _drop_p(directory):
    _tamper(directory, lambda m: m["layers"][0].pop("p"))


def _drop_shard1(directory):
    (Path(directory) / "shard1.npz").unlink()


def _truncate_shard1(directory):
    path = Path(directory) / "shard1.npz"
    path.write_bytes(path.read_bytes()[:100])


def _image_num_layers(value):
    def damage(directory):
        _tamper_image(Path(directory) / "shard1.npz", num_layers=value)

    return damage


def _image_version(directory):
    _tamper_image(Path(directory) / "shard1.npz", image_version=3.7)


def _layer_not_an_object(directory):
    _tamper(directory, lambda m: m["layers"].__setitem__(1, [1, 2]))


def _unknown_kind(directory):
    _tamper(directory, lambda m: m["layers"][1].__setitem__("stage_kind", "x"))


# A damaged two-layer bundle, the cause the load must chain (``None``: a
# check of the loader's own) and a fragment of the message.
_DAMAGED_BUNDLES = [
    pytest.param(_drop_shard_files, KeyError, "shard_files", id="no-files"),
    pytest.param(_drop_p, KeyError, "'p'", id="no-p"),
    pytest.param(
        _drop_shard1, FileNotFoundError, "shard1.npz", id="no-shard1"
    ),
    pytest.param(
        _truncate_shard1, zipfile.BadZipFile, "zip", id="truncated-shard1"
    ),
    pytest.param(
        _image_num_layers(1.9), ValueError,
        "num_layers must be an integer", id="image-num-layers-1.9",
    ),
    pytest.param(
        _image_version, ValueError, "image_version must be an integer",
        id="image-version-3.7",
    ),
    pytest.param(
        _image_num_layers(3), ValueError, "lacks layer 2",
        id="image-num-layers-3",
    ),
    pytest.param(
        _layer_not_an_object, AttributeError, "list", id="layer-not-object"
    ),
    pytest.param(_unknown_kind, None, "stage_kind", id="unknown-kind"),
]


class TestBundleErrors:
    @pytest.mark.parametrize("damage,cause,message", _DAMAGED_BUNDLES)
    def test_damaged_bundle_raises_bundle_error(
        self, tmp_path, damage, cause, message
    ):
        _export_fc_stack(tmp_path, _stack(), num_shards=2)
        damage(tmp_path)
        with pytest.raises(BundleError, match=message) as excinfo:
            load_staged_bundle(tmp_path)
        if cause is None:
            assert excinfo.value.__cause__ is None
        else:
            assert type(excinfo.value.__cause__) is cause


class TestBundleSanitizer:
    def test_bundle_boot_and_serve_builds_each_plan_once(self, tmp_path):
        """Sanitizer-counted cold-start property: a bundle stores no index
        state, so each layer's whole decoded matrix derives one index
        plan, every served shard slices it and builds its own forward COO
        view exactly once, and nothing is rebuilt."""
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
            # One per layer's whole matrix: the 30-row, p=8 layer checks
            # its stray padding values on the plan its shards slice.
            assert s.stats.plan_builds == len(server.layers)
            assert s.stats.plan_rebuilds == 0
            assert s.stats.skeleton_builds == slot_matrices
            s.assert_no_plan_rebuild()

    # ``sanitize`` nests inside the suite's own sanitizer scope; each
    # example exports to a fresh directory.
    @pytest.mark.parametrize("padding", ["aligned", "rows", "cols", "both"])
    @settings(
        max_examples=12,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(
        st.integers(2, 5),
        st.integers(4, 6),
        st.integers(1, 4),
        st.integers(1, 4),
        st.sampled_from(["float64", "float32", "int16"]),
        st.integers(0, 2**16),
    )
    def test_cold_start_builds_one_plan_per_slot(
        self, padding, p, mb, nb, num_shards, value_dtype, seed
    ):
        """Whatever the padding, a cold start decodes one whole matrix
        per stage slot: one plan each, none per shard, nothing rebuilt,
        and the live model's bits."""
        from repro.debug import sanitize

        rng = np.random.default_rng(seed)
        m = mb * p - (rng.integers(1, p) if padding in ("rows", "both") else 0)
        n = nb * p - (rng.integers(1, p) if padding in ("cols", "both") else 0)
        matrix = BlockPermutedDiagonalMatrix.random(
            (int(m), int(n)), p, rng=rng, value_dtype=value_dtype
        )
        layers = [(matrix, "relu")]
        xs = rng.normal(size=(5, int(n)))
        live = ModelServer(layers, num_shards=num_shards, max_batch_size=4)
        live.submit_many(xs)
        reference = np.stack(live.drain().outputs)
        with tempfile.TemporaryDirectory() as directory:
            _export_fc_stack(directory, layers, num_shards)
            with sanitize() as s:
                server = ModelServer.from_bundle(directory, max_batch_size=4)
                server.submit_many(xs)
                served = np.stack(server.drain().outputs)
                assert s.stats.plan_builds == len(server.layers)
                assert s.stats.plan_rebuilds == 0
        np.testing.assert_array_equal(served, reference)


@pytest.mark.usefixtures("force_pbd")
class TestJoinedShards:
    """The loader decodes a slot's shards as one whole matrix and the
    stage cuts it, so bundle shards take their whole matrix's kernel
    path, as cut ones do."""

    # ``force_pbd`` only patches a module constant, which holds for every
    # drawn example.
    @settings(
        max_examples=40,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(
        st.integers(1, 7),
        st.integers(1, 6),
        st.integers(1, 6),
        st.integers(0, 6),
        st.sampled_from(["natural", "random"]),
        st.sampled_from(["float64", "float32", "int16"]),
        st.integers(2, 6),
        st.integers(1, 20),
        st.integers(0, 2**16),
    )
    def test_joined_shards_reassemble_the_product(
        self, p, mb, nb, m_pad, scheme, value_dtype, num_shards, batch, seed
    ):
        matrix = BlockPermutedDiagonalMatrix.random(
            (mb * p - min(m_pad, p - 1), nb * p), p,
            spec=PermutationSpec(scheme=scheme, seed=seed), rng=seed,
            value_dtype=value_dtype,
        )
        cut = matrix.row_shards(min(num_shards, mb))
        with tempfile.TemporaryDirectory() as directory:
            export_staged_bundle(
                directory, [ShardedLayer(matrix, None, len(cut))]
            )
            (stage,), _ = load_staged_bundle(directory)
        np.testing.assert_array_equal(stage.matrices[0].data, matrix.data)
        x = np.random.default_rng(seed).normal(size=(batch, matrix.shape[1]))
        x = x.astype(matrix.compute_dtype)
        whole = matrix.matmat(x)
        joined = [shard.matmat(x) for (shard,) in stage.shard_slots]
        np.testing.assert_array_equal(np.concatenate(joined, axis=1), whole)
        for (shard,), original in zip(stage.shard_slots, cut):
            assert shard.shape == original.shape
            np.testing.assert_array_equal(shard.ks, original.ks)

    def test_non_additive_matrix_serves_alike_from_model_and_bundle(
        self, tmp_path
    ):
        """``ks = [[1, 1], [1, 0]]`` is not additive, but both of its
        one-block-row shards are: a bundle shard that chose its path from
        its own ``ks`` would serve other bits than the live model."""
        from repro.nn import PermDiagLinear, Sequential

        data = np.random.default_rng(0).normal(size=(2, 2, 2))
        matrix = BlockPermutedDiagonalMatrix(data, np.array([[1, 1], [1, 0]]))
        model = Sequential(PermDiagLinear.from_matrix(matrix))
        xs = np.random.default_rng(1).normal(size=(5, 4))
        export_model_bundle(tmp_path, model, num_shards=2)
        outputs = []
        for server in (
            ModelServer.from_model(model, num_shards=2),
            ModelServer.from_bundle(tmp_path),
        ):
            for (shard,) in server.layers[0].shard_slots:
                assert shard._get_plan().pbd_index() is None
            server.submit_many(xs)
            outputs.append(np.stack(server.drain().outputs))
        np.testing.assert_array_equal(outputs[0], outputs[1])
        np.testing.assert_array_equal(outputs[0], matrix.matmat(xs))

    def test_unjoinable_shards_rejected(self, tmp_path):
        """A shard image that is not its slot's block rows -- row-padded
        but not last, or at another ``p`` -- fails the load."""
        whole = BlockPermutedDiagonalMatrix.random((16, 8), 4, rng=0)
        export_staged_bundle(tmp_path, [ShardedLayer(whole, None, 2)])
        for stranger in (
            BlockPermutedDiagonalMatrix.random((6, 8), 4, rng=1),
            BlockPermutedDiagonalMatrix.random((8, 8), 2, rng=1),
        ):
            export_engine_image(tmp_path / "shard0.npz", [(stranger, None)])
            with pytest.raises(
                BundleError, match="layer 0 shard 0: image .* does not match"
            ):
                load_staged_bundle(tmp_path)


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
