"""Engine images (format v3): values plus ``ks``, decoded through
``from_q``; no index state is stored."""

import zipfile

import numpy as np
import pytest

import repro.core.block_perm_diag as mod
from repro.core import BlockPermutedDiagonalMatrix
from repro.hw import PermDNNEngine, export_engine_image, load_engine_image
from repro.hw.engine import read_engine_image


def _layers(rng):
    m1 = BlockPermutedDiagonalMatrix.random((64, 48), 4, rng=rng)
    m2 = BlockPermutedDiagonalMatrix.random((30, 64), 8, rng=rng)  # padded m
    return [(m1, "relu"), (m2, None)]


class TestEngineImage:
    def test_round_trip_matches_original_network(self, tmp_path):
        rng = np.random.default_rng(0)
        layers = _layers(rng)
        x = rng.normal(size=48)
        engine = PermDNNEngine()
        reference, _ = engine.run_network(layers, x)

        path = str(tmp_path / "image.npz")
        export_engine_image(path, layers)
        loaded = load_engine_image(path)
        assert len(loaded) == 2
        assert [activation for _, activation in loaded] == ["relu", None]
        output, results = engine.run_network(loaded, x)
        np.testing.assert_allclose(output, reference, atol=1e-12)
        assert len(results) == 2

    def test_loaded_image_builds_each_plan_once(self, tmp_path, monkeypatch):
        """Index state is derived from ``ks``: each loaded layer builds
        its plan once, and the bit-accurate path's like() siblings share
        it instead of building their own."""
        rng = np.random.default_rng(1)
        layers = _layers(rng)
        x = rng.normal(size=48)
        path = str(tmp_path / "image.npz")
        export_engine_image(path, layers)
        builds = []
        init = mod._IndexPlan.__init__

        def counting_init(self, *args, **kwargs):
            builds.append(args)
            init(self, *args, **kwargs)

        monkeypatch.setattr(mod._IndexPlan, "__init__", counting_init)
        loaded = load_engine_image(path)
        engine = PermDNNEngine()
        output, _ = engine.run_network(loaded, x)
        engine.run_network(loaded, x)
        engine.run_fc_layer(loaded[0][0], x, bit_accurate=True)
        assert output.shape == (30,)
        assert len(builds) == len(loaded)

    def test_loaded_matrices_preserve_structure(self, tmp_path):
        rng = np.random.default_rng(2)
        layers = _layers(rng)
        path = str(tmp_path / "image.npz")
        export_engine_image(path, layers)
        for (orig, _), (loaded, _) in zip(layers, load_engine_image(path)):
            assert loaded.shape == orig.shape and loaded.p == orig.p
            np.testing.assert_array_equal(loaded.ks, orig.ks)
            np.testing.assert_allclose(loaded.to_dense(), orig.to_dense())

    def test_metadata_plan_mismatch_rejected(self, tmp_path):
        rng = np.random.default_rng(4)
        path = str(tmp_path / "image.npz")
        export_engine_image(path, _layers(rng))
        with np.load(path) as archive:
            payload = {key: archive[key] for key in archive.files}
        payload["layer0_shape"] = np.asarray([63, 48], dtype=np.int64)
        np.savez_compressed(path, **payload)
        with pytest.raises(ValueError, match="does not match"):
            load_engine_image(path)

    def test_image_holds_values_and_structure_only(self, tmp_path):
        """No index array can come back unnoticed: a v3 image holds
        exactly the version, the layer count and, per layer, the values,
        the structure, the ActU mode and the dtype tags."""
        path = str(tmp_path / "image.npz")
        layers = _layers(np.random.default_rng(7))
        export_engine_image(path, layers)
        per_layer = (
            "q", "ks", "p", "shape", "activation", "value_dtype",
            "fixed_point",
        )
        expected = {"image_version", "num_layers"} | {
            f"layer{idx}_{name}"
            for idx in range(len(layers))
            for name in per_layer
        }
        with np.load(path) as archive:
            assert set(archive.files) == expected
            assert int(archive["image_version"]) == 3

    def test_version_mismatch_rejected(self, tmp_path):
        rng = np.random.default_rng(3)
        path = str(tmp_path / "image.npz")
        export_engine_image(path, _layers(rng))
        with np.load(path) as archive:
            payload = {key: archive[key] for key in archive.files}
        payload["image_version"] = np.int64(999)
        np.savez_compressed(path, **payload)
        with pytest.raises(ValueError, match="version"):
            load_engine_image(path)


def _tampered(tmp_path, **values):
    """A two-layer image with some stored entries replaced."""
    path = str(tmp_path / "image.npz")
    export_engine_image(path, _layers(np.random.default_rng(5)))
    with np.load(path) as archive:
        payload = {key: archive[key] for key in archive.files}
    payload.update({key: np.asarray(value) for key, value in values.items()})
    np.savez_compressed(path, **payload)
    return path


class TestImageIntegers:
    """The image's counts are checked, not truncated by ``int()``: a
    layer count of 1.9 would load one layer of two, and a version of 3.7
    would load as v3."""

    @pytest.mark.parametrize(
        "key,value",
        [
            ("num_layers", 1.9),
            ("image_version", 3.7),
            ("num_layers", True),
            ("layer1_p", 8.0),
            ("layer0_shape", [64.0, 48.0]),
            ("layer0_fixed_point", [16.0, 12.0]),
        ],
    )
    def test_non_integer_rejected(self, tmp_path, key, value):
        path = _tampered(tmp_path, **{key: value})
        with pytest.raises(ValueError, match=f"{key} must be an integer"):
            load_engine_image(path)

    def test_missing_layer_named(self, tmp_path):
        path = _tampered(tmp_path, num_layers=3)
        with pytest.raises(ValueError, match="names 3 layers but lacks layer 2"):
            load_engine_image(path)


_READERS = pytest.mark.parametrize(
    "read", [read_engine_image, load_engine_image],
    ids=["read_engine_image", "load_engine_image"],
)


class TestDamagedImages:
    """A damaged image raises ``ValueError`` naming the image, chained to
    what numpy or zipfile raised, whichever reader is called."""

    @_READERS
    def test_missing_version(self, tmp_path, read):
        path = _tampered(tmp_path)
        with np.load(path) as archive:
            payload = {key: archive[key] for key in archive.files}
        del payload["image_version"]
        np.savez_compressed(path, **payload)
        with pytest.raises(ValueError) as excinfo:
            read(path)
        assert str(excinfo.value) == (
            f"engine image {path}: image_version is not a file in the archive"
        )
        assert type(excinfo.value.__cause__) is KeyError

    @_READERS
    def test_truncated_file(self, tmp_path, read):
        path = tmp_path / "image.npz"
        export_engine_image(path, _layers(np.random.default_rng(7)))
        path.write_bytes(path.read_bytes()[:100])
        with pytest.raises(ValueError, match="not an .npz archive") as excinfo:
            read(path)
        assert str(excinfo.value).startswith(f"engine image {path}: ")
        assert type(excinfo.value.__cause__) is zipfile.BadZipFile

    @_READERS
    def test_not_an_archive(self, tmp_path, read):
        path = tmp_path / "image.npz"
        path.write_bytes(b"no archive here, just bytes " * 4)
        with pytest.raises(ValueError, match="not an .npz archive") as excinfo:
            read(path)
        assert str(excinfo.value).startswith(f"engine image {path}: ")
        assert type(excinfo.value.__cause__) is ValueError
        np.save(tmp_path / "array.npy", np.arange(3))
        with pytest.raises(ValueError, match="not an .npz archive"):
            read(tmp_path / "array.npy")


class TestStoredBackendKey:
    """Older writers stored a ``layer<i>_backend`` key per layer.  There
    is one product kernel now: exports omit the key and the loader
    ignores it, whatever name it holds."""

    def test_export_writes_no_backend_key(self, tmp_path):
        path = str(tmp_path / "image.npz")
        export_engine_image(path, _layers(np.random.default_rng(5)))
        with np.load(path) as archive:
            assert not any(key.endswith("_backend") for key in archive.files)

    @pytest.mark.parametrize("version", [1, 2])
    @pytest.mark.parametrize(
        "stored",
        [None, "", "csr", "gather", "bogus"],
        ids=["absent", "empty", "csr", "gather", "bogus"],
    )
    def test_loads_and_ignores_the_key(
        self, tmp_path, version, stored
    ):
        rng = np.random.default_rng(6)
        layers = _layers(rng)
        x = rng.normal(size=48)
        reference, _ = PermDNNEngine().run_network(layers, x)
        path = str(tmp_path / "image.npz")
        export_engine_image(path, layers)
        with np.load(path) as archive:
            payload = {key: archive[key] for key in archive.files}
        payload["image_version"] = np.int64(version)
        for idx in range(len(layers)):
            if version == 1:  # v1 predates the value-dtype tags
                del payload[f"layer{idx}_value_dtype"]
                del payload[f"layer{idx}_fixed_point"]
            if stored is not None:
                payload[f"layer{idx}_backend"] = np.str_(stored)
        np.savez_compressed(path, **payload)
        output, _ = PermDNNEngine().run_network(load_engine_image(path), x)
        np.testing.assert_array_equal(output, reference)
