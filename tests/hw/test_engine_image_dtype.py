"""Engine images (format v2 on) persist per-layer value dtypes."""

import numpy as np
import pytest

from repro.core import BlockPermutedDiagonalMatrix
from repro.hw.engine import export_engine_image, load_engine_image
from repro.nn.quantization import FixedPointFormat


def _stack():
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
        (BlockPermutedDiagonalMatrix.random((16, 32), 8, rng=3), "tanh"),
    ]


def test_image_round_trip_preserves_value_dtypes(tmp_path):
    path = tmp_path / "image.npz"
    layers = _stack()
    export_engine_image(path, layers)
    loaded = load_engine_image(path)
    assert len(loaded) == len(layers)
    for (orig, orig_act), (mat, act) in zip(layers, loaded):
        assert act == orig_act
        assert mat.value_dtype == orig.value_dtype
        assert mat.fixed_point == orig.fixed_point
        assert mat.data.dtype == orig.data.dtype
        np.testing.assert_array_equal(mat.data, orig.data)


def test_image_round_trip_products_bit_match(tmp_path):
    path = tmp_path / "image.npz"
    layers = _stack()
    export_engine_image(path, layers)
    loaded = load_engine_image(path)
    x = np.random.default_rng(0).normal(size=(5, 48))
    for (orig, _), (mat, _) in zip(layers, loaded):
        if orig.shape[1] != 48:
            x = np.random.default_rng(0).normal(size=(5, orig.shape[1]))
        np.testing.assert_array_equal(mat.matmat(x), orig.matmat(x))


def test_v1_images_load_as_float64(tmp_path):
    # Fabricate a v1 archive: same keys minus the dtype tags.
    path = tmp_path / "v1.npz"
    matrix = BlockPermutedDiagonalMatrix.random((32, 32), 8, rng=4)
    payload = {
        "image_version": np.int64(1),
        "num_layers": np.int64(1),
        "layer0_q": matrix.to_q(),
        "layer0_ks": np.asarray(matrix.ks),
        "layer0_p": np.int64(matrix.p),
        "layer0_shape": np.asarray(matrix.shape, dtype=np.int64),
        "layer0_activation": np.str_(""),
        "layer0_backend": np.str_(""),
        "layer0_plan": np.frombuffer(b"opaque plan bytes", dtype=np.uint8),
    }
    np.savez_compressed(path, **payload)
    [(loaded, activation)] = load_engine_image(path)
    assert activation is None
    assert loaded.value_dtype == "float64"
    np.testing.assert_array_equal(loaded.data, matrix.data)


def test_future_image_version_rejected(tmp_path):
    path = tmp_path / "future.npz"
    np.savez_compressed(
        path, image_version=np.int64(99), num_layers=np.int64(0)
    )
    with pytest.raises(ValueError, match="version 99"):
        load_engine_image(path)
