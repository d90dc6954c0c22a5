"""Value-storage dtypes: float64 / float32 / int16 fixed-point.

Covers the :mod:`repro.core.value_types` registry, dtype-aware
construction and conversion on :class:`BlockPermutedDiagonalMatrix`
(aliasing, plan sharing, shard propagation), product dtype propagation
through the kernel, and the dtype tags the stored form
(``q`` plus ``ks``) is decoded with.
"""

import numpy as np
import pytest

from repro.compress import convert_cell, convert_model
from repro.core import (
    BlockPermDiagTensor4D,
    BlockPermutedDiagonalMatrix,
    UnknownValueDtypeError,
    default_value_dtype,
    validate_value_dtype,
)
from repro.core.value_types import storage_dtype
from repro.debug import sanitize
from repro.nn import (
    Conv2D,
    Flatten,
    Linear,
    LSTMCell,
    PermDiagConv2D,
    PermDiagLinear,
    Sequential,
)
from repro.nn.quantization import FixedPointFormat


def _matrix(vd="float64", shape=(24, 16), p=4, seed=0, **kwargs):
    return BlockPermutedDiagonalMatrix.random(
        shape, p, rng=seed, value_dtype=vd, **kwargs
    )


def _pd_ops(ops):
    return [(op.matrix, op.weight.value) for op in ops]


def _converted_layers():
    rng = np.random.default_rng(7)
    model = Sequential(
        Conv2D(4, 8, 3, padding=1, bias=False, rng=rng),
        Flatten(),
        Linear(8 * 8 * 8, 8, bias=False, rng=rng),
    )
    conv, _, head = convert_model(model, conv_p=4, head_p=4)[0].layers
    return conv, head


def _converted_conv():
    conv, _ = _converted_layers()
    return [(mat, conv.weight.value) for mat in conv.tensor.matrices]


def _permdiag_conv():
    layer = PermDiagConv2D(8, 8, 3, p=4, rng=0)
    return [(mat, layer.weight.value) for mat in layer.tensor.matrices]


def _conv_tensor():
    tensor = BlockPermDiagTensor4D.random(8, 8, (3, 3), 4, rng=0)
    return [(mat, tensor.values) for mat in tensor.matrices]


# Each site that builds a matrix without a value_dtype, returning
# ``(matrix, buffer)`` pairs: ``buffer`` is the float64 training buffer the
# matrix must alias, or None for a free-standing matrix.
_BUILT_WITHOUT_A_DTYPE = {
    "random": lambda: [
        (BlockPermutedDiagonalMatrix.random((8, 8), 4, rng=0), None)
    ],
    "from_dense": lambda: [(
        BlockPermutedDiagonalMatrix.from_dense(
            np.random.default_rng(0).normal(size=(8, 8)), 4
        ),
        None,
    )],
    "zeros": lambda: [(BlockPermutedDiagonalMatrix.zeros((8, 8), 4), None)],
    "conv_tensor": _conv_tensor,
    "perm_diag_linear": lambda: _pd_ops([PermDiagLinear(12, 8, p=4, rng=0)]),
    "perm_diag_conv2d": _permdiag_conv,
    "lstm_cell": lambda: _pd_ops(LSTMCell(8, 8, p=4, rng=0).weight_matrices),
    "convert_model_fc": lambda: _pd_ops([_converted_layers()[1]]),
    "convert_model_conv": _converted_conv,
    "convert_cell": lambda: _pd_ops(
        convert_cell(LSTMCell(8, 8, rng=0), p=4)[0].weight_matrices
    ),
}


class TestRegistry:
    def test_canonical_names_and_aliases(self):
        assert validate_value_dtype("float32") == "float32"
        assert validate_value_dtype(np.float32) == "float32"
        assert validate_value_dtype("f4") == "float32"
        assert validate_value_dtype(np.dtype(np.int16)) == "int16"
        assert validate_value_dtype("float64") == "float64"

    def test_unknown_names_raise_typed_error(self):
        for bad in ("float16", "int8", "not-a-dtype", object()):
            with pytest.raises(UnknownValueDtypeError):
                validate_value_dtype(bad)

    @pytest.mark.parametrize("site", sorted(_BUILT_WITHOUT_A_DTYPE))
    def test_no_dtype_means_float64_whatever_the_environment(
        self, monkeypatch, site
    ):
        """No process-wide default: exporting the variable that once set
        one changes nothing, at any site that builds a matrix without a
        ``value_dtype``.  A trainable matrix still aliases its float64
        ``Parameter``, so optimizer updates reach the served weights."""
        monkeypatch.setenv("REPRO_VALUE_DTYPE", "float32")
        assert default_value_dtype() == "float64"
        for mat, buffer in _BUILT_WITHOUT_A_DTYPE[site]():
            assert mat.value_dtype == "float64"
            assert mat.data.dtype == np.float64
            if buffer is not None:
                assert np.shares_memory(mat.data, buffer)


class TestStorageModes:
    def test_float64_default_unchanged(self):
        mat = _matrix()
        assert mat.value_dtype == "float64"
        assert mat.fixed_point is None
        assert mat.data.dtype == np.float64
        assert mat.compute_dtype == np.float64
        assert mat._kernel_data() is mat.data

    def test_float32_storage_and_compute(self):
        mat = _matrix("float32")
        assert mat.data.dtype == np.float32
        assert mat.compute_dtype == np.float32
        assert mat._kernel_data() is mat.data
        assert "value_dtype=float32" in repr(mat)

    def test_int16_requires_format_in_constructor(self):
        base = _matrix()
        with pytest.raises(ValueError, match="with_value_dtype"):
            BlockPermutedDiagonalMatrix(
                np.zeros(base.data.shape, dtype=np.int16),
                base.ks,
                value_dtype="int16",
            )

    def test_int16_storage_dequantizes_for_kernels(self):
        fmt = FixedPointFormat(16, 13)
        mat = _matrix("int16", fixed_point=fmt)
        assert mat.data.dtype == np.int16
        assert mat.fixed_point == fmt
        assert mat.compute_dtype == np.float64
        kernel = mat._kernel_data()
        assert kernel.dtype == np.float64
        np.testing.assert_array_equal(
            kernel, mat.data.astype(np.float64) / fmt.scale
        )

    def test_fixed_point_rejected_for_float_modes(self):
        with pytest.raises(ValueError, match="fixed_point"):
            _matrix("float32", fixed_point=FixedPointFormat(16, 12))

    def test_int16_setter_rejects_floats_and_range_checks(self):
        mat = _matrix("int16")
        with pytest.raises(TypeError, match="with_value_dtype"):
            mat.data = np.zeros(mat.data.shape)
        codes = np.zeros(mat.data.shape, dtype=np.int64)
        mat.data = codes  # in-range wider ints narrow fine
        assert mat.data.dtype == np.int16
        codes[0, 0, 0] = 2**15  # one past int16 max
        with pytest.raises(ValueError, match="int16 range"):
            mat.data = codes

    def test_same_seed_same_weights_across_precisions(self):
        f64 = _matrix("float64", seed=7)
        f32 = _matrix("float32", seed=7)
        np.testing.assert_array_equal(
            f32.data, f64.data.astype(np.float32)
        )

    def test_zeros_and_from_dense_honor_value_dtype(self):
        z = BlockPermutedDiagonalMatrix.zeros((8, 8), 4, value_dtype="float32")
        assert z.data.dtype == np.float32
        dense = _matrix(seed=3).to_dense()
        proj = BlockPermutedDiagonalMatrix.from_dense(
            dense, 4, value_dtype="int16"
        )
        assert proj.value_dtype == "int16"
        assert proj.fixed_point is not None


class TestConversion:
    def test_with_value_dtype_shares_plan_and_bounds_error(self):
        f64 = _matrix(seed=1)
        f32 = f64.with_value_dtype("float32")
        assert f32._get_plan() is f64._get_plan()
        err = np.max(np.abs(f32.to_dense() - f64.to_dense()))
        assert 0 < err < 1e-6  # float32 rounding, nothing worse

        i16 = f64.with_value_dtype("int16")
        assert i16._get_plan() is f64._get_plan()
        res = i16.fixed_point.resolution
        err = np.max(np.abs(i16.to_dense() - f64.to_dense()))
        assert err <= res / 2 + 1e-15

    def test_same_dtype_conversion_aliases(self):
        f64 = _matrix(seed=2)
        again = f64.with_value_dtype("float64")
        assert np.shares_memory(again.data, f64.data)

    def test_round_trip_int16_is_exact(self):
        i16 = _matrix("int16", seed=4, fixed_point=FixedPointFormat(16, 14))
        back = i16.with_value_dtype("float64").with_value_dtype(
            "int16", fixed_point=i16.fixed_point
        )
        np.testing.assert_array_equal(back.data, i16.data)

    def test_shards_and_like_propagate_dtype_and_alias(self):
        for vd in ("float32", "int16"):
            parent = _matrix(vd, shape=(32, 16), seed=5)
            with sanitize():  # verifies shard aliasing at reduced precision
                shards = parent.row_shards(4)
            for shard in shards:
                assert shard.value_dtype == vd
                assert shard.fixed_point == parent.fixed_point
                assert np.shares_memory(shard.data, parent.data)
            sib = parent.like(parent.data)
            assert sib.value_dtype == vd
            assert sib.fixed_point == parent.fixed_point

    def test_transpose_preserves_dtype(self):
        mat = _matrix("float32", seed=6)
        assert mat.transpose().value_dtype == "float32"
        i16 = _matrix("int16", seed=6)
        t = i16.transpose()
        assert t.value_dtype == "int16"
        assert t.fixed_point == i16.fixed_point


class TestProductDtypes:
    def test_products_run_in_compute_dtype(self):
        rng = np.random.default_rng(0)
        for vd, expected in (
            ("float64", np.float64),
            ("float32", np.float32),
            ("int16", np.float64),
        ):
            mat = _matrix(vd, shape=(23, 17), p=4, seed=8)
            x = rng.normal(size=(5, 17))
            dy = rng.normal(size=(5, 23))
            assert mat.matmat(x).dtype == expected, vd
            assert mat.rmatmat(dy).dtype == expected, vd
            assert mat.grad_data(x, dy).dtype == expected, vd
            assert mat.matvec(x[0]).dtype == expected, vd
            assert mat.rmatvec(dy[0]).dtype == expected, vd

    def test_int16_products_match_dequantized_float64_bitwise(self):
        i16 = _matrix("int16", shape=(24, 16), seed=9)
        ref = i16.with_value_dtype("float64")
        x = np.random.default_rng(1).normal(size=(6, 16))
        np.testing.assert_array_equal(i16.matmat(x), ref.matmat(x))


def _from_q(matrix, q=None, **tags):
    return BlockPermutedDiagonalMatrix.from_q(
        matrix.to_q() if q is None else q,
        matrix.shape,
        matrix.p,
        matrix.ks,
        **tags,
    )


class TestDecoding:
    def test_from_q_keeps_int16_codes_and_format(self):
        i16 = _matrix("int16", seed=10, fixed_point=FixedPointFormat(16, 13))
        restored = _from_q(
            i16, value_dtype="int16", fixed_point=i16.fixed_point
        )
        assert restored.value_dtype == "int16"
        assert restored.fixed_point == i16.fixed_point
        assert restored.data.dtype == np.int16
        np.testing.assert_array_equal(restored.data, i16.data)
        x = np.random.default_rng(10).normal(size=(3, 16))
        np.testing.assert_array_equal(restored.matmat(x), i16.matmat(x))

    def test_from_q_aliases_values_in_the_storage_dtype(self):
        f32 = _matrix("float32", shape=(23, 17), seed=11)
        q = f32.to_q()
        restored = _from_q(f32, q, value_dtype="float32")
        assert restored.value_dtype == "float32"
        assert np.shares_memory(restored.data, q)

    def test_explicit_value_dtype_overrides_stored_dtype(self):
        i16 = _matrix("int16", seed=13)
        restored = _from_q(
            i16,
            np.asarray(i16._kernel_data(), dtype=np.float64).reshape(-1),
            value_dtype="float64",
        )
        assert restored.value_dtype == "float64"
        assert restored.fixed_point is None
        x = np.random.default_rng(13).normal(size=(3, 16))
        np.testing.assert_array_equal(restored.matmat(x), i16.matmat(x))


def test_storage_dtype_mapping():
    assert storage_dtype("float64") == np.float64
    assert storage_dtype("float32") == np.float32
    assert storage_dtype("int16") == np.int16
