"""Numba backend dtype regressions (the silent float32->float64 upcast).

``_padded`` is plain python and testable everywhere; the JIT product
tests run only where numba is installed (the CI numba leg).
"""

import numpy as np
import pytest

from repro.core import BlockPermutedDiagonalMatrix, set_default_backend
from repro.core.backends.numba_backend import NumbaBackend, _padded


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_padded_preserves_dtype(dtype):
    # Regression: the pad used to be a dtype-less np.zeros, silently
    # materializing a float64 temporary for every float32 operand.
    arr = np.ones((3, 5), dtype=dtype)
    pad = _padded(arr, 8)
    assert pad.dtype == dtype
    assert pad.shape == (3, 8)
    np.testing.assert_array_equal(pad[:, :5], arr)
    np.testing.assert_array_equal(pad[:, 5:], 0)


def test_padded_aligned_is_no_copy():
    arr = np.ones((2, 4), dtype=np.float32)
    assert _padded(arr, 4) is arr  # contiguous + aligned: same object


@pytest.mark.skipif(not NumbaBackend.is_available(), reason="numba not installed")
class TestNumbaProductsPreserveFloat32:
    def _case(self, shape=(23, 17), p=4):
        set_default_backend("numba")
        mat = BlockPermutedDiagonalMatrix.random(
            shape, p, rng=0, value_dtype="float32"
        )
        rng = np.random.default_rng(1)
        x = rng.normal(size=(5, shape[1])).astype(np.float32)
        dy = rng.normal(size=(5, shape[0])).astype(np.float32)
        return mat, x, dy

    def test_no_float64_materializes_for_float32_inputs(self, monkeypatch):
        mat, x, dy = self._case()
        # Warm the index plan (int64 arrays) and JIT compilation outside
        # the observation window: only steady-state allocations count.
        mat.matmat(x), mat.rmatmat(dy), mat.grad_data(x, dy)
        allocated: list[np.dtype] = []
        real_zeros, real_empty = np.zeros, np.empty

        def spy(real):
            def wrapper(*args, **kwargs):
                out = real(*args, **kwargs)
                allocated.append(out.dtype)
                return out

            return wrapper

        monkeypatch.setattr(np, "zeros", spy(real_zeros))
        monkeypatch.setattr(np, "empty", spy(real_empty))
        mat.matmat(x)
        mat.rmatmat(dy)
        mat.grad_data(x, dy)
        assert allocated, "expected the wrappers to observe allocations"
        assert all(dt == np.float32 for dt in allocated), allocated

    def test_results_match_csr_reference(self):
        mat, x, dy = self._case()
        ref = mat.with_value_dtype("float32")
        forward, backward = mat.matmat(x), mat.rmatmat(dy)
        grad = mat.grad_data(x, dy)
        set_default_backend("csr")
        np.testing.assert_allclose(
            forward, ref.matmat(x), rtol=1e-5, atol=1e-5
        )
        np.testing.assert_allclose(
            backward, ref.rmatmat(dy), rtol=1e-5, atol=1e-5
        )
        assert forward.dtype == np.float32
        assert backward.dtype == np.float32
        assert grad.dtype == np.float32
