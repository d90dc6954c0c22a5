"""Optional numba JIT backend, auto-detected at import.

When numba is installed, the products run as parallel (``prange`` over
block rows/columns) scalar loops compiled to native code: no ``nnz x B``
gather temporaries are materialized at all, which is the win over the
numpy-side gathers for large layers.  When numba is missing the backend
registers as unavailable and selecting it raises
:class:`~repro.core.backends.base.BackendUnavailableError` -- nothing in
this module hard-requires the dependency.

The kernels index padded buffers (``mb*p`` / ``nb*p`` wide) so the modulo
column arithmetic never goes out of bounds; the python wrappers add the
zero padding only for non-multiple-of-``p`` shapes.

Every buffer the wrappers allocate carries an explicit dtype derived from
the operands (the JIT specializes per dtype): a dtype-less ``np.zeros``
here used to silently upcast float32 inputs to float64, materializing a
double-width temporary even on the "aligned no-copy" path.  The
``grad_data`` accumulator is float64 by construction (``acc = 0.0``)
regardless of operand dtype, narrowing only on the final store.
"""

from __future__ import annotations

import numpy as np

from repro.core.backends.base import KernelBackend

try:  # pragma: no cover - exercised only where numba is installed
    import numba as _numba
except ImportError:  # pragma: no cover
    _numba = None

__all__ = ["NumbaBackend"]


if _numba is not None:  # pragma: no cover - compiled path needs numba

    @_numba.njit(parallel=True, fastmath=True, cache=True)
    def _matmat_kernel(data, cols, x_pad, out_pad):
        mb, nb, p = data.shape
        batch = x_pad.shape[0]
        for bi in _numba.prange(mb):
            base = bi * p
            for b in range(batch):
                for bj in range(nb):
                    for c in range(p):
                        out_pad[b, base + c] += (
                            data[bi, bj, c] * x_pad[b, cols[bi, bj, c]]
                        )

    @_numba.njit(parallel=True, fastmath=True, cache=True)
    def _rmatmat_kernel(data_flat, t_src, t_cols, y_pad, out_pad):
        nb, mb, p = t_src.shape
        batch = y_pad.shape[0]
        for bj in _numba.prange(nb):
            base = bj * p
            for b in range(batch):
                for bi in range(mb):
                    for c in range(p):
                        out_pad[b, base + c] += (
                            data_flat[t_src[bj, bi, c]]
                            * y_pad[b, t_cols[bj, bi, c]]
                        )

    @_numba.njit(parallel=True, fastmath=True, cache=True)
    def _grad_kernel(cols, x_pad, dy_pad, grad):
        mb, nb, p = grad.shape
        batch = x_pad.shape[0]
        for bi in _numba.prange(mb):
            base = bi * p
            for bj in range(nb):
                for c in range(p):
                    acc = 0.0
                    for b in range(batch):
                        acc += dy_pad[b, base + c] * x_pad[b, cols[bi, bj, c]]
                    grad[bi, bj, c] = acc


def _padded(arr: np.ndarray, width: int) -> np.ndarray:
    """``arr`` widened with zero columns to ``width`` (no copy if aligned).

    The pad inherits ``arr``'s dtype: a float32 operand must never
    materialize a float64 temporary here (the silent-upcast bug RPR009
    now guards against).
    """
    if arr.shape[1] == width:
        return np.ascontiguousarray(arr)
    pad = np.zeros((arr.shape[0], width), dtype=arr.dtype)
    pad[:, : arr.shape[1]] = arr
    return pad


class NumbaBackend(KernelBackend):
    """JIT-compiled scalar loops over the cached index plan."""

    name = "numba"

    @classmethod
    def is_available(cls) -> bool:
        return _numba is not None

    def matmat(self, matrix, x: np.ndarray) -> np.ndarray:
        plan = matrix._get_plan()
        data = matrix._kernel_data()
        out = np.zeros(
            (x.shape[0], matrix.mb * matrix.p),
            dtype=np.result_type(data, x),
        )
        _matmat_kernel(
            data, plan.cols, _padded(x, matrix.nb * matrix.p), out
        )
        return out[:, : matrix.shape[0]]

    def rmatmat(self, matrix, y: np.ndarray) -> np.ndarray:
        plan = matrix._get_plan()
        t_src, t_cols = plan.transpose_arrays()
        data_flat = matrix._kernel_data().ravel()
        out = np.zeros(
            (y.shape[0], matrix.nb * matrix.p),
            dtype=np.result_type(data_flat, y),
        )
        _rmatmat_kernel(
            data_flat, t_src, t_cols,
            _padded(y, matrix.mb * matrix.p), out,
        )
        return out[:, : matrix.shape[1]]

    def grad_data(self, matrix, x: np.ndarray, dy: np.ndarray) -> np.ndarray:
        plan = matrix._get_plan()
        # Gradient w.r.t. the logical weights, in the operands' compute
        # dtype -- never the storage dtype (int16 codes cannot hold one).
        grad = np.empty(matrix.data.shape, dtype=np.result_type(x, dy))
        _grad_kernel(
            plan.cols,
            _padded(x, matrix.nb * matrix.p),
            _padded(dy, matrix.mb * matrix.p),
            grad,
        )
        if plan.full_support:
            return grad
        return grad * plan.support
