"""The block-PD product kernel: scipy CSR products and the weight gradient.

:class:`~repro.core.block_perm_diag.BlockPermutedDiagonalMatrix` calls
these functions directly for the three products every training step pays
-- :func:`matmat` (forward), :func:`rmatmat` (input gradient) and
:func:`batched_grad_data` (weight gradient) -- plus the single-vector
:func:`matvec` and :func:`rmatvec`.

The CSR skeleton (``indptr``/``indices``) comes from the index plan and is
stored in int32 whenever the matrix dimensions permit -- scipy's sparsetools
native index type -- which halves the index traffic of every spmm against
an int64 skeleton.  Only the ``nnz`` value buffer is refreshed per call (a
single plan-ordered gather, dequantizing int16 codes on the fly; see
``BlockPermutedDiagonalMatrix._csr``), so in-place weight updates are
always reflected without rebuilding structure.  The value buffer lives in
the matrix's compute dtype: float32 storage runs scipy's float32 spmm end
to end (half the memory traffic), everything else the float64 reference
arithmetic.

The weight gradient reuses the same column skeleton through a batched
contraction (:func:`batched_grad_data`): sparse storage buys nothing there
because the output is exactly the dense ``(mb, nb, p)`` value array.

Contract: every function receives operands of the correct shape, already
cast to the matrix's compute dtype
(:attr:`~repro.core.block_perm_diag.BlockPermutedDiagonalMatrix.compute_dtype`),
and may index them without re-checking; input validation stays on the
matrix.  All per-matrix state (the cached index plan, the refreshed CSR
value buffers) lives on the matrix, never here.  Weight values are read
through ``matrix._kernel_data()`` or the CSR value refresh, never
``matrix.data``, which may hold int16 fixed-point codes.  Every
temporary or output buffer is allocated with an explicit dtype derived
from the operands: a dtype-less ``np.zeros`` / ``np.empty`` silently
upcasts float32 products to float64, and repro-lint rule RPR009 bans it
in this module.
"""

from __future__ import annotations

import numpy as np

__all__ = ["batched_grad_data", "matmat", "matvec", "rmatmat", "rmatvec"]

# Below this many gathered float64 elements the weight gradient runs as
# one gather; above it, the cache-blocked transposed path wins.
_ONESHOT_LIMIT_ELEMENTS = 1 << 20

# Target size (in gathered float64 elements, ~0.5 MB) of one slab of the
# cache-blocked path; chosen so slab + einsum output stay cache resident
# (measured fastest across 512..4096-wide layers, see docs/BENCHMARKS.md).
_CHUNK_TARGET_ELEMENTS = 1 << 16


def matmat(matrix, x: np.ndarray) -> np.ndarray:
    """Forward ``Y[b] = W @ X[b]`` for ``X`` of shape ``(B, n)``."""
    return np.ascontiguousarray(matrix._csr(False).dot(x.T).T)


def rmatmat(matrix, y: np.ndarray) -> np.ndarray:
    """Transposed ``X[b] = W.T @ Y[b]`` for ``Y`` of shape ``(B, m)``."""
    return np.ascontiguousarray(matrix._csr(True).dot(y.T).T)


def matvec(matrix, x: np.ndarray) -> np.ndarray:
    """``W @ x`` for one input vector."""
    return matrix._csr(False) @ x


def rmatvec(matrix, y: np.ndarray) -> np.ndarray:
    """``W.T @ y`` for one output-gradient vector."""
    return matrix._csr(True) @ y


def _chunk_rows(block_rows: int, per_row: int) -> int:
    """Block rows per chunk so one gathered slab stays cache resident."""
    return max(1, min(block_rows, _CHUNK_TARGET_ELEMENTS // max(per_row, 1)))


def _pad_columns_t(arr_t: np.ndarray, width: int) -> np.ndarray:
    """Transposed operand widened with zero rows (no copy when aligned).

    Allocated at the operand's own dtype: a dtype-less ``np.zeros`` here
    would silently upcast every float32 product to float64 (RPR009).
    """
    if arr_t.shape[0] == width:
        return arr_t
    pad = np.zeros((width, arr_t.shape[1]), dtype=arr_t.dtype)
    pad[: arr_t.shape[0]] = arr_t
    return pad


def batched_grad_data(matrix, x: np.ndarray, dy: np.ndarray) -> np.ndarray:
    """Weight gradient for a whole batch off the shared column skeleton.

    ``dq[bi, bj, c] = sum_b dy[b, bi*p+c] * x[b, col(bi, bj, c)]`` (Eqn.
    (2)).  Transposed, cache-blocked gathers of ``x`` against
    ``plan.cols`` serve the entire batch; the ``dy`` factor never needs
    gathering because in block order its rows are exactly ``dy.T``
    reshaped to ``(mb, p, B)`` and broadcast over ``nb`` -- that broadcast
    plus the chunked gather is what makes this batched formulation several
    times cheaper than per-sample (or one-shot ``nnz x B``) gathers.
    """
    plan = matrix._get_plan()
    batch = x.shape[0]
    # Transposed orientation: gathers read contiguous (batch,)-rows of
    # ``x.T`` instead of strided columns of ``x``.
    x_t = _pad_columns_t(np.ascontiguousarray(x.T), matrix.nb * matrix.p)
    dy_t = _pad_columns_t(np.ascontiguousarray(dy.T), matrix.mb * matrix.p)
    dy_blocks = dy_t.reshape(matrix.mb, matrix.p, batch)
    if batch * plan.cols.size <= _ONESHOT_LIMIT_ELEMENTS:
        gathered = x_t[plan.flat_cols].reshape(
            matrix.mb, matrix.nb, matrix.p, batch
        )
        grad = np.einsum("icb,ijcb->ijc", dy_blocks, gathered)
    else:
        rows = _chunk_rows(matrix.mb, matrix.nb * matrix.p * batch)
        # The gradient is w.r.t. the *logical* weights, in the compute
        # dtype of the operands -- never the storage dtype (which may be
        # int16 codes that could not hold a gradient at all).
        grad = np.empty(
            matrix.data.shape, dtype=np.result_type(x_t, dy_t)
        )
        for start in range(0, matrix.mb, rows):
            stop = min(start + rows, matrix.mb)
            gathered = x_t[plan.cols[start:stop].reshape(-1)].reshape(
                stop - start, matrix.nb, matrix.p, batch
            )
            grad[start:stop] = np.einsum(
                "icb,ijcb->ijc", dy_blocks[start:stop], gathered
            )
    if plan.full_support:
        return grad
    return grad * plan.support
