"""The block-PD product kernel: COO products and permuted block-diagonal GEMMs.

:class:`~repro.core.block_perm_diag.BlockPermutedDiagonalMatrix` calls
these functions directly for the three products every training step pays
-- :func:`matmat` (forward), :func:`rmatmat` (input gradient) and
:func:`batched_grad_data` (weight gradient).  Its ``matvec`` and
``rmatvec`` are the one-row :func:`matmat` and :func:`rmatmat`, so each
direction has one entry point.

Forward: a scipy COO product, on every matrix.  The view
(``BlockPermutedDiagonalMatrix._coo``) is the index plan's own slot
coordinates -- int32 whenever the padded dimensions permit, scipy's
native index type -- over the padded ``(mb*p, nb*p)`` shape, with the
stored values as its data, read in place (int16 codes are dequantized
per call).  It multiplies the zero-padded transposed operand and the
padded output rows are sliced off.  No other index layout is derived and
no value is gathered per call, so in-place weight updates are always
reflected without rebuilding structure.  Storage order ``(bi, bj, c)``
lists every row's non-zeros in ascending column order, and a padding
slot adds an exact ``+0`` (zero weight times zero operand) or lands in a
sliced-off row, so each output accumulates exactly as a sorted CSR row
would.  float32 storage runs scipy's float32 product end to end (half the
memory traffic), everything else the float64 reference arithmetic.
Served outputs, shard and thread bit-identity and every engine counter
rest on this one forward.

Backward: permuted block-diagonal (PBD) GEMMs when the matrix's ``ks``
are additive (``ks[bi, bj] == (a[bi] + b[bj]) % p``, as natural
indexing's are), the COO product over ``W.T`` and a gather otherwise.
Relabelling rows and columns by class turns an additive matrix into
``p`` dense ``mb x nb`` blocks
(:meth:`~repro.core.block_perm_diag._IndexPlan.pbd_index`), so the input
gradient is one stacked ``np.matmul`` of the ``(B x mb)`` class slices of
``dy`` against the blocks, and the weight gradient one of ``(mb x B)``
against ``(B x nb)``.  Operands are gathered into class order in the
transposed orientation (contiguous ``(B,)`` rows), and the blocks are a
``(p, mb, nb)`` relayout of the values, redone on every call because
training writes the values every step.  The GEMMs sum in another order
than the sparse product, so on additive matrices backward results differ
from the COO path in the last bits; repeated calls are bit-identical.
The forward stays sparse: a served request's bits must not depend on its
batch or its row shard, and one GEMM per class over either changes them.
Without additive ``ks`` the ``W.T`` view is the forward's coordinates
swapped -- in storage order each ``W.T`` row lists its non-zeros in
ascending original row -- and the weight gradient gathers against the
plan's columns through a batched contraction (:func:`batched_grad_data`):
sparse storage buys nothing there because the output is exactly the
dense ``(mb, nb, p)`` value array.

Contract: every function receives operands of the correct shape, already
cast to the matrix's compute dtype
(:attr:`~repro.core.block_perm_diag.BlockPermutedDiagonalMatrix.compute_dtype`),
and may index them without re-checking; input validation stays on the
matrix.  All per-matrix state (the cached index plan, the COO views)
lives on the matrix, never here.  Weight values are read through
``matrix._kernel_data()`` (which the COO views also read), never
``matrix.data``, which may hold int16 fixed-point codes.  Every
temporary or output buffer is allocated with an explicit dtype derived
from the operands: a dtype-less ``np.zeros`` / ``np.empty`` silently
upcasts float32 products to float64, and repro-lint rule RPR009 bans it
in this module.
"""

from __future__ import annotations

import numpy as np

__all__ = ["batched_grad_data", "matmat", "rmatmat"]

# Target size (in gathered float64 elements, ~0.5 MB) of one slab of the
# cache-blocked path; chosen so slab + einsum output stay cache resident
# (measured fastest across 512..4096-wide layers, see docs/BENCHMARKS.md).
_CHUNK_TARGET_ELEMENTS = 1 << 16


def matmat(matrix, x: np.ndarray) -> np.ndarray:
    """Forward ``Y[b] = W @ X[b]`` for ``X`` of shape ``(B, n)``."""
    out = matrix._coo(False) @ _padded_t(x, matrix.nb * matrix.p)
    return np.ascontiguousarray(out[: matrix.shape[0]].T)


def rmatmat(matrix, y: np.ndarray) -> np.ndarray:
    """Transposed ``X[b] = W.T @ Y[b]`` for ``Y`` of shape ``(B, m)``.

    On additive ``ks``: class ``s`` of ``dy`` (its ``(mb, B)`` rows in
    the transposed orientation) times block ``D_s``, stacked over the
    ``p`` classes in one ``np.matmul``, then scattered back to column
    order.  Otherwise the COO product over ``W.T``.
    """
    index = matrix._get_plan().pbd_index()
    y_t = _padded_t(y, matrix.mb * matrix.p)
    if index is None:
        out = matrix._coo(True) @ y_t
        return np.ascontiguousarray(out[: matrix.shape[1]].T)
    blocks = _pbd_blocks(matrix, index)
    out_t = np.matmul(blocks.transpose(0, 2, 1), y_t[index.rows])
    x_t = np.empty((matrix.nb * matrix.p, y.shape[0]), dtype=out_t.dtype)
    x_t[index.cols] = out_t  # cols is a permutation: every row is written
    return np.ascontiguousarray(x_t[: matrix.shape[1]].T)


def _pbd_blocks(matrix, index) -> np.ndarray:
    """The ``p`` dense class blocks ``D_s`` of an additive matrix, as one
    ``(p, mb, nb)`` array in the compute dtype."""
    return matrix._kernel_data()[index.block_rows, :, index.row_offsets]


def _chunk_rows(block_rows: int, per_row: int) -> int:
    """Block rows per chunk so one gathered slab stays cache resident."""
    return max(1, min(block_rows, _CHUNK_TARGET_ELEMENTS // max(per_row, 1)))


def _padded_t(arr: np.ndarray, width: int) -> np.ndarray:
    """``arr.T``, C-contiguous, widened with zero rows to ``width``.

    One copy either way: the transposing copy on aligned axes, the
    zero-padded buffer otherwise.  Allocated at the operand's own dtype:
    a dtype-less ``np.zeros`` here would silently upcast every float32
    product to float64 (RPR009).
    """
    if arr.shape[1] == width:
        return np.ascontiguousarray(arr.T)
    pad = np.zeros((width, arr.shape[0]), dtype=arr.dtype)
    pad[: arr.shape[1]] = arr.T
    return pad


def batched_grad_data(matrix, x: np.ndarray, dy: np.ndarray) -> np.ndarray:
    """Weight gradient for a whole batch.

    ``dq[bi, bj, c] = sum_b dy[b, bi*p+c] * x[b, col(bi, bj, c)]`` (Eqn.
    (2)).  On additive ``ks`` that is, per class ``s``, the ``(mb x B)``
    class slice of ``dy`` times the ``(B x nb)`` one of ``x``: one
    stacked ``np.matmul`` whose ``(p, mb, nb)`` result scatters back to
    the value layout.  Otherwise, transposed, cache-blocked gathers of
    ``x`` against ``plan.cols`` serve the entire batch; the ``dy`` factor
    never needs gathering because in block order its rows are exactly
    ``dy.T`` reshaped to ``(mb, p, B)`` and broadcast over ``nb`` -- that
    broadcast plus the chunked gather is what makes this batched
    formulation several times cheaper than per-sample gathers.  Each
    slab's einsum sums over the batch only, so the slab size never
    changes a bit of the result.  Either way, slots outside the logical
    shape get zero gradient for finite inputs: their row of ``dy`` or
    column of ``x`` is zero padding, so every term of their sum is zero.
    """
    plan = matrix._get_plan()
    batch = x.shape[0]
    # Transposed orientation: gathers read contiguous (batch,)-rows of
    # ``x.T`` instead of strided columns of ``x``.
    x_t = _padded_t(x, matrix.nb * matrix.p)
    dy_t = _padded_t(dy, matrix.mb * matrix.p)
    dy_blocks = dy_t.reshape(matrix.mb, matrix.p, batch)
    # The gradient is w.r.t. the *logical* weights, in the compute dtype
    # of the operands -- never the storage dtype (which may be int16
    # codes that could not hold a gradient at all).
    dtype = np.result_type(x_t, dy_t)
    index = plan.pbd_index()
    if index is not None:
        blocks = np.matmul(
            dy_t[index.rows], x_t[index.cols].transpose(0, 2, 1)
        )
        grad = np.empty(matrix.data.shape, dtype=dtype)
        # Each (bi, c) is one class's row: the scatter writes every slot.
        grad[index.block_rows, :, index.row_offsets] = blocks
    else:
        rows = _chunk_rows(matrix.mb, matrix.nb * matrix.p * batch)
        grad = np.empty(matrix.data.shape, dtype=dtype)
        # One gather buffer for every slab: a fresh ~0.5 MB slab per
        # iteration is an mmap plus page faults each time under glibc.
        # ``mode="clip"`` writes straight into ``out`` (the default
        # "raise" buffers it); the plan's columns are in range by
        # construction, so nothing is clipped.  np.zeros, not np.empty:
        # a short last slab fills only part of it.
        buf = np.zeros((rows * matrix.nb * matrix.p, batch), dtype=x_t.dtype)
        for start in range(0, matrix.mb, rows):
            stop = min(start + rows, matrix.mb)
            idx = plan.cols[start:stop].reshape(-1)
            gathered = buf[: idx.size]
            np.take(x_t, idx, axis=0, out=gathered, mode="clip")
            grad[start:stop] = np.einsum(
                "icb,ijcb->ijc",
                dy_blocks[start:stop],
                gathered.reshape(stop - start, matrix.nb, matrix.p, batch),
            )
    return grad
