"""The block-PD product kernel: CSR products and permuted block-diagonal GEMMs.

:class:`~repro.core.block_perm_diag.BlockPermutedDiagonalMatrix` calls
these functions directly for the three products every training step pays
-- :func:`matmat` (forward), :func:`rmatmat` (input gradient) and
:func:`batched_grad_data` (weight gradient).  Its ``matvec`` and
``rmatvec`` are the one-row :func:`matmat` and :func:`rmatmat`, so each
direction has one entry point.

The values are stored row by row, ``(mb, p, nb)``: viewed as
``(mb*p, nb)``, row ``r`` holds the ``nb`` non-zeros of padded weight row
``r`` in ascending column.  Every product reads them where they are
stored.

Permuted block-diagonal (PBD) form: when a matrix's ``ks`` are additive
(``ks[bi, bj] == (a[bi] + b[bj]) % p``, as natural indexing's are),
relabelling rows and columns by class turns it into ``p`` dense
``mb x nb`` blocks
(:meth:`~repro.core.block_perm_diag._IndexPlan.pbd_index`).  Class ``s``
holds one weight row per block row, in class column order, so its block
is a take of whole stored rows, ``values.reshape(-1, nb)[index.rows[s]]``;
nothing is relaid out.

Forward: fixed-tile PBD GEMMs on an additive matrix whose padded input
width ``nb*p`` is at least ``_PBD_MIN_WIDTH``, the scipy CSR product
otherwise.  The choice reads only the structure, never the batch, and a
row shard inherits it from its whole matrix (a shard plan slices its
parent's PBD index), so a request takes one path whatever its batch or
shard.  On the PBD path the batch is zero-padded to a multiple of
``_BATCH_TILE`` rows and the blocks to a multiple of ``_ROW_TILE`` block
rows, taken one chunk of ``_ROW_TILE`` block rows at a time so the
temporaries stay small, and every GEMM is one ``(T x nb) . (nb x R)``
product of one class, one batch tile and one row tile.  Every output is
therefore computed by a GEMM of one shape from the same two vectors,
whichever batch, tile position or row shard it falls in, and its bits
depend on neither; a GEMM over a whole batch or a whole shard changes
them.  The GEMMs sum in another order than the sparse product, so
PBD-path outputs differ from the CSR product in the last bits.  The CSR
view (``BlockPermutedDiagonalMatrix._csr``) is the stored values and the
index plan's own slot columns -- int32 whenever ``mb*p*nb`` permits,
scipy's native index type -- with a constant-stride ``indptr`` over the
padded ``(mb*p, nb*p)`` shape, read in place (int16 codes are dequantized
per call).  It multiplies the zero-padded transposed operand and the
padded output rows are sliced off.  Each stored row lists its non-zeros
in ascending column, and a padding slot adds an exact ``+0`` (zero
weight times zero operand) or lands in a sliced-off row, so each output
accumulates in ascending column, whatever its batch.  Below the width
crossover the padded tiles cost more than the sparse product saves
(sweep in docs/BENCHMARKS.md).  float32 storage runs float32 products
end to end (half the memory traffic), everything else the float64
reference arithmetic.

Backward: PBD GEMMs whenever ``ks`` are additive, whatever the width,
the CSR view's transpose (a CSC view over the same arrays) and a gather
otherwise.  The input gradient is one stacked ``np.matmul`` of the
``(B x mb)`` class slices of ``dy`` against the blocks, and the weight
gradient one of ``(mb x B)`` against ``(B x nb)``, written back as whole
rows of a ``(mb*p, nb)`` buffer.  Operands are gathered into class order
in the transposed orientation (contiguous ``(B,)`` rows).  On additive
matrices backward results differ from the CSR path in the last bits;
repeated calls are bit-identical.  Without additive ``ks`` each ``W.T``
row (a CSC column) lists its non-zeros in ascending original row, and
the weight gradient gathers against the plan's columns through a batched
contraction (:func:`batched_grad_data`): sparse storage buys nothing
there because the output is exactly the dense ``(mb, p, nb)`` value
array.

Contract: every function receives operands of the correct shape, already
cast to the matrix's compute dtype
(:attr:`~repro.core.block_perm_diag.BlockPermutedDiagonalMatrix.compute_dtype`),
and may index them without re-checking; input validation stays on the
matrix.  All per-matrix state (the cached index plan, the CSR views)
lives on the matrix, never here.  Weight values are read through
``matrix._kernel_data()`` (which the CSR views also read), never
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

# Padded input width ``nb*p`` from which an additive matrix's forward runs
# as PBD GEMMs; narrower ones stay on the CSR product (crossover sweep in
# docs/BENCHMARKS.md).
_PBD_MIN_WIDTH = 1024
# Batch rows ``T`` and block rows ``R`` of every PBD forward GEMM; ``R``
# is also the row take's chunk.  Fixed, so a product's bits never depend
# on its batch or its row shard.
_BATCH_TILE = 16
_ROW_TILE = 16


def matmat(matrix, x: np.ndarray) -> np.ndarray:
    """Forward ``Y[b] = W @ X[b]`` for ``X`` of shape ``(B, n)``."""
    width = matrix.nb * matrix.p
    index = (
        matrix._get_plan().pbd_index() if width >= _PBD_MIN_WIDTH else None
    )
    if index is not None:
        return _pbd_matmat(matrix, index, x)
    out = matrix._csr(False) @ _padded_t(x, width)
    return np.ascontiguousarray(out[: matrix.shape[0]].T)


def _pbd_matmat(matrix, index, x: np.ndarray) -> np.ndarray:
    """The forward as ``(T x nb) . (nb x R)`` GEMMs, one per class, batch
    tile and row tile.

    ``x`` is zero-padded to whole batch tiles and gathered into class
    order, ``(p, B/T, T, nb)``; each chunk of ``R`` block rows takes its
    ``(p, R, nb)`` class blocks as whole stored rows (zero-padded to
    ``R`` rows in a short last chunk) and multiplies every tile in one
    stacked ``np.matmul``.  Row ``bi`` of class ``s`` is output row
    ``index.rows[s, bi]``.
    """
    p, mb, nb = matrix.p, matrix.mb, matrix.nb
    batch = x.shape[0]
    padded = -(-batch // _BATCH_TILE) * _BATCH_TILE
    x_pad = np.zeros((padded, nb * p), dtype=x.dtype)
    x_pad[:batch, : x.shape[1]] = x
    tiles = np.take(x_pad, index.cols, axis=1).transpose(1, 0, 2).reshape(
        p, padded // _BATCH_TILE, _BATCH_TILE, nb
    )
    rows = matrix._kernel_data().reshape(-1, nb)
    dtype = np.result_type(x, rows)
    out = np.empty(tiles.shape[:3] + (_ROW_TILE,), dtype=dtype)
    y = np.zeros((batch, mb * p), dtype=dtype)
    for start in range(0, mb, _ROW_TILE):
        stop = min(start + _ROW_TILE, mb)
        blocks = np.take(rows, index.rows[:, start:stop], axis=0)
        if stop - start < _ROW_TILE:
            pad = _ROW_TILE + start - stop
            blocks = np.pad(blocks, ((0, 0), (0, pad), (0, 0)))
        np.matmul(tiles, blocks.transpose(0, 2, 1)[:, None], out=out)
        chunk = out.reshape(p, padded, _ROW_TILE)[:, :batch, : stop - start]
        y[:, index.rows[:, start:stop]] = chunk.transpose(1, 0, 2)
    return np.ascontiguousarray(y[:, : matrix.shape[0]])


def rmatmat(matrix, y: np.ndarray) -> np.ndarray:
    """Transposed ``X[b] = W.T @ Y[b]`` for ``Y`` of shape ``(B, m)``.

    On additive ``ks``: class ``s`` of ``dy`` (its ``(mb, B)`` rows in
    the transposed orientation) times block ``D_s``, stacked over the
    ``p`` classes in one ``np.matmul``, then scattered back to column
    order.  Otherwise the CSC product over ``W.T``.
    """
    index = matrix._get_plan().pbd_index()
    y_t = _padded_t(y, matrix.mb * matrix.p)
    if index is None:
        out = matrix._csr(True) @ y_t
        return np.ascontiguousarray(out[: matrix.shape[1]].T)
    rows = matrix._kernel_data().reshape(-1, matrix.nb)
    blocks = np.take(rows, index.rows, axis=0)
    out_t = np.matmul(blocks.transpose(0, 2, 1), y_t[index.rows])
    x_t = np.empty((matrix.nb * matrix.p, y.shape[0]), dtype=out_t.dtype)
    x_t[index.cols] = out_t  # cols is a permutation: every row is written
    return np.ascontiguousarray(x_t[: matrix.shape[1]].T)


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

    ``dq[bi, c, bj] = sum_b dy[b, bi*p+c] * x[b, col(bi, c, bj)]`` (Eqn.
    (2)).  On additive ``ks`` that is, per class ``s``, the ``(mb x B)``
    class slice of ``dy`` times the ``(B x nb)`` one of ``x``: one
    stacked ``np.matmul`` whose ``(p, mb, nb)`` result lands as whole
    weight rows, ``grad[index.rows] = blocks``.  Otherwise, transposed,
    cache-blocked gathers of ``x`` against ``plan.cols`` serve the entire
    batch; the ``dy`` factor never needs gathering because in row order
    its rows are exactly ``dy.T`` reshaped to ``(mb, p, B)`` and
    broadcast over ``nb`` -- that broadcast plus the chunked gather is
    what makes this batched formulation several times cheaper than
    per-sample gathers.  Each slab's einsum sums over the batch only, so
    the slab size never changes a bit of the result.  Either way, slots
    outside the logical shape get zero gradient for finite inputs: their
    row of ``dy`` or column of ``x`` is zero padding, so every term of
    their sum is zero.
    """
    plan = matrix._get_plan()
    mb, p, nb = matrix.mb, matrix.p, matrix.nb
    batch = x.shape[0]
    # Transposed orientation: gathers read contiguous (batch,)-rows of
    # ``x.T`` instead of strided columns of ``x``.
    x_t = _padded_t(x, nb * p)
    dy_t = _padded_t(dy, mb * p)
    # The gradient is w.r.t. the *logical* weights, in the compute dtype
    # of the operands -- never the storage dtype (which may be int16
    # codes that could not hold a gradient at all).
    dtype = np.result_type(x_t, dy_t)
    index = plan.pbd_index()
    if index is not None:
        blocks = np.matmul(
            dy_t[index.rows], x_t[index.cols].transpose(0, 2, 1)
        )
        grad = np.empty((mb * p, nb), dtype=dtype)
        grad[index.rows] = blocks  # rows is a permutation: all rows written
        return grad.reshape(mb, p, nb)
    dy_blocks = dy_t.reshape(mb, p, batch)
    rows = _chunk_rows(mb, nb * p * batch)
    grad = np.empty((mb, p, nb), dtype=dtype)
    # One gather buffer for every slab: a fresh ~0.5 MB slab per
    # iteration is an mmap plus page faults each time under glibc.
    # ``mode="clip"`` writes straight into ``out`` (the default
    # "raise" buffers it); the plan's columns are in range by
    # construction, so nothing is clipped.  np.zeros, not np.empty:
    # a short last slab fills only part of it.
    buf = np.zeros((rows * nb * p, batch), dtype=x_t.dtype)
    for start in range(0, mb, rows):
        stop = min(start + rows, mb)
        idx = plan.cols[start:stop].reshape(-1)
        gathered = buf[: idx.size]
        np.take(x_t, idx, axis=0, out=gathered, mode="clip")
        grad[start:stop] = np.einsum(
            "icb,icjb->icj",
            dy_blocks[start:stop],
            gathered.reshape(stop - start, p, nb, batch),
        )
    return grad
