"""Execute PD convolution layers on the FC-targeted engine (Sec. III-C).

PermDNN's architecture targets FC layers, but the paper's algorithm
extends PD structure to CONV weight tensors (Fig. 2).  A convolution
lowers to matrix-vector products: for each output position, the engine
multiplies the *channel matrix* (c_out x c_in, block-PD) by the input
patch column -- ``kh*kw`` PD mat-vecs per position, accumulated.  This
module is the one home of that lowering, shared by :func:`run_conv_layer`
and the served conv stage (:class:`repro.serve.LoweredConvStage`).  It
preserves two properties the engine depends on:

- the per-position channel matrix **is** block-permuted diagonal (the PD
  plane is shared by all kernel offsets), so the modulo addressing and
  load balance carry over unchanged;
- zero input channels at a given offset are skipped per column, exactly
  like FC zero-skipping.

Every output position of one kernel offset streams through the engine as
one batch, so the pipeline fill is paid once per offset product: a
``kh x kw`` convolution costs ``kh*kw`` fills plus the compute and
writeback cycles of every lowered column.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core import BlockPermDiagTensor4D, BlockPermutedDiagonalMatrix
from repro.hw.engine import PermDNNEngine, apply_activation

__all__ = [
    "ConvSimulationResult",
    "accumulate_offsets",
    "conv_output_hw",
    "lower_columns",
    "offset_matrices",
    "run_conv_layer",
]


@dataclass
class ConvSimulationResult:
    """Aggregate of the lowered convolution execution.

    Attributes:
        output: output tensor ``(c_out, oh, ow)``.
        cycles: total cycles across all lowered mat-vecs.
        macs: total multiply-accumulates.
        nonzero_columns: input-channel columns processed.
        skipped_columns: input-channel columns skipped as zero.
        positions: output spatial positions executed.
    """

    output: np.ndarray
    cycles: int
    macs: int
    nonzero_columns: int
    skipped_columns: int
    positions: int


def offset_matrices(
    tensor: BlockPermDiagTensor4D,
    value_dtype: str | None = None,
    fixed_point=None,
) -> list[BlockPermutedDiagonalMatrix]:
    """One block-PD channel matrix per kernel offset ``(dy, dx)``.

    All ``kh*kw`` matrices share one structure ``(ks, channels, p)`` with
    the tensor's own channel plane, so the whole family rides the plane's
    already-built index plan via
    :meth:`BlockPermutedDiagonalMatrix.like` -- no per-lowering index
    arithmetic at all.  ``value_dtype`` (with an optional ``fixed_point``
    format) converts every offset matrix through
    :meth:`~repro.core.BlockPermutedDiagonalMatrix.with_value_dtype`,
    still sharing the one plan, so a reduced-precision serving copy of a
    conv layer lowers without touching the float64 training kernels.
    """
    kh, kw = tensor.kernel_size
    matrices = []
    for dy in range(kh):
        for dx in range(kw):
            # Contiguous copy: the strided kernel slice would otherwise be
            # re-raveled on every product of the simulation hot loop.
            data = np.ascontiguousarray(tensor.kernels[:, :, :, dy, dx])
            matrix = tensor.plane.like(data)
            if value_dtype is not None:
                matrix = matrix.with_value_dtype(
                    value_dtype, fixed_point=fixed_point
                )
            matrices.append(matrix)
    return matrices


def conv_output_hw(
    input_hw: tuple[int, int],
    kernel_size: tuple[int, int],
    stride: int,
    padding: int,
) -> tuple[int, int]:
    """Spatial output size of a convolution; rejects non-positive sizes."""
    oh, ow = (
        (size + 2 * padding - k) // stride + 1
        for size, k in zip(input_hw, kernel_size)
    )
    if oh <= 0 or ow <= 0:
        raise ValueError(f"non-positive conv output size for input {input_hw}")
    return oh, ow


def lower_columns(
    x: np.ndarray,
    kernel_size: tuple[int, int],
    stride: int,
    padding: int,
) -> list[np.ndarray]:
    """Lowered input columns of a ``(B, c_in, H, W)`` feature-map batch.

    Returns one ``(B*oh*ow, c_in)`` column batch per kernel offset, in
    offset order; row ``b*oh*ow + oy*ow + ox`` is the input patch column
    that offset multiplies for output position ``(oy, ox)`` of sample
    ``b``.  Columns keep ``x``'s dtype.
    """
    batch, c_in, height, width = x.shape
    kh, kw = kernel_size
    oh, ow = conv_output_hw((height, width), kernel_size, stride, padding)
    if padding:
        x = np.pad(
            x, ((0, 0), (0, 0), (padding, padding), (padding, padding))
        )
    columns = []
    for dy in range(kh):
        for dx in range(kw):
            patch = x[
                :,
                :,
                dy : dy + (oh - 1) * stride + 1 : stride,
                dx : dx + (ow - 1) * stride + 1 : stride,
            ]
            columns.append(
                np.ascontiguousarray(patch.transpose(0, 2, 3, 1)).reshape(
                    batch * oh * ow, c_in
                )
            )
    return columns


def accumulate_offsets(
    engine: PermDNNEngine,
    matrices: list[BlockPermutedDiagonalMatrix],
    columns: list[np.ndarray],
    activation: str | None = None,
    zero_skip: bool = True,
    enforce_capacity: bool = True,
) -> tuple[np.ndarray, int, int]:
    """Run every offset product on ``engine`` and sum them in offset order.

    Each ``(matrix, column batch)`` pair is one
    :meth:`~repro.hw.PermDNNEngine.run_fc_batch_detailed` call; the
    products accumulate in the fixed order of ``matrices``, so any row
    shard of the offset family reproduces its rows of the unsharded sum
    bit for bit.  The ActU mode applies after accumulation.

    Returns:
        ``(acc, cycles, macs)`` with ``acc`` of shape
        ``(rows of columns, rows of matrices)`` in the matrices' compute
        dtype.
    """
    acc = np.zeros(
        (columns[0].shape[0], matrices[0].shape[0]),
        dtype=matrices[0].compute_dtype,
    )
    cycles = macs = 0
    for matrix, cols in zip(matrices, columns):
        out, offset_cycles, offset_macs = engine.run_fc_batch_detailed(
            matrix, cols, zero_skip=zero_skip, enforce_capacity=enforce_capacity
        )
        acc += out
        cycles += offset_cycles
        macs += offset_macs
    return apply_activation(acc, activation), cycles, macs


def run_conv_layer(
    engine: PermDNNEngine,
    tensor: BlockPermDiagTensor4D,
    x: np.ndarray,
    stride: int = 1,
    padding: int = 0,
    enforce_capacity: bool = True,
    value_dtype: str | None = None,
    fixed_point=None,
) -> ConvSimulationResult:
    """Lower a PD convolution onto the FC engine and execute it.

    The single-input, single-engine case of the served conv stage: the
    same offset matrices, column lowering and offset accumulation, with
    one pipeline fill per offset product.

    Args:
        engine: the PermDNN engine instance.
        tensor: block-PD CONV weight tensor ``(c_out, c_in, kh, kw)``.
        x: input feature map ``(c_in, H, W)``.
        stride: spatial stride.
        padding: symmetric zero padding.
        enforce_capacity: per-PE SRAM capacity check (see engine docs).
        value_dtype: lower through reduced-precision offset matrices
            (``"float32"`` / ``"int16"``; see :func:`offset_matrices`).
        fixed_point: fixed-point format for ``value_dtype="int16"``.

    Returns:
        :class:`ConvSimulationResult` whose ``output`` equals the direct
        convolution (verified in the tests).
    """
    x = np.asarray(x)
    c_out, c_in, kh, kw = tensor.shape
    if x.ndim != 3 or x.shape[0] != c_in:
        raise ValueError(f"expected input (c_in={c_in}, H, W), got {x.shape}")
    oh, ow = conv_output_hw(x.shape[1:], (kh, kw), stride, padding)
    matrices = offset_matrices(
        tensor, value_dtype=value_dtype, fixed_point=fixed_point
    )
    # Columns follow the offset family's compute dtype (float32 storage
    # accumulates in float32, int16 dequantizes to float64).
    columns = lower_columns(
        np.asarray(x[None], dtype=matrices[0].compute_dtype),
        (kh, kw),
        stride,
        padding,
    )
    acc, cycles, macs = accumulate_offsets(
        engine, matrices, columns, enforce_capacity=enforce_capacity
    )
    nonzero = sum(int(np.count_nonzero(cols)) for cols in columns)
    return ConvSimulationResult(
        output=acc.T.reshape(c_out, oh, ow),
        cycles=cycles,
        macs=macs,
        nonzero_columns=nonzero,
        skipped_columns=len(columns) * columns[0].size - nonzero,
        positions=oh * ow,
    )
