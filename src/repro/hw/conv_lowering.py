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

from collections.abc import Iterable
from dataclasses import dataclass

import numpy as np

from repro.core import BlockPermDiagTensor4D, BlockPermutedDiagonalMatrix
from repro.core.block_perm_diag import convert_values
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
    tensor: BlockPermDiagTensor4D, value_dtype: str | None = None
) -> list[BlockPermutedDiagonalMatrix]:
    """One block-PD channel matrix per kernel offset ``(dy, dx)``.

    The tensor's own matrices, views of its values sharing one plan: no
    index arithmetic, no copy.  ``value_dtype`` converts them through
    :func:`~repro.core.block_perm_diag.convert_values` instead, leaving
    the float64 training values untouched.
    """
    return convert_values(tensor.matrices, value_dtype)


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
    products: Iterable[np.ndarray], activation: str | None = None
) -> np.ndarray:
    """Sum the offset products in offset order, then apply the ActU mode.

    ``products`` holds one ``(rows of columns, rows of matrices)`` engine
    product per kernel offset; an iterator is consumed as it goes, so
    only the running sum and one product are alive at a time.  The fixed
    order makes any row shard of the offset family reproduce its rows of
    the unsharded sum bit for bit.
    """
    products = iter(products)
    # A fresh sum in the products' dtype (a Python float does not promote
    # float32), bit for bit a zeroed buffer plus the first product.
    acc = 0.0 + next(products)
    for product in products:
        acc += product
    return apply_activation(acc, activation)


def run_conv_layer(
    engine: PermDNNEngine,
    tensor: BlockPermDiagTensor4D,
    x: np.ndarray,
    stride: int = 1,
    padding: int = 0,
    enforce_capacity: bool = True,
    value_dtype: str | None = None,
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

    Returns:
        :class:`ConvSimulationResult` whose ``output`` equals the direct
        convolution (verified in the tests).
    """
    x = np.asarray(x)
    c_out, c_in, kh, kw = tensor.shape
    if x.ndim != 3 or x.shape[0] != c_in:
        raise ValueError(f"expected input (c_in={c_in}, H, W), got {x.shape}")
    oh, ow = conv_output_hw(x.shape[1:], (kh, kw), stride, padding)
    matrices = offset_matrices(tensor, value_dtype)
    # Columns follow the offset family's compute dtype (float32 storage
    # accumulates in float32, int16 dequantizes to float64).
    columns = lower_columns(
        np.asarray(x[None], dtype=matrices[0].compute_dtype),
        (kh, kw),
        stride,
        padding,
    )
    results = [
        engine.run_fc_batch_detailed(
            matrix, cols, enforce_capacity=enforce_capacity
        )
        for matrix, cols in zip(matrices, columns)
    ]
    acc = accumulate_offsets(out for out, _, _ in results)
    nonzero = sum(int(np.count_nonzero(cols)) for cols in columns)
    return ConvSimulationResult(
        output=acc.T.reshape(c_out, oh, ow),
        cycles=sum(cycles for _, cycles, _ in results),
        macs=sum(macs for _, _, macs in results),
        nonzero_columns=nonzero,
        skipped_columns=len(columns) * columns[0].size - nonzero,
        positions=oh * ow,
    )
