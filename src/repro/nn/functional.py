"""Stateless numeric helpers shared by layers and losses."""

from __future__ import annotations

import numpy as np

__all__ = [
    "col2im",
    "conv_output_hw",
    "im2col",
    "log_softmax",
    "lower_columns",
    "one_hot",
    "softmax",
]


def softmax(x: np.ndarray, axis: int = -1) -> np.ndarray:
    """Numerically stable softmax."""
    shifted = x - x.max(axis=axis, keepdims=True)
    exp = np.exp(shifted)
    return exp / exp.sum(axis=axis, keepdims=True)


def log_softmax(x: np.ndarray, axis: int = -1) -> np.ndarray:
    """Numerically stable log-softmax."""
    shifted = x - x.max(axis=axis, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=axis, keepdims=True))


def one_hot(labels: np.ndarray, num_classes: int) -> np.ndarray:
    """Integer labels ``(B,)`` -> one-hot ``(B, num_classes)``."""
    labels = np.asarray(labels, dtype=np.int64)
    if labels.ndim != 1:
        raise ValueError(f"labels must be 1-D, got shape {labels.shape}")
    if labels.min(initial=0) < 0 or labels.max(initial=0) >= num_classes:
        raise ValueError("labels out of range")
    out = np.zeros((labels.shape[0], num_classes))
    out[np.arange(labels.shape[0]), labels] = 1.0
    return out


def conv_output_hw(
    input_hw: tuple[int, int],
    kernel_size: tuple[int, int],
    stride: int,
    padding: int,
) -> tuple[int, int]:
    """Spatial output size ``(oh, ow)`` of a convolution.

    Raises ``ValueError`` for ``stride < 1``, ``padding < 0``, an empty
    input or a non-positive output size, so bad geometry fails here
    instead of as a division by zero or a negative index downstream.
    """
    if stride < 1 or padding < 0 or min(input_hw) < 1:
        raise ValueError(
            f"invalid conv geometry: input {tuple(input_hw)}, "
            f"stride {stride}, padding {padding}"
        )
    oh, ow = (
        (size + 2 * padding - k) // stride + 1
        for size, k in zip(input_hw, kernel_size)
    )
    if oh <= 0 or ow <= 0:
        raise ValueError(
            f"non-positive conv output size for input {tuple(input_hw)}, "
            f"kernel {tuple(kernel_size)}, stride {stride}, "
            f"padding {padding}"
        )
    return oh, ow


def _windows(
    x: np.ndarray, kh: int, kw: int, stride: int, pad: int
) -> np.ndarray:
    """Read-only patch view ``(B, C, oh, ow, kh, kw)`` of ``(B, C, H, W)``.

    Entry ``[b, c, oy, ox, dy, dx]`` is the zero-padded input at
    ``(oy*stride + dy, ox*stride + dx)``.  The one place patches are cut:
    :func:`im2col` and :func:`lower_columns` copy it in two layouts.
    """
    batch, channels, height, width = x.shape
    oh, ow = conv_output_hw((height, width), (kh, kw), stride, pad)
    if pad:
        x = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    strides = x.strides
    return np.lib.stride_tricks.as_strided(
        x,
        shape=(batch, channels, oh, ow, kh, kw),
        strides=(
            strides[0],
            strides[1],
            strides[2] * stride,
            strides[3] * stride,
            strides[2],
            strides[3],
        ),
        writeable=False,
    )


def im2col(
    x: np.ndarray, kh: int, kw: int, stride: int = 1, pad: int = 0
) -> tuple[np.ndarray, tuple[int, int]]:
    """Unfold image patches into a matrix for conv-as-matmul.

    Args:
        x: input of shape ``(B, C, H, W)``.
        kh, kw: kernel height/width.
        stride: spatial stride (same in both dims).
        pad: symmetric zero padding.

    Returns:
        ``(cols, (oh, ow))`` where ``cols`` has shape
        ``(B, oh*ow, C*kh*kw)``: position-major, one patch per row.
    """
    windows = _windows(x, kh, kw, stride, pad)
    batch, channels, oh, ow = windows.shape[:4]
    cols = windows.transpose(0, 2, 3, 1, 4, 5).reshape(
        batch, oh * ow, channels * kh * kw
    )
    return np.ascontiguousarray(cols), (oh, ow)


def lower_columns(
    x: np.ndarray, kh: int, kw: int, stride: int = 1, pad: int = 0
) -> np.ndarray:
    """The :func:`im2col` patches, offset-major: ``(kh*kw, B*oh*ow, C)``.

    ``lower_columns(x)[dy*kw + dx]`` is kernel offset ``(dy, dx)``'s
    column batch, its rows contiguous: row ``b*oh*ow + oy*ow + ox`` is the
    input channel column that offset multiplies for output position
    ``(oy, ox)`` of sample ``b``.  These are the engine inputs of a
    lowered PD convolution (:class:`repro.serve.LoweredConvStage`).
    Columns keep ``x``'s dtype.
    """
    windows = _windows(x, kh, kw, stride, pad)
    batch, channels, oh, ow = windows.shape[:4]
    return np.ascontiguousarray(windows.transpose(4, 5, 0, 2, 3, 1)).reshape(
        kh * kw, batch * oh * ow, channels
    )


def col2im(
    cols: np.ndarray,
    x_shape: tuple[int, int, int, int],
    kh: int,
    kw: int,
    stride: int = 1,
    pad: int = 0,
) -> np.ndarray:
    """Fold patch-gradients back into an image (adjoint of :func:`im2col`)."""
    batch, channels, height, width = x_shape
    oh, ow = conv_output_hw((height, width), (kh, kw), stride, pad)
    padded = np.zeros((batch, channels, height + 2 * pad, width + 2 * pad))
    patches = cols.reshape(batch, oh, ow, channels, kh, kw)
    for dy in range(kh):
        for dx in range(kw):
            padded[
                :, :, dy : dy + oh * stride : stride, dx : dx + ow * stride : stride
            ] += patches[:, :, :, :, dy, dx].transpose(0, 3, 1, 2)
    if pad:
        return padded[:, :, pad:-pad, pad:-pad]
    return padded
