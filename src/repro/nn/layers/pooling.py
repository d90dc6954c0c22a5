"""Spatial pooling layers."""

from __future__ import annotations

import numpy as np

from repro.nn.functional import checked_int, col2im, im2col, int_pair
from repro.nn.module import Module

__all__ = ["AvgPool2D", "GlobalAvgPool2D", "MaxPool2D"]


class MaxPool2D(Module):
    """Non-overlapping-or-strided max pooling.

    Args:
        kernel_size: pooling window (int or pair).
        stride: defaults to ``kernel_size``.
    """

    def __init__(
        self, kernel_size: int | tuple[int, int], stride: int | None = None
    ) -> None:
        super().__init__()
        self.kernel_size = int_pair("kernel_size", kernel_size)
        self.stride = checked_int(
            "stride", stride if stride is not None else self.kernel_size[0]
        )
        self._argmax: np.ndarray | None = None
        self._x_shape: tuple[int, int, int, int] | None = None
        self._out_hw: tuple[int, int] | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        batch, channels, _, _ = x.shape
        kh, kw = self.kernel_size
        # pool channel-by-channel via im2col on a channel-merged view
        merged = x.reshape(batch * channels, 1, *x.shape[2:])
        cols, (oh, ow) = im2col(merged, kh, kw, self.stride, 0)
        cols = cols.reshape(batch * channels, oh * ow, kh * kw)
        self._argmax = cols.argmax(axis=2)
        self._x_shape = x.shape
        self._out_hw = (oh, ow)
        out = cols.max(axis=2).reshape(batch, channels, oh, ow)
        return out

    def backward(self, dy: np.ndarray) -> np.ndarray:
        if self._argmax is None or self._x_shape is None:
            raise RuntimeError("backward called before forward")
        batch, channels, height, width = self._x_shape
        oh, ow = self._out_hw
        kh, kw = self.kernel_size
        dcols = np.zeros((batch * channels, oh * ow, kh * kw))
        flat_dy = dy.reshape(batch * channels, oh * ow)
        rows = np.arange(batch * channels)[:, None]
        cols_idx = np.arange(oh * ow)[None, :]
        dcols[rows, cols_idx, self._argmax] = flat_dy
        dmerged = col2im(
            dcols, (batch * channels, 1, height, width), kh, kw, self.stride, 0
        )
        return dmerged.reshape(batch, channels, height, width)


class AvgPool2D(Module):
    """Average pooling."""

    def __init__(
        self, kernel_size: int | tuple[int, int], stride: int | None = None
    ) -> None:
        super().__init__()
        self.kernel_size = int_pair("kernel_size", kernel_size)
        self.stride = checked_int(
            "stride", stride if stride is not None else self.kernel_size[0]
        )
        self._x_shape: tuple[int, int, int, int] | None = None
        self._out_hw: tuple[int, int] | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        batch, channels, _, _ = x.shape
        kh, kw = self.kernel_size
        merged = x.reshape(batch * channels, 1, *x.shape[2:])
        cols, (oh, ow) = im2col(merged, kh, kw, self.stride, 0)
        self._x_shape = x.shape
        self._out_hw = (oh, ow)
        return cols.mean(axis=2).reshape(batch, channels, oh, ow)

    def backward(self, dy: np.ndarray) -> np.ndarray:
        if self._x_shape is None:
            raise RuntimeError("backward called before forward")
        batch, channels, height, width = self._x_shape
        oh, ow = self._out_hw
        kh, kw = self.kernel_size
        share = dy.reshape(batch * channels, oh * ow, 1) / (kh * kw)
        dcols = np.broadcast_to(share, (batch * channels, oh * ow, kh * kw))
        dmerged = col2im(
            np.ascontiguousarray(dcols),
            (batch * channels, 1, height, width),
            kh,
            kw,
            self.stride,
            0,
        )
        return dmerged.reshape(batch, channels, height, width)


class GlobalAvgPool2D(Module):
    """Mean over all spatial positions: ``(B, C, H, W) -> (B, C)``."""

    def __init__(self) -> None:
        super().__init__()
        self._x_shape: tuple[int, int, int, int] | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._x_shape = x.shape
        return x.mean(axis=(2, 3))

    def backward(self, dy: np.ndarray) -> np.ndarray:
        if self._x_shape is None:
            raise RuntimeError("backward called before forward")
        batch, channels, height, width = self._x_shape
        scale = 1.0 / (height * width)
        return (
            np.broadcast_to(
                dy[:, :, None, None], (batch, channels, height, width)
            )
            * scale
        )
