"""Dense 2-D convolution (im2col formulation)."""

from __future__ import annotations

import numpy as np

from repro.nn.functional import col2im, im2col
from repro.nn.init import he_normal
from repro.nn.module import Module
from repro.nn.parameter import Parameter

__all__ = ["Conv2D"]


class Conv2D(Module):
    """2-D convolution with weight ``(c_out, c_in, kh, kw)``.

    Uses cross-correlation (the deep-learning convention).  The uncompressed
    baseline for :class:`~repro.nn.PermDiagConv2D`.

    Args:
        in_channels: ``c_in``.
        out_channels: ``c_out``.
        kernel_size: ``(kh, kw)`` or a single int.
        stride: spatial stride.
        padding: symmetric zero padding.
        bias: include a per-channel bias.
        rng: generator or seed for initialization.
    """

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        kernel_size: int | tuple[int, int],
        stride: int = 1,
        padding: int = 0,
        bias: bool = True,
        rng: np.random.Generator | int | None = None,
    ) -> None:
        super().__init__()
        if isinstance(kernel_size, int):
            kernel_size = (kernel_size, kernel_size)
        if not isinstance(rng, np.random.Generator):
            rng = np.random.default_rng(rng)
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel_size = kernel_size
        self.stride = stride
        self.padding = padding
        kh, kw = kernel_size
        fan_in = in_channels * kh * kw
        self.weight = Parameter(
            he_normal((out_channels, in_channels, kh, kw), fan_in, rng), "weight"
        )
        self.bias = Parameter(np.zeros(out_channels), "bias") if bias else None
        self._cols: np.ndarray | None = None
        self._x_shape: tuple[int, int, int, int] | None = None

    def _effective_weight(self) -> np.ndarray:
        """Dense weight used for compute; the PD subclass unpacks it here."""
        return self.weight.value

    def forward(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        if x.ndim != 4 or x.shape[1] != self.in_channels:
            raise ValueError(
                f"expected input (B, {self.in_channels}, H, W), got {x.shape}"
            )
        kh, kw = self.kernel_size
        cols, (oh, ow) = im2col(x, kh, kw, self.stride, self.padding)
        self._cols = cols
        self._x_shape = x.shape
        w2d = self._effective_weight().reshape(self.out_channels, -1)
        out = cols @ w2d.T  # (B, oh*ow, c_out)
        if self.bias is not None:
            out = out + self.bias.value
        return out.transpose(0, 2, 1).reshape(x.shape[0], self.out_channels, oh, ow)

    def backward(self, dy: np.ndarray) -> np.ndarray:
        if self._cols is None or self._x_shape is None:
            raise RuntimeError("backward called before forward")
        dy = np.asarray(dy, dtype=np.float64)
        batch, c_out, oh, ow = dy.shape
        dy2d = dy.reshape(batch, c_out, oh * ow).transpose(0, 2, 1)  # (B, P, c_out)
        dw = np.einsum("bpc,bpk->ck", dy2d, self._cols).reshape(
            c_out, self.in_channels, *self.kernel_size
        )
        self._accumulate_weight_grad(dw)
        if self.bias is not None:
            self.bias.grad += dy.sum(axis=(0, 2, 3))
        w2d = self._effective_weight().reshape(c_out, -1)
        dcols = dy2d @ w2d  # (B, P, c_in*kh*kw)
        kh, kw = self.kernel_size
        return col2im(dcols, self._x_shape, kh, kw, self.stride, self.padding)

    def _accumulate_weight_grad(self, dw: np.ndarray) -> None:
        """Hook for subclasses to project the gradient (PD packing)."""
        self.weight.grad += dw

    def __repr__(self) -> str:
        return (
            f"Conv2D({self.in_channels} -> {self.out_channels}, "
            f"k={self.kernel_size}, s={self.stride}, p={self.padding})"
        )
