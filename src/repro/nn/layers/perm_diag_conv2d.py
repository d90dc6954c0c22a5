"""Convolution with block-permuted diagonal channel structure (Sec. III-C).

The PD pattern lives on the (output-channel, input-channel) plane of the
weight tensor (Fig. 2): a kernel ``F(i, j, :, :)`` exists only when channel
slot ``(i, j)`` is on a permuted diagonal.  Forward is Eqn. (4); the
training rule (Eqns. (5)-(6)) updates only existing kernels, implemented
here by projecting the dense weight gradient onto the support mask --
mathematically identical to the paper's index-wise update, and verified
against numerical gradients in the tests.

Storage accounting (``num_parameters``/``nnz``) counts only stored kernels,
i.e. ``c_out*c_in/p`` of them, even though compute uses a masked dense
tensor for vectorization.
"""

from __future__ import annotations

import numpy as np

from repro.core import BlockPermDiagTensor4D, PermutationSpec
from repro.nn.layers.conv2d import Conv2D
from repro.nn.parameter import Parameter

__all__ = ["PermDiagConv2D"]


class PermDiagConv2D(Conv2D):
    """:class:`Conv2D` whose channel plane is block-permuted diagonal.

    Args:
        in_channels, out_channels, kernel_size, stride, padding, bias:
            as in :class:`Conv2D`.
        p: channel-plane block size (= compression ratio of this layer).
        spec: permutation-parameter selection (natural indexing by default).
        rng: generator or seed for initialization.
    """

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        kernel_size: int | tuple[int, int],
        p: int,
        stride: int = 1,
        padding: int = 0,
        bias: bool = True,
        spec: PermutationSpec | None = None,
        rng: np.random.Generator | int | None = None,
    ) -> None:
        super().__init__(
            in_channels,
            out_channels,
            kernel_size,
            stride=stride,
            padding=padding,
            bias=bias,
            rng=rng,
        )
        self.p = p
        tensor = BlockPermDiagTensor4D.random(
            out_channels,
            in_channels,
            self.kernel_size,
            p,
            spec=spec,
            rng=rng,
        )
        self._adopt_tensor(tensor)
        self._x_shape = None
        self._cols = None

    def _adopt_tensor(self, tensor: BlockPermDiagTensor4D) -> None:
        """Point the layer at ``tensor``: mask, nnz, and dense weight are
        derived once here (the tensor's plane caches the index plan)."""
        self._tensor = tensor
        self._mask = tensor.dense_mask()
        self._nnz = int(self._mask.sum())
        # Re-point the weight parameter at the PD-structured dense tensor.
        self.weight = Parameter(tensor.to_dense(), "pd_conv_weight")

    # ------------------------------------------------------------------

    @property
    def ks(self) -> np.ndarray:
        return self._tensor.ks

    @property
    def channel_mask(self) -> np.ndarray:
        return self._tensor.channel_mask()

    @property
    def nnz(self) -> int:
        """Stored scalar weights: ``~ c_out*c_in*kh*kw / p``."""
        return self._nnz

    @property
    def compression_ratio(self) -> float:
        return self._mask.size / max(self.nnz, 1)

    @classmethod
    def from_tensor(
        cls,
        tensor: BlockPermDiagTensor4D,
        stride: int = 1,
        padding: int = 0,
        bias: np.ndarray | None = None,
    ) -> "PermDiagConv2D":
        """Wrap an existing PD tensor (e.g. from approximation, Sec. III-F)."""
        c_out, c_in, kh, kw = tensor.shape
        layer = cls(
            c_in,
            c_out,
            (kh, kw),
            tensor.p,
            stride=stride,
            padding=padding,
            bias=bias is not None,
        )
        layer._adopt_tensor(tensor)
        if bias is not None:
            layer.bias.value[...] = bias
        return layer

    def to_tensor(self) -> BlockPermDiagTensor4D:
        """Current weights as a compact PD tensor.

        Keeps the channel plane's value dtype: lowerings quantize
        per-offset matrices through the plane, so a repacked tensor must
        not silently fall back to the process default dtype.
        """
        return BlockPermDiagTensor4D.from_dense(
            self.weight.value,
            self.p,
            ks=self._tensor.ks,
            value_dtype=self._tensor.plane.value_dtype,
        )

    # ------------------------------------------------------------------

    def _effective_weight(self) -> np.ndarray:
        return self.weight.value * self._mask

    def _accumulate_weight_grad(self, dw: np.ndarray) -> None:
        # Eqn. (5): "for any F(i,j,w,h) != 0" -- mask the dense gradient.
        self.weight.grad += dw * self._mask

    def __repr__(self) -> str:
        return (
            f"PermDiagConv2D({self.in_channels} -> {self.out_channels}, "
            f"k={self.kernel_size}, p={self.p}, s={self.stride}, "
            f"pad={self.padding})"
        )
