"""Convolution with block-permuted diagonal channel structure (Sec. III-C).

The PD pattern lives on the (output-channel, input-channel) plane of the
weight tensor (Fig. 2): a kernel ``F(i, j, :, :)`` exists only when channel
slot ``(i, j)`` is on a permuted diagonal.  Forward is Eqn. (4); the
training rule (Eqns. (5)-(6)) updates only existing kernels, implemented
here by packing the dense weight gradient onto the support --
mathematically identical to the paper's index-wise update, and verified
against numerical gradients in the tests.

The trainable parameter holds only the ``c_out*c_in/p`` stored kernels
(a :class:`~repro.core.BlockPermDiagTensor4D` buffer that served conv
stages alias); compute unpacks them for one im2col GEMM per pass.
"""

from __future__ import annotations

import numpy as np

from repro.core import BlockPermDiagTensor4D, PermutationSpec
from repro.nn.layers.conv2d import Conv2D
from repro.nn.parameter import Parameter

__all__ = ["PermDiagConv2D"]


class PermDiagConv2D(Conv2D):
    """:class:`Conv2D` whose channel plane is block-permuted diagonal.

    The trainable weight is :attr:`tensor`'s ``(kh, kw, mb, p, nb)``
    ``values`` buffer (each offset's channel matrix row by row); the
    ``k_l`` are fixed structure, never trained.

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
        # Conv2D draws a dense weight that is discarded below; the draw
        # keeps seeded RNG streams, and so seeded models, unchanged.
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

    def _adopt_tensor(self, tensor: BlockPermDiagTensor4D) -> None:
        self._tensor = tensor
        # Aliasing contract: Parameter and tensor share one buffer, so
        # in-place optimizer updates reach every offset matrix directly.
        self.weight = Parameter(tensor.values, "pd_conv_weight")

    # ------------------------------------------------------------------

    @property
    def tensor(self) -> BlockPermDiagTensor4D:
        """Live view of the weight as a structured tensor."""
        return self._tensor

    @property
    def ks(self) -> np.ndarray:
        return self._tensor.ks

    @property
    def channel_mask(self) -> np.ndarray:
        return self._tensor.channel_mask()

    @property
    def nnz(self) -> int:
        """Stored scalar weights: ``~ c_out*c_in*kh*kw / p``."""
        return self._tensor.nnz

    @property
    def compression_ratio(self) -> float:
        return self._tensor.compression_ratio

    @classmethod
    def from_tensor(
        cls,
        tensor: BlockPermDiagTensor4D,
        stride: int = 1,
        padding: int = 0,
        bias: np.ndarray | None = None,
    ) -> "PermDiagConv2D":
        """Wrap an existing PD tensor (e.g. from approximation, Sec. III-F).

        The layer adopts ``tensor`` as-is: the trainable parameter aliases
        ``tensor.values``, so the caller's tensor sees training updates.
        """
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

    # ------------------------------------------------------------------

    def _effective_weight(self) -> np.ndarray:
        return self._tensor.to_dense()

    def _accumulate_weight_grad(self, dw: np.ndarray) -> None:
        # Eqn. (5): "for any F(i,j,w,h) != 0" -- only stored taps update.
        self.weight.grad += self._tensor.pack(dw)

    def __repr__(self) -> str:
        return (
            f"PermDiagConv2D({self.in_channels} -> {self.out_channels}, "
            f"k={self.kernel_size}, p={self.p}, s={self.stride}, "
            f"pad={self.padding})"
        )
