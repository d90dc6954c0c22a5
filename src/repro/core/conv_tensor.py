"""Block-permuted diagonal structure for 4-D convolution weight tensors.

The paper (Sec. III-C, Fig. 2) views a CONV weight tensor
``F in R^{c_out x c_in x kh x kw}`` as a "macro matrix" over the
(output-channel, input-channel) plane whose entries are whole ``kh x kw``
filter kernels, and imposes the permuted diagonal pattern on that plane:
kernel ``(i, j)`` exists only when channel-matrix entry ``(i, j)`` is on a
permuted diagonal.  Compression ratio is again exactly ``p``.

It is stored as the engine runs it (:class:`repro.serve.LoweredConvStage`):
one block-PD channel matrix per kernel offset, each a view of one float64
buffer that :class:`~repro.nn.PermDiagConv2D` trains in place.
"""

from __future__ import annotations

import numpy as np

from repro.core.block_perm_diag import BlockPermutedDiagonalMatrix
from repro.core.permutation import PermutationSpec

__all__ = ["BlockPermDiagTensor4D"]


class BlockPermDiagTensor4D:
    """A CONV weight tensor with PD structure on its channel plane.

    Storage: ``values[dy, dx, bi, bj, c]`` is tap ``(dy, dx)`` of the
    kernel at channel-plane slot ``(bi*p + c, bj*p + (c + ks[bi,bj]) % p)``,
    zero in padding slots.  ``matrices[dy*kw + dx]`` is offset ``(dy, dx)``'s
    channel matrix over the view ``values[dy, dx]``; all share one plan.

    Args:
        values: array of shape ``(kh, kw, mb, nb, p)``; aliased when it is
            C-contiguous float64 with zero padding slots.
        ks: per-block permutation parameters, shape ``(mb, nb)``.
        channels: logical ``(c_out, c_in)``; defaults to padded sizes.
    """

    def __init__(
        self,
        values: np.ndarray,
        ks: np.ndarray,
        channels: tuple[int, int] | None = None,
    ) -> None:
        values = np.ascontiguousarray(values, dtype=np.float64)
        if values.ndim != 5:
            raise ValueError(
                f"values must have shape (kh, kw, mb, nb, p), got {values.shape}"
            )
        kh, kw, mb, nb, p = values.shape
        self.kernel_size = (kh, kw)
        if channels is None:
            channels = (mb * p, nb * p)
        structure = BlockPermutedDiagonalMatrix.zeros(channels, p, ks=ks)
        padding = ~structure.support_mask()
        if np.any(values[:, :, padding]):
            values = values.copy()
            values[:, :, padding] = 0.0
        self.values = values
        self.matrices = [
            structure.like(offset)
            for offset in values.reshape(kh * kw, mb, nb, p)
        ]

    # ------------------------------------------------------------------

    @classmethod
    def random(
        cls,
        c_out: int,
        c_in: int,
        kernel_size: tuple[int, int],
        p: int,
        spec: PermutationSpec | None = None,
        scale: float | None = None,
        rng: np.random.Generator | int | None = None,
    ) -> "BlockPermDiagTensor4D":
        """He-style initialization on the effective fan-in ``c_in/p * kh*kw``."""
        spec = spec or PermutationSpec()
        mb, nb = -(-c_out // p), -(-c_in // p)
        ks = spec.generate(mb * nb, p).reshape(mb, nb)
        if not isinstance(rng, np.random.Generator):
            rng = np.random.default_rng(rng)
        kh, kw = kernel_size
        fan_in = max(c_in / p, 1.0) * kh * kw
        if scale is None:
            scale = float(np.sqrt(2.0 / fan_in))
        # Drawn kernel-major, so every seed keeps its weights.
        kernels = rng.normal(0.0, scale, size=(mb, nb, p, kh, kw))
        return cls(kernels.transpose(3, 4, 0, 1, 2), ks, (c_out, c_in))

    @classmethod
    def from_dense(
        cls,
        dense: np.ndarray,
        p: int,
        ks: np.ndarray | None = None,
        spec: PermutationSpec | None = None,
    ) -> "BlockPermDiagTensor4D":
        """Optimal L2 projection of a dense ``(c_out, c_in, kh, kw)`` tensor."""
        dense = np.asarray(dense, dtype=np.float64)
        if dense.ndim != 4:
            raise ValueError(f"expected 4-D tensor, got shape {dense.shape}")
        c_out, c_in, kh, kw = dense.shape
        mb, nb = -(-c_out // p), -(-c_in // p)
        if ks is None:
            spec = spec or PermutationSpec()
            ks = spec.generate(mb * nb, p).reshape(mb, nb)
        out = cls(np.zeros((kh, kw, mb, nb, p)), ks, channels=(c_out, c_in))
        out.values[...] = out.pack(dense)
        return out

    # ------------------------------------------------------------------

    @property
    def p(self) -> int:
        return self.matrices[0].p

    @property
    def ks(self) -> np.ndarray:
        return self.matrices[0].ks

    @property
    def channels(self) -> tuple[int, int]:
        """Logical ``(c_out, c_in)``."""
        return self.matrices[0].shape

    @property
    def shape(self) -> tuple[int, int, int, int]:
        c_out, c_in = self.channels
        return (c_out, c_in) + self.kernel_size

    @property
    def nnz_kernels(self) -> int:
        """Number of stored kernels (``~ c_out*c_in/p``)."""
        return self.matrices[0].nnz

    @property
    def nnz(self) -> int:
        """Number of stored scalar weights."""
        kh, kw = self.kernel_size
        return self.nnz_kernels * kh * kw

    @property
    def compression_ratio(self) -> float:
        c_out, c_in, kh, kw = self.shape
        return c_out * c_in * kh * kw / self.nnz

    def channel_mask(self) -> np.ndarray:
        """Boolean ``(c_out, c_in)`` channel-connectivity mask."""
        return self.matrices[0].dense_mask()

    def dense_mask(self) -> np.ndarray:
        """Boolean ``(c_out, c_in, kh, kw)`` support mask."""
        return np.broadcast_to(
            self.channel_mask()[:, :, None, None], self.shape
        ).copy()

    def pack(self, dense: np.ndarray) -> np.ndarray:
        """A dense ``(c_out, c_in, kh, kw)`` array gathered onto the support.

        Returns a fresh ``values``-shaped array.  Off-support entries are
        dropped: packing a dense gradient is Eqn. (5)'s training rule.
        """
        dense = np.asarray(dense)
        if dense.shape != self.shape:
            raise ValueError(
                f"dense shape {dense.shape} != tensor shape {self.shape}"
            )
        kh, kw = self.kernel_size
        flat, rows, cols = self.matrices[0]._get_plan().support_coords()
        packed = np.zeros(self.values.shape)
        packed.reshape(kh * kw, -1)[:, flat] = (
            dense[rows, cols].reshape(-1, kh * kw).T
        )
        return packed

    def to_dense(self) -> np.ndarray:
        """Materialize the dense ``(c_out, c_in, kh, kw)`` weight tensor."""
        kh, kw = self.kernel_size
        flat, rows, cols = self.matrices[0]._get_plan().support_coords()
        dense = np.zeros(self.shape)
        dense[rows, cols] = (
            self.values.reshape(kh * kw, -1)[:, flat].T.reshape(-1, kh, kw)
        )
        return dense

    def __repr__(self) -> str:
        return (
            f"BlockPermDiagTensor4D(shape={self.shape}, p={self.p}, "
            f"kernels={self.nnz_kernels})"
        )
