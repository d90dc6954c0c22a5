"""Block-permuted diagonal structure for 4-D convolution weight tensors.

The paper (Sec. III-C, Fig. 2) views a CONV weight tensor
``F in R^{c_out x c_in x kh x kw}`` as a "macro matrix" over the
(output-channel, input-channel) plane whose entries are whole ``kh x kw``
filter kernels, and imposes the permuted diagonal pattern on that plane:
kernel ``(i, j)`` exists only when channel-matrix entry ``(i, j)`` is on a
permuted diagonal.  Compression ratio is again exactly ``p``.
"""

from __future__ import annotations

import numpy as np

from repro.core.block_perm_diag import BlockPermutedDiagonalMatrix
from repro.core.permutation import PermutationSpec

__all__ = ["BlockPermDiagTensor4D"]


class BlockPermDiagTensor4D:
    """A CONV weight tensor with PD structure on its channel plane.

    Compact storage: ``kernels[bi, bj, c]`` is the ``kh x kw`` kernel of
    channel-plane slot ``(bi*p + c, bj*p + (c + ks[bi,bj]) % p)``.

    Args:
        kernels: array of shape ``(mb, nb, p, kh, kw)``.
        ks: per-block permutation parameters, shape ``(mb, nb)``.
        channels: logical ``(c_out, c_in)``; defaults to padded sizes.
        value_dtype: value dtype pinned to the channel-plane matrix.  The
            kernels themselves always stay float64, but every per-offset
            matrix a lowering derives via ``plane.like`` quantizes through
            the plane's dtype -- so a tensor that must lower at full
            precision has to pin ``"float64"`` here rather than inherit
            the process default.
    """

    def __init__(
        self,
        kernels: np.ndarray,
        ks: np.ndarray,
        channels: tuple[int, int] | None = None,
        value_dtype: str | None = None,
    ) -> None:
        kernels = np.asarray(kernels, dtype=np.float64)
        if kernels.ndim != 5:
            raise ValueError(
                f"kernels must have shape (mb, nb, p, kh, kw), got {kernels.shape}"
            )
        mb, nb, p, kh, kw = kernels.shape
        # The channel plane is an ordinary block-PD matrix; reuse it for all
        # index arithmetic (one slot per kernel).
        if channels is None:
            channels = (mb * p, nb * p)
        self._plane = BlockPermutedDiagonalMatrix(
            np.ones((mb, nb, p)),
            ks,
            shape=channels,
            value_dtype=value_dtype,
        )
        self.kernel_size = (kh, kw)
        self.kernels = kernels * self._plane.support_mask()[..., None, None]

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
        kernels = rng.normal(0.0, scale, size=(mb, nb, p, kh, kw))
        return cls(kernels, ks, channels=(c_out, c_in))

    @classmethod
    def from_dense(
        cls,
        dense: np.ndarray,
        p: int,
        ks: np.ndarray | None = None,
        spec: PermutationSpec | None = None,
        value_dtype: str | None = None,
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
        out = cls(
            np.zeros((mb, nb, p, kh, kw)),
            np.asarray(ks),
            channels=(c_out, c_in),
            value_dtype=value_dtype,
        )
        rows, cols = out._plane._global_indices()
        padded = np.zeros((mb * p, nb * p, kh, kw))
        padded[:c_out, :c_in] = dense
        out.kernels = (
            padded[rows.ravel(), cols.ravel()].reshape(mb, nb, p, kh, kw)
            * out._plane.support_mask()[..., None, None]
        )
        return out

    # ------------------------------------------------------------------

    @property
    def p(self) -> int:
        return self._plane.p

    @property
    def plane(self) -> BlockPermutedDiagonalMatrix:
        """The block-PD channel-plane matrix carrying all index arithmetic.

        Its values are a placeholder (ones); consumers use it for the
        cached index plan, the support mask, and as the
        :meth:`~BlockPermutedDiagonalMatrix.like` base of per-offset
        matrix families (see :mod:`repro.hw.conv_lowering`).
        """
        return self._plane

    @property
    def ks(self) -> np.ndarray:
        return self._plane.ks

    @property
    def channels(self) -> tuple[int, int]:
        """Logical ``(c_out, c_in)``."""
        return self._plane.shape

    @property
    def shape(self) -> tuple[int, int, int, int]:
        c_out, c_in = self.channels
        return (c_out, c_in) + self.kernel_size

    @property
    def nnz_kernels(self) -> int:
        """Number of stored kernels (``~ c_out*c_in/p``)."""
        return self._plane.nnz

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
        return self._plane.dense_mask()

    def dense_mask(self) -> np.ndarray:
        """Boolean ``(c_out, c_in, kh, kw)`` support mask."""
        kh, kw = self.kernel_size
        return np.broadcast_to(
            self.channel_mask()[:, :, None, None], self.shape
        ).copy()

    def to_dense(self) -> np.ndarray:
        """Materialize the dense ``(c_out, c_in, kh, kw)`` weight tensor."""
        mb, nb, p = self._plane.data.shape
        kh, kw = self.kernel_size
        rows, cols = self._plane._global_indices()
        dense = np.zeros((mb * p, nb * p, kh, kw))
        dense[rows.ravel(), cols.ravel()] = self.kernels.reshape(-1, kh, kw)
        c_out, c_in = self.channels
        return dense[:c_out, :c_in]

    def project_dense_grad(self, grad: np.ndarray) -> np.ndarray:
        """Zero a dense gradient off the PD support (training rule, Eqn. (5)).

        Updating only supported entries is exactly equivalent to masking the
        dense gradient, and "theoretically guarantees the trained sparse
        network always exhibits block-permuted diagonal structure".
        """
        grad = np.asarray(grad)
        if grad.shape != self.shape:
            raise ValueError(f"grad shape {grad.shape} != tensor shape {self.shape}")
        return grad * self.dense_mask()

    def __repr__(self) -> str:
        return (
            f"BlockPermDiagTensor4D(shape={self.shape}, p={self.p}, "
            f"kernels={self.nnz_kernels})"
        )
