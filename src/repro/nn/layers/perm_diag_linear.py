"""Fully-connected layer with block-permuted diagonal weights (Sec. III-B).

This is the paper's FC layer: the ``(out, in)`` weight matrix is a
:class:`~repro.core.BlockPermutedDiagonalMatrix`, so only ``out*in/p``
weights exist, and the backward pass (Eqns. (2)-(3)) touches exactly those --
which "theoretically guarantees the trained sparse network always exhibits
block-permuted diagonal structure".
"""

from __future__ import annotations

import numpy as np

from repro.core import BlockPermutedDiagonalMatrix, PermutationSpec
from repro.nn.module import Module
from repro.nn.parameter import Parameter

__all__ = ["PermDiagLinear"]


class PermDiagLinear(Module):
    """``y = W x + b`` with ``W`` block-permuted diagonal of block size ``p``.

    The trainable parameter is the packed ``(mb, p, nb)`` value array,
    stored row by row (the paper's ``q`` vector, reordered so each padded
    weight row's non-zeros lie together); permutation parameters ``k_l``
    are fixed structure chosen at construction and never trained.

    Args:
        in_features: input width ``n``.
        out_features: output width ``m``.
        p: block size (= compression ratio of this layer).
        bias: include an additive bias.
        spec: how to pick ``k_l`` (natural indexing by default, as in all the
            paper's reported tables).
        rng: generator or seed for initialization.
    """

    def __init__(
        self,
        in_features: int,
        out_features: int,
        p: int,
        bias: bool = True,
        spec: PermutationSpec | None = None,
        rng: np.random.Generator | int | None = None,
    ) -> None:
        super().__init__()
        self.in_features = in_features
        self.out_features = out_features
        self.p = p
        matrix = BlockPermutedDiagonalMatrix.random(
            (out_features, in_features), p, spec=spec, rng=rng
        )
        self._matrix = matrix
        # Aliasing contract: Parameter and matrix share one buffer, so
        # in-place optimizer updates reach the structured matrix directly.
        self.weight = Parameter(matrix.data, "pd_weight")
        matrix.data = self.weight.value
        self.bias = Parameter(np.zeros(out_features), "bias") if bias else None
        self._x: np.ndarray | None = None

    # ------------------------------------------------------------------

    @property
    def matrix(self) -> BlockPermutedDiagonalMatrix:
        """Live view of the weight as a structured matrix."""
        return self._matrix

    @property
    def ks(self) -> np.ndarray:
        return self._matrix.ks

    @property
    def compression_ratio(self) -> float:
        return self._matrix.compression_ratio

    @classmethod
    def from_matrix(
        cls,
        matrix: BlockPermutedDiagonalMatrix,
        bias: np.ndarray | None = None,
    ) -> "PermDiagLinear":
        """Rebuild a layer around an existing structured matrix (e.g. a PD
        approximation of a pre-trained dense layer, Sec. III-F).

        The layer adopts ``matrix`` as-is -- its ``ks``, logical shape
        (including shapes not divisible by ``p``) and cached index plan
        are taken over directly, and the trainable parameter aliases the
        matrix's storage.  No structure
        fields are mutated behind the matrix's validation.
        """
        if matrix.value_dtype != "float64":
            raise TypeError(
                f"PermDiagLinear trains through a float64 Parameter that "
                f"aliases the matrix storage; {matrix.value_dtype!r} value "
                f"storage cannot alias it (the adoption would silently copy "
                f"and optimizer updates would never reach the matrix). "
                f"Convert with matrix.with_value_dtype('float64') first -- "
                f"reduced precision is a serving-time export."
            )
        m, n = matrix.shape
        layer = cls.__new__(cls)
        Module.__init__(layer)
        layer.in_features = n
        layer.out_features = m
        layer.p = matrix.p
        layer._matrix = matrix
        layer.weight = Parameter(matrix.data, "pd_weight")
        matrix.data = layer.weight.value  # aliasing contract: same buffer
        if bias is not None:
            bias = np.asarray(bias, dtype=np.float64)
            if bias.shape != (m,):
                raise ValueError(f"bias must have shape ({m},), got {bias.shape}")
            layer.bias = Parameter(bias.copy(), "bias")
        else:
            layer.bias = None
        layer._x = None
        return layer

    def to_dense_weight(self) -> np.ndarray:
        """Materialized dense ``(out, in)`` weight (for analysis only)."""
        return self._matrix.to_dense()

    # ------------------------------------------------------------------

    def forward(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        if x.ndim != 2 or x.shape[1] != self.in_features:
            raise ValueError(
                f"expected input (B, {self.in_features}), got {x.shape}"
            )
        self._x = x
        y = self._matrix.matmat(x)
        if self.bias is not None:
            y = y + self.bias.value
        return y

    def backward(self, dy: np.ndarray) -> np.ndarray:
        """Structure-preserving backward (Eqns. (2)-(3)).

        Only the stored diagonal values receive gradient; the input gradient
        is ``W.T @ dy`` computed through the structured transpose.
        """
        if self._x is None:
            raise RuntimeError("backward called before forward")
        dy = np.asarray(dy, dtype=np.float64)
        self.weight.grad += self._matrix.grad_data(self._x, dy)
        if self.bias is not None:
            self.bias.grad += dy.sum(axis=0)
        return self._matrix.rmatmat(dy)

    def __repr__(self) -> str:
        return (
            f"PermDiagLinear({self.in_features} -> {self.out_features}, "
            f"p={self.p})"
        )
