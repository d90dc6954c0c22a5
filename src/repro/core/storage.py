"""Storage-cost accounting for PD matrices.

Implements the model behind Fig. 4 of the paper: an *unstructured* sparse
weight costs its value bits **plus** index bits (EIE stores a 4-bit virtual
weight tag plus 4 bits of relative position, i.e. the index doubles the
cost), while a PD weight costs its value bits only -- positions are
recomputed from ``(k_l, p)`` with a modulo, and the per-block ``k_l``
(``ceil(log2 p)`` bits) is amortized over ``p`` weights.

Engine images follow the same model: values plus ``ks``, with no index
state (see "What artifacts store" in :mod:`repro.core.block_perm_diag`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = [
    "StorageReport",
    "dense_storage_bits",
    "pd_storage_bits",
    "unstructured_sparse_storage_bits",
]


def dense_storage_bits(m: int, n: int, weight_bits: int = 32) -> int:
    """Bits to store an uncompressed dense ``m x n`` matrix."""
    return m * n * weight_bits


def pd_storage_bits(
    m: int,
    n: int,
    p: int,
    weight_bits: int = 32,
    include_permutation: bool = True,
) -> int:
    """Bits to store an ``m x n`` block-PD matrix with block size ``p``.

    ``m*n/p`` values plus (optionally) one ``ceil(log2 p)``-bit permutation
    parameter per block.  Padded blocks are counted like the paper does
    (padded zeros are "not involved in computation/storage", but their
    block still needs its diagonal stored once allocated); with ``m, n``
    multiples of ``p`` this is exactly ``m*n/p`` weights.
    """
    mb, nb = -(-m // p), -(-n // p)
    value_bits = mb * nb * p * weight_bits
    perm_bits = mb * nb * max(1, math.ceil(math.log2(p))) if p > 1 else 0
    return value_bits + (perm_bits if include_permutation else 0)


def unstructured_sparse_storage_bits(
    nnz: int,
    weight_bits: int = 4,
    index_bits: int = 4,
    num_columns: int = 0,
    pointer_bits: int = 32,
) -> int:
    """Bits for an EIE-style unstructured sparse matrix.

    Every non-zero stores ``weight_bits`` (virtual weight tag) plus
    ``index_bits`` (relative row position); CSC column pointers add
    ``pointer_bits`` per column if ``num_columns`` is given.
    """
    return nnz * (weight_bits + index_bits) + num_columns * pointer_bits


@dataclass(frozen=True)
class StorageReport:
    """Storage accounting for one compressed layer.

    Attributes:
        dense_bits: uncompressed cost.
        compressed_bits: cost under the chosen representation.
    """

    dense_bits: int
    compressed_bits: int

    @property
    def compression_ratio(self) -> float:
        return self.dense_bits / self.compressed_bits

    @property
    def dense_megabytes(self) -> float:
        return self.dense_bits / 8 / 1e6

    @property
    def compressed_megabytes(self) -> float:
        return self.compressed_bits / 8 / 1e6

    @staticmethod
    def for_pd_layer(
        m: int, n: int, p: int, dense_bits: int = 32, weight_bits: int = 32
    ) -> "StorageReport":
        """Report for one FC layer compressed with block size ``p``.

        ``dense_bits`` is the precision of the uncompressed reference
        (the paper compares against 32-bit float); ``weight_bits`` is the
        stored precision of the PD values (32 for float, 16 for fixed).
        """
        return StorageReport(
            dense_storage_bits(m, n, dense_bits),
            pd_storage_bits(m, n, p, weight_bits),
        )
