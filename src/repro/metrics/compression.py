"""Model-level storage accounting (drives Tables II-V).

Walks a model's layers and counts *stored* weights per representation:
dense layers store every entry; PD layers store ``1/p`` of them;
masked (pruned) layers store their surviving entries **plus** EIE-style
index bits; circulant layers store one vector per block.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.nn.layers.circulant_linear import BlockCirculantLinear
from repro.nn.layers.conv2d import Conv2D
from repro.nn.layers.linear import Linear
from repro.nn.layers.masked_linear import MaskedLinear
from repro.nn.layers.perm_diag_conv2d import PermDiagConv2D
from repro.nn.layers.perm_diag_linear import PermDiagLinear
from repro.nn.layers.recurrent import LSTMCell
from repro.nn.module import Module

__all__ = ["LayerStorage", "ModelStorageReport", "model_storage_report"]


@dataclass(frozen=True)
class LayerStorage:
    """Storage accounting for one weight-bearing layer.

    Attributes:
        name: layer description.
        dense_weights: weight count of the uncompressed equivalent.
        stored_weights: weights actually kept by the representation.
        index_bits_per_weight: index overhead (EIE-style pruned layers).
    """

    name: str
    dense_weights: int
    stored_weights: int
    index_bits_per_weight: float = 0.0

    def bits(self, weight_bits: int) -> float:
        return self.stored_weights * (weight_bits + self.index_bits_per_weight)

    @property
    def compression_ratio(self) -> float:
        return self.dense_weights / max(self.stored_weights, 1)


@dataclass
class ModelStorageReport:
    """Aggregate of per-layer storage records."""

    layers: list[LayerStorage]

    @property
    def dense_weights(self) -> int:
        return sum(layer.dense_weights for layer in self.layers)

    @property
    def stored_weights(self) -> int:
        return sum(layer.stored_weights for layer in self.layers)

    @property
    def compression_ratio(self) -> float:
        return self.dense_weights / max(self.stored_weights, 1)

    def megabytes(self, weight_bits: int = 32) -> float:
        """Total model size in MB at the given stored precision."""
        return sum(layer.bits(weight_bits) for layer in self.layers) / 8 / 1e6

    def dense_megabytes(self, weight_bits: int = 32) -> float:
        """Uncompressed model size in MB."""
        return self.dense_weights * weight_bits / 8 / 1e6

    def size_ratio(self, dense_bits: int = 32, weight_bits: int = 32) -> float:
        """Storage ratio dense/compressed at the given precisions
        (this is what Tables II-V call "compression": 16-bit PD doubles it)."""
        return self.dense_megabytes(dense_bits) / self.megabytes(weight_bits)


def _storage_for_layer(layer: Module, eie_index_bits: float) -> LayerStorage | None:
    if isinstance(layer, PermDiagLinear):
        dense = layer.out_features * layer.in_features
        return LayerStorage(repr(layer), dense, layer.matrix.nnz)
    if isinstance(layer, MaskedLinear):
        dense = layer.out_features * layer.in_features
        return LayerStorage(repr(layer), dense, layer.nnz, eie_index_bits)
    if isinstance(layer, BlockCirculantLinear):
        dense = layer.out_features * layer.in_features
        return LayerStorage(repr(layer), dense, layer.weight.size)
    if isinstance(layer, Linear):
        dense = layer.out_features * layer.in_features
        return LayerStorage(repr(layer), dense, dense)
    if isinstance(layer, PermDiagConv2D):
        dense = math.prod(layer.tensor.shape)  # weight holds only stored taps
        return LayerStorage(repr(layer), dense, layer.nnz)
    if isinstance(layer, Conv2D):
        dense = layer.weight.size
        return LayerStorage(repr(layer), dense, dense)
    return None


def model_storage_report(
    model: Module, eie_index_bits: float = 4.0
) -> ModelStorageReport:
    """Account the weight storage of every weight-bearing layer in ``model``.

    Args:
        model: any Module tree (Sequential, custom models, LSTMs...).
        eie_index_bits: per-weight index overhead charged to unstructured
            sparse (pruned) layers -- 4 bits in EIE.
    """
    records: list[LayerStorage] = []
    for module in model.modules():
        if isinstance(module, LSTMCell):
            kind = "dense" if module.p is None else "PD"
            widths = (module.input_size, module.hidden_size)
            for name, width, op in zip("WU", widths, module.weight_matrices):
                records.append(LayerStorage(
                    f"LSTM.{name} ({kind})",
                    4 * module.hidden_size * width,
                    op.stored_weights,
                ))
            continue
        record = _storage_for_layer(module, eie_index_bits)
        if record is not None:
            records.append(record)
    return ModelStorageReport(records)
