"""Whole-model checkpointing to ``.npz``.

Checkpoints hold the flat parameter state dict plus, per PD matrix, its
per-block permutation parameters ``ks`` -- the structure the values were
trained under, one small integer per block -- and a format version.  PD
parameters are saved in their storage order, row by row (``(mb, p, nb)``
per matrix, ``(kh, kw, mb, p, nb)`` per conv tensor); the version names
that order, so a checkpoint written before it (values block-major, no
version) is rejected instead of loading permuted weights.
:func:`load_model` checks the version and every ``ks`` against the model
before writing any parameter, so a checkpoint never loads into a layer
with different permutations.  No index state is stored: a loaded layer
derives its plan from ``ks`` as usual.

:func:`model_stage_specs` flattens a trained model into the serving
stages of :mod:`repro.serve` (PD FC, lowered conv and LSTM-cell specs
over the model's live weights), which ``ModelServer.from_model`` and the
staged bundles of :mod:`repro.serve.bundle` consume.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core import BlockPermDiagTensor4D, BlockPermutedDiagonalMatrix
from repro.nn.layers.activations import ReLU, Tanh
from repro.nn.layers.dropout import Dropout
from repro.nn.layers.flatten import Flatten
from repro.nn.layers.perm_diag_conv2d import PermDiagConv2D
from repro.nn.layers.perm_diag_linear import PermDiagLinear
from repro.nn.layers.pooling import MaxPool2D
from repro.nn.layers.recurrent import LSTM, LSTMCell
from repro.nn.module import Module
from repro.nn.sequential import Sequential

__all__ = [
    "ConvStageSpec",
    "FCStageSpec",
    "RecurrentStageSpec",
    "UnsupportedLayerError",
    "load_model",
    "model_stage_specs",
    "save_model",
]


class UnsupportedLayerError(ValueError):
    """A model contains a layer the requested serving surface cannot run.

    Raised (instead of an opaque ``AttributeError`` or a silent skip) when
    flattening a model for the engine or the serving runtime meets a
    module type it does not understand.  The message always names the
    offending layer's class and its position in ``model.modules()``
    order, so the failure points at the layer, not at the walker.

    Subclasses ``ValueError`` so existing ``except ValueError`` callers
    keep working.
    """

    def __init__(self, index: int, module, detail: str) -> None:
        self.index = index
        self.layer_type = type(module).__name__
        super().__init__(
            f"module {index} ({self.layer_type}) {detail}"
        )

# Checkpoint keys carrying each PD matrix's ``ks`` (in module-discovery
# order) and the format version; everything else is parameter state.
# The version names the PD value layout: 2 is row by row.  Unversioned
# checkpoints are version 1 (block-major values), and the oldest of them
# hold a serialized index plan per matrix (``pd_plan_<i>``), not ``ks``.
_KS_KEY = "pd_ks"
_LEGACY_PLAN_KEY = "pd_plan"
_VERSION_KEY = "checkpoint_version"
_VERSION = 2


def _pd_matrices(model: Module) -> list[BlockPermutedDiagonalMatrix]:
    """Structured matrices of the model's PD layers, in discovery order.

    Covers FC layers and LSTM cells' stacked ``W`` and ``U`` (their
    `_matrix`) and PD convolutions (the first offset matrix of their
    `_tensor`, whose ``ks`` all offsets share).  Discovery order is
    deterministic for a fixed architecture, which is what lets ``ks``
    keys pair back up with their layers at load time (the same state-dict
    discipline the parameters follow).
    """
    matrices = []
    for module in model.modules():
        matrix = getattr(module, "_matrix", None)
        if isinstance(matrix, BlockPermutedDiagonalMatrix):
            matrices.append(matrix)
        tensor = getattr(module, "_tensor", None)
        if isinstance(tensor, BlockPermDiagTensor4D):
            matrices.append(tensor.matrices[0])
    return matrices


@dataclass
class FCStageSpec:
    """One FC serving stage: a PD matrix plus its ActU mode."""

    matrix: BlockPermutedDiagonalMatrix
    activation: str | None = None


@dataclass
class ConvStageSpec:
    """One lowered-conv serving stage.

    ``tensor`` is the layer's live PD weight tensor
    (:attr:`~repro.nn.PermDiagConv2D.tensor`, whose offset matrices alias
    the trainable values); ``pool`` is an optional non-overlapping square
    max-pool factor fused after the activation.  The input spatial size is
    supplied at server/bundle construction, not here -- the same conv
    stack serves any spatial resolution.
    """

    tensor: BlockPermDiagTensor4D
    activation: str | None = None
    stride: int = 1
    padding: int = 0
    pool: int | None = None


@dataclass
class RecurrentStageSpec:
    """One per-timestep LSTM-cell serving stage (the cell's live weights)."""

    cell: LSTMCell


def model_stage_specs(model: Module) -> list:
    """Flatten a model into serving-stage specs: FC, conv, and recurrent.

    Walks the model in module order, skipping containers and the
    inference no-ops ``Dropout``/``Flatten``:

    - :class:`~repro.nn.PermDiagLinear` (zero bias; the engine computes
      ``W x`` only) becomes an :class:`FCStageSpec`, and a following
      ``ReLU``/``Tanh`` its ActU mode;
    - :class:`~repro.nn.PermDiagConv2D` (zero bias) becomes a
      :class:`ConvStageSpec`; a following ``ReLU``/``Tanh`` attaches as
      its activation and a following non-overlapping square
      :class:`~repro.nn.MaxPool2D` fuses as its ``pool`` factor;
    - :class:`~repro.nn.LSTM` / :class:`~repro.nn.LSTMCell` (PD weight
      ops) becomes a :class:`RecurrentStageSpec` serving one timestep:
      request layout ``[x | h_prev | c_prev] -> [h | c]``.

    Anything else raises :class:`UnsupportedLayerError` naming the
    offending module and its position in ``model.modules()`` order --
    never a silent skip.  Returned specs reference the model's **live**
    weights: FC matrices, conv offset matrices and cell gate matrices
    all alias parameter storage.
    """
    specs: list = []
    pending = None  # spec still accepting an activation
    last_conv = None  # spec still accepting a fused pool
    skip_ids: set[int] = set()
    for index, module in enumerate(model.modules()):
        if id(module) in skip_ids:
            continue
        if isinstance(module, Sequential):
            continue
        if isinstance(module, PermDiagLinear):
            if module.bias is not None and np.any(module.bias.value):
                raise UnsupportedLayerError(
                    index, module,
                    "carries a non-zero bias; the engine's FC datapath "
                    "computes W x only",
                )
            specs.append(FCStageSpec(module.matrix))
            pending, last_conv = specs[-1], None
        elif isinstance(module, PermDiagConv2D):
            if module.bias is not None and np.any(module.bias.value):
                raise UnsupportedLayerError(
                    index, module,
                    "carries a non-zero bias; the lowered conv stage "
                    "accumulates W * x only",
                )
            specs.append(ConvStageSpec(
                module.tensor,
                stride=module.stride,
                padding=module.padding,
            ))
            pending = last_conv = specs[-1]
        elif isinstance(module, (ReLU, Tanh)):
            if pending is None:
                raise UnsupportedLayerError(
                    index, module,
                    "is an activation that does not follow a PD FC or "
                    "conv layer",
                )
            pending.activation = "relu" if isinstance(module, ReLU) else "tanh"
            pending = None
        elif isinstance(module, MaxPool2D):
            kh, kw = module.kernel_size
            if (
                last_conv is None
                or last_conv.pool is not None
                or kh != kw
                or module.stride != kh
            ):
                raise UnsupportedLayerError(
                    index, module,
                    "must directly follow a conv stage as a "
                    "non-overlapping square pool (stride == kernel)",
                )
            last_conv.pool = kh
            pending = last_conv = None
        elif isinstance(module, (Dropout, Flatten)):
            continue  # inference no-ops (conv stages emit channel-major flat)
        elif isinstance(module, (LSTM, LSTMCell)):
            cell = module.cell if isinstance(module, LSTM) else module
            if cell.p is None:
                raise UnsupportedLayerError(
                    index, module,
                    "uses dense weight ops; the recurrent stage serves "
                    "PD gate matrices only (construct with p set)",
                )
            # Consume the whole recurrent subtree as one stage.
            skip_ids.update(id(sub) for sub in module.modules())
            specs.append(RecurrentStageSpec(cell))
            pending = last_conv = None
        else:
            raise UnsupportedLayerError(
                index, module,
                "is not servable (expected PermDiagLinear, PermDiagConv2D "
                "+ ReLU/Tanh/MaxPool2D, or PD LSTM stacks)",
            )
    if not specs:
        raise ValueError("model contains no servable PD stages")
    return specs


def save_model(path: str, model: Module) -> None:
    """Write a model's parameters and PD structure to an ``.npz`` checkpoint.

    Layer structure beyond ``ks`` is not serialized -- loading requires
    rebuilding the same architecture first (the usual state-dict
    discipline).  PD layers save their packed value arrays, so checkpoints
    of compressed models are proportionally small, in the storage order
    that the written format version names.

    Args:
        path: target checkpoint path.
        model: the model to snapshot.
    """
    state = model.state_dict()
    for idx, matrix in enumerate(_pd_matrices(model)):
        state[f"{_KS_KEY}_{idx}"] = np.asarray(matrix.ks)
    state[_VERSION_KEY] = np.asarray(_VERSION)
    np.savez_compressed(path, **state)


def load_model(path: str, model: Module) -> Module:
    """Load an ``.npz`` checkpoint into an already-constructed model.

    The format version and every stored ``ks`` are checked before any
    parameter is written, and the model is left untouched when a check
    fails: a checkpoint holding PD structure at another format version
    (an unversioned one stores PD values block-major) raises
    ``ValueError`` naming the value layout, and a ``ks`` mismatch one
    naming the matrix's index.  Checkpoints of dense models load at any
    version.

    Args:
        path: checkpoint produced by :func:`save_model`.
        model: a model with the exact same parameter shapes.

    Returns:
        The same model instance, for chaining.
    """
    with np.load(path) as archive:
        state = {key: archive[key] for key in archive.files}
    version = state.pop(_VERSION_KEY, 1)
    if version != _VERSION and any(
        key.startswith((_KS_KEY, _LEGACY_PLAN_KEY)) for key in state
    ):
        raise ValueError(
            f"checkpoint {path} has format version {version}, not "
            f"{_VERSION}: its PD values are not in the row-by-row "
            f"(mb, p, nb) value layout"
        )
    params, stored_ks = {}, {}
    for key, value in state.items():
        prefix, _, index = key.rpartition("_")
        if prefix == _KS_KEY:
            stored_ks[int(index)] = value
        else:
            params[key] = value
    matrices = _pd_matrices(model)
    for idx, ks in stored_ks.items():
        if idx >= len(matrices) or not np.array_equal(matrices[idx].ks, ks):
            raise ValueError(
                f"PD matrix {idx}: the checkpoint's ks does not match the "
                f"model's permutation structure"
            )
    model.load_state_dict(params)
    return model
