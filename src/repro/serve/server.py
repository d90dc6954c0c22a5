"""Batched, sharded multi-engine serving runtime.

``ModelServer`` drives a pipeline of served stages (FC, lowered conv,
LSTM cell) the way the paper's deployment story scales past one engine:
every PD matrix of a stage is cut **row-wise** into ``num_shards`` shards
(block-row granularity, so every shard is itself a valid PD matrix) and
each shard executes on its own :class:`~repro.hw.PermDNNEngine`
instance.  Because row shards partition the output dimension, the shard
engines process the *same* zero-skipped input columns and their stacked
outputs reproduce the unsharded
:meth:`~repro.hw.PermDNNEngine.run_fc_batch` result bit for bit.  Shard
concurrency exists on two clocks: in **simulated time** a micro-batch
occupies a layer for its slowest shard's cycles (the engines are modelled
as a parallel array), and in **host time** the shard engines of a layer
actually run on a :class:`~concurrent.futures.ThreadPoolExecutor`
(``num_threads``; each shard's kernel work releases the GIL inside its
batched numpy/scipy product).  Results are stitched in shard order, so
threaded and sequential execution are bit-identical by construction.

Every stage kind runs one body, :meth:`ServedStage.run_batch`: it builds
the kind's slot inputs once, runs each shard's slot products through
:meth:`~repro.hw.PermDNNEngine.run_fc_batch_detailed`, and hands them to
the kind's combine hook, which writes the shard's output columns.

Sharding reuses the layer matrix's cached index plan through
:meth:`~repro.core.BlockPermutedDiagonalMatrix.row_shard` (pure slicing of
the ``_IndexPlan`` arrays -- index arithmetic is computed once per layer,
never per shard) and shard ``data`` aliases the layer's storage, so a
server wraps live training weights with zero copies.

Requests flow through a :class:`~repro.serve.batching.MicroBatcher`
(configurable batch size and flush deadline) and micro-batches pipeline
between layers: layer ``l`` starts batch ``b`` as soon as layer ``l-1``
finished it *and* layer ``l`` finished batch ``b-1``.  Timing is simulated
engine time (cycles at the configured clock), the same accounting every
other ``repro.hw`` result uses.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from itertools import accumulate
from pathlib import Path

import numpy as np

from repro.core import BlockPermDiagTensor4D, BlockPermutedDiagonalMatrix
from repro.hw.config import EngineConfig
from repro.hw.conv_lowering import (
    accumulate_offsets,
    conv_output_hw,
    lower_columns,
    offset_matrices,
)
from repro.hw.engine import PermDNNEngine
from repro.nn.layers.recurrent import LSTMCell, sigmoid
from repro.serve.batching import MicroBatcher, Request

__all__ = [
    "EmptyServeReportError",
    "InvalidRequestError",
    "LayerShardStats",
    "LoweredConvStage",
    "ModelServer",
    "RecurrentStage",
    "ServeReport",
    "ServedStage",
    "ShardedLayer",
    "build_stages",
]

# Gate order of every recurrent stage's image slots: the four input
# projections W then the four recurrent projections U, gates in LSTMCell
# order (input, forget, cell, output).
_GATES = ("i", "f", "g", "o")


class EmptyServeReportError(ValueError):
    """Raised when percentile statistics are asked of an empty report."""


class InvalidRequestError(ValueError):
    """A submitted request is not a finite real vector of the served width,
    or its arrival time is not a finite real number."""


def _finite_real(values, what: str) -> np.ndarray:
    """``values`` as float64, or :class:`InvalidRequestError`.

    Complex values are rejected before the cast (which would silently
    drop the imaginary part), as are NaN and +-inf.
    """
    values = np.asarray(values)
    if np.iscomplexobj(values):
        raise InvalidRequestError(f"{what} must be real, got complex values")
    values = values.astype(np.float64, copy=False)
    if not np.isfinite(values).all():
        raise InvalidRequestError(f"{what} must be finite, got NaN or inf")
    return values


@dataclass
class LayerShardStats:
    """Cumulative counters for one ``(layer, shard)`` engine.

    Attributes:
        cycles: busy cycles across all processed micro-batches.
        macs: multiply-accumulates performed.
        batches: micro-batches processed.
        samples: individual requests processed.
        shed: requests this shard never saw because admission control
            rejected them at the queue (accounted on the entry layer's
            shards, which is where the work would have started).
    """

    cycles: int = 0
    macs: int = 0
    batches: int = 0
    samples: int = 0
    shed: int = 0


def _shard_major(
    matrices: list[BlockPermutedDiagonalMatrix], num_shards: int
) -> list[tuple[BlockPermutedDiagonalMatrix, ...]]:
    """Row-shard every slot matrix; regroup the shards slot by slot."""
    return list(zip(*(matrix.row_shards(num_shards) for matrix in matrices)))


class ServedStage:
    """One pipeline stage of a :class:`ModelServer`: the slotted skeleton.

    A stage maps a flat ``(B, in_features)`` micro-batch to a flat
    ``(B, out_features)`` one on an array of shard engines.  It holds
    ``shard_slots``: per shard, the stage's ``num_slots`` PD matrices (1
    for FC, ``kh*kw`` offset matrices for a lowered conv, 8 gate matrices
    for an LSTM cell step), all cut at one set of block-row bounds, so
    shard ``K`` owns rows ``row_bounds[K]`` of every slot.  Each shard
    writes a disjoint column range of the output (thread-safe stitching,
    bit-identical at every thread count) and the concatenation equals the
    unsharded single-engine computation bit for bit.

    The base class owns the slot layout, capacity checks, the one stage
    body :meth:`run_batch` and the bundle hooks.  A kind adds its
    model-side constructor, ``_check_geometry`` (validates the slots
    against the kind's geometry and sets ``in_features`` /
    ``out_features``) and two batch hooks:

    - ``_slot_inputs(x_batch)``: the ``num_slots`` engine inputs, in slot
      order, shared read-only by every shard;
    - ``_combine(products, x_batch, outputs, lo, hi)``: consumes one
      shard's slot products (an iterator, in slot order) and writes the
      shard's output columns.
    """

    stage_kind: str = "abstract"
    # Kind-specific manifest fields, written after the common ones.
    geometry: tuple[str, ...] = ()
    # FC hands its activation to the engine with every slot product (and
    # records it in the image); other kinds activate after combining slots.
    engine_activation = False
    num_slots: int
    num_shards: int
    in_features: int
    out_features: int

    def _init_slots(
        self,
        shard_slots: list[list[BlockPermutedDiagonalMatrix]],
        activation: str | None = None,
        **params,
    ) -> None:
        """Adopt shard-major slot matrices.  ``params`` (the kind's
        geometry) become attributes before ``_check_geometry`` runs."""
        self.shard_slots = [list(slots) for slots in shard_slots]
        if not self.shard_slots:
            raise ValueError(
                f"a {self.stage_kind} stage needs at least one shard"
            )
        self.activation = activation
        for name, value in params.items():
            setattr(self, name, value)
        self.num_shards = len(self.shard_slots)
        self.row_bounds: list[tuple[int, int]] = []
        start = 0
        for slots in self.shard_slots:
            if len(slots) != self.num_slots:
                raise ValueError(
                    f"{self.stage_kind} shard holds {len(slots)} matrices, "
                    f"the stage needs {self.num_slots}"
                )
            rows = slots[0].shape[0]
            if any(matrix.shape[0] != rows for matrix in slots):
                raise ValueError("slot matrices of one shard disagree on rows")
            self.row_bounds.append((start, start + rows))
            start += rows
        self._check_geometry()

    def _check_geometry(self) -> None:
        raise NotImplementedError

    def _slot_inputs(self, x_batch: np.ndarray) -> list[np.ndarray]:
        raise NotImplementedError

    def _combine(self, products, x_batch, outputs, lo, hi) -> None:
        raise NotImplementedError

    @classmethod
    def from_shard_slots(
        cls,
        shard_slots: list[list[BlockPermutedDiagonalMatrix]],
        activation: str | None = None,
        **params,
    ) -> "ServedStage":
        """Wrap already-sharded slot matrices (e.g. from a bundle)."""
        stage = cls.__new__(cls)
        stage._init_slots(shard_slots, activation, **params)
        return stage

    @classmethod
    def from_manifest(
        cls, entry: dict, shard_slots: list, directory, **params
    ) -> "ServedStage":
        """Rebuild a stage from its bundle manifest entry and loaded slots."""
        for name in cls.geometry:
            params[name] = entry[name]
        return cls.from_shard_slots(shard_slots, entry["activation"], **params)

    @property
    def compute_dtype(self) -> np.dtype:
        return self.shard_slots[0][0].compute_dtype

    def check_capacity(self, engines: list[PermDNNEngine]) -> None:
        """Verify every slot matrix of every shard fits its engine."""
        for engine, slots in zip(engines, self.shard_slots):
            for matrix in slots:
                engine.check_capacity(matrix)

    def run_batch(
        self,
        engines: list[PermDNNEngine],
        x_batch: np.ndarray,
        executor: ThreadPoolExecutor | None = None,
    ) -> tuple[np.ndarray, list[int], list[int]]:
        """Execute one micro-batch on every shard engine.

        The slot inputs are built once, on the calling thread.  Each shard
        runs its slot products in slot order through
        :meth:`~repro.hw.PermDNNEngine.run_fc_batch_detailed` and
        ``_combine`` writes them into the shard's output columns.  Shards
        run on ``executor``'s threads when given, else in turn; results
        are collected in shard order either way, so outputs and counters
        are identical at every thread count.  Capacity is not re-checked:
        :class:`ModelServer` checks every shard at construction, and slot
        matrices never change after that.

        Returns:
            ``(outputs, shard_cycles, shard_macs)`` with outputs of shape
            ``(B, out_features)``; the batch's wall time on the shard
            array is ``max(shard_cycles)`` -- in simulated time the
            engines are a parallel array, whatever the host execution
            mode.
        """
        inputs = self._slot_inputs(x_batch)
        activation = self.activation if self.engine_activation else None
        # np.zeros, not np.empty: the shard writes that cover every column
        # happen inside ``_combine`` (possibly on executor threads), out
        # of reach of RPR006's unconditional-fill analysis.
        outputs = np.zeros(
            (x_batch.shape[0], self.out_features), dtype=self.compute_dtype
        )

        def run_shard(engine, slots, bounds):
            cycles = macs = 0

            def products():
                # Lazy, so a combine that sums (conv) holds one product
                # at a time.
                nonlocal cycles, macs
                for matrix, x in zip(slots, inputs):
                    out, slot_cycles, slot_macs = engine.run_fc_batch_detailed(
                        matrix, x, activation=activation, enforce_capacity=False
                    )
                    cycles += slot_cycles
                    macs += slot_macs
                    yield out

            self._combine(products(), x_batch, outputs, *bounds)
            return cycles, macs

        shards = (engines, self.shard_slots, self.row_bounds)
        if executor is not None and self.num_shards > 1:
            results = executor.map(run_shard, *shards)
        else:
            results = map(run_shard, *shards)
        shard_cycles, shard_macs = map(list, zip(*results))
        return outputs, shard_cycles, shard_macs

    # -- bundle serialization hooks (see repro.serve.bundle) -----------

    def manifest_entry(self) -> dict:
        first = self.shard_slots[0][0]
        entry = {
            "stage_kind": self.stage_kind,
            "slots": self.num_slots,
            "shape": [self.row_bounds[-1][1], first.shape[1]],
            "activation": self.activation,
        }
        for name in self.geometry:
            value = getattr(self, name)
            entry[name] = list(value) if isinstance(value, tuple) else value
        ends = list(accumulate(slots[0].mb for slots in self.shard_slots))
        entry["shard_block_bounds"] = [
            [start, stop] for start, stop in zip([0, *ends], ends)
        ]
        entry["p"] = first.p
        entry["value_dtype"] = first.value_dtype
        fmt = first.fixed_point
        entry["fixed_point"] = (
            [fmt.total_bits, fmt.frac_bits] if fmt is not None else None
        )
        return entry

    def image_slots(self, shard_idx: int) -> list:
        activation = self.activation if self.engine_activation else None
        return [(matrix, activation) for matrix in self.shard_slots[shard_idx]]

    def aux_payload(self) -> dict | None:
        return None


class ShardedLayer(ServedStage):
    """One FC layer split row-wise across shard engines: the 1-slot stage.

    Args:
        matrix: the full ``(out, in)`` PD weight matrix, cut with
            :meth:`~repro.core.BlockPermutedDiagonalMatrix.row_shards`.
        activation: optional ActU mode (``"relu"``/``"tanh"``) applied by
            every shard engine to its output slice (elementwise, so the
            sharded result still matches the unsharded one exactly).
        num_shards: how many engines the layer spreads over.
    """

    stage_kind = "fc"
    engine_activation = True
    num_slots = 1

    def __init__(
        self,
        matrix: BlockPermutedDiagonalMatrix,
        activation: str | None,
        num_shards: int,
    ) -> None:
        self._init_slots(_shard_major([matrix], num_shards), activation)

    def _check_geometry(self) -> None:
        widths = {slots[0].shape[1] for slots in self.shard_slots}
        if len(widths) != 1:
            raise ValueError(f"shard input widths disagree: {sorted(widths)}")
        self.in_features = widths.pop()
        self.out_features = self.row_bounds[-1][1]

    def _slot_inputs(self, x_batch: np.ndarray) -> list[np.ndarray]:
        return [x_batch]

    def _combine(self, products, x_batch, outputs, lo, hi) -> None:
        (product,) = products
        outputs[:, lo:hi] = product

    # perfbench/tracing.py patches each stage class's *own* run_batch (read
    # through ``cls.__dict__``), so every kind names the shared body.
    run_batch = ServedStage.run_batch

    def __repr__(self) -> str:
        return (
            f"ShardedLayer({self.in_features} -> {self.out_features}, "
            f"shards={self.num_shards}, activation={self.activation!r})"
        )


class LoweredConvStage(ServedStage):
    """A PD convolution served as lowered per-offset FC batches.

    Built on :mod:`repro.hw.conv_lowering`: the ``kh*kw`` per-offset
    channel matrices all share the weight tensor's channel-plane index
    plan, and every offset matrix is row-sharded over **output channels**
    -- so shard ``K`` owns channel rows ``[lo, hi)`` of every offset and
    its output slice is a contiguous range of the channel-major flattened
    feature map.  Requests are flat ``c_in*H*W`` vectors (C-order, the
    same layout ``Flatten`` emits) and outputs are flat ``c_out*ph*pw``
    vectors, so conv stages chain with FC stages without any reshuffling.

    Per micro-batch, each shard accumulates its offset products over the
    ``(B*oh*ow, c_in)`` lowered column batches **in fixed offset order**
    (:func:`~repro.hw.conv_lowering.accumulate_offsets`), applies the
    activation post-accumulation, and optionally fuses a non-overlapping
    square max-pool -- all elementwise/per-channel, so sharded ===
    unsharded and threaded === sequential hold bit for bit.

    Args:
        tensor: PD CONV weight tensor ``(c_out, c_in, kh, kw)``.
        activation: ActU mode applied after offset accumulation.
        num_shards: engines this stage spreads over.
        input_hw: spatial size ``(H, W)`` of the incoming feature map.
        stride / padding: convolution geometry.
        pool: optional fused max-pool factor (window == stride == pool).
        value_dtype / fixed_point: forwarded to
            :func:`~repro.hw.conv_lowering.offset_matrices`.
    """

    stage_kind = "conv"
    geometry = ("kernel_size", "input_hw", "stride", "padding", "pool")

    def __init__(
        self,
        tensor: BlockPermDiagTensor4D,
        activation: str | None,
        num_shards: int,
        input_hw: tuple[int, int],
        stride: int = 1,
        padding: int = 0,
        pool: int | None = None,
        value_dtype: str | None = None,
        fixed_point=None,
    ) -> None:
        matrices = offset_matrices(
            tensor, value_dtype=value_dtype, fixed_point=fixed_point
        )
        self._init_slots(
            _shard_major(matrices, num_shards),
            activation,
            kernel_size=tensor.kernel_size,
            input_hw=input_hw,
            stride=stride,
            padding=padding,
            pool=pool,
        )

    @property
    def num_slots(self) -> int:
        return self.kernel_size[0] * self.kernel_size[1]

    def _check_geometry(self) -> None:
        self.kernel_size = tuple(int(v) for v in self.kernel_size)
        self.input_hw = tuple(int(v) for v in self.input_hw)
        self.stride, self.padding = int(self.stride), int(self.padding)
        pool = self.pool = None if self.pool is None else int(self.pool)
        c_in = self.shard_slots[0][0].shape[1]
        if any(m.shape[1] != c_in for slots in self.shard_slots for m in slots):
            raise ValueError("offset matrices disagree on input channels")
        oh, ow = self.conv_hw = conv_output_hw(
            self.input_hw, self.kernel_size, self.stride, self.padding
        )
        if pool is not None and (pool < 1 or oh % pool or ow % pool):
            raise ValueError(
                f"pool {pool} does not tile the {oh}x{ow} conv output"
            )
        self.output_hw = (
            (oh // pool, ow // pool) if pool is not None else (oh, ow)
        )
        self.channels = (self.row_bounds[-1][1], c_in)
        self.in_features = c_in * self.input_hw[0] * self.input_hw[1]
        self.out_features = (
            self.channels[0] * self.output_hw[0] * self.output_hw[1]
        )

    def _slot_inputs(self, x_batch: np.ndarray) -> list[np.ndarray]:
        """One ``(B*oh*ow, c_in)`` lowered column batch per kernel offset."""
        x = np.asarray(x_batch, dtype=self.compute_dtype).reshape(
            x_batch.shape[0], self.channels[1], *self.input_hw
        )
        return lower_columns(x, self.kernel_size, self.stride, self.padding)

    def _combine(self, products, x_batch, outputs, lo, hi) -> None:
        """Sum the offsets, activate, pool, and write channels ``[lo, hi)``."""
        batch, rows = x_batch.shape[0], hi - lo
        oh, ow = self.conv_hw
        ph, pw = self.output_hw
        acc = accumulate_offsets(products, self.activation)
        fmap = acc.reshape(batch, oh, ow, rows).transpose(0, 3, 1, 2)
        if self.pool is not None:
            pool = self.pool
            fmap = fmap.reshape(batch, rows, ph, pool, pw, pool).max(
                axis=(3, 5)
            )
        outputs[:, lo * ph * pw : hi * ph * pw] = fmap.reshape(
            batch, rows * ph * pw
        )

    # Kept per class for perfbench's tracer (see ShardedLayer).
    run_batch = ServedStage.run_batch

    def __repr__(self) -> str:
        c_out, c_in = self.channels
        return (
            f"LoweredConvStage({c_in}x{self.input_hw[0]}x{self.input_hw[1]}"
            f" -> {c_out}x{self.output_hw[0]}x{self.output_hw[1]}, "
            f"k={self.kernel_size}, shards={self.num_shards}, "
            f"activation={self.activation!r}, pool={self.pool})"
        )


class RecurrentStage(ServedStage):
    """One LSTM-cell timestep served across shard engines.

    The paper's NMT stack is LSTM cells whose 8 component matrices (four
    gates x {input projection W, recurrent projection U}) are all PD; this
    stage drives all 8 through the engine per step.  Every gate matrix is
    row-sharded over **hidden units**, so shard ``K`` owns hidden rows
    ``[lo, hi)`` of every gate and computes its slice of the whole cell
    update locally: gate pre-activations from 8 engine batch calls (the
    four ``W x`` products, then the four ``U h``), then the elementwise
    cell math with exactly
    :meth:`~repro.nn.layers.recurrent.LSTMCell.step`'s expressions (shared
    ``sigmoid``/``tanh``), writing the ``h`` and ``c`` row slices of the
    output.  Requests are ``[x | h_prev | c_prev]`` vectors and outputs
    ``[h | c]``, so a sequence is served by feeding each step's output
    state back into the next request -- and an encoder-decoder pair by
    feeding the encoder's final ``[h | c]`` into the decoder stage's
    requests.

    Args:
        cell: the :class:`~repro.nn.layers.recurrent.LSTMCell` to serve
            (gate matrices must be PD; weights and biases stay aliased,
            so in-place training updates reach serving immediately).
        num_shards: engines this stage spreads over.
        value_dtype / fixed_point: optional reduced-precision conversion
            of the 8 gate matrices.
    """

    stage_kind = "recurrent"
    geometry = ("input_size", "hidden_size")
    num_slots = 2 * len(_GATES)

    def __init__(
        self,
        cell: LSTMCell,
        num_shards: int,
        value_dtype: str | None = None,
        fixed_point=None,
    ) -> None:
        gate_matrices = []
        for ops in (cell.w_ops, cell.u_ops):
            for gate in _GATES:
                matrix = getattr(ops[gate], "matrix", None)
                if not isinstance(matrix, BlockPermutedDiagonalMatrix):
                    raise ValueError(
                        "RecurrentStage needs PD gate matrices; build the "
                        "cell with p set (dense cells are not servable)"
                    )
                if value_dtype is not None:
                    matrix = matrix.with_value_dtype(
                        value_dtype, fixed_point=fixed_point
                    )
                gate_matrices.append(matrix)
        self._init_slots(
            _shard_major(gate_matrices, num_shards),
            biases={gate: cell.biases[gate].value for gate in _GATES},
            input_size=cell.input_size,
            hidden_size=cell.hidden_size,
        )

    @classmethod
    def from_manifest(
        cls, entry: dict, shard_slots: list, directory, **params
    ) -> "RecurrentStage":
        with np.load(Path(directory) / entry["aux_file"]) as aux:
            params["biases"] = {gate: aux[f"bias_{gate}"] for gate in _GATES}
        return super().from_manifest(entry, shard_slots, directory, **params)

    def _check_geometry(self) -> None:
        self.input_size = int(self.input_size)
        hidden = self.hidden_size = int(self.hidden_size)
        for slots in self.shard_slots:
            rows = slots[0].shape[0]
            for slot, matrix in enumerate(slots):
                expected_n = self.input_size if slot < len(_GATES) else hidden
                if matrix.shape != (rows, expected_n):
                    raise ValueError(
                        f"gate slot {slot}: shape {matrix.shape} does not "
                        f"match ({rows}, {expected_n})"
                    )
        if self.row_bounds[-1][1] != hidden:
            raise ValueError(
                f"shards cover {self.row_bounds[-1][1]} hidden rows, cell "
                f"has {hidden}"
            )
        missing = set(_GATES) - set(self.biases)
        if missing:
            raise ValueError(f"missing gate biases: {sorted(missing)}")
        self.in_features = self.input_size + 2 * hidden
        self.out_features = 2 * hidden
        # Elementwise cell math runs in the engines' compute dtype; for
        # float64 keep the live (aliased) bias views so in-place updates
        # reach serving, like every other stage's weights.
        if np.dtype(self.compute_dtype) == np.float64:
            self._biases_c = self.biases
        else:
            self._biases_c = {
                gate: np.asarray(value, dtype=self.compute_dtype)
                for gate, value in self.biases.items()
            }

    def _slot_inputs(self, x_batch: np.ndarray) -> list[np.ndarray]:
        """``x`` for the four W gates, then ``h_prev`` for the four U gates."""
        start = self.input_size
        x = x_batch[:, :start]
        h_prev = x_batch[:, start : start + self.hidden_size]
        return [x] * len(_GATES) + [h_prev] * len(_GATES)

    def _combine(self, products, x_batch, outputs, lo, hi) -> None:
        """The cell update of hidden rows ``[lo, hi)``: ``h`` and ``c``."""
        hidden = self.hidden_size
        products = list(products)
        w_x, u_h = products[: len(_GATES)], products[len(_GATES) :]
        # Same association order as LSTMCell.step: (W x + U h) + b.
        pre = {
            gate: w + u + self._biases_c[gate][lo:hi]
            for gate, w, u in zip(_GATES, w_x, u_h)
        }
        gate_i = sigmoid(pre["i"])
        gate_f = sigmoid(pre["f"])
        gate_g = np.tanh(pre["g"])
        gate_o = sigmoid(pre["o"])
        c_start = self.input_size + hidden
        c_prev = np.asarray(
            x_batch[:, c_start + lo : c_start + hi], dtype=self.compute_dtype
        )
        c = gate_f * c_prev + gate_i * gate_g
        outputs[:, lo:hi] = gate_o * np.tanh(c)
        outputs[:, hidden + lo : hidden + hi] = c

    # Kept per class for perfbench's tracer (see ShardedLayer).
    run_batch = ServedStage.run_batch

    def aux_payload(self) -> dict | None:
        return {
            f"bias_{gate}": np.asarray(self.biases[gate], dtype=np.float64)
            for gate in _GATES
        }

    def __repr__(self) -> str:
        return (
            f"RecurrentStage(x={self.input_size} h={self.hidden_size}, "
            f"shards={self.num_shards})"
        )


def build_stages(
    specs: list,
    num_shards: int,
    input_hw: tuple[int, int] | None = None,
    value_dtype: str | None = None,
    fixed_point=None,
) -> list[ServedStage]:
    """Turn :func:`~repro.nn.serialization.model_stage_specs` output into
    served stages, chaining conv spatial geometry stage to stage.

    ``input_hw`` is the spatial size of the first conv stage's input
    (required iff the model has conv stages); each conv stage's output
    size feeds the next.  ``value_dtype``/``fixed_point`` convert every
    stage's weight storage (quantize-at-serve; plans stay shared with the
    training matrices).
    """
    from repro.nn.serialization import (
        ConvStageSpec,
        FCStageSpec,
        RecurrentStageSpec,
    )

    stages: list[ServedStage] = []
    chain_hw = tuple(int(v) for v in input_hw) if input_hw is not None else None
    for spec in specs:
        if isinstance(spec, FCStageSpec):
            matrix = spec.matrix
            if value_dtype is not None:
                matrix = matrix.with_value_dtype(
                    value_dtype, fixed_point=fixed_point
                )
            stages.append(ShardedLayer(matrix, spec.activation, num_shards))
        elif isinstance(spec, ConvStageSpec):
            if chain_hw is None:
                raise ValueError(
                    "model has conv stages: pass input_hw=(H, W), the "
                    "spatial size of the first conv stage's input"
                )
            stage = LoweredConvStage(
                spec.tensor,
                spec.activation,
                num_shards,
                input_hw=chain_hw,
                stride=spec.stride,
                padding=spec.padding,
                pool=spec.pool,
                value_dtype=value_dtype,
                fixed_point=fixed_point,
            )
            chain_hw = stage.output_hw
            stages.append(stage)
        elif isinstance(spec, RecurrentStageSpec):
            stages.append(RecurrentStage(
                spec.cell,
                num_shards,
                value_dtype=value_dtype,
                fixed_point=fixed_point,
            ))
        else:
            raise TypeError(
                f"unknown stage spec {type(spec).__name__}"
            )
    return stages


@dataclass
class ServeReport:
    """Everything one :meth:`ModelServer.drain` produced.

    Per-request latency is recorded as a queue/compute split:
    ``queue_us`` covers arrival to the instant the request's micro-batch
    starts computing on the entry layer (batch-formation wait plus
    waiting for a free entry-layer engine), ``compute_us`` covers the
    pipeline traversal, and ``latencies_us`` is their sum (completion
    minus arrival) -- the quantity the SLO is stated against.

    Attributes:
        outputs: final-layer output per admitted request, in submission
            (rid) order.
        latencies_us: per-request total latency (completion minus arrival).
        batch_sizes: micro-batch sizes, in formation order.
        makespan_us: first admitted arrival to last completion.
        throughput_rps: requests served per second of simulated time.
        layer_stats: ``(L, N)`` grid of per-(layer, shard) counters for
            this drain.
        layer_cycles: per-layer critical-path cycles (the slowest shard of
            every micro-batch, summed).
        queue_us: per-request queueing latency (see above).
        compute_us: per-request pipeline-compute latency (see above).
        shed_rids: ids of requests rejected by admission control, in
            arrival order; always empty on an unbounded queue.
    """

    outputs: list[np.ndarray]
    latencies_us: np.ndarray
    batch_sizes: list[int]
    makespan_us: float
    throughput_rps: float
    layer_stats: list[list[LayerShardStats]]
    layer_cycles: list[int]
    queue_us: np.ndarray = field(default_factory=lambda: np.empty(0))
    compute_us: np.ndarray = field(default_factory=lambda: np.empty(0))
    shed_rids: list[int] = field(default_factory=list)

    @property
    def num_requests(self) -> int:
        """Admitted (= completed) requests."""
        return len(self.outputs)

    @property
    def num_shed(self) -> int:
        """Requests rejected by admission control."""
        return len(self.shed_rids)

    @property
    def num_submitted(self) -> int:
        """Everything that arrived: admitted plus shed."""
        return self.num_requests + self.num_shed

    def _series(self, which: str) -> np.ndarray:
        series = {
            "total": self.latencies_us,
            "queue": self.queue_us,
            "compute": self.compute_us,
        }
        if which not in series:
            raise ValueError(
                f"unknown latency series {which!r}; "
                f"known: {', '.join(sorted(series))}"
            )
        return series[which]

    def latency_percentile(self, q: float, which: str = "total") -> float:
        """Latency percentile in microseconds (e.g. ``q=50``, ``q=99``).

        Raises:
            EmptyServeReportError: on a report with no completed
                requests -- percentiles of nothing are a caller bug, not
                a zero.
        """
        series = self._series(which)
        if series.size == 0:
            raise EmptyServeReportError(
                "latency percentiles are undefined on an empty report "
                f"({self.num_shed} shed, 0 completed)"
            )
        return float(np.percentile(series, q))

    def percentile_curve(
        self,
        qs: tuple[float, ...] = (50.0, 90.0, 95.0, 99.0),
        which: str = "total",
    ) -> np.ndarray:
        """Latency percentiles at every ``q`` of ``qs``, as an array.

        ``which`` selects the series: ``"total"`` (default),
        ``"queue"``, or ``"compute"``.  Monotone in ``q`` by definition
        of the percentile; raises :class:`EmptyServeReportError` on an
        empty report like :meth:`latency_percentile`.
        """
        series = self._series(which)
        if series.size == 0:
            raise EmptyServeReportError(
                "latency percentiles are undefined on an empty report "
                f"({self.num_shed} shed, 0 completed)"
            )
        return np.percentile(series, np.asarray(qs, dtype=np.float64))


class ModelServer:
    """Sharded multi-engine serving front end (submit / drain).

    Args:
        layers: the served pipeline, input to output.  Each entry is
            either a pre-built :class:`ServedStage` (FC, lowered-conv,
            recurrent, ...) or a raw ``(matrix, activation)`` pair (the
            same shape :meth:`~repro.hw.PermDNNEngine.run_network`
            accepts), which is wrapped as a :class:`ShardedLayer`.
        num_shards: engines per layer; each holds one row shard.
        config: engine configuration shared by every shard engine.
        max_batch_size: micro-batcher fill limit.
        flush_deadline_us: micro-batcher deadline flush.
        enforce_capacity: validate every shard against its engine's SRAM
            budget at construction (slot matrices never change after
            that, so batches are not re-checked).
        num_threads: host threads driving each layer's shard engines.
            ``None`` (default) uses ``min(max shard count, host CPUs)``;
            ``1`` forces sequential shard execution.  Purely a host-side
            execution knob: simulated cycles, counters, and outputs are
            identical at every thread count (shards are collected in
            shard order).
        queue_capacity: bound on the in-flight population (requests
            admitted but not yet completed, including the forming
            batch).  ``None`` (default) queues unboundedly -- the exact
            pre-admission-control behaviour.  With a bound, a request
            arriving while the population is at capacity is **shed**
            (reject-newest): it is never executed, its id lands in
            :attr:`ServeReport.shed_rids`, and the entry layer's shard
            counters record the rejection.  Bounding the queue bounds
            queueing delay (Little's law: delay ~ capacity / service
            rate), which is what keeps admitted-request tail latency
            inside an SLO past the saturation knee.
    """

    def __init__(
        self,
        layers: list,
        num_shards: int = 4,
        config: EngineConfig | None = None,
        max_batch_size: int = 16,
        flush_deadline_us: float = 50.0,
        enforce_capacity: bool = True,
        num_threads: int | None = None,
        queue_capacity: int | None = None,
    ) -> None:
        if not layers:
            raise ValueError("ModelServer needs at least one layer")
        if queue_capacity is not None and queue_capacity <= 0:
            raise ValueError(
                f"queue_capacity must be positive or None, got {queue_capacity}"
            )
        self.queue_capacity = queue_capacity
        self.config = config or EngineConfig()
        self.layers: list[ServedStage] = [
            layer
            if isinstance(layer, ServedStage)
            else ShardedLayer(layer[0], layer[1], num_shards)
            for layer in layers
        ]
        # Derive from the layers: a pre-built stage carries its own
        # shard count, which the ``num_shards`` argument does not override.
        self.num_shards = self.layers[0].num_shards
        if num_threads is None:
            num_threads = min(
                max(layer.num_shards for layer in self.layers),
                os.cpu_count() or 1,
            )
        if num_threads < 1:
            raise ValueError(f"num_threads must be >= 1, got {num_threads}")
        self.num_threads = int(num_threads)
        for prev, nxt in zip(self.layers, self.layers[1:]):
            if prev.out_features != nxt.in_features:
                raise ValueError(
                    f"layer chain mismatch: {prev!r} feeds {nxt!r}"
                )
        # One engine per (layer, shard): every shard owns its own SRAMs and
        # counters, exactly like an array of physical engines would.
        self.engines: list[list[PermDNNEngine]] = [
            [PermDNNEngine(self.config) for _ in range(layer.num_shards)]
            for layer in self.layers
        ]
        if enforce_capacity:
            for layer, engines in zip(self.layers, self.engines):
                layer.check_capacity(engines)
        self.batcher = MicroBatcher(max_batch_size, flush_deadline_us)
        self._pending: list[Request] = []
        self._next_rid = 0
        self._last_arrival_us = 0.0

    @classmethod
    def from_model(
        cls,
        model,
        input_hw: tuple[int, int] | None = None,
        value_dtype: str | None = None,
        fixed_point=None,
        num_shards: int = 4,
        **kwargs,
    ) -> "ModelServer":
        """Wrap a trained model's live weights as a served pipeline.

        The model is walked by
        :func:`repro.nn.serialization.model_stage_specs` -- PD FC stacks,
        PD conv + pool chains, and PD LSTM cells all map to served
        stages; anything else raises
        :class:`~repro.nn.serialization.UnsupportedLayerError`.  FC and
        recurrent shard data aliases the layers' parameter storage, so
        serving reflects subsequent in-place weight updates (conv stages
        repack the trainable dense kernel tensor at construction).

        Args:
            model: the :class:`~repro.nn.module.Module` to serve.
            input_hw: spatial ``(H, W)`` of the first conv stage's input
                (required iff the model has conv layers).
            value_dtype / fixed_point: serve-time weight storage
                conversion (quantize-at-serve; index plans stay shared).
            num_shards / kwargs: forwarded to the constructor.
        """
        from repro.nn.serialization import model_stage_specs

        stages = build_stages(
            model_stage_specs(model),
            num_shards,
            input_hw=input_hw,
            value_dtype=value_dtype,
            fixed_point=fixed_point,
        )
        return cls(stages, num_shards=num_shards, **kwargs)

    @classmethod
    def from_bundle(cls, directory, **kwargs) -> "ModelServer":
        """Boot a server from a sharded image bundle.

        Every shard matrix arrives with its serialized index plan
        (:mod:`repro.serve.bundle`), so cold-starting a many-layer sharded
        server performs **no** index arithmetic -- for FC, lowered-conv,
        and recurrent stages alike.  Keyword arguments are forwarded to
        the constructor (batching, config, ...).
        """
        from repro.serve.bundle import load_staged_bundle

        stages, _ = load_staged_bundle(directory)
        return cls(stages, **kwargs)

    # ------------------------------------------------------------------

    @property
    def in_features(self) -> int:
        return self.layers[0].in_features

    @property
    def out_features(self) -> int:
        return self.layers[-1].out_features

    @property
    def cycles_per_us(self) -> float:
        return self.config.clock_ghz * 1e3

    def submit(self, x: np.ndarray, arrival_us: float | None = None) -> int:
        """Queue one request; returns its id (= output position).

        ``arrival_us`` defaults to the previous request's arrival (an
        all-at-once burst when never specified); arrivals are clamped to be
        non-decreasing so the queue stays ordered.

        Raises:
            InvalidRequestError: ``x`` is not a finite real vector of
                ``in_features`` values, or ``arrival_us`` is not a finite
                real time; nothing is queued.
        """
        x = self._checked_requests(x, ndim=1)
        if arrival_us is not None:
            arrival_us = float(_finite_real(arrival_us, "arrival times"))
        return self._enqueue(x, arrival_us)

    def submit_many(
        self,
        xs: np.ndarray,
        arrivals_us: np.ndarray | None = None,
    ) -> list[int]:
        """Queue a batch of requests; returns their ids in order.

        The batch and its arrival times (one per row) are validated as a
        whole, before any row is queued (see :meth:`submit`).
        """
        xs = self._checked_requests(xs, ndim=2)
        if arrivals_us is None:
            return [self._enqueue(x, None) for x in xs]
        arrivals = _finite_real(arrivals_us, "arrival times")
        if arrivals.shape != (xs.shape[0],):
            raise InvalidRequestError(
                f"arrival times of shape {arrivals.shape} do not match a "
                f"batch of {xs.shape[0]}"
            )
        return [self._enqueue(x, t) for x, t in zip(xs, arrivals)]

    def _checked_requests(self, xs, ndim: int) -> np.ndarray:
        """``xs`` as finite real float64 with ``ndim`` axes and
        ``in_features`` columns."""
        xs = _finite_real(xs, "requests")
        if xs.ndim != ndim or xs.shape[-1] != self.in_features:
            kind = "request" if ndim == 1 else "request batch"
            raise InvalidRequestError(
                f"expected input {kind} of width {self.in_features}, "
                f"got shape {xs.shape}"
            )
        return xs

    def _enqueue(self, x: np.ndarray, arrival_us: float | None) -> int:
        if arrival_us is None:
            arrival_us = self._last_arrival_us
        arrival_us = max(float(arrival_us), self._last_arrival_us)
        self._last_arrival_us = arrival_us
        rid = self._next_rid
        self._next_rid += 1
        self._pending.append(Request(rid, x, arrival_us))
        return rid

    def drain(self) -> ServeReport:
        """Serve every pending request and return the drain report.

        Micro-batches are formed online (the batcher's streaming
        assembler) and pipelined through the layer shard arrays: batch
        ``b`` enters layer ``l`` at ``max(completion[l-1][b],
        completion[l][b-1], ready_b)`` and occupies the layer for its
        slowest shard's cycles.  A batch is never ready before its last
        member arrived, so per-request latency (completion minus
        arrival) is honest open-loop timing; each request's wait is
        split into queue and compute components (see
        :class:`ServeReport`).

        With a bounded ``queue_capacity``, admission control runs at
        each request's arrival instant: if the in-flight population
        (admitted, not yet completed at that simulated time) is at
        capacity, the newest request is shed instead of queued.  Batch
        formation, execution, and shedding all advance on the same
        simulated clock, so the whole drain stays a pure function of the
        submitted ``(input, arrival)`` sequence -- identical seeds
        reproduce identical per-request latency traces.  Outputs come
        back in submission order regardless of batching.

        With ``num_threads > 1`` a drain-scoped thread pool runs each
        layer's shard engines concurrently on the host (shut down before
        this method returns, so no threads outlive the drain); the
        simulated clock and every output are unchanged by threading.
        """
        pending, self._pending = self._pending, []
        num_layers = len(self.layers)
        layer_stats = [
            [LayerShardStats() for _ in range(layer.num_shards)]
            for layer in self.layers
        ]
        layer_cycles = [0] * num_layers
        outputs: dict[int, np.ndarray] = {}
        latencies: dict[int, float] = {}
        queue_lat: dict[int, float] = {}
        batch_sizes: list[int] = []
        shed_rids: list[int] = []
        # completion time (in cycles) of the previous batch, per layer
        layer_free = [0.0] * num_layers
        # completion times (us) of already-executed batches' requests, in
        # non-decreasing order (each batch finishes no earlier than its
        # predecessor); ``done_idx`` advances with simulated time so the
        # in-flight count below stays O(1) amortized.
        completion_log: list[float] = []
        done_idx = 0

        # Drain-scoped shard pool: created here (not per batch, not per
        # server) so threads are reused across every micro-batch of the
        # drain yet never outlive it.
        executor = (
            ThreadPoolExecutor(
                max_workers=self.num_threads,
                thread_name_prefix="repro-shard",
            )
            if self.num_threads > 1
            else None
        )

        def run_batch(batch) -> None:
            current = batch.stacked_inputs()
            done = batch.ready_us * self.cycles_per_us
            start_entry = done
            for idx, (layer, engines) in enumerate(
                zip(self.layers, self.engines)
            ):
                current, shard_cycles, shard_macs = layer.run_batch(
                    engines, current, executor=executor
                )
                stage = max(shard_cycles)
                start = max(done, layer_free[idx])
                if idx == 0:
                    start_entry = start
                done = start + stage
                layer_free[idx] = done
                layer_cycles[idx] += stage
                for shard_idx, (cycles, macs) in enumerate(
                    zip(shard_cycles, shard_macs)
                ):
                    stats = layer_stats[idx][shard_idx]
                    stats.cycles += cycles
                    stats.macs += macs
                    stats.batches += 1
                    stats.samples += batch.size
            completion_us = done / self.cycles_per_us
            # The cycles round trip can land an ulp before ready_us, which
            # would make an idle entry layer report negative queueing.
            start_entry_us = max(
                start_entry / self.cycles_per_us, batch.ready_us
            )
            for row, request in enumerate(batch.requests):
                outputs[request.rid] = current[row]
                latencies[request.rid] = completion_us - request.arrival_us
                queue_lat[request.rid] = start_entry_us - request.arrival_us
                completion_log.append(completion_us)
            batch_sizes.append(batch.size)

        try:
            assembler = self.batcher.assembler()
            for request in pending:
                flushed = assembler.poll(request.arrival_us)
                if flushed is not None:
                    run_batch(flushed)
                if self.queue_capacity is not None:
                    # In-flight population at this arrival: the forming
                    # batch plus every executed request still completing
                    # in the simulated future.
                    while (
                        done_idx < len(completion_log)
                        and completion_log[done_idx] <= request.arrival_us
                    ):
                        done_idx += 1
                    in_flight = (
                        assembler.pending_count
                        + len(completion_log)
                        - done_idx
                    )
                    if in_flight >= self.queue_capacity:
                        shed_rids.append(request.rid)
                        for stats in layer_stats[0]:
                            stats.shed += 1
                        continue
                for batch in assembler.offer(request):
                    run_batch(batch)
            tail = assembler.finish()
            if tail is not None:
                run_batch(tail)
        finally:
            if executor is not None:
                executor.shutdown(wait=True)

        rids = sorted(outputs)
        latencies_us = np.asarray([latencies[rid] for rid in rids])
        queue_us = np.asarray([queue_lat[rid] for rid in rids])
        compute_us = latencies_us - queue_us
        shed = set(shed_rids)
        admitted = [req for req in pending if req.rid not in shed]
        if admitted:
            first_arrival = min(request.arrival_us for request in admitted)
            last_completion = max(
                request.arrival_us + latencies[request.rid]
                for request in admitted
            )
            makespan_us = last_completion - first_arrival
        else:
            makespan_us = 0.0
        throughput = (
            len(rids) / (makespan_us * 1e-6) if makespan_us > 0 else 0.0
        )
        return ServeReport(
            outputs=[outputs[rid] for rid in rids],
            latencies_us=latencies_us,
            batch_sizes=batch_sizes,
            makespan_us=makespan_us,
            throughput_rps=throughput,
            layer_stats=layer_stats,
            layer_cycles=layer_cycles,
            queue_us=queue_us,
            compute_us=compute_us,
            shed_rids=shed_rids,
        )

    def __repr__(self) -> str:
        return (
            f"ModelServer(layers={len(self.layers)}, "
            f"shards={self.num_shards}, "
            f"threads={self.num_threads}, "
            f"max_batch={self.batcher.max_batch_size}, "
            f"deadline={self.batcher.flush_deadline_us}us, "
            f"queue_capacity={self.queue_capacity})"
        )
