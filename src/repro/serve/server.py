"""Batched, sharded multi-engine serving runtime.

``ModelServer`` drives a pipeline of served stages (FC, lowered conv,
LSTM cell) the way the paper's deployment story scales past one engine:
every PD matrix of a stage is cut **row-wise** into ``num_shards`` shards
(block-row granularity, so every shard is itself a valid PD matrix) and
each shard executes on its own :class:`~repro.hw.PermDNNEngine`
instance.  Because row shards partition the output dimension, the shard
engines process the *same* zero-skipped input columns and their stacked
outputs reproduce the unsharded
:meth:`~repro.hw.PermDNNEngine.run_fc_batch_detailed` result bit for
bit.  Shard concurrency exists on two clocks: in **simulated time** a micro-batch
occupies a layer for its slowest shard's cycles (the engines are modelled
as a parallel array), and in **host time** the shard engines of a layer
run on a :class:`~concurrent.futures.ThreadPoolExecutor` (``num_threads``;
each shard's kernel work releases the GIL inside its batched numpy/scipy
product) -- when the batch's products are big enough to pay for the
thread handoff (``_THREAD_MIN_MACS`` stored MACs in the largest shard
slot product); smaller batches run their shards in turn on the calling
thread.  Results are stitched in shard order, so threaded and sequential
execution are bit-identical by construction.

Every stage is built one way, from its whole slot matrices and one list
of block-row bounds (:meth:`ServedStage._init_slots`), whether they come
from a live model or from a bundle, and every stage kind runs one body,
:meth:`ServedStage.run_batch`: it builds
the kind's slot inputs and their zero-skip counts once, runs each shard's
slot products through
:meth:`~repro.hw.PermDNNEngine.run_fc_batch_detailed`, reduces them to
the shard's pre-activation columns with the kind's ``_reduce`` hook, and
runs the kind's nonlinear tail (``_finish``) once on the stitched
columns.

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
from functools import cached_property
from pathlib import Path

import numpy as np

from repro.core import BlockPermDiagTensor4D, BlockPermutedDiagonalMatrix
from repro.core.block_perm_diag import convert_values, row_shard_bounds
from repro.hw.config import EngineConfig
from repro.hw.engine import PermDNNEngine, apply_activation
from repro.nn.functional import (
    checked_int,
    conv_output_hw,
    int_pair,
    lower_columns,
)
from repro.nn.layers.recurrent import (
    LSTMCell,
    join_gates,
    lstm_update,
    split_gates,
    stack_gates,
)
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

# A recurrent stage's aux sidecar keys: its bias per gate, in cell order.
_BIAS_KEYS = ("bias_i", "bias_f", "bias_g", "bias_o")

# A micro-batch runs its shards on the drain's executor only when its
# largest shard slot product stores at least this many MACs (slot input
# rows times the slot matrix's ``nnz``); smaller shards run in turn on
# the calling thread, because below it the thread handoff and the GIL
# held between kernel calls cost more than the overlap saves (crossover
# sweep in docs/BENCHMARKS.md).
_THREAD_MIN_MACS = 1 << 17


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


class ServedStage:
    """One pipeline stage of a :class:`ModelServer`: the slotted skeleton.

    A stage maps a flat ``(B, in_features)`` micro-batch to a flat
    ``(B, out_features)`` one on an array of shard engines.  It holds its
    ``num_slots`` whole PD matrices, ``matrices`` (1 for FC, ``kh*kw``
    offset matrices for a lowered conv, 2 stacked gate matrices for an
    LSTM cell step), and ``shard_slots``: per shard, every slot cut at
    the shard's ``block_bounds`` entry, so shard ``K`` owns the same
    block rows of every slot.  Each shard computes a disjoint column
    range of the stage's pre-activations (stitched in shard order,
    bit-identical at every thread count) and the concatenation equals the
    unsharded single-engine computation bit for bit.

    The base class owns the slot layout, capacity checks, the one stage
    body :meth:`run_batch` and the bundle hooks.  A kind adds its
    model-side constructor, ``_check_geometry`` (validates the slots
    against the kind's geometry and sets ``in_features`` /
    ``out_features``) and three batch hooks:

    - ``_slot_inputs(x_batch)``: the ``num_slots`` engine inputs, in slot
      order, shared read-only by every shard;
    - ``_reduce(products)``: consumes one shard's slot products (an
      iterator, in slot order) and returns the shard's pre-activation
      columns;
    - ``_finish(pre, x_batch)``: the kind's tail (bias, activation,
      layout, pool, cell update), run once per batch on every shard's
      pre-activations side by side; elementwise or per channel, so it
      gives each shard's columns what a shard-local tail would.  FC,
      whose engine applies the activation, keeps the identity default.
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
        matrices: list[BlockPermutedDiagonalMatrix],
        block_bounds,
        activation: str | None = None,
        **geometry,
    ) -> None:
        """Adopt the stage's whole slot matrices, which share ``p`` and
        height, and cut every one at ``block_bounds`` -- ``(start, stop)``
        block rows per shard -- the only place a stage cuts shards.

        ``geometry`` (the kind's) becomes attributes first, because a conv
        stage counts its slots from it; ``_check_geometry`` runs last.
        """
        self.activation = activation
        for name, value in geometry.items():
            setattr(self, name, value)
        self.matrices = list(matrices)
        if len(self.matrices) != self.num_slots:
            raise ValueError(
                f"{self.stage_kind} stage holds {len(self.matrices)} "
                f"matrices, the stage needs {self.num_slots}"
            )
        if len({(m.p, m.shape[0]) for m in self.matrices}) != 1:
            raise ValueError(
                "slot matrices of one stage disagree on p or rows"
            )
        mb = self.matrices[0].mb
        bounds = self.block_bounds = [
            tuple(checked_int("shard_block_bounds", v) for v in pair)
            for pair in block_bounds
        ]
        edges = [0, *(stop for _, stop in bounds)]
        if (
            [start for start, _ in bounds] != edges[:-1]
            or edges[-1] != mb
            or any(start >= stop for start, stop in bounds)
        ):
            raise ValueError(
                f"block bounds {bounds} do not cut the {mb} block rows "
                f"into contiguous non-empty shards"
            )
        self.num_shards = len(self.block_bounds)
        self.shard_slots = [
            [matrix.row_shard(start, stop) for matrix in self.matrices]
            for start, stop in self.block_bounds
        ]
        self._check_geometry()

    def _check_geometry(self) -> None:
        raise NotImplementedError

    def _slot_inputs(self, x_batch: np.ndarray) -> list[np.ndarray]:
        raise NotImplementedError

    def _reduce(self, products) -> np.ndarray:
        raise NotImplementedError

    def _finish(self, pre: np.ndarray, x_batch: np.ndarray) -> np.ndarray:
        return pre  # FC: the engine already applied the activation

    @classmethod
    def from_manifest(
        cls, entry: dict, matrices: list, directory, **params
    ) -> "ServedStage":
        """Rebuild a stage from its bundle manifest entry and its whole
        slot matrices, cut at the entry's ``shard_block_bounds``."""
        for name in cls.geometry:
            params[name] = entry[name]
        stage = cls.__new__(cls)
        stage._init_slots(
            matrices, entry["shard_block_bounds"], entry["activation"],
            **params,
        )
        return stage

    @property
    def compute_dtype(self) -> np.dtype:
        return self.matrices[0].compute_dtype

    @cached_property
    def _slot_nnz(self) -> int:
        """The most weights any one shard slot matrix stores."""
        return max(matrix.nnz for slots in self.shard_slots for matrix in slots)

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

        The slot inputs, and each one's per-row non-zero counts (the
        columns zero-skipping processes), are taken once on the calling
        thread and shared by every shard.  Each shard runs its slot
        products in slot order through
        :meth:`~repro.hw.PermDNNEngine.run_fc_batch_detailed` (``columns=``
        carries the counts) and ``_reduce`` turns them into the shard's
        pre-activation columns; ``_finish`` then runs the kind's tail once,
        on every shard's columns side by side.  Shards run on
        ``executor``'s threads when it is given and the largest shard slot
        product stores at least ``_THREAD_MIN_MACS`` MACs, else in turn
        on the calling thread; results are collected in shard order either
        way, so outputs and counters are identical at every thread count.
        Capacity is not re-checked: :class:`ModelServer` checks every
        shard at construction, and slot matrices never change after that.

        Returns:
            ``(outputs, shard_cycles, shard_macs)`` with outputs of shape
            ``(B, out_features)``; the batch's wall time on the shard
            array is ``max(shard_cycles)`` -- in simulated time the
            engines are a parallel array, whatever the host execution
            mode.
        """
        inputs = self._slot_inputs(x_batch)
        columns = [np.count_nonzero(x, axis=1) for x in inputs]
        activation = self.activation if self.engine_activation else None

        def run_shard(engine, slots):
            cycles = macs = 0

            def products():
                # Lazy, so a reduce that sums (conv) holds one product at
                # a time.
                nonlocal cycles, macs
                for matrix, x, counts in zip(slots, inputs, columns):
                    out, slot_cycles, slot_macs = engine.run_fc_batch_detailed(
                        matrix, x, activation=activation,
                        enforce_capacity=False, columns=counts,
                    )
                    cycles += slot_cycles
                    macs += slot_macs
                    yield out

            pre = self._reduce(products())  # consumes products
            return pre, cycles, macs

        shards = (engines, self.shard_slots)
        threaded = executor is not None and self.num_shards > 1 and (
            len(inputs[0]) * self._slot_nnz >= _THREAD_MIN_MACS
        )
        results = (executor.map if threaded else map)(run_shard, *shards)
        pre, shard_cycles, shard_macs = zip(*results)
        outputs = self._finish(np.concatenate(pre, axis=1), x_batch)
        return outputs, list(shard_cycles), list(shard_macs)

    # -- bundle serialization hooks (see repro.serve.bundle) -----------

    def manifest_entry(self) -> dict:
        first = self.matrices[0]
        entry = {
            "stage_kind": self.stage_kind,
            "slots": self.num_slots,
            "shape": list(first.shape),
            "activation": self.activation,
        }
        for name in self.geometry:
            value = getattr(self, name)
            entry[name] = list(value) if isinstance(value, tuple) else value
        entry["shard_block_bounds"] = [
            list(pair) for pair in self.block_bounds
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
        self._init_slots(
            [matrix], row_shard_bounds(matrix.mb, num_shards), activation
        )

    def _check_geometry(self) -> None:
        self.out_features, self.in_features = self.matrices[0].shape

    def _slot_inputs(self, x_batch: np.ndarray) -> list[np.ndarray]:
        return [x_batch]

    def _reduce(self, products) -> np.ndarray:
        (product,) = products
        return product

    # perfbench/tracing.py patches each stage class's *own* run_batch (read
    # through ``cls.__dict__``), so every kind names the shared body.
    run_batch = ServedStage.run_batch

    def __repr__(self) -> str:
        return (
            f"ShardedLayer({self.in_features} -> {self.out_features}, "
            f"shards={self.num_shards}, activation={self.activation!r})"
        )


class LoweredConvStage(ServedStage):
    """A PD convolution run on the FC-targeted engine (Sec. III-C).

    The paper's engine targets FC layers; its algorithm extends PD
    structure to CONV weight tensors (Fig. 2) by imposing it on the
    channel plane.  A convolution therefore lowers to channel-matrix
    products: for each output position, the engine multiplies each kernel
    offset's ``c_out x c_in`` block-PD channel matrix by that offset's
    input column -- ``kh*kw`` PD mat-vecs per position, accumulated.
    Every channel matrix shares the plane's PD structure, so the modulo
    addressing and load balance carry over unchanged, and zero input
    channels are skipped per column exactly like FC zero-skipping.  Every
    output position of one offset streams through the engine as one
    batch, so a ``kh x kw`` convolution costs ``kh*kw`` pipeline fills
    plus the compute and writeback cycles of every lowered column.

    The offset matrices are the weight tensor's own (aliasing the layer's
    trainable values, sharing one index plan), and every offset matrix
    is row-sharded over **output channels**
    -- so shard ``K`` owns channel rows ``[lo, hi)`` of every offset and
    its output slice is a contiguous range of the channel-major flattened
    feature map.  Requests are flat ``c_in*H*W`` vectors (C-order, the
    same layout ``Flatten`` emits) and outputs are flat ``c_out*ph*pw``
    vectors, so conv stages chain with FC stages without any reshuffling.

    Per micro-batch, each shard accumulates its offset products over the
    ``(B*oh*ow, c_in)`` column batches of
    :func:`~repro.nn.functional.lower_columns` **in fixed offset order**;
    the stage then applies the activation to the stitched sums, lays them
    out channel-major and optionally fuses a non-overlapping square
    max-pool -- all elementwise/per-channel, so sharded === unsharded and
    threaded === sequential hold bit for bit.

    Args:
        tensor: PD CONV weight tensor ``(c_out, c_in, kh, kw)``.
        activation: ActU mode applied after offset accumulation.
        num_shards: engines this stage spreads over.
        input_hw: spatial size ``(H, W)`` of the incoming feature map.
        stride / padding: convolution geometry.
        pool: optional fused max-pool factor (window == stride == pool).
        value_dtype: storage of the served offset matrices, converted
            with :func:`~repro.core.block_perm_diag.convert_values`
            (``None`` serves the tensor's own).
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
    ) -> None:
        matrices = convert_values(tensor.matrices, value_dtype)
        self._init_slots(
            matrices,
            row_shard_bounds(matrices[0].mb, num_shards),
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
        self.kernel_size = int_pair("kernel_size", self.kernel_size)
        self.input_hw = int_pair("input_hw", self.input_hw)
        self.stride = checked_int("stride", self.stride)
        self.padding = checked_int("padding", self.padding)
        pool = self.pool = (
            None if self.pool is None else checked_int("pool", self.pool)
        )
        c_out, c_in = self.matrices[0].shape
        if any(m.shape[1] != c_in for m in self.matrices):
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
        self.channels = (c_out, c_in)
        self.in_features = c_in * self.input_hw[0] * self.input_hw[1]
        self.out_features = (
            self.channels[0] * self.output_hw[0] * self.output_hw[1]
        )

    def _slot_inputs(self, x_batch: np.ndarray) -> np.ndarray:
        """One ``(B*oh*ow, c_in)`` lowered column batch per kernel offset,
        stacked offset-major in the stage's compute dtype."""
        x = np.asarray(x_batch, dtype=self.compute_dtype).reshape(
            x_batch.shape[0], self.channels[1], *self.input_hw
        )
        return lower_columns(x, *self.kernel_size, self.stride, self.padding)

    def _reduce(self, products) -> np.ndarray:
        """One shard's channels of the offset sum, ``(B*oh*ow, channels)``.

        ``products`` is consumed as it goes, so only the running sum and
        one product are alive at a time.  The fixed offset order makes
        any row shard reproduce its rows of the unsharded sum bit for bit.
        """
        # A fresh sum in the products' dtype (a Python float does not
        # promote float32), bit for bit a zeroed buffer plus the first
        # product.
        acc = 0.0 + next(products)
        for product in products:
            acc += product
        return acc

    def _finish(self, pre: np.ndarray, x_batch: np.ndarray) -> np.ndarray:
        """Activate, lay out channel-major, and pool the offset sums."""
        batch, c_out = x_batch.shape[0], self.channels[0]
        oh, ow = self.conv_hw
        fmap = apply_activation(pre, self.activation)
        fmap = fmap.reshape(batch, oh, ow, c_out).transpose(0, 3, 1, 2)
        if self.pool is not None:
            (ph, pw), pool = self.output_hw, self.pool
            fmap = fmap.reshape(batch, c_out, ph, pool, pw, pool).max(
                axis=(3, 5)
            )
        return fmap.reshape(batch, self.out_features)

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
    gates x {input projection W, recurrent projection U}) are all PD,
    stored as Table VII's two stacked matrices ``W`` and ``U`` (see
    :mod:`repro.nn.layers.recurrent`): this stage's 2 slots.  Both are
    row-sharded at whole hidden blocks, so shard ``K`` owns stacked rows
    ``[lo, hi)`` -- every gate of hidden rows ``[lo/4, hi/4)`` -- and
    computes their ``W x + U h``: one ``W x`` and one ``U h`` engine batch
    call.  The bias and the cell's own
    :func:`~repro.nn.layers.recurrent.lstm_update` then run once on every
    shard's pre-activations side by side (elementwise per hidden unit, so
    each shard's units get what a shard-local update would give them),
    and the stage returns ``[h | c]``.  Requests are
    ``[x | h_prev | c_prev]`` vectors and outputs ``[h | c]``, so a
    sequence is served by feeding each step's output state back into the
    next request -- and an encoder-decoder pair by feeding the encoder's
    final ``[h | c]`` into the decoder stage's requests.

    Args:
        cell: the :class:`~repro.nn.layers.recurrent.LSTMCell` to serve
            (its matrices must be PD; weights and bias stay aliased, so
            in-place training updates reach serving immediately).
        num_shards: engines this stage spreads over (at most ``h / p``).
        value_dtype: optional reduced-precision conversion of ``W`` and
            ``U`` (:func:`~repro.core.block_perm_diag.convert_values`).
    """

    stage_kind = "recurrent"
    geometry = ("input_size", "hidden_size")
    num_slots = 2

    def __init__(
        self,
        cell: LSTMCell,
        num_shards: int,
        value_dtype: str | None = None,
    ) -> None:
        if cell.p is None:
            raise ValueError(
                "RecurrentStage needs PD gate matrices; build the cell "
                "with p set (dense cells are not servable)"
            )
        matrices = convert_values(
            [op.matrix for op in cell.weight_matrices], value_dtype
        )
        # Whole hidden blocks: 4 stacked block rows each.
        bounds = row_shard_bounds(cell.hidden_size // cell.p, num_shards)
        self._init_slots(
            matrices,
            [(4 * start, 4 * stop) for start, stop in bounds],
            bias=cell.bias.value,
            input_size=cell.input_size,
            hidden_size=cell.hidden_size,
        )

    @classmethod
    def from_manifest(
        cls, entry: dict, matrices: list, directory, **params
    ) -> "RecurrentStage":
        if entry["slots"] == 8:  # written before the stacked layout
            matrices = [stack_gates(matrices[:4]), stack_gates(matrices[4:])]
            # Its bounds count per-gate block rows, 4 stacked ones each.
            bounds = [[4 * a, 4 * b] for a, b in entry["shard_block_bounds"]]
            entry = dict(entry, shard_block_bounds=bounds)
        with np.load(Path(directory) / entry["aux_file"]) as aux:
            gates = [aux[key] for key in _BIAS_KEYS]
        params["bias"] = join_gates(gates, checked_int("p", entry["p"]))
        return super().from_manifest(entry, matrices, directory, **params)

    def _check_geometry(self) -> None:
        n_in = self.input_size = checked_int("input_size", self.input_size)
        hidden = self.hidden_size = checked_int(
            "hidden_size", self.hidden_size
        )
        w, u = self.matrices
        self.block = w.p
        widths = (w.shape[1], u.shape[1])
        rows = [shard.shape[0] for shard, _ in self.shard_slots]
        if widths != (n_in, hidden) or any(r % (4 * self.block) for r in rows):
            raise ValueError(
                f"shards of {rows} stacked rows with input widths {widths} "
                f"are not whole hidden blocks of a {n_in} -> {hidden} cell"
            )
        covered = (w.shape[0], np.size(self.bias))
        if covered != (4 * hidden, 4 * hidden):
            raise ValueError(
                f"slots hold {covered[0]} stacked rows and the bias "
                f"{covered[1]}; the cell has 4 x {hidden}"
            )
        self.in_features = n_in + 2 * hidden
        self.out_features = 2 * hidden
        # Elementwise cell math runs in the engines' compute dtype; for
        # float64 this is the live (aliased) bias, so in-place updates
        # reach serving like every other stage's weights.
        self._bias_c = np.asarray(self.bias, dtype=self.compute_dtype)

    def _slot_inputs(self, x_batch: np.ndarray) -> list[np.ndarray]:
        """``x`` for the ``W`` slot, then ``h_prev`` for the ``U`` slot."""
        start, stop = self.input_size, self.input_size + self.hidden_size
        return [x_batch[:, :start], x_batch[:, start:stop]]

    def _reduce(self, products) -> np.ndarray:
        """One shard's stacked ``W x + U h`` rows."""
        w_x, u_h = products
        return w_x + u_h

    def _finish(self, pre: np.ndarray, x_batch: np.ndarray) -> np.ndarray:
        """The bias, then the cell update on the stacked pre-activations:
        ``[h | c]``."""
        c_prev = np.asarray(
            x_batch[:, self.input_size + self.hidden_size :],
            dtype=self.compute_dtype,
        )
        # Same association order as LSTMCell.step: (W x + U h) + b.
        h, c, _ = lstm_update(pre + self._bias_c, c_prev, self.block)
        return np.concatenate([h, c], axis=1)

    # Kept per class for perfbench's tracer (see ShardedLayer).
    run_batch = ServedStage.run_batch

    def aux_payload(self) -> dict | None:
        bias = np.asarray(self.bias, dtype=np.float64)
        return dict(zip(_BIAS_KEYS, split_gates(bias, self.block)))

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
) -> list[ServedStage]:
    """Turn :func:`~repro.nn.serialization.model_stage_specs` output into
    served stages, chaining conv spatial geometry stage to stage.

    ``input_hw`` is the spatial size of the first conv stage's input
    (required iff the model has conv stages); each conv stage's output
    size feeds the next.  ``value_dtype`` converts every stage's weight
    storage (quantize-at-serve through
    :func:`~repro.core.block_perm_diag.convert_values`; plans stay shared
    with the training matrices).
    """
    from repro.nn.serialization import (
        ConvStageSpec,
        FCStageSpec,
        RecurrentStageSpec,
    )

    stages: list[ServedStage] = []
    chain_hw = tuple(input_hw) if input_hw is not None else None
    for spec in specs:
        if isinstance(spec, FCStageSpec):
            (matrix,) = convert_values([spec.matrix], value_dtype)
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
            )
            chain_hw = stage.output_hw
            stages.append(stage)
        elif isinstance(spec, RecurrentStageSpec):
            stages.append(
                RecurrentStage(spec.cell, num_shards, value_dtype=value_dtype)
            )
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
        num_shards: engines per layer for raw ``(matrix, activation)``
            pairs, each holding one row shard; a pre-built stage keeps
            its own shard count.  Checked on every path: a positive
            integer, never truncated.
        config: engine configuration shared by every shard engine.
        max_batch_size: micro-batcher fill limit.
        flush_deadline_us: micro-batcher deadline flush.
        num_threads: host threads driving each layer's shard engines.
            ``None`` (default) uses ``min(max shard count, host CPUs)``;
            ``1`` forces sequential shard execution.  Above 1, a layer's
            micro-batch uses the threads only when its largest shard
            slot product stores at least ``_THREAD_MIN_MACS`` MACs, and
            runs its shards in turn otherwise.  Purely a host-side
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
        num_threads: int | None = None,
        queue_capacity: int | None = None,
    ) -> None:
        if not layers:
            raise ValueError("ModelServer needs at least one layer")
        if checked_int("num_shards", num_shards) < 1:
            raise ValueError(f"num_shards must be >= 1, got {num_shards}")
        if queue_capacity is not None and (
            checked_int("queue_capacity", queue_capacity) <= 0
        ):
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
        self.num_threads = checked_int("num_threads", num_threads)
        if self.num_threads < 1:
            raise ValueError(f"num_threads must be >= 1, got {num_threads}")
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
        num_shards: int = 4,
        **kwargs,
    ) -> "ModelServer":
        """Wrap a trained model's live weights as a served pipeline.

        The model is walked by
        :func:`repro.nn.serialization.model_stage_specs` -- PD FC stacks,
        PD conv + pool chains, and PD LSTM cells all map to served
        stages; anything else raises
        :class:`~repro.nn.serialization.UnsupportedLayerError`.  Shard
        data of every stage kind aliases the layers' parameter storage,
        so serving reflects subsequent in-place weight updates (unless
        ``value_dtype`` converts it).

        Args:
            model: the :class:`~repro.nn.module.Module` to serve.
            input_hw: spatial ``(H, W)`` of the first conv stage's input
                (required iff the model has conv layers).
            value_dtype: serve-time weight storage conversion
                (quantize-at-serve; index plans stay shared).
            num_shards / kwargs: forwarded to the constructor.
        """
        from repro.nn.serialization import model_stage_specs

        stages = build_stages(
            model_stage_specs(model),
            num_shards,
            input_hw=input_hw,
            value_dtype=value_dtype,
        )
        return cls(stages, num_shards=num_shards, **kwargs)

    @classmethod
    def from_bundle(cls, directory, **kwargs) -> "ModelServer":
        """Boot a server from a sharded image bundle.

        Each stage slot's shards are decoded from their values and ``ks``
        as one whole matrix (:mod:`repro.serve.bundle`), which derives
        one index plan, and the stage cuts it at the manifest's bounds,
        so its shards slice that plan -- for FC, lowered-conv, and
        recurrent stages alike.  A damaged bundle raises
        :class:`~repro.serve.bundle.BundleError`.  Keyword arguments are
        forwarded to the constructor (batching, config, ...).
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
        layer's shard engines concurrently on the host, for micro-batches
        whose products are big enough (see ``num_threads``); it is shut
        down before this method returns, so no threads outlive the drain.
        The simulated clock and every output are unchanged by threading.
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
