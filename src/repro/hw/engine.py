"""Cycle-level simulator of the PermDNN computing engine (Sec. IV).

Faithfully models the paper's execution scheme:

- **column-wise processing with zero skipping** (Fig. 5): only non-zero
  input activations are broadcast; each broadcast makes every PE process
  the matching weight-matrix column slice it owns;
- **structural load balance**: a PD block column holds exactly one non-zero
  per block, so all PEs retire the same work per column -- no straggler PE;
- **Case 1/2/3 scheduling** (Sec. IV-D) via :mod:`repro.hw.scheduler`;
- **group-written activation SRAM** (Fig. 6): outputs drain at
  ``N_ACTMB * W_ACTM / q`` values per cycle;
- optional **bit-accurate mode**: 16-bit fixed-point activations, 4-bit
  weight-shared weights decoded through a LUT, 24-bit accumulators with
  saturation counting -- mirroring the RTL datapath the simulator was the
  golden reference for.

The functional result is always returned so tests can bit-compare it with
the numpy golden model (:mod:`repro.hw.verify`).
"""

from __future__ import annotations

import math
import zipfile
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from repro.core import BlockPermutedDiagonalMatrix
from repro.hw.config import EngineConfig
from repro.hw.energy import AreaPowerModel
from repro.hw.perf import PerformanceReport, equivalent_dense_ops
from repro.hw.scheduler import cycles_per_column
from repro.hw.sram import SRAMBank
from repro.nn.functional import checked_int
from repro.nn.quantization import (
    FixedPointFormat,
    WeightSharingCodebook,
    quantize_fixed_point,
)

__all__ = [
    "ImageEntry",
    "PermDNNEngine",
    "SimulationResult",
    "apply_activation",
    "decode_image_rows",
    "export_engine_image",
    "load_engine_image",
    "read_engine_image",
]

# v3 drops the per-layer serialized index plan (``layer{i}_plan``): a
# loaded matrix derives its index state from ``ks``.  v2 added per-layer
# value-dtype tags (``layer{i}_value_dtype`` / ``layer{i}_fixed_point``);
# v1 images load as float64 layers.  The ``layer{i}_plan`` and
# ``layer{i}_backend`` keys older writers stored are never read.
_IMAGE_FORMAT_VERSION = 3
_IMAGE_MIN_FORMAT_VERSION = 1


def apply_activation(values: np.ndarray, activation: str | None) -> np.ndarray:
    """The ActU: ``None`` passes through, ``"relu"`` / ``"tanh"`` apply."""
    if activation is None:
        return values
    if activation == "relu":
        return np.maximum(values, 0.0)
    if activation == "tanh":
        return np.tanh(values)
    raise ValueError(f"unsupported activation {activation!r} (ActU has relu/tanh)")


def export_engine_image(
    path,
    layers: list[tuple[BlockPermutedDiagonalMatrix, str | None]],
) -> None:
    """Persist a network image the engine can boot from.

    For every layer the image stores the packed ``q`` vector (in the
    layer's storage dtype: float32 values or int16 fixed-point codes ride
    through untouched), its value-dtype tag, the structure
    ``(ks, shape, p)`` and the ActU mode -- and no index state: as in the
    paper's storage model, positions are recomputed from ``ks``, so an
    image is its values plus ``ks``.

    Args:
        path: target ``.npz`` file (or open binary file object).
        layers: ``(matrix, activation)`` pairs as accepted by
            :meth:`PermDNNEngine.run_network`.
    """
    payload: dict[str, np.ndarray] = {
        "image_version": np.int64(_IMAGE_FORMAT_VERSION),
        "num_layers": np.int64(len(layers)),
    }
    for idx, (matrix, activation) in enumerate(layers):
        payload[f"layer{idx}_q"] = matrix.to_q()
        payload[f"layer{idx}_ks"] = np.asarray(matrix.ks)
        payload[f"layer{idx}_p"] = np.int64(matrix.p)
        payload[f"layer{idx}_shape"] = np.asarray(matrix.shape, dtype=np.int64)
        payload[f"layer{idx}_activation"] = np.str_(activation or "")
        payload[f"layer{idx}_value_dtype"] = np.str_(matrix.value_dtype)
        fmt = matrix.fixed_point
        payload[f"layer{idx}_fixed_point"] = np.asarray(
            [fmt.total_bits, fmt.frac_bits] if fmt is not None else [],
            dtype=np.int64,
        )
    np.savez_compressed(path, **payload)


class ImageEntry(NamedTuple):
    """One stored matrix of an engine image, read but not decoded."""

    q: np.ndarray
    ks: np.ndarray
    shape: tuple[int, ...]
    p: int
    activation: str | None
    value_dtype: str
    fixed_point: FixedPointFormat | None


def read_engine_image(path) -> list[ImageEntry]:
    """The stored entries of an :func:`export_engine_image` artifact (v1,
    v2 or v3), in layer order, without decoding a matrix.

    Every integer the image holds -- its version and layer count, each
    layer's ``p``, shape and fixed-point bits -- is read with
    :func:`~repro.nn.functional.checked_int`, never truncated.  A file
    that is not an ``.npz`` archive (truncated, or something else), an
    archive without the version or layer count, and a layer the count
    names but the archive lacks raise ``ValueError`` naming the image,
    chained to the cause.  v1 images store float64 values.
    """
    entries: list[ImageEntry] = []
    try:
        archive = np.load(path)
    except (EOFError, ValueError, zipfile.BadZipFile) as exc:
        raise ValueError(
            f"engine image {path}: not an .npz archive: {exc!r}"
        ) from exc
    if not isinstance(archive, np.lib.npyio.NpzFile):  # a lone .npy array
        raise ValueError(f"engine image {path}: not an .npz archive")
    with archive:

        def integers(key: str) -> list[int]:
            return [checked_int(key, v) for v in np.atleast_1d(archive[key])]

        try:
            (version,) = integers("image_version")
            (num_layers,) = integers("num_layers")
        except KeyError as exc:
            raise ValueError(f"engine image {path}: {exc.args[0]}") from exc
        if not _IMAGE_MIN_FORMAT_VERSION <= version <= _IMAGE_FORMAT_VERSION:
            raise ValueError(
                f"unsupported engine-image version {version} (supported: "
                f"{_IMAGE_MIN_FORMAT_VERSION}..{_IMAGE_FORMAT_VERSION})"
            )
        for idx in range(num_layers):
            layer = f"layer{idx}_"
            try:
                if layer + "value_dtype" in archive.files:
                    value_dtype = str(archive[layer + "value_dtype"])
                    bits = integers(layer + "fixed_point")
                    fixed_point = FixedPointFormat(*bits) if bits else None
                else:  # v1 image: values were always float64
                    value_dtype, fixed_point = "float64", None
                (p,) = integers(layer + "p")
                entries.append(ImageEntry(
                    archive[layer + "q"],
                    archive[layer + "ks"],
                    tuple(integers(layer + "shape")),
                    p,
                    str(archive[layer + "activation"]) or None,
                    value_dtype,
                    fixed_point,
                ))
            except KeyError as exc:
                raise ValueError(
                    f"engine image {path} names {num_layers} layers but "
                    f"lacks layer {idx}: {exc}"
                ) from exc
    return entries


def decode_image_rows(
    entries: list[ImageEntry], shape: tuple[int, int]
) -> BlockPermutedDiagonalMatrix:
    """The one matrix of logical ``shape`` whose block rows ``entries``
    store in order (a whole matrix's row shards, or the matrix itself),
    at the first entry's ``p`` and value storage.

    Decoded through
    :meth:`~repro.core.BlockPermutedDiagonalMatrix.from_q`, which rejects
    values that disagree with ``shape``; the matrix derives its index plan
    from ``ks`` on first use, like any other.
    """
    first = entries[0]
    return BlockPermutedDiagonalMatrix.from_q(
        np.concatenate([entry.q for entry in entries]),
        shape,
        first.p,
        np.concatenate([np.ravel(entry.ks) for entry in entries]),
        value_dtype=first.value_dtype,
        fixed_point=first.fixed_point,
    )


def load_engine_image(
    path,
) -> list[tuple[BlockPermutedDiagonalMatrix, str | None]]:
    """Reload an :func:`export_engine_image` artifact (v1, v2 or v3).

    Every entry :func:`read_engine_image` reads is decoded on its own by
    :func:`decode_image_rows`.

    Returns:
        ``(matrix, activation)`` pairs ready for
        :meth:`PermDNNEngine.run_network`, each at its exported value
        dtype (v1 images load as float64).
    """
    return [
        (decode_image_rows([entry], entry.shape), entry.activation)
        for entry in read_engine_image(path)
    ]


def _stored_macs(
    matrix: BlockPermutedDiagonalMatrix,
    x_batch: np.ndarray,
    columns: int,
    zero_skip: bool,
) -> int:
    """Weights stored in the processed columns of every row of ``x_batch``.

    ``columns`` is the batch's processed-column count.  A full block row
    stores exactly one weight in every column, so each processed column
    costs ``mb`` MACs.  Only a row-padded matrix's last block row, which
    keeps its first rows, stores fewer: its columns come from the index
    plan (built once per matrix), and the batch's processed columns among
    them are counted once more, on the batch's non-zero flags: a 1-byte
    gather, not a copy of the values.
    """
    if matrix.shape[0] == matrix.mb * matrix.p:
        return matrix.mb * columns
    cols = matrix._get_plan().last_row_cols
    if zero_skip:
        last = np.count_nonzero(np.take(x_batch != 0, cols, axis=1))
    else:
        last = x_batch.shape[0] * cols.size
    return (matrix.mb - 1) * columns + int(last)


@dataclass
class SimulationResult:
    """Everything one layer execution produced.

    Attributes:
        output: the computed output vector ``a = W x`` (post-activation if
            an activation was requested).
        cycles: total simulated cycles (pipeline fill + compute + drain).
        compute_cycles: cycles spent on column processing only.
        writeback_cycles: cycles draining outputs to activation SRAM.
        macs: multiply-accumulates actually performed.
        nonzero_columns: input activations processed after zero-skipping.
        skipped_columns: input activations skipped as zeros.
        utilization: MACs / (compute_cycles x peak MACs per cycle).
        case: scheduler case (1/2/3).
        saturations: accumulator saturation events (bit-accurate mode only).
        sram_stats: access counters per SRAM.
    """

    output: np.ndarray
    cycles: int
    compute_cycles: int
    writeback_cycles: int
    macs: int
    nonzero_columns: int
    skipped_columns: int
    utilization: float
    case: int
    saturations: int = 0
    sram_stats: dict = field(default_factory=dict)


class PermDNNEngine:
    """The 32-PE (configurable) PermDNN FC-layer computing engine.

    Args:
        config: hardware configuration (defaults to the paper's Table VIII).
        area_power: area/power model (defaults to the Table IX calibration).
    """

    def __init__(
        self,
        config: EngineConfig | None = None,
        area_power: AreaPowerModel | None = None,
    ) -> None:
        self.config = config or EngineConfig()
        self.area_power = area_power or AreaPowerModel()
        pe = self.config.pe
        self.weight_sram = SRAMBank(
            "weight", pe.weight_sram_banks, pe.weight_sram_width, pe.weight_sram_depth
        )
        self.perm_sram = SRAMBank(
            "permutation", 1, pe.perm_sram_width, pe.perm_sram_depth
        )
        self.act_sram = SRAMBank(
            "activation",
            self.config.act_sram_banks,
            self.config.act_sram_width,
            self.config.act_sram_depth,
        )

    # ------------------------------------------------------------------

    @property
    def power_w(self) -> float:
        return self.area_power.engine_power_w(self.config)

    @property
    def area_mm2(self) -> float:
        return self.area_power.engine_area_mm2(self.config)

    def rows_per_pe(self, m: int) -> int:
        """``N_ROWPE``: weight-matrix rows owned by each PE."""
        return math.ceil(m / self.config.n_pe)

    def check_capacity(self, matrix: BlockPermutedDiagonalMatrix) -> None:
        """Verify the compressed layer fits the per-PE weight SRAM.

        With 4-bit weight sharing a 32-PE engine stores an 8M-parameter
        layer (the paper's over-design headroom claim).
        """
        weights_per_pe = math.ceil(matrix.nnz / self.config.n_pe)
        self.weight_sram.check_fits(weights_per_pe, self.config.weight_sharing_bits)
        # input + output activations must fit the activation SRAM
        self.act_sram.check_fits(
            matrix.shape[0] + matrix.shape[1], self.config.quant_bits
        )

    # ------------------------------------------------------------------

    def run_fc_layer(
        self,
        matrix: BlockPermutedDiagonalMatrix,
        x: np.ndarray,
        activation: str | None = None,
        bit_accurate: bool = False,
        zero_skip: bool = True,
        enforce_capacity: bool = True,
    ) -> SimulationResult:
        """Execute ``a = act(W x)`` and report cycle-level behaviour.

        Args:
            matrix: the PD-compressed FC weight matrix.
            x: input activation vector of length ``n``.
            activation: ``None``, ``"relu"`` or ``"tanh"`` (the ActU modes).
            bit_accurate: run the quantized datapath (16-bit activations,
                4-bit weight-shared weights, 24-bit saturating accumulators).
            zero_skip: disable to measure what zero-skipping buys (ablation).
            enforce_capacity: reject layers that overflow the per-PE weight
                SRAM.  Disable only for compute-scaling studies (Fig. 13),
                where small PE counts would otherwise need more SRAM banks.
        """
        x = np.asarray(x, dtype=np.float64)
        if x.shape != (matrix.shape[1],):
            raise ValueError(
                f"expected input of shape ({matrix.shape[1]},), got {x.shape}"
            )
        if enforce_capacity:
            self.check_capacity(matrix)

        saturations = 0
        if bit_accurate:
            output, saturations = self._bit_accurate_forward(matrix, x)
        else:
            output = matrix.matvec(x)
        output = apply_activation(output, activation)

        nnz_x = int(np.count_nonzero(x)) if zero_skip else x.size
        cycles, compute_cycles, writeback_cycles, macs, case = (
            self._account_batch(matrix, x[None, :], zero_skip)
        )
        peak = compute_cycles * self.config.n_pe * self.config.pe.n_mul
        utilization = macs / peak if peak else 0.0
        return SimulationResult(
            output=output,
            cycles=cycles,
            compute_cycles=compute_cycles,
            writeback_cycles=writeback_cycles,
            macs=macs,
            nonzero_columns=nnz_x,
            skipped_columns=x.size - nnz_x,
            utilization=min(utilization, 1.0),
            case=case,
            saturations=saturations,
            sram_stats={
                "weight": self.weight_sram.stats,
                "permutation": self.perm_sram.stats,
                "activation": self.act_sram.stats,
            },
        )

    def _account_batch(
        self,
        matrix: BlockPermutedDiagonalMatrix,
        x_batch: np.ndarray,
        zero_skip: bool,
        columns: np.ndarray | None = None,
    ) -> tuple[int, int, int, int, int]:
        """The cycle model: the ``B`` rows of ``x_batch`` streamed back to back.

        Each input processes its non-zero columns under zero-skipping and
        all ``n`` columns otherwise; ``columns``, when given, is that
        per-row count, already taken.  The pipeline fill is paid once; every
        input adds its own compute cycles (Case 1/2: ``cycles_per_column``
        per column, Case 3: several columns retire per cycle) and one
        output writeback.  MACs are exact: every processed column costs
        the weights stored in it (see :func:`_stored_macs`).  SRAM
        traffic: one weight row + one perm row per PE per compute cycle,
        one activation read per processed column, grouped activation
        writes.

        Returns:
            ``(total_cycles, compute_cycles, writeback_cycles, macs,
            case)``, compute and writeback summed over the batch.
        """
        config = self.config
        pe = config.pe
        if columns is None and zero_skip:
            columns = np.count_nonzero(x_batch, axis=1)
        elif columns is None:
            columns = np.full(x_batch.shape[0], x_batch.shape[1])
        schedule = cycles_per_column(
            self.rows_per_pe(matrix.shape[0]), matrix.p, pe.n_mul, pe.n_acc
        )
        processed = int(columns.sum())
        if schedule.case == 3:
            compute = int(np.ceil(columns / schedule.columns_per_cycle).sum())
        else:
            compute = int(schedule.cycles_per_column) * processed
        writeback = columns.size * math.ceil(
            matrix.shape[0] / config.activations_written_per_cycle
        )
        macs = _stored_macs(matrix, x_batch, processed, zero_skip)
        self.weight_sram.read(compute)
        self.perm_sram.read(compute)
        self.act_sram.read(processed)
        self.act_sram.write(writeback)
        total = config.pipeline_stages + compute + writeback
        return total, compute, writeback, macs, schedule.case

    def _bit_accurate_forward(
        self, matrix: BlockPermutedDiagonalMatrix, x: np.ndarray
    ) -> tuple[np.ndarray, int]:
        """Quantized datapath: LUT-decoded weights, fixed-point activations,
        saturating 24-bit accumulation."""
        config = self.config
        codebook = WeightSharingCodebook(bits=config.weight_sharing_bits, rng=0)
        codebook.fit(matrix.data)
        # like() shares the caller's cached index plan instead of rebuilding
        # the structure for the weight-shared copy.
        shared = matrix.like(codebook.apply(matrix.data))
        act_fmt = FixedPointFormat(config.quant_bits, config.quant_bits - 4)
        x_q = quantize_fixed_point(x, act_fmt)
        y = shared.matvec(x_q)
        acc_fmt = FixedPointFormat(config.pe.acc_width, config.quant_bits - 4)
        clipped = np.clip(y, acc_fmt.min_value, acc_fmt.max_value)
        saturations = int((clipped != y).sum())
        return clipped, saturations

    def run_fc_batch_detailed(
        self,
        matrix: BlockPermutedDiagonalMatrix,
        x_batch: np.ndarray,
        activation: str | None = None,
        zero_skip: bool = True,
        enforce_capacity: bool = True,
        columns: np.ndarray | None = None,
    ) -> tuple[np.ndarray, int, int]:
        """Execute one FC layer over a batch of inputs.

        Inputs stream through back-to-back, so the pipeline fill is paid
        once; each sample contributes its own compute + writeback cycles
        (zero-skipping makes these input dependent).

        Every served stage (:mod:`repro.serve`), the lowered conv stage's
        per-offset products included, runs its products through here,
        which keeps sharded cycle/bit behaviour in lockstep with the
        unsharded baseline by construction.  Counters come from the same
        cycle model as :meth:`run_fc_layer`, so a batch costs one pipeline
        fill plus the compute + writeback cycles of ``B`` single calls.

        The functional result is one batched product
        (:meth:`~repro.core.BlockPermutedDiagonalMatrix.matmat`) instead
        of ``B`` python-level mat-vecs -- numerically identical to the
        per-sample :meth:`run_fc_layer` path (same kernel, same
        accumulation order per output row) but it releases the GIL inside
        a single kernel call, which is what makes the serving runtime's
        shard threads (:mod:`repro.serve.server`) actually overlap.

        Args:
            matrix: the PD weight matrix.
            x_batch: inputs of shape ``(B, n)``.
            activation: optional ActU mode applied to every output.
            zero_skip: process only non-zero input entries.
            enforce_capacity: reject layers overflowing the per-PE SRAM.
            columns: each row's processed-column count as a ``(B,)``
                integer array (``np.count_nonzero(x_batch, axis=1)`` under
                zero-skipping), when the caller has already taken it: a
                served stage feeds one slot input to every shard and
                counts it once.  ``None`` counts here.

        Returns:
            ``(outputs, total_cycles, macs)``; ``outputs`` is in the
            matrix's compute dtype (float32 storage serves float32).
        """
        x_batch = np.asarray(x_batch)
        if x_batch.ndim != 2 or x_batch.shape[1] != matrix.shape[1]:
            raise ValueError(
                f"expected batch of shape (B, {matrix.shape[1]}), got "
                f"{x_batch.shape}"
            )
        if enforce_capacity:
            self.check_capacity(matrix)
        if columns is not None and np.shape(columns) != x_batch.shape[:1]:
            raise ValueError(f"expected {len(x_batch)} column counts")
        outputs = apply_activation(matrix.matmat(x_batch), activation)
        total, _, _, macs, _ = self._account_batch(
            matrix, x_batch, zero_skip, columns
        )
        return outputs, total, macs

    def run_network(
        self,
        layers: list[tuple[BlockPermutedDiagonalMatrix, str | None]],
        x: np.ndarray,
        bit_accurate: bool = False,
    ) -> tuple[np.ndarray, list[SimulationResult]]:
        """Execute a stack of FC layers end to end.

        Between layers, outputs are written to the activation SRAM and read
        back as the next layer's input (exactly the Fig. 6 loop); the
        dynamic sparsity each activation function produces is therefore
        skipped automatically in the next layer.

        Args:
            layers: ``(matrix, activation)`` pairs, input to output.
            x: network input vector.
            bit_accurate: run every layer on the quantized datapath.

        Returns:
            ``(final_output, per_layer_results)``.
        """
        results = []
        current = np.asarray(x, dtype=np.float64)
        for matrix, activation in layers:
            result = self.run_fc_layer(
                matrix, current, activation=activation, bit_accurate=bit_accurate
            )
            results.append(result)
            current = result.output
        return current, results

    # ------------------------------------------------------------------

    def performance(
        self, result: SimulationResult, workload_shape: tuple[int, int], name: str = "PermDNN"
    ) -> PerformanceReport:
        """Wrap a simulation into the headline-metric report."""
        m, n = workload_shape
        return PerformanceReport(
            name=name,
            cycles=result.cycles,
            clock_ghz=self.config.clock_ghz,
            compressed_ops=2 * result.macs,
            dense_ops=equivalent_dense_ops(m, n),
            power_w=self.power_w,
            area_mm2=self.area_mm2,
        )
