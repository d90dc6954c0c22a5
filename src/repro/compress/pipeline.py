"""Dense model -> searched PD structure -> fine-tune -> staged bundle.

The factory pipeline behind ``repro compress``:

1. **Search**: every dense weight layer gets per-block permutation
   parameters from a :mod:`~repro.compress.strategies` strategy
   (retained-Frobenius-mass selection; the ``anneal`` strategy first
   applies function-preserving hidden-unit permutations at FC->FC
   interfaces).
2. **Convert**: dense layers are replaced by their PD counterparts
   (:meth:`PermDiagLinear.from_matrix` / :meth:`PermDiagConv2D.from_tensor`
   / :meth:`LSTMCell.from_matrices`), each adopting its projected PD values as
   the storage it trains in place and serves from (already-PD layers
   are re-wrapped around copies), biases are dropped (the engine's datapath
   computes ``W x`` only -- fine-tuning compensates), and layers whose
   shapes cannot carry the requested block size are kept at ``p = 1``
   (functionally dense but servable).
3. **Fine-tune**: the structure-preserving trainer recovers accuracy
   (classifiers) or a distillation loop recovers state fidelity
   (recurrent cells).  Training stays float64.
4. **Export + verify**: a v3 staged bundle is written with
   :func:`repro.serve.export_model_bundle` at the requested value dtype,
   then reloaded under the runtime sanitizer:
   :func:`verify_bundle` pins **zero** index-plan rebuilds during the cold
   start (each matrix derives its plan from ``ks`` once) and bit-identical
   outputs vs serving the live model.

Everything returns a structured :class:`~repro.compress.report.CompressionReport`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from repro.compress.errors import CompressionError
from repro.compress.report import CompressionReport, LayerReport, PhaseTimings
from repro.compress.strategies import (
    CompressionStrategy,
    FCInterface,
    get_strategy,
)
from repro.core import BlockPermDiagTensor4D, BlockPermutedDiagonalMatrix
from repro.nn import (
    Adam,
    CrossEntropyLoss,
    Dropout,
    Flatten,
    Linear,
    MaxPool2D,
    PermDiagConv2D,
    PermDiagLinear,
    ReLU,
    Sequential,
    Tanh,
    Trainer,
    evaluate_classifier,
)
from repro.nn.layers.conv2d import Conv2D
from repro.nn.layers.recurrent import LSTMCell, join_gates, stack_gates

__all__ = [
    "CompressionResult",
    "cell_fidelity",
    "compress_arrays",
    "compress_cell",
    "compress_model",
    "convert_cell",
    "convert_model",
    "distill_cell",
    "verify_bundle",
]

@dataclass
class CompressionResult:
    """A compressed model plus its report and (optional) bundle location."""

    model: object
    report: CompressionReport
    bundle_dir: str | None = None


# ----------------------------------------------------------------------
# Conversion
# ----------------------------------------------------------------------


def _as_rng(rng) -> np.random.Generator:
    if isinstance(rng, np.random.Generator):
        return rng
    return np.random.default_rng(rng)


def _flatten_layers(model) -> list:
    """Depth-first layer list of (possibly nested) Sequential models."""
    if isinstance(model, Sequential):
        flat: list = []
        for layer in model.layers:
            flat.extend(_flatten_layers(layer))
        return flat
    return [model]


def _clone_passthrough(layer):
    """Fresh instance of a weight-free layer (never share forward caches)."""
    if isinstance(layer, ReLU):
        return ReLU()
    if isinstance(layer, Tanh):
        return Tanh()
    if isinstance(layer, Flatten):
        return Flatten()
    if isinstance(layer, Dropout):
        return Dropout(layer.rate)
    if isinstance(layer, MaxPool2D):
        return MaxPool2D(layer.kernel_size, layer.stride)
    return None


def _effective_p(requested: int, limit: int) -> tuple[int, str]:
    """Clamp the block size to what the layer's shape can carry."""
    if requested <= 1:
        return 1, ""
    if limit < requested:
        return 1, f"p clamped to 1 (requested {requested} > min dim {limit})"
    return int(requested), ""


def _bias_note(layer) -> str:
    bias = getattr(layer, "bias", None)
    if bias is not None and np.any(bias.value):
        return "bias dropped (engine serves W*x only)"
    return ""


def _retained_fraction(dense: np.ndarray, kept_dense: np.ndarray) -> float:
    total = float((dense**2).sum())
    if total == 0.0:
        return 1.0
    return float((kept_dense**2).sum()) / total


def _join_notes(*notes: str) -> str:
    return "; ".join(note for note in notes if note)


def convert_model(
    model,
    *,
    fc_p: int = 8,
    conv_p: int = 4,
    head_p: int = 1,
    strategy: str | CompressionStrategy = "greedy",
    rng: np.random.Generator | int | None = None,
) -> tuple[Sequential, list[LayerReport]]:
    """Replace every dense weight layer of ``model`` by a PD layer.

    The input model is never mutated: weights are copied, weight-free
    layers are re-instantiated, and already-PD layers are re-wrapped
    around copied storage.  The final weight-bearing layer gets
    ``head_p`` (default 1: a servable dense-equivalent classifier head);
    everything else gets ``fc_p`` / ``conv_p``, clamped to 1 where the
    layer is narrower than the requested block.  Biases are dropped so
    the result satisfies the serving stack's zero-bias contract.

    Returns:
        ``(compressed, layer_reports)`` -- a fresh :class:`Sequential`
        plus one :class:`LayerReport` per weight layer.
    """
    strategy = get_strategy(strategy)
    rng = _as_rng(rng)
    flat = _flatten_layers(model)
    weight_kinds = (PermDiagLinear, Linear, Conv2D)  # Conv2D covers PD conv
    weight_positions = [
        i for i, layer in enumerate(flat) if isinstance(layer, weight_kinds)
    ]
    head_pos = weight_positions[-1] if weight_positions else -1

    # Pass 1: plan each position (copy weights; no structure chosen yet).
    plans: list[dict] = []
    for index, layer in enumerate(flat):
        if isinstance(layer, PermDiagLinear):
            plans.append({"kind": "pd-fc", "layer": layer})
        elif isinstance(layer, Linear):
            requested = head_p if index == head_pos else fc_p
            p_eff, clamp_note = _effective_p(
                requested, min(layer.out_features, layer.in_features)
            )
            plans.append({
                "kind": "fc",
                "layer": layer,
                "weight": layer.weight.value.copy(),
                "p": p_eff,
                "note": _join_notes(clamp_note, _bias_note(layer)),
            })
        elif isinstance(layer, PermDiagConv2D):
            plans.append({"kind": "pd-conv", "layer": layer})
        elif isinstance(layer, Conv2D):
            requested = head_p if index == head_pos else conv_p
            p_eff, clamp_note = _effective_p(
                requested, min(layer.out_channels, layer.in_channels)
            )
            plans.append({
                "kind": "conv",
                "layer": layer,
                "weight": layer.weight.value.copy(),
                "p": p_eff,
                "note": _join_notes(clamp_note, _bias_note(layer)),
            })
        else:
            clone = _clone_passthrough(layer)
            if clone is None:
                raise CompressionError(
                    f"cannot compress layer {index} ({layer!r}): no PD "
                    f"conversion rule for this layer kind"
                )
            plans.append({
                "kind": "copy",
                "layer": layer,
                "clone": clone,
                "elementwise": isinstance(layer, (ReLU, Tanh, Dropout)),
            })

    # Pass 2: cross-layer refinement at dense FC->FC interfaces (the
    # anneal strategy permutes hidden units in the copied weights; greedy
    # leaves this a no-op).
    interfaces: list[FCInterface] = []
    last_fc: dict | None = None
    for plan in plans:
        if plan["kind"] == "fc":
            if last_fc is not None and (last_fc["p"] > 1 or plan["p"] > 1):
                interfaces.append(
                    FCInterface(
                        upper=last_fc["weight"],
                        lower=plan["weight"],
                        p_upper=last_fc["p"],
                        p_lower=plan["p"],
                    )
                )
            last_fc = plan
        elif plan["kind"] == "copy" and plan["elementwise"]:
            continue  # elementwise maps preserve the hidden-unit identity
        else:
            last_fc = None
    strategy.refine(interfaces, rng)

    # Pass 3: choose shifts, project, and build the compressed model.
    layers: list = []
    reports: list[LayerReport] = []
    for plan in plans:
        kind = plan["kind"]
        source = plan["layer"]
        if kind == "copy":
            layers.append(plan["clone"])
            continue
        if kind == "fc":
            weight, p = plan["weight"], plan["p"]
            ks = strategy.select_ks(weight, p, rng)
            matrix = BlockPermutedDiagonalMatrix.from_dense(weight, p, ks=ks)
            new_layer = PermDiagLinear.from_matrix(matrix)
            retained = _retained_fraction(weight, matrix.to_dense())
            stored = matrix.nnz
        elif kind == "conv":
            weight, p = plan["weight"], plan["p"]
            kernel_energy = np.sqrt((weight**2).sum(axis=(2, 3)))
            ks = strategy.select_ks(kernel_energy, p, rng)
            tensor = BlockPermDiagTensor4D.from_dense(weight, p, ks=ks)
            new_layer = PermDiagConv2D.from_tensor(
                tensor, stride=source.stride, padding=source.padding
            )
            retained = _retained_fraction(weight, tensor.to_dense())
            stored = new_layer.nnz
        elif kind == "pd-fc":
            matrix = source.matrix.like(source.matrix.data.copy())
            new_layer = PermDiagLinear.from_matrix(matrix)
            weight, p = matrix.to_dense(), source.p
            retained = 1.0
            stored = matrix.nnz
            plan["note"] = _join_notes("already PD", _bias_note(source))
        else:  # pd-conv
            tensor = BlockPermDiagTensor4D(
                source.tensor.values.copy(),
                source.tensor.ks,
                channels=source.tensor.channels,
            )
            new_layer = PermDiagConv2D.from_tensor(
                tensor, stride=source.stride, padding=source.padding
            )
            weight, p = tensor.to_dense(), source.p
            retained = 1.0
            stored = new_layer.nnz
            plan["note"] = _join_notes("already PD", _bias_note(source))
        layers.append(new_layer)
        reports.append(
            LayerReport(
                name=repr(source),
                kind="conv" if kind.endswith("conv") else "fc",
                dense_shape=list(weight.shape),
                p=int(p),
                dense_weights=int(weight.size),
                stored_weights=int(stored),
                retained_mass=retained,
                note=plan["note"],
            )
        )
    return Sequential(*layers), reports


def convert_cell(
    cell: LSTMCell,
    *,
    p: int = 8,
    strategy: str | CompressionStrategy = "greedy",
    rng: np.random.Generator | int | None = None,
) -> tuple[LSTMCell, list[LayerReport]]:
    """PD-compress all 8 gate matrices of a dense :class:`LSTMCell`.

    Each gate is searched and projected on its own, then stacked into the
    PD cell's ``W`` and ``U`` (one report each); a ``p`` that does not
    divide ``hidden_size`` is clamped to 1.  Gate biases are copied over
    (the recurrent serving stage applies them, unlike the FC/conv
    datapaths).  Hidden-unit permutation refinement does not apply to
    cells -- a permutation would also permute the served ``[h | c]``
    layout -- so every strategy reduces to its per-matrix shift
    selection here.
    """
    if cell.p is not None:
        raise CompressionError(
            "cell already uses PD gate ops; compress_cell expects a dense "
            "LSTMCell (constructed with p=None)"
        )
    strategy = get_strategy(strategy)
    rng = _as_rng(rng)
    hidden = cell.hidden_size
    p_eff, clamp_note = _effective_p(p, min(cell.input_size, hidden))
    if hidden % p_eff:
        p_eff = 1
        clamp_note = f"p clamped to 1 ({p} does not divide hidden {hidden})"
    matrices: list[BlockPermutedDiagonalMatrix] = []
    reports: list[LayerReport] = []
    for name, source in zip(("LSTM.W", "LSTM.U"), cell.weight_matrices):
        weight = source.weight.value
        projected = stack_gates([
            BlockPermutedDiagonalMatrix.from_dense(
                gate, p_eff, ks=strategy.select_ks(gate, p_eff, rng)
            )
            for gate in weight.reshape(4, hidden, -1)
        ])
        matrices.append(projected)
        reports.append(
            LayerReport(
                name=name,
                kind="lstm-gate",
                dense_shape=list(weight.shape),
                p=p_eff,
                dense_weights=int(weight.size),
                stored_weights=int(projected.nnz),
                retained_mass=_retained_fraction(weight, projected.to_dense()),
                note=clamp_note,
            )
        )
    # A dense cell's bias is gate-major: blocks of h, not p.
    bias = join_gates(cell.bias.value.reshape(4, -1), p_eff)
    return LSTMCell.from_matrices(*matrices, bias), reports


def compress_arrays(
    named_arrays: dict[str, np.ndarray],
    p: int,
    *,
    strategy: str | CompressionStrategy = "greedy",
    value_dtype: str | None = None,
    rng: np.random.Generator | int | None = None,
) -> tuple[dict[str, BlockPermutedDiagonalMatrix], list[LayerReport]]:
    """Compress a raw checkpoint: name -> 2-D weight array.

    The entry point for checkpoints that are not :mod:`repro.nn` models;
    each array gets searched shifts and an L2-optimal projection, at the
    requested storage dtype.
    """
    strategy = get_strategy(strategy)
    rng = _as_rng(rng)
    matrices: dict[str, BlockPermutedDiagonalMatrix] = {}
    reports: list[LayerReport] = []
    for name, array in named_arrays.items():
        array = np.asarray(array, dtype=np.float64)
        if array.ndim != 2:
            raise CompressionError(
                f"array {name!r} has shape {array.shape}; compress_arrays "
                f"handles 2-D weight matrices (use convert_model for conv "
                f"tensors)"
            )
        p_eff, clamp_note = _effective_p(p, min(array.shape))
        ks = strategy.select_ks(array, p_eff, rng)
        matrix = BlockPermutedDiagonalMatrix.from_dense(
            array, p_eff, ks=ks, value_dtype=value_dtype
        )
        matrices[name] = matrix
        reports.append(
            LayerReport(
                name=name,
                kind="fc",
                dense_shape=list(array.shape),
                p=p_eff,
                dense_weights=int(array.size),
                stored_weights=int(matrix.nnz),
                retained_mass=_retained_fraction(array, matrix.to_dense()),
                note=clamp_note,
            )
        )
    return matrices, reports


# ----------------------------------------------------------------------
# Recurrent fidelity + distillation
# ----------------------------------------------------------------------


def _cell_probe(
    cell: LSTMCell, batch: int, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    x = rng.normal(size=(batch, cell.input_size))
    h = 0.5 * rng.normal(size=(batch, cell.hidden_size))
    c = 0.5 * rng.normal(size=(batch, cell.hidden_size))
    return x, h, c


def cell_fidelity(
    cell: LSTMCell,
    reference: LSTMCell,
    batch: int = 256,
    seed: int = 0,
) -> float:
    """``1 - relative L2 error`` of ``[h | c]`` vs ``reference`` on a
    seeded batch (1.0 = identical step outputs, clipped at 0)."""
    x, h0, c0 = _cell_probe(reference, batch, np.random.default_rng(seed))
    h_ref, c_ref, _ = reference.step(x, h0, c0)
    h, c, _ = cell.step(x, h0, c0)
    err = float(np.sqrt(((h - h_ref) ** 2).sum() + ((c - c_ref) ** 2).sum()))
    norm = float(np.sqrt((h_ref**2).sum() + (c_ref**2).sum()))
    if norm == 0.0:
        return 1.0 if err == 0.0 else 0.0
    return max(0.0, 1.0 - err / norm)


def distill_cell(
    cell: LSTMCell,
    reference: LSTMCell,
    *,
    steps: int = 200,
    batch_size: int = 32,
    lr: float = 1e-3,
    seed: int = 0,
) -> None:
    """Fine-tune a PD cell to match the dense cell's step map.

    Gradient descent on the squared error of ``(h, c)`` against the
    dense reference over seeded random ``(x, h_prev, c_prev)`` probes,
    backpropagated with the cell's structure-preserving
    :meth:`~repro.nn.layers.recurrent.LSTMCell.step_backward`.
    """
    optimizer = Adam(cell.parameters(), lr=lr)
    rng = np.random.default_rng(seed)
    for _ in range(steps):
        x, h0, c0 = _cell_probe(reference, batch_size, rng)
        h_ref, c_ref, _ = reference.step(x, h0, c0)
        h, c, cache = cell.step(x, h0, c0)
        optimizer.zero_grad()
        cell.step_backward((h - h_ref) / batch_size, (c - c_ref) / batch_size, cache)
        optimizer.step()


# ----------------------------------------------------------------------
# Bundle verification
# ----------------------------------------------------------------------


def verify_bundle(
    directory,
    model,
    inputs: np.ndarray,
    *,
    num_shards: int,
    value_dtype: str | None = None,
    input_hw: tuple[int, int] | None = None,
) -> bool:
    """Cold-start ``directory`` and pin the factory's output contract.

    Two checks, both raising :class:`CompressionError` on failure:

    - the sanitized :meth:`ModelServer.from_bundle` cold start performs
      **zero** index-plan rebuilds (every slot matrix derives its plan
      from ``ks`` at most once);
    - the bundle's served outputs are bit-identical to serving the live
      ``model`` through :meth:`ModelServer.from_model` at the same value
      dtype (which ties the bundle to the model at any storage precision).
    """
    from repro.debug import sanitize
    from repro.serve import ModelServer

    reference = ModelServer.from_model(
        model,
        input_hw=input_hw,
        value_dtype=value_dtype,
        num_shards=num_shards,
        num_threads=1,
    )
    reference.submit_many(inputs)
    expected = np.stack(reference.drain().outputs)
    with sanitize() as guard:
        server = ModelServer.from_bundle(directory, num_threads=1)
        server.submit_many(inputs)
        served = np.stack(server.drain().outputs)
        rebuilds = guard.stats.plan_rebuilds
    if rebuilds:
        raise CompressionError(
            f"bundle at {directory} cold-started with {rebuilds} index-plan "
            f"rebuild(s); each matrix must derive its plan at most once"
        )
    if served.shape != expected.shape or not np.array_equal(served, expected):
        raise CompressionError(
            f"bundle at {directory} serves outputs that differ from the "
            f"live model's serving pipeline"
        )
    return True


def _serving_inputs(x: np.ndarray, limit: int = 8) -> np.ndarray:
    """Flatten a probe batch to the server's (B, features) request shape."""
    probe = np.asarray(x[:limit], dtype=np.float64)
    return probe.reshape(probe.shape[0], -1)


# ----------------------------------------------------------------------
# Full pipelines
# ----------------------------------------------------------------------


def _run_pipeline(
    convert, metric, tune, serving_inputs, *, bundle_dir, verify, export,
    **report_fields,
) -> CompressionResult:
    """The timed skeleton both pipelines share.

    convert -> metric -> tune -> metric -> export -> verify -> report:
    ``convert()`` returns ``(compressed, layer_reports)``,
    ``metric(compressed)`` scores it, ``tune(compressed)`` fine-tunes it
    in place (``None`` skips the phase) and ``serving_inputs()`` returns
    the request batch :func:`verify_bundle` serves.  ``export`` holds
    the bundle's ``num_shards`` / ``value_dtype`` / ``input_hw``;
    ``report_fields`` are the :class:`CompressionReport` fields the
    caller knows up front.
    """
    from repro.metrics import model_storage_report
    from repro.serve import export_model_bundle

    timings = PhaseTimings()
    start = time.perf_counter()
    compressed, layer_reports = convert()
    timings.search_s = time.perf_counter() - start
    projected_metric = metric(compressed)

    start = time.perf_counter()
    if tune is not None:
        tune(compressed)
    timings.finetune_s = time.perf_counter() - start
    finetuned_metric = metric(compressed)

    storage = model_storage_report(compressed)
    verified = False
    if bundle_dir is not None:
        start = time.perf_counter()
        export_model_bundle(bundle_dir, compressed, **export)
        timings.export_s = time.perf_counter() - start
        if verify:
            verified = verify_bundle(
                bundle_dir, compressed, serving_inputs(), **export
            )

    report = CompressionReport(
        projected_metric=projected_metric,
        finetuned_metric=finetuned_metric,
        dense_weights=storage.dense_weights,
        stored_weights=storage.stored_weights,
        compression_ratio=storage.compression_ratio,
        verified=verified,
        layers=layer_reports,
        timings=timings,
        **report_fields,
    )
    return CompressionResult(compressed, report, bundle_dir)


def compress_model(
    model,
    data: tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray],
    *,
    name: str = "model",
    fc_p: int = 8,
    conv_p: int = 4,
    head_p: int = 1,
    strategy: str | CompressionStrategy = "greedy",
    value_dtype: str | None = None,
    finetune_epochs: int = 2,
    lr: float = 1e-3,
    batch_size: int = 64,
    seed: int = 0,
    num_shards: int = 2,
    input_hw: tuple[int, int] | None = None,
    bundle_dir=None,
    verify: bool = True,
) -> CompressionResult:
    """The full classifier pipeline: search, convert, fine-tune, export.

    Args:
        model: dense (or mixed) model to compress; never mutated.
        data: ``(x_train, y_train, x_test, y_test)``.
        name: model name recorded in the report.
        fc_p / conv_p / head_p: requested block sizes (head = final
            weight layer; 1 keeps it functionally dense but servable).
        strategy: structure-search strategy name or instance.
        value_dtype: bundle storage precision (training stays
            float64; quantization happens at export).
        finetune_epochs / lr / batch_size / seed: fine-tuning recipe.
        num_shards: shard count baked into the exported bundle.
        input_hw: first conv stage's spatial input (required iff conv).
        bundle_dir: where to export the v3 staged bundle (skip if None).
        verify: cold-start the bundle and pin zero plan rebuilds +
            bit-identical serving (see :func:`verify_bundle`).
    """
    x_train, y_train, x_test, y_test = data
    strategy = get_strategy(strategy)

    def metric(compressed) -> float:
        return evaluate_classifier(compressed, x_test, y_test)

    def tune(compressed) -> None:
        Trainer(
            compressed,
            Adam(compressed.parameters(), lr=lr),
            CrossEntropyLoss(),
            batch_size=batch_size,
            rng=seed,
        ).fit(x_train, y_train, epochs=finetune_epochs)

    return _run_pipeline(
        lambda: convert_model(
            model,
            fc_p=fc_p,
            conv_p=conv_p,
            head_p=head_p,
            strategy=strategy,
            rng=seed,
        ),
        metric,
        tune if finetune_epochs > 0 else None,
        lambda: _serving_inputs(x_test),
        bundle_dir=bundle_dir,
        verify=verify,
        export=dict(
            num_shards=num_shards,
            value_dtype=value_dtype,
            input_hw=input_hw,
        ),
        model=name,
        strategy=strategy.name,
        value_dtype=value_dtype or "float64",
        metric_name="top1_accuracy",
        dense_metric=metric(model),
        finetune_epochs=finetune_epochs,
        num_shards=num_shards,
        seed=seed,
    )


def compress_cell(
    cell: LSTMCell,
    *,
    name: str = "nmt",
    p: int = 8,
    strategy: str | CompressionStrategy = "greedy",
    value_dtype: str | None = None,
    distill_steps: int = 200,
    lr: float = 1e-3,
    batch_size: int = 32,
    seed: int = 0,
    num_shards: int = 2,
    bundle_dir=None,
    verify: bool = True,
) -> CompressionResult:
    """The recurrent pipeline: PD-project a dense LSTM cell and distill.

    The quality metric is ``state_fidelity`` -- 1 minus the relative L2
    error of the cell's ``[h | c]`` step outputs against the dense
    reference on a seeded probe batch (1.0 for the dense cell itself,
    recorded as ``dense_metric``).
    """
    strategy = get_strategy(strategy)

    def tune(pd_cell) -> None:
        distill_cell(
            pd_cell,
            cell,
            steps=distill_steps,
            batch_size=batch_size,
            lr=lr,
            seed=seed,
        )

    def serving_inputs() -> np.ndarray:
        x, h, c = _cell_probe(cell, 8, np.random.default_rng(seed + 1))
        return np.concatenate([x, h, c], axis=1)

    return _run_pipeline(
        lambda: convert_cell(cell, p=p, strategy=strategy, rng=seed),
        lambda pd_cell: cell_fidelity(pd_cell, cell, seed=seed),
        tune if distill_steps > 0 else None,
        serving_inputs,
        bundle_dir=bundle_dir,
        verify=verify,
        export=dict(num_shards=num_shards, value_dtype=value_dtype),
        model=name,
        strategy=strategy.name,
        value_dtype=value_dtype or "float64",
        metric_name="state_fidelity",
        dense_metric=1.0,
        finetune_epochs=distill_steps,
        num_shards=num_shards,
        seed=seed,
    )
