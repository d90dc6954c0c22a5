"""Offline compression factory: dense checkpoint -> PermDNN staged bundle.

The production path the paper's Sec. III-F flow grows into: take any
dense model (our :mod:`repro.nn` layers or raw weight dicts), search the
permutation structure per layer (:mod:`~repro.compress.strategies`),
convert to PD layers, fine-tune with the structure-preserving trainer,
and emit a v3 staged engine bundle plus a structured
accuracy/compression report -- cold-startable by
:meth:`repro.serve.ModelServer.from_bundle`, with every index plan
derived from ``ks`` once and never rebuilt.

- :func:`compress_model` / :func:`compress_cell` /
  :func:`compress_arrays` -- the pipeline entry points.
- :func:`convert_model` / :func:`convert_cell` -- conversion only.
- :func:`verify_bundle` -- sanitizer-pinned bundle QA.
- :mod:`~repro.compress.zoo` -- the factory manifest registry and batch
  runner behind ``repro compress-zoo`` (resume + ``index.json``).
- Typed errors: :class:`CompressionError`,
  :class:`UnknownStrategyError`, :class:`ZooEntryError`.
"""

from repro.compress.errors import (
    CompressionError,
    UnknownStrategyError,
    ZooEntryError,
)
from repro.compress.pipeline import (
    CompressionResult,
    cell_fidelity,
    compress_arrays,
    compress_cell,
    compress_model,
    convert_cell,
    convert_model,
    distill_cell,
    verify_bundle,
)
from repro.compress.report import CompressionReport, LayerReport, PhaseTimings
from repro.compress.strategies import (
    AnnealStrategy,
    CompressionStrategy,
    FCInterface,
    GreedyStrategy,
    get_strategy,
    register_strategy,
    retained_mass,
    strategy_names,
)
from repro.compress.zoo import (
    ZooEntry,
    ZooRunResult,
    format_zoo_results,
    register_zoo_entry,
    run_zoo,
    run_zoo_entry,
    zoo_entry,
    zoo_names,
)

__all__ = [
    "AnnealStrategy",
    "CompressionError",
    "CompressionReport",
    "CompressionResult",
    "CompressionStrategy",
    "FCInterface",
    "GreedyStrategy",
    "LayerReport",
    "PhaseTimings",
    "UnknownStrategyError",
    "ZooEntry",
    "ZooEntryError",
    "ZooRunResult",
    "cell_fidelity",
    "compress_arrays",
    "compress_cell",
    "compress_model",
    "convert_cell",
    "convert_model",
    "distill_cell",
    "format_zoo_results",
    "get_strategy",
    "register_strategy",
    "register_zoo_entry",
    "retained_mass",
    "run_zoo",
    "run_zoo_entry",
    "strategy_names",
    "verify_bundle",
    "zoo_entry",
    "zoo_names",
]
