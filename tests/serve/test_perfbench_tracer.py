"""perfbench's span tracer against the serving runtime.

``perfbench/tracing.py`` patches each stage class's own ``run_batch``
(read through the class ``__dict__``) and the engine's
``run_fc_batch_detailed``.  Installing it around real drains pins that
contract here, not only in the traced benchmark run: every stage kind
and the engine must show up as spans, and the engine cycles and MACs
traced under each stage must equal that stage's ``layer_stats``.
"""

import importlib.util
from pathlib import Path

import numpy as np

from repro.nn import (
    Flatten,
    MaxPool2D,
    PermDiagConv2D,
    PermDiagLinear,
    ReLU,
    Sequential,
)
from repro.nn.layers.recurrent import LSTMCell
from repro.serve import ModelServer

_TRACING = Path(__file__).resolve().parents[2] / "perfbench" / "tracing.py"


def _tracing_module():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", _TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _servers():
    rng = np.random.default_rng(0)
    conv = Sequential(
        PermDiagConv2D(2, 8, 3, p=2, padding=1, bias=False, rng=rng),
        ReLU(),
        MaxPool2D(2),
        Flatten(),
        PermDiagLinear(8 * 3 * 3, 8, p=2, bias=False, rng=rng),
    )
    cell = LSTMCell(4, 8, p=2, rng=rng)
    common = dict(num_shards=2, num_threads=2, max_batch_size=3)
    return [
        ModelServer.from_model(conv, input_hw=(6, 6), **common),
        ModelServer.from_model(cell, **common),
    ]


def test_tracer_attributes_engine_counters_to_every_stage_kind():
    tracing = _tracing_module()
    tracer = tracing.Tracer()
    rng = np.random.default_rng(1)
    drained = []
    with tracer.install():
        for server in _servers():
            server.submit_many(rng.normal(size=(5, server.in_features)))
            drained.append((server, server.drain()))

    names = {span.name for span in tracer.spans}
    assert {"stage.fc", "stage.conv", "stage.recurrent", "engine"} <= names

    traced: dict[int, list[int]] = {}
    for span in tracer.spans:
        if span.name == "engine":
            stage = tracing.ancestor(span, "stage.").info
            _, cycles, macs = span.info
            totals = traced.setdefault(id(stage), [0, 0])
            totals[0] += cycles
            totals[1] += macs
    for server, report in drained:
        for stage, stats in zip(server.layers, report.layer_stats):
            assert traced[id(stage)] == [
                sum(shard.cycles for shard in stats),
                sum(shard.macs for shard in stats),
            ]
