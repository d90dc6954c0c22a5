"""Drain fuzzer: random arrival streams through every stage kind.

Hypothesis draws the stage kind (an FC stack, conv + pool + FC, or an
LSTM cell), the served value dtype (float64, float32 or int16), the
inter-arrival gaps, the batching policy, the shard and thread counts and
the queue bound, then checks the drain's invariants:

- every submitted request is served or shed, never both, and nothing is
  shed without a queue bound;
- queueing latency is never negative and compute latency always is;
- completion times never go backwards in submission order;
- every served output equals its row of the whole request set drained
  as one batch on a 1-shard, 1-thread server at the same value dtype,
  bit for bit.

It runs on both forward paths (``forward_path``): the CSR product and,
under ``force_pbd``, the tiled PBD GEMMs, whose bits must not depend on
a request's batch, tile position or row shard either.
"""

from functools import lru_cache

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.nn import (
    Flatten,
    MaxPool2D,
    PermDiagConv2D,
    PermDiagLinear,
    ReLU,
    Sequential,
    Tanh,
)
from repro.nn.layers.recurrent import LSTMCell
from repro.nn.serialization import model_stage_specs
from repro.serve import ModelServer, build_stages

_CONV_INPUT_HW = (6, 6)

# Completion is arrival + (completion - arrival), which floating point
# does not return exactly.
_COMPLETION_TOL_US = 1e-9


@lru_cache(maxsize=None)
def _model(kind: str):
    """One small model per kind; every stage matrix has 4 block rows, so
    up to 4 shards fit."""
    rng = np.random.default_rng(0)
    if kind == "fc":
        return Sequential(
            PermDiagLinear(12, 16, p=2, bias=False, rng=rng),
            ReLU(),
            PermDiagLinear(16, 8, p=2, bias=False, rng=rng),
            Tanh(),
        )
    if kind == "conv":
        return Sequential(
            PermDiagConv2D(2, 8, 3, p=2, padding=1, bias=False, rng=rng),
            ReLU(),
            MaxPool2D(2),
            Flatten(),
            PermDiagLinear(8 * 3 * 3, 8, p=2, bias=False, rng=rng),
        )
    return LSTMCell(4, 8, p=2, rng=rng)


@lru_cache(maxsize=None)
def _stages(kind: str, num_shards: int, value_dtype: str | None) -> tuple:
    return tuple(build_stages(
        model_stage_specs(_model(kind)),
        num_shards,
        input_hw=_CONV_INPUT_HW,
        value_dtype=value_dtype,
    ))


# ``forward_path`` only patches a module constant, which holds for every
# drawn example.
@settings(
    max_examples=200,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(
    kind=st.sampled_from(("fc", "conv", "lstm")),
    value_dtype=st.sampled_from((None, "float32", "int16")),
    gaps_us=st.lists(st.floats(0.0, 200.0), min_size=1, max_size=24),
    max_batch=st.integers(1, 6),
    deadline_us=st.sampled_from((0.0, 5.0, 50.0)),
    num_shards=st.integers(1, 4),
    num_threads=st.integers(1, 2),
    capacity=st.none() | st.integers(1, 8),
    seed=st.integers(0, 2**16),
)
@pytest.mark.usefixtures("forward_path")
def test_drain_invariants(
    kind, value_dtype, gaps_us, max_batch, deadline_us, num_shards,
    num_threads, capacity, seed,
):
    arrivals_us = np.cumsum(gaps_us)
    stages = _stages(kind, num_shards, value_dtype)
    rng = np.random.default_rng(seed)
    xs = rng.normal(size=(len(gaps_us), stages[0].in_features))
    xs[rng.random(xs.shape) < 0.3] = 0.0
    server = ModelServer(
        list(stages),
        max_batch_size=max_batch,
        flush_deadline_us=deadline_us,
        num_threads=num_threads,
        queue_capacity=capacity,
    )
    rids = server.submit_many(xs, arrivals_us=arrivals_us)
    report = server.drain()

    shed = set(report.shed_rids)
    assert len(shed) == len(report.shed_rids) and shed <= set(rids)
    if capacity is None:
        assert not shed
    served = [rid for rid in rids if rid not in shed]
    assert report.num_requests == sum(report.batch_sizes) == len(served)

    assert np.all(report.queue_us >= 0.0)
    assert np.all(report.compute_us > 0.0)
    completion_us = arrivals_us[served] + report.latencies_us
    assert np.all(np.diff(completion_us) >= -_COMPLETION_TOL_US)

    reference = ModelServer(
        list(_stages(kind, 1, value_dtype)),
        num_threads=1,
        max_batch_size=len(xs),
    )
    reference.submit_many(xs)
    expected = np.stack(reference.drain().outputs)[served]
    np.testing.assert_array_equal(np.stack(report.outputs), expected)
