"""perfbench's entry script against the program names it imports.

``perfbench/run.py`` and ``perfbench/workloads.py`` import names from
``repro`` at module level, and ``host_facts`` records the product kernel
and value dtype of every run.  Loading both scripts here, the way
``test_perfbench_tracer.py`` loads ``tracing.py``, and calling
``host_facts`` for every workload ``BENCHMARK.json`` declares, makes a
deleted or renamed name fail tier-1 instead of the benchmark run.
"""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

from repro.core import VALUE_DTYPES

_ROOT = Path(__file__).resolve().parents[2]
_WORKLOADS = [
    entry["name"]
    for entry in json.loads((_ROOT / "BENCHMARK.json").read_text())["workloads"]
]


@pytest.fixture(scope="module")
def perfbench_run():
    """``perfbench/run.py`` as a module; it imports ``workloads.py``.

    The script puts ``perfbench/`` on ``sys.path`` and imports its
    siblings as top-level modules; both are undone afterwards.
    """
    saved_path = list(sys.path)
    spec = importlib.util.spec_from_file_location(
        "perfbench_run", _ROOT / "perfbench" / "run.py"
    )
    module = importlib.util.module_from_spec(spec)
    try:
        spec.loader.exec_module(module)
        yield module
    finally:
        sys.path[:] = saved_path
        for name in ("tracing", "workloads"):
            sys.modules.pop(name, None)


@pytest.mark.parametrize("name", _WORKLOADS)
def test_host_facts_for_every_workload(perfbench_run, name, tmp_path):
    workload = perfbench_run.WORKLOADS[name](1, str(tmp_path))
    facts = perfbench_run.host_facts(workload)
    assert facts["default_backend"] == "csr"
    assert facts["available_backends"] == ["csr"]
    assert facts["value_dtype"] in VALUE_DTYPES
    assert facts["shard_threads"] == (2 if workload.kind == "serve" else 1)
    assert json.loads(json.dumps(facts)) == facts
