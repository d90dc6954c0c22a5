"""``tools/perf_counts.py``: which metrics it compares, and its verdict on
equal runs, a difference, a missing metric and a bad run, driven through
a stub runner (perfbench never starts)."""

import json
from pathlib import Path

from tools.perf_ab import Run
from tools.perf_counts import compare, compared_metrics, main

_COUNTS = {
    "engine.macs": 10.0,
    "batching.queue_us_p99": 2.5,
    "core.plan_builds": 3.0,
}


class _Stub:
    """A runner that records its calls and returns ``runs[side]`` (the
    tree's directory name), or clean runs reading :data:`_COUNTS`."""

    def __init__(self, runs=None):
        self.calls = []
        self.runs = runs or {}

    def __call__(self, tree, workload, seed):
        self.calls.append((tree.name, workload, seed))
        return self.runs.get(tree.name, Run(dict(_COUNTS), 8, 0))


def _argv(tmp_path, *workloads):
    trees = [tmp_path / side for side in ("parent", "change")]
    for tree in trees:
        tree.mkdir()
    (trees[0] / "BENCHMARK.json").write_text(json.dumps({"per_layer": [
        {"name": "engine.macs", "unit": "count"},
        {"name": "engine.ms", "unit": "ms"},
        {"name": "batching.queue_us_p99", "unit": "us"},
        {"name": "core.plan_builds", "unit": "count"},
    ]}))
    argv = [str(tree) for tree in trees] + ["--seed", "3"]
    for workload in workloads:
        argv += ["--workload", workload]
    return argv


def test_compares_counts_cycles_and_simulated_figures():
    benchmark = json.loads(
        (Path(__file__).parents[2] / "BENCHMARK.json").read_text()
    )
    assert compared_metrics(benchmark) == [
        "kernel.matmat.calls",
        "engine.calls",
        "engine.rows",
        "engine.sim_cycles",
        "engine.macs",
        "stage.fc.sim_cycles",
        "stage.conv.sim_cycles",
        "stage.recurrent.sim_cycles",
        "batching.batches",
        "batching.mean_batch_size",
        "batching.queue_us_p99",
        "sim.rps",
        "sim.latency_us_p99",
        "core.plan_builds",
        "core.plan_rebuilds",
    ]


def test_equal_runs_pass_once_per_tree_and_workload(tmp_path, capsys):
    stub = _Stub()
    assert main(_argv(tmp_path, "fc-burst", "pd-finetune"), runner=stub) == 0
    assert stub.calls == [
        ("parent", "fc-burst", 3), ("change", "fc-burst", 3),
        ("parent", "pd-finetune", 3), ("change", "pd-finetune", 3),
    ]
    printed = capsys.readouterr().out
    assert "fc-burst: 3 metrics compared, all equal" in printed
    assert "pd-finetune: 3 metrics compared, all equal" in printed


def test_a_difference_is_printed_and_fails(tmp_path, capsys):
    """Exact comparison: a count off in the last bit is a difference,
    and a metric outside the compared set (``engine.ms``) is not."""
    moved = dict(_COUNTS, **{"engine.macs": 10.000000000000002})
    moved["engine.ms"] = 99.0
    stub = _Stub({"change": Run(moved, 8, 0)})
    assert main(_argv(tmp_path, "fc-burst"), runner=stub) == 1
    printed = capsys.readouterr().out
    assert "fc-burst: 3 metrics compared, 1 problem(s)" in printed
    assert "engine.macs: parent 10.0 change 10.000000000000002" in printed
    assert "engine.ms" not in printed


def test_missing_metric_and_bad_run_fail():
    names = list(_COUNTS)
    lacking = {k: v for k, v in _COUNTS.items() if k != "core.plan_builds"}
    runs = {"parent": Run(dict(_COUNTS), 8, 0), "change": Run(lacking, 8, 0)}
    assert compare(runs, names) == ["core.plan_builds: missing from change"]
    runs = {
        "parent": Run(problem="exit 1, no result line"),
        "change": Run(dict(_COUNTS), 8, 2, "exit 1, 2 of 8 failed"),
    }
    assert compare(runs, names) == [
        "parent bad run: exit 1, no result line",
        "change bad run: exit 1, 2 of 8 failed",
    ] + [f"{name}: missing from parent" for name in names]


def test_bad_run_fails_main(tmp_path):
    stub = _Stub({"change": Run(dict(_COUNTS), 8, 1, "exit 1, 1 of 8 failed")})
    assert main(_argv(tmp_path, "conv-burst"), runner=stub) == 1
