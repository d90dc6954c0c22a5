"""``repro serve-bench``: every mode, one record table, one failure check.

Toy-scale runs of each mode through the CLI: exit status, one table row
per measured stream, the flags each mode must honour, and a corrupted
reference turning into exit 1 with a ``FAIL:`` line.  Seeded runs must
return equal records (host wall time is excluded from ``==``).
"""

import pytest

from repro.cli import main
from repro.serve import (
    bench,
    run_mixed_traffic,
    run_open_loop_sweep,
    run_workload_matrix,
    workload_names,
)

# (argv, rows): the toy-scale invocation of each mode and its streams.
MODES = {
    # reference + one sharded burst
    "closed-loop": (["--shards", "2", "--requests", "8", "--scale", "32"], 2),
    # per workload: reference + sharded burst
    "matrix": (["--workload", "all", "--shards", "2", "--requests", "4",
                "--scale", "32"], 8),
    # reference + one load point + the shed run
    "open-loop": (["--arrivals", "poisson", "--load", "0.5", "--shards", "2",
                   "--requests", "8", "--scale", "32"], 3),
    # two class references + two class streams
    "mixed": (["--mixed", "--shards", "2", "--requests", "4"], 4),
}


def _serve_bench(capsys, *argv):
    """Run ``serve-bench`` and parse its table rows into dicts."""
    code = main(["serve-bench", *argv])
    out, err = capsys.readouterr()
    header, rows = None, []
    for line in out.splitlines():
        cells = line.split()
        if cells and cells[0] == "workload":
            header = cells
        elif cells and cells[0] in workload_names():
            rows.append(dict(zip(header, cells)))
    return code, rows, err


@pytest.mark.parametrize("mode", sorted(MODES))
def test_each_mode_prints_one_row_per_stream(capsys, mode):
    argv, num_rows = MODES[mode]
    code, rows, err = _serve_bench(capsys, *argv)
    assert code == 0, err
    assert len(rows) == num_rows
    assert all(row["exact"] == "yes" for row in rows)
    assert "FAIL" not in err


@pytest.mark.parametrize("mode", sorted(MODES))
def test_corrupted_reference_fails_the_run(capsys, monkeypatch, mode):
    measure_stream = bench.measure_stream

    def corrupt_reference(server, xs, reference=None, *args, **kwargs):
        record, report = measure_stream(server, xs, reference, *args, **kwargs)
        if reference is None:
            report.outputs[0] = report.outputs[0] + 1.0
        return record, report

    monkeypatch.setattr(bench, "measure_stream", corrupt_reference)
    code, rows, err = _serve_bench(capsys, *MODES[mode][0])
    assert code == 1
    assert "FAIL:" in err
    assert any(row["exact"] == "NO" for row in rows)


def test_open_loop_honours_dtype_and_threads(capsys):
    code, rows, _ = _serve_bench(
        capsys, "--arrivals", "poisson", "--load", "0.5", "--dtype", "int16",
        "--threads", "3", "--shards", "2", "--requests", "8", "--scale", "32",
    )
    assert code == 0
    assert {row["dtype"] for row in rows} == {"int16"}
    # The 1-shard reference runs on one thread; every sharded stream on 3.
    assert {row["thr"] for row in rows if row["shards"] == "2"} == {"3"}


def test_open_loop_runs_the_named_workload(capsys):
    code, rows, _ = _serve_bench(
        capsys, "--workload", "lenet", "--arrivals", "poisson", "--load",
        "0.5", "--shards", "2", "--requests", "4",
    )
    assert code == 0
    assert {row["workload"] for row in rows} == {"lenet"}
    assert "poisson" in {row["process"] for row in rows}


def test_mixed_honours_dtype(capsys):
    code, rows, _ = _serve_bench(
        capsys, "--mixed", "--dtype", "int16", "--shards", "2",
        "--requests", "4",
    )
    assert code == 0
    assert len(rows) == 4
    assert {row["dtype"] for row in rows} == {"int16"}


def test_seeded_runs_return_equal_records():
    def runs(run, **kwargs):
        return [run(seed=3, **kwargs) for _ in range(2)]

    first, second = runs(
        run_workload_matrix, workloads=("alexnet-fc", "nmt"),
        shard_counts=(1, 2), thread_counts=(1, 2), num_requests=4, scale=32,
    )
    assert first == second
    assert len(first) == 2 * (1 + 2 * 2)
    first, second = runs(
        run_open_loop_sweep, arrivals=("bursty",), load_fractions=(0.5,),
        num_requests=8, num_shards=2, scale=32, knee_iters=2,
    )
    assert first == second
    first, second = runs(run_mixed_traffic, num_requests=4, num_shards=2)
    assert first == second
