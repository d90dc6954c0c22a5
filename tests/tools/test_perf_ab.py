"""``tools/perf_ab.py``: the pairing, the alternating run order, the
summary and bad runs, driven through a stub runner (perfbench never
starts)."""

import json

import pytest

from tools.perf_ab import Run, main, parse_run, run_pairs, summarize

_END_TO_END = [
    {"name": "round_ms_p50", "better": "lower"},
    {"name": "items_per_s", "better": "higher"},
]


class _Stub:
    """A runner that records its calls.  In its ``k``-th run of a
    workload the parent reads ``round_ms_p50 = 10 + k`` and the change
    ``9 + k``; both read ``items_per_s = 100`` (a tie).  ``bad`` maps a
    ``(side, workload, k)`` to the :class:`Run` that call returns."""

    def __init__(self, bad=None):
        self.calls = []
        self.bad = bad or {}

    def __call__(self, tree, workload, seed, seconds):
        side = tree.name
        k = sum(call[:2] == (side, workload) for call in self.calls)
        self.calls.append((side, workload, seed, seconds))
        if (side, workload, k) in self.bad:
            return self.bad[side, workload, k]
        p50 = (10.0 if side == "parent" else 9.0) + k
        return Run({"round_ms_p50": p50, "items_per_s": 100.0}, 8, 0)


def _trees(tmp_path):
    trees = {side: tmp_path / side for side in ("parent", "change")}
    for tree in trees.values():
        tree.mkdir()
    return trees


def test_pairs_alternate_which_tree_runs_first(tmp_path):
    stub, lines = _Stub(), []
    records = run_pairs(
        _trees(tmp_path), ["fc-burst", "lstm-trickle"], 3, 7, 0.5, stub,
        log=lines.append,
    )
    assert [(r["workload"], r["pair"], r["first"]) for r in records] == [
        ("fc-burst", 0, "parent"),
        ("fc-burst", 1, "change"),
        ("fc-burst", 2, "parent"),
        ("lstm-trickle", 0, "parent"),
        ("lstm-trickle", 1, "change"),
        ("lstm-trickle", 2, "parent"),
    ]
    assert [side for side, *_ in stub.calls] == [
        "parent", "change", "change", "parent", "parent", "change",
    ] * 2
    assert {call[2:] for call in stub.calls} == {(7, 0.5)}
    assert len(lines) == len(records)


def test_summary_gives_medians_ratio_and_directed_wins(tmp_path):
    records = run_pairs(
        _trees(tmp_path), ["fc-burst"], 4, 1, 1.0, _Stub(), log=lambda _: 0
    )
    entry = summarize(records, _END_TO_END)["fc-burst"]
    p50 = entry["metrics"]["round_ms_p50"]
    # Parent reads 10..13, change 9..12.
    assert p50["parent"] == {"median": 11.5, "iqr": 1.5, "n": 4}
    assert p50["change"] == {"median": 10.5, "iqr": 1.5, "n": 4}
    assert p50["ratio"] == pytest.approx(10.5 / 11.5)
    assert (p50["wins"], p50["scored_pairs"]) == (4, 4)
    # A tie counts for neither side.
    assert entry["metrics"]["items_per_s"]["wins"] == 0
    assert entry["bad_runs"] == {"parent": 0, "change": 0}


def test_bad_run_is_counted_and_printed_not_dropped(tmp_path):
    failed = Run({"round_ms_p50": 1.0, "items_per_s": 500.0}, 8, 2,
                 "exit 1, 2 of 8 failed")
    stub = _Stub(bad={
        ("change", "fc-burst", 1): failed,
        ("parent", "fc-burst", 2): Run(problem="exit 1, no result line"),
    })
    lines = []
    records = run_pairs(
        _trees(tmp_path), ["fc-burst"], 3, 1, 1.0, stub, log=lines.append
    )
    assert len(records) == 3
    assert "change BAD RUN: exit 1, 2 of 8 failed" in lines[1]
    assert "parent BAD RUN: exit 1, no result line" in lines[2]
    entry = summarize(records, _END_TO_END)["fc-burst"]
    assert entry["bad_runs"] == {"parent": 1, "change": 1}
    p50 = entry["metrics"]["round_ms_p50"]
    # The failed run's metrics enter the median; the run without a
    # result line has none; neither pair scores a win.
    assert p50["change"]["n"] == 3 and p50["parent"]["n"] == 2
    assert (p50["wins"], p50["scored_pairs"]) == (1, 1)


def test_parse_run_reads_the_last_result_line():
    result = {
        "correct": True, "attempted": 16, "failed": 0,
        "metrics": {"round_ms_p50": {"value": 3.5, "unit": "ms"}},
    }
    stdout = "perfbench x\nhost: {}\n" + json.dumps(result) + "\n"
    assert parse_run(0, stdout) == Run({"round_ms_p50": 3.5}, 16, 0)
    assert parse_run(1, stdout).problem == "exit 1, 0 of 16 failed"
    result["failed"] = 3
    assert parse_run(0, json.dumps(result)).problem == "exit 0, 3 of 16 failed"
    assert parse_run(1, "Traceback\n").problem == "exit 1, no result line"


def test_main_prints_the_summary_and_writes_one_record(tmp_path, capsys):
    trees = _trees(tmp_path)
    (trees["parent"] / "BENCHMARK.json").write_text(
        json.dumps({"end_to_end": _END_TO_END})
    )
    out = tmp_path / "ab.json"
    argv = [
        str(trees["parent"]), str(trees["change"]), "--workload", "fc-burst",
        "--pairs", "2", "--seed", "3", "--seconds", "0.5", "--out", str(out),
    ]
    assert main(argv, runner=_Stub()) == 0
    printed = capsys.readouterr().out
    assert "fc-burst pair 1 (change first)" in printed
    assert "wins 2/2" in printed
    record = json.loads(out.read_text())
    assert [pair["first"] for pair in record["pairs"]] == ["parent", "change"]
    assert record["pairs"][0]["change"]["metrics"]["round_ms_p50"] == 9.0
    assert record["summary"]["fc-burst"]["metrics"]["round_ms_p50"]["wins"] == 2

    bad = _Stub(bad={("change", "fc-burst", 0): Run(problem="exit 2")})
    assert main(argv, runner=bad) == 1
