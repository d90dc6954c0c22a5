"""Interleaved parent/change pairs of perfbench runs.

Usage::

    python -m tools.perf_ab PARENT CHANGE --workload W [--workload ...] \\
        --pairs N --seed S --seconds T [--out FILE]

``PARENT`` and ``CHANGE`` are source trees: a directory, or a git ref of
the repository in the working directory, unpacked with ``git archive``
into a temporary directory.  Each pair runs ``perfbench/run.py --trace
0``, unchanged, once in each tree at the same ``--seed`` and
``--seconds``, and the tree that runs first alternates from pair to pair
(the parent first in pair 0), so host drift lands on both sides alike.

Every pair is printed as it finishes.  Then, per workload and per
end-to-end metric of the parent tree's ``BENCHMARK.json``, the summary
gives each tree's median and interquartile range, the change/parent
ratio of the medians and the change's wins: the pairs where the change
reads strictly better in the metric's ``better`` direction (ties count
for neither side).  A run that exits non-zero, prints no result line or
reports failed operations is printed and counted as a bad run, never
dropped; its metrics still enter the medians when it printed them, but
its pair scores no win.  ``--out`` writes the pairs and the summary as
one JSON record.  The exit code is 1 when any run was bad.
"""

from __future__ import annotations

import argparse
import io
import json
import subprocess
import sys
import tarfile
import tempfile
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

__all__ = ["Run", "main", "parse_run", "run_pairs", "summarize"]

SIDES = ("parent", "change")


@dataclass
class Run:
    """One perfbench run: its end-to-end metrics and what went wrong."""

    metrics: dict[str, float] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    problem: str | None = None  # None for a clean run


def parse_run(returncode: int, stdout: str) -> Run:
    """A :class:`Run` from perfbench's exit code and standard output,
    whose last JSON line is the result line."""
    result = None
    for line in reversed(stdout.splitlines()):
        if line.startswith("{"):
            try:
                result = json.loads(line)
            except json.JSONDecodeError:
                continue
            break
    if result is None:
        return Run(problem=f"exit {returncode}, no result line")
    run = Run(
        {name: float(m["value"]) for name, m in result["metrics"].items()},
        int(result["attempted"]),
        int(result["failed"]),
    )
    if returncode != 0 or run.failed:
        run.problem = (
            f"exit {returncode}, {run.failed} of {run.attempted} failed"
        )
    return run


def run_perfbench(tree: Path, workload: str, seed: int, seconds: float) -> Run:
    """Run ``perfbench/run.py --trace 0`` in ``tree``."""
    proc = subprocess.run(
        [
            sys.executable, "perfbench/run.py", "--workload", workload,
            "--seed", str(seed), "--seconds", repr(seconds), "--trace", "0",
        ],
        cwd=tree,
        capture_output=True,
        text=True,
    )
    return parse_run(proc.returncode, proc.stdout)


def run_pairs(trees, workloads, pairs, seed, seconds, runner, log=print):
    """``pairs`` interleaved pairs per workload, as a list of records
    ``{"workload", "pair", "first", "parent": Run, "change": Run}``."""
    records = []
    for workload in workloads:
        for index in range(pairs):
            order = SIDES if index % 2 == 0 else SIDES[::-1]
            runs = {side: runner(trees[side], workload, seed, seconds)
                    for side in order}
            record = {"workload": workload, "pair": index, "first": order[0]}
            record.update(runs)
            log(_pair_line(record))
            records.append(record)
    return records


def _pair_line(record) -> str:
    parts = [f"{record['workload']} pair {record['pair']} "
             f"({record['first']} first):"]
    for side in SIDES:
        run = record[side]
        shown = " ".join(
            f"{name}={value:.4g}" for name, value in sorted(run.metrics.items())
        )
        parts.append(f"  {side}: {shown or '-'}")
        if run.problem:
            parts.append(f"  {side} BAD RUN: {run.problem}")
    return "\n".join(parts)


def _spread(values: list[float]) -> dict:
    if not values:
        return {"median": None, "iqr": None, "n": 0}
    q1, median, q3 = np.percentile(values, [25, 50, 75])
    return {"median": float(median), "iqr": float(q3 - q1), "n": len(values)}


def summarize(records, end_to_end) -> dict:
    """Per workload and metric: each side's median and IQR, the
    change/parent ratio of medians and the change's wins, plus each
    side's bad-run count.  ``end_to_end`` is ``BENCHMARK.json``'s list."""
    summary = {}
    for workload in dict.fromkeys(r["workload"] for r in records):
        rows = [r for r in records if r["workload"] == workload]
        entry = {
            "pairs": len(rows),
            "bad_runs": {
                side: sum(bool(r[side].problem) for r in rows)
                for side in SIDES
            },
            "metrics": {},
        }
        for metric in end_to_end:
            name = metric["name"]
            sign = 1 if metric["better"] == "higher" else -1
            stats = {
                side: _spread([r[side].metrics[name] for r in rows
                               if name in r[side].metrics])
                for side in SIDES
            }
            base, new = stats["parent"]["median"], stats["change"]["median"]
            stats["ratio"] = new / base if base and new is not None else None
            scored = [
                r for r in rows
                if not (r["parent"].problem or r["change"].problem)
                and name in r["parent"].metrics and name in r["change"].metrics
            ]
            stats["wins"] = sum(
                sign * (r["change"].metrics[name] - r["parent"].metrics[name])
                > 0
                for r in scored
            )
            stats["scored_pairs"] = len(scored)
            entry["metrics"][name] = stats
        summary[workload] = entry
    return summary


def _summary_lines(summary) -> list[str]:
    def num(value):
        return "-" if value is None else f"{value:.4g}"

    lines = []
    for workload, entry in summary.items():
        bad = entry["bad_runs"]
        lines.append(
            f"{workload}: {entry['pairs']} pairs, bad runs parent "
            f"{bad['parent']} change {bad['change']}"
        )
        for name, s in entry["metrics"].items():
            p, c = s["parent"], s["change"]
            lines.append(
                f"  {name:14s} parent {num(p['median'])} (IQR {num(p['iqr'])})"
                f"  change {num(c['median'])} (IQR {num(c['iqr'])})"
                f"  ratio {num(s['ratio'])}"
                f"  wins {s['wins']}/{s['scored_pairs']}"
            )
    return lines


def _tree(spec: str, scratch: Path) -> Path:
    """``spec`` as a directory: itself, or its git ref unpacked."""
    path = Path(spec)
    if path.is_dir():
        return path.resolve()
    archive = subprocess.run(
        ["git", "archive", "--format=tar", spec], capture_output=True
    )
    if archive.returncode:
        raise SystemExit(
            f"perf_ab: {spec!r} is neither a directory nor a git ref: "
            f"{archive.stderr.decode().strip()}"
        )
    target = Path(tempfile.mkdtemp(prefix="tree-", dir=scratch))
    with tarfile.open(fileobj=io.BytesIO(archive.stdout)) as tar:
        tar.extractall(target, filter="data")
    return target


def main(argv: list[str] | None = None, runner=run_perfbench) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m tools.perf_ab",
        description="Interleaved parent/change pairs of perfbench runs.",
    )
    parser.add_argument("parent", help="directory or git ref")
    parser.add_argument("change", help="directory or git ref")
    parser.add_argument("--workload", action="append", required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)
    if args.pairs < 1 or args.seconds <= 0:
        parser.error("--pairs must be >= 1 and --seconds positive")
    with tempfile.TemporaryDirectory(prefix="perf_ab-") as scratch:
        trees = {
            side: _tree(spec, Path(scratch))
            for side, spec in zip(SIDES, (args.parent, args.change))
        }
        benchmark = json.loads((trees["parent"] / "BENCHMARK.json").read_text())
        records = run_pairs(
            trees, args.workload, args.pairs, args.seed, args.seconds, runner
        )
    summary = summarize(records, benchmark["end_to_end"])
    print("\n".join(_summary_lines(summary)))
    if args.out is not None:
        args.out.write_text(json.dumps({
            "parent": args.parent,
            "change": args.change,
            "seed": args.seed,
            "seconds": args.seconds,
            "pairs": [
                {**r, **{side: asdict(r[side]) for side in SIDES}}
                for r in records
            ],
            "summary": summary,
        }, indent=1) + "\n")
    bad = any(r[side].problem for r in records for side in SIDES)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
