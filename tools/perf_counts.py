"""The counters of a change against its parent, one traced perfbench run
per tree.

Usage::

    python -m tools.perf_counts PARENT CHANGE --workload W [--workload ...] \\
        --seed S

``PARENT`` and ``CHANGE`` are source trees: a directory, or a git ref of
the repository in the working directory, unpacked as
:mod:`tools.perf_ab` unpacks them.  Each tree runs ``perfbench/run.py
--trace 1 --seconds 0.001``, unchanged, once per workload at the same
``--seed``.  At that budget both trees run perfbench's minimum number of
rounds, so counts it averages over rounds compare exactly.

Compared, for exact equality: every per-layer metric of the parent
tree's ``BENCHMARK.json`` whose unit is ``count`` or ``cycles``, and
every ``sim.*`` and ``batching.*`` metric -- figures of the simulated
engine and the batcher, which depend on the seed and the program, never
on the host.  Every difference is printed.  The exit code is 1 when a
metric differs, a compared metric is missing from a run, or a run is bad
(a non-zero exit, no result line or failed operations; see
:func:`tools.perf_ab.parse_run`).
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import tempfile
from pathlib import Path

from tools.perf_ab import SIDES, Run, parse_run, source_tree

__all__ = ["compare", "compared_metrics", "main", "run_traced"]

# perfbench's budget per run: short enough that both trees run its
# minimum number of rounds.
SECONDS = 0.001
_COUNTER_UNITS = ("count", "cycles")
_SIMULATED_PREFIXES = ("sim.", "batching.")


def compared_metrics(benchmark: dict) -> list[str]:
    """The per-layer metrics of ``benchmark`` that must match exactly."""
    return [
        metric["name"]
        for metric in benchmark["per_layer"]
        if metric["unit"] in _COUNTER_UNITS
        or metric["name"].startswith(_SIMULATED_PREFIXES)
    ]


def run_traced(tree: Path, workload: str, seed: int) -> Run:
    """Run ``perfbench/run.py --trace 1`` at :data:`SECONDS` in ``tree``."""
    proc = subprocess.run(
        [
            sys.executable, "perfbench/run.py", "--workload", workload,
            "--seed", str(seed), "--seconds", repr(SECONDS), "--trace", "1",
        ],
        cwd=tree,
        capture_output=True,
        text=True,
    )
    return parse_run(proc.returncode, proc.stdout)


def compare(runs: dict[str, Run], names: list[str]) -> list[str]:
    """One line per problem of a ``{"parent": Run, "change": Run}`` pair:
    a bad run, a metric missing from a run, or a metric that differs."""
    problems = [
        f"{side} bad run: {runs[side].problem}"
        for side in SIDES
        if runs[side].problem
    ]
    for name in names:
        missing = [side for side in SIDES if name not in runs[side].metrics]
        if missing:
            problems.append(f"{name}: missing from {' and '.join(missing)}")
            continue
        parent, change = (runs[side].metrics[name] for side in SIDES)
        if parent != change:
            problems.append(f"{name}: parent {parent!r} change {change!r}")
    return problems


def main(argv: list[str] | None = None, runner=run_traced) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m tools.perf_counts",
        description="Compare perfbench's counters between two trees.",
    )
    parser.add_argument("parent", help="directory or git ref")
    parser.add_argument("change", help="directory or git ref")
    parser.add_argument("--workload", action="append", required=True)
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args(argv)
    failed = False
    with tempfile.TemporaryDirectory(prefix="perf_counts-") as scratch:
        trees = {
            side: source_tree(spec, Path(scratch))
            for side, spec in zip(SIDES, (args.parent, args.change))
        }
        benchmark = json.loads((trees["parent"] / "BENCHMARK.json").read_text())
        names = compared_metrics(benchmark)
        for workload in args.workload:
            runs = {
                side: runner(trees[side], workload, args.seed) for side in SIDES
            }
            problems = compare(runs, names)
            verdict = f"{len(problems)} problem(s)" if problems else "all equal"
            print(f"{workload}: {len(names)} metrics compared, {verdict}")
            for line in problems:
                print(f"  {line}")
            failed = failed or bool(problems)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
