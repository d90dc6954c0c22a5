"""Column scheduling: the paper's Case 1 / Case 2 / Case 3 (Sec. IV-D).

Each PE owns ``n_rowpe = m / n_pe`` consecutive rows of the weight matrix,
i.e. ``n_rowpe / p`` permuted diagonal blocks per block column.  A matrix
column intersects each of those blocks in exactly **one** non-zero, so every
PE processes exactly ``n_rowpe / p`` weights per column -- the structural
load balance the paper contrasts with EIE.

With ``n_mul`` multipliers the cases are:

- **Case 1** (``n_rowpe >= p*n_mul`` and ``n_acc >= n_rowpe``): a column
  takes ``ceil(n_rowpe / (p*n_mul))`` cycles; processing is continuous.
- **Case 2** (``n_rowpe >= p*n_mul`` and ``n_acc < n_rowpe``): accumulators
  cannot hold all partial outputs; rows are processed in chunks of
  ``n_acc``, and *every chunk re-walks all the non-zero input columns*
  (Fig. 10(b)), adding re-fetch passes.
- **Case 3** (``n_rowpe < p*n_mul``): a column does not fill the multiplier
  array; ``floor(p*n_mul / n_rowpe)`` columns are processed concurrently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

__all__ = ["ColumnSchedule", "classify_case", "cycles_per_column", "schedule_trace"]


def classify_case(n_rowpe: int, p: int, n_mul: int, n_acc: int) -> int:
    """Return 1, 2 or 3 per the paper's taxonomy."""
    if n_rowpe <= 0 or p <= 0 or n_mul <= 0 or n_acc <= 0:
        raise ValueError("all scheduler parameters must be positive")
    if n_rowpe < p * n_mul:
        return 3
    if n_acc >= n_rowpe:
        return 1
    return 2


@dataclass(frozen=True)
class ColumnSchedule:
    """Cycle cost of processing matrix columns on one PE.

    Attributes:
        case: 1, 2 or 3.
        cycles_per_column: average cycles consumed per non-zero input column
            (fractional under Case 3 where columns share cycles).
        passes: input re-fetch passes (1 except under Case 2).
        columns_per_cycle: concurrent columns (1 except under Case 3).
    """

    case: int
    cycles_per_column: float
    passes: int
    columns_per_cycle: int


@lru_cache(maxsize=256)
def cycles_per_column(n_rowpe: int, p: int, n_mul: int, n_acc: int) -> ColumnSchedule:
    """Compute the per-column schedule for one PE.

    A pure function of its four integers, memoized: the engine asks for
    it on every batch, and a served stage's shapes repeat every batch.
    The schedule is frozen, so every caller can share one.

    Args:
        n_rowpe: rows of the weight matrix owned by the PE.
        p: permuted-diagonal block size.
        n_mul: multipliers per PE.
        n_acc: accumulators per PE.
    """
    case = classify_case(n_rowpe, p, n_mul, n_acc)
    nnz_per_column = n_rowpe / p  # one non-zero per block per column
    if case == 1:
        cycles = math.ceil(nnz_per_column / n_mul)
        return ColumnSchedule(1, float(cycles), passes=1, columns_per_cycle=1)
    if case == 2:
        # rows processed in chunks of n_acc; each chunk re-reads the input
        chunks = math.ceil(n_rowpe / n_acc)
        total = 0
        remaining = n_rowpe
        for _ in range(chunks):
            chunk_rows = min(n_acc, remaining)
            total += math.ceil(chunk_rows / p / n_mul)
            remaining -= chunk_rows
        return ColumnSchedule(2, float(total), passes=chunks, columns_per_cycle=1)
    # Case 3: several columns fit the multiplier array at once
    concurrent = max(int(p * n_mul // n_rowpe), 1)
    cycles = 1.0 / concurrent
    return ColumnSchedule(3, cycles, passes=1, columns_per_cycle=concurrent)


def schedule_trace(
    columns: int, n_rowpe: int, p: int, n_mul: int, n_acc: int
) -> list[dict]:
    """Cycle-by-cycle trace of which rows each column touches (Fig. 10).

    Intended for small configurations (the paper's example: 2 PEs,
    ``n_mul=1``, ``n_acc=4``, 8x8 matrix).  Returns one record per cycle:
    ``{"cycle", "column", "pass", "rows"}`` where ``rows`` are the PE-local
    row indices updated in that cycle.
    """
    schedule = cycles_per_column(n_rowpe, p, n_mul, n_acc)
    trace: list[dict] = []
    cycle = 0
    if schedule.case in (1, 3):
        for col in range(columns):
            rows = list(range(0, n_rowpe, p))
            # n_mul non-zeros retire per cycle
            for start in range(0, len(rows), n_mul):
                trace.append(
                    {
                        "cycle": cycle,
                        "column": col,
                        "pass": 0,
                        "rows": [r + (col % p) for r in rows[start : start + n_mul]],
                    }
                )
                cycle += 1
        return trace
    # Case 2: chunked passes, every pass re-walks all columns (Fig. 10(b))
    chunk_starts = list(range(0, n_rowpe, n_acc))
    for pass_idx, chunk_start in enumerate(chunk_starts):
        chunk_rows = range(chunk_start, min(chunk_start + n_acc, n_rowpe), p)
        for col in range(columns):
            rows = list(chunk_rows)
            for start in range(0, len(rows), n_mul):
                trace.append(
                    {
                        "cycle": cycle,
                        "column": col,
                        "pass": pass_idx,
                        "rows": [r + (col % p) for r in rows[start : start + n_mul]],
                    }
                )
                cycle += 1
    return trace
