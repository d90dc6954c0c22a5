"""Tests for Case 1/2/3 column scheduling (Sec. IV-D, Fig. 10)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import BlockPermutedDiagonalMatrix
from repro.hw import EngineConfig, PermDNNEngine
from repro.hw.scheduler import (
    classify_case,
    cycles_per_column,
    schedule_trace,
)


class TestCaseClassification:
    def test_case1(self):
        # n_rowpe >= p*n_mul and n_acc >= n_rowpe
        assert classify_case(n_rowpe=128, p=10, n_mul=8, n_acc=128) == 1

    def test_case2(self):
        assert classify_case(n_rowpe=256, p=10, n_mul=8, n_acc=128) == 2

    def test_case3(self):
        # n_rowpe < p*n_mul: very sparse model, PEs under-filled
        assert classify_case(n_rowpe=16, p=10, n_mul=8, n_acc=128) == 3

    def test_paper_fig10a_is_case1(self):
        """Fig. 10(a): 2 PEs, n_mul=1, n_acc=4, 8x8, p=2 -> Case 1."""
        assert classify_case(n_rowpe=4, p=2, n_mul=1, n_acc=4) == 1

    def test_paper_fig10b_is_case2(self):
        """Fig. 10(b): p=3 -> n_rowpe=4 >= 3*1, n_acc=4 ... the paper runs
        this as the accumulator-constrained schedule."""
        # 8x8 with p=3 pads to 9 rows -> ~4-5 rows per PE; with n_acc=4 and
        # chunking needed the schedule follows Case 2 mechanics
        assert classify_case(n_rowpe=6, p=3, n_mul=1, n_acc=4) == 2

    def test_validation(self):
        with pytest.raises(ValueError):
            classify_case(0, 1, 1, 1)


class TestCyclesPerColumn:
    def test_case1_formula(self):
        """Fig. 10(a): 4 rows per PE, p=2, 1 mul -> 2 cycles per column."""
        schedule = cycles_per_column(4, 2, 1, 4)
        assert schedule.case == 1
        assert schedule.cycles_per_column == 2.0

    def test_case1_alexfc6(self):
        # 4096/32 = 128 rows, p=10, 8 muls -> ceil(12.8/8) = 2 cycles
        schedule = cycles_per_column(128, 10, 8, 128)
        assert schedule.cycles_per_column == 2.0

    def test_case2_chunks_and_refetch(self):
        schedule = cycles_per_column(256, 8, 8, 128)
        assert schedule.case == 2
        assert schedule.passes == 2  # 256 rows in chunks of 128
        # each chunk: ceil(128/8/8) = 2 cycles -> 4 total
        assert schedule.cycles_per_column == 4.0

    def test_case2_uneven_last_chunk(self):
        schedule = cycles_per_column(200, 8, 8, 128)
        assert schedule.passes == 2
        # chunk1: ceil(128/64)=2, chunk2: ceil(72/64)... 72/8 rows /8 = 1.125 -> 2
        assert schedule.cycles_per_column == 2.0 + 2.0

    def test_case3_concurrent_columns(self):
        schedule = cycles_per_column(16, 10, 8, 128)
        assert schedule.case == 3
        assert schedule.columns_per_cycle == 5  # floor(80/16)
        assert schedule.cycles_per_column == pytest.approx(0.2)

    @given(
        st.integers(1, 512),
        st.integers(1, 16),
        st.integers(1, 16),
        st.integers(1, 512),
    )
    @settings(max_examples=60)
    def test_throughput_never_exceeds_multipliers(self, n_rowpe, p, n_mul, n_acc):
        """Per cycle a PE retires at most n_mul weights (physical bound)."""
        n_acc = max(n_acc, n_mul)
        n_acc = (n_acc // n_mul) * n_mul  # keep config valid
        schedule = cycles_per_column(n_rowpe, p, n_mul, n_acc)
        nnz_per_column = n_rowpe / p
        if schedule.case == 3:
            # columns_per_cycle columns retire per single cycle
            weights_per_cycle = nnz_per_column * schedule.columns_per_cycle
        else:
            weights_per_cycle = nnz_per_column / schedule.cycles_per_column
        assert weights_per_cycle <= n_mul + 1e-9


def _layer(nonzero_columns, m, p, n=1024, pipeline_stages=5):
    """One engine layer run: 2 PEs (``n_rowpe = m / 2``), 8 multipliers
    and 128 accumulators each, on an input with ``nonzero_columns``
    non-zeros."""
    engine = PermDNNEngine(
        EngineConfig(n_pe=2, pipeline_stages=pipeline_stages)
    )
    matrix = BlockPermutedDiagonalMatrix.random((m, n), p, rng=0)
    x = np.zeros(n)
    x[:nonzero_columns] = 1.0
    return engine.run_fc_layer(matrix, x, enforce_capacity=False)


class TestLayerCycles:
    """The engine's one cycle rule (``PermDNNEngine._account_batch``)
    applied to the schedules above."""

    def test_zero_skipping_reduces_cycles(self):
        dense = _layer(1024, 256, 8).cycles
        sparse = _layer(300, 256, 8).cycles
        assert sparse < dense

    def test_linear_in_nonzero_columns(self):
        base = _layer(100, 256, 8).compute_cycles
        double = _layer(200, 256, 8).compute_cycles
        assert double == 2 * base

    def test_pipeline_fill_added_once(self):
        with_fill = _layer(10, 256, 8, pipeline_stages=5)
        without = _layer(10, 256, 8, pipeline_stages=0)
        assert with_fill.cycles - without.cycles == 5
        assert with_fill.cycles == (
            5 + with_fill.compute_cycles + with_fill.writeback_cycles
        )

    def test_case3_ceils_concurrent_columns(self):
        # n_rowpe=16, p=10, n_mul=8 -> Case 3 with floor(80/16)=5 columns
        # per cycle; 7 non-zero columns need ceil(7/5)=2 cycles.
        result = _layer(7, 32, 10, n=20)
        assert result.case == 3
        assert result.compute_cycles == 2


class TestScheduleTrace:
    def test_fig10a_trace(self):
        """Fig. 10(a): 8x8, p=2, 2 PEs (4 rows each), 1 mul, 4 accs:
        2 cycles per column, continuous processing."""
        trace = schedule_trace(columns=8, n_rowpe=4, p=2, n_mul=1, n_acc=4)
        # 8 columns x 2 non-zeros per column per PE = 16 events
        assert len(trace) == 16
        assert max(e["cycle"] for e in trace) == 15  # continuous, no gaps
        assert all(e["pass"] == 0 for e in trace)

    def test_fig10b_trace_has_multiple_passes(self):
        """Case 2 re-walks the columns once per accumulator chunk."""
        trace = schedule_trace(columns=4, n_rowpe=6, p=3, n_mul=1, n_acc=4)
        passes = {e["pass"] for e in trace}
        assert passes == {0, 1}
        # pass 1 revisits column 0 after pass 0 finished all columns
        last_pass0 = max(e["cycle"] for e in trace if e["pass"] == 0)
        first_pass1 = min(e["cycle"] for e in trace if e["pass"] == 1)
        assert first_pass1 > last_pass0

    def test_trace_covers_every_block_row_once_per_column(self):
        trace = schedule_trace(columns=2, n_rowpe=8, p=2, n_mul=2, n_acc=8)
        col0_rows = [r for e in trace if e["column"] == 0 for r in e["rows"]]
        assert len(col0_rows) == 4  # 8 rows / p=2 -> 4 non-zeros
