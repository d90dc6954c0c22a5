"""Tests for the PermDNN engine simulator (functional + cycle behaviour)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import BlockPermutedDiagonalMatrix
from repro.hw import (
    EngineConfig,
    PEConfig,
    PermDNNEngine,
    TABLE_VII_WORKLOADS,
    make_workload_instance,
)
from repro.hw.verify import verify_against_golden, verify_engine


def _small_engine(n_pe=4, n_mul=2, n_acc=8):
    return PermDNNEngine(
        EngineConfig(n_pe=n_pe, pe=PEConfig(n_mul=n_mul, n_acc=n_acc))
    )


class TestFunctionalCorrectness:
    @given(
        st.integers(1, 6).map(lambda v: v * 16),
        st.integers(1, 6).map(lambda v: v * 16),
        st.sampled_from([2, 4, 8]),
    )
    @settings(max_examples=25, deadline=None)
    def test_matches_golden_for_random_layers(self, m, n, p):
        rng = np.random.default_rng(m * 7 + n * 3 + p)
        matrix = BlockPermutedDiagonalMatrix.random((m, n), p, rng=rng)
        x = rng.normal(size=n) * (rng.random(n) > 0.4)
        assert verify_engine(_small_engine(), matrix, x) == 0.0

    def test_relu_and_tanh_activation_units(self):
        rng = np.random.default_rng(0)
        matrix = BlockPermutedDiagonalMatrix.random((32, 32), 4, rng=rng)
        x = rng.normal(size=32)
        assert verify_engine(_small_engine(), matrix, x, activation="relu") == 0.0
        assert verify_engine(_small_engine(), matrix, x, activation="tanh") == 0.0

    def test_unknown_activation_rejected(self):
        matrix = BlockPermutedDiagonalMatrix.random((16, 16), 4, rng=0)
        with pytest.raises(ValueError):
            _small_engine().run_fc_layer(matrix, np.ones(16), activation="gelu")

    def test_input_shape_check(self):
        matrix = BlockPermutedDiagonalMatrix.random((16, 16), 4, rng=0)
        with pytest.raises(ValueError):
            _small_engine().run_fc_layer(matrix, np.ones(8))

    def test_verify_against_golden_raises_on_divergence(self):
        with pytest.raises(AssertionError):
            verify_against_golden(np.ones(4), np.zeros(4))

    def test_verify_against_golden_raises_on_shape_mismatch(self):
        with pytest.raises(AssertionError):
            verify_against_golden(np.ones(4), np.zeros(5))

    def test_verify_returns_error_magnitude(self):
        err = verify_against_golden(np.ones(3), np.ones(3) + 1e-12)
        assert err <= 1e-11

    def test_all_table7_workloads_verify(self):
        engine = PermDNNEngine()
        for workload in TABLE_VII_WORKLOADS:
            matrix, x = make_workload_instance(workload, rng=0)
            assert verify_engine(engine, matrix, x) == 0.0


class TestCycleModel:
    def test_zero_skipping_scales_with_density(self):
        rng = np.random.default_rng(1)
        matrix = BlockPermutedDiagonalMatrix.random((64, 256), 4, rng=rng)
        engine = _small_engine()
        dense_x = rng.normal(size=256)
        sparse_x = dense_x * (rng.random(256) < 0.25)
        dense_res = engine.run_fc_layer(matrix, dense_x)
        sparse_res = engine.run_fc_layer(matrix, sparse_x)
        assert sparse_res.compute_cycles < 0.5 * dense_res.compute_cycles
        assert sparse_res.skipped_columns > 0

    def test_zero_skip_disabled_processes_every_column(self):
        rng = np.random.default_rng(2)
        matrix = BlockPermutedDiagonalMatrix.random((64, 128), 4, rng=rng)
        engine = _small_engine()
        x = np.zeros(128)
        x[:10] = 1.0
        with_skip = engine.run_fc_layer(matrix, x, zero_skip=True)
        without = engine.run_fc_layer(matrix, x, zero_skip=False)
        assert with_skip.nonzero_columns == 10
        assert without.nonzero_columns == 128
        assert without.cycles > with_skip.cycles
        np.testing.assert_allclose(with_skip.output, without.output)

    def test_alexfc6_cycle_count(self):
        """Analytic check: FC6 (4096x9216, p=10, 35.8% act density) on the
        default engine takes 2 cycles/column (ceil(128/80))."""
        engine = PermDNNEngine()
        workload = TABLE_VII_WORKLOADS[0]
        matrix, x = make_workload_instance(workload, rng=0)
        result = engine.run_fc_layer(matrix, x)
        nnz = int(np.count_nonzero(x))
        expected = 5 + 2 * nnz + int(np.ceil(4096 / 32))
        assert result.cycles == expected
        assert result.case == 1

    def test_macs_accounting(self):
        """MACs count every stored weight in a non-zero input column.
        4096 is not divisible by p=10, so the last block row stores a
        weight in only some columns: no per-column average is exact."""
        engine = PermDNNEngine()
        matrix, x = make_workload_instance(TABLE_VII_WORKLOADS[1], rng=0)
        result = engine.run_fc_layer(matrix, x)
        _, cols = matrix.support_coordinates()
        assert result.macs == int(np.count_nonzero(x[cols]))

    @given(
        st.integers(1, 6),  # p
        st.integers(1, 30),  # m
        st.integers(1, 30),  # n
        st.integers(1, 4),  # batch
        st.integers(0, 2**16),  # seed
    )
    @settings(max_examples=60, deadline=None)
    def test_macs_count_stored_weights_on_drawn_shapes(
        self, p, m, n, batch, seed
    ):
        """Batched MACs are exact on padded shapes too: the stored
        weights in each input's processed columns, summed over the batch,
        and every stored weight per input without zero-skipping."""
        rng = np.random.default_rng(seed)
        matrix = BlockPermutedDiagonalMatrix.random((m, n), p, rng=rng)
        x = rng.normal(size=(batch, n)) * (rng.random((batch, n)) < 0.5)
        _, cols = matrix.support_coordinates()
        engine = PermDNNEngine()
        _, _, macs = engine.run_fc_batch_detailed(matrix, x)
        assert macs == int(np.count_nonzero(x[:, cols]))
        _, _, every = engine.run_fc_batch_detailed(matrix, x, zero_skip=False)
        assert every == batch * matrix.nnz

    @given(
        st.integers(1, 6),  # p
        st.integers(1, 6),  # block rows
        st.integers(1, 30),  # n
        st.integers(0, 2**16),  # seed
    )
    @settings(max_examples=40, deadline=None)
    def test_macs_match_the_column_average_when_p_divides_rows(
        self, p, blocks, n, seed
    ):
        """Every column then stores one weight per block row, so the exact
        count is the per-column average ``nnz / n`` per processed column,
        the model earlier revisions used: counts there did not move."""
        rng = np.random.default_rng(seed)
        matrix = BlockPermutedDiagonalMatrix.random((p * blocks, n), p, rng=rng)
        x = rng.normal(size=(3, n)) * (rng.random((3, n)) < 0.5)
        _, _, macs = PermDNNEngine().run_fc_batch_detailed(matrix, x)
        average = np.count_nonzero(x, axis=1) * matrix.nnz / n
        assert macs == int(np.rint(average).sum())

    def test_macs_exact_when_divisible(self):
        engine = PermDNNEngine()
        matrix, x = make_workload_instance(TABLE_VII_WORKLOADS[3], rng=0)
        result = engine.run_fc_layer(matrix, x)
        assert result.macs == 1024 * (2048 // 8)  # all columns non-zero

    def test_utilization_bounded(self):
        engine = PermDNNEngine()
        for workload in TABLE_VII_WORKLOADS:
            matrix, x = make_workload_instance(workload, rng=0)
            result = engine.run_fc_layer(matrix, x)
            assert 0.0 < result.utilization <= 1.0

    def test_nmt_layers_fully_utilized(self):
        """NMT layers divide evenly: utilization should be 1.0."""
        engine = PermDNNEngine()
        matrix, x = make_workload_instance(TABLE_VII_WORKLOADS[3], rng=0)
        result = engine.run_fc_layer(matrix, x)
        assert result.utilization == pytest.approx(1.0)

    def test_load_balance_across_pes(self):
        """Structural claim (Sec. V-D): every PE retires identical work, so
        compute cycles equal the per-PE bound with no straggler term."""
        engine = PermDNNEngine()
        matrix, x = make_workload_instance(TABLE_VII_WORKLOADS[4], rng=0)
        result = engine.run_fc_layer(matrix, x)
        nnz = int(np.count_nonzero(x))
        per_pe_cycles = result.compute_cycles  # same for every PE
        assert per_pe_cycles == nnz * int(
            np.ceil((2048 / 32) / 8 / 8)
        )

    def test_writeback_uses_group_writing(self):
        engine = PermDNNEngine()
        matrix, x = make_workload_instance(TABLE_VII_WORKLOADS[2], rng=0)
        result = engine.run_fc_layer(matrix, x)
        assert result.writeback_cycles == int(np.ceil(1000 / 32))

    def test_sram_capacity_guard(self):
        """A layer bigger than the weight SRAM must be rejected."""
        engine = PermDNNEngine(EngineConfig(n_pe=1))
        huge = BlockPermutedDiagonalMatrix.zeros((4096, 9216), 10)
        with pytest.raises(ValueError):
            engine.run_fc_layer(huge, np.zeros(9216))

    def test_paper_capacity_claim_8m_weights_fit(self):
        """Sec. V-B: with 4-bit sharing, 32 PEs store an 8M-param layer."""
        engine = PermDNNEngine()
        capacity_weights = (
            engine.weight_sram.capacity_words(4) * engine.config.n_pe
        )
        assert capacity_weights >= 8_000_000


class TestBitAccurateMode:
    def test_quantized_output_close_to_float(self):
        rng = np.random.default_rng(3)
        matrix = BlockPermutedDiagonalMatrix.random((64, 64), 8, rng=rng)
        x = rng.normal(size=64)
        engine = _small_engine()
        exact = engine.run_fc_layer(matrix, x).output
        quant = engine.run_fc_layer(matrix, x, bit_accurate=True).output
        scale = np.abs(exact).max()
        assert np.abs(exact - quant).max() < 0.15 * scale

    def test_saturation_counted_on_overflow(self):
        matrix = BlockPermutedDiagonalMatrix.random((16, 16), 2, rng=0)
        # 8 weights of ~40 times activations clipped at ~8 sums past the
        # 24-bit Q11.12 accumulator ceiling of ~2048
        matrix.data[...] = np.abs(matrix.data) + 40.0
        matrix.data *= matrix.support_mask()
        engine = _small_engine()
        x = np.full(16, 400.0)
        result = engine.run_fc_layer(matrix, x, bit_accurate=True)
        assert result.saturations > 0

    def test_cycles_identical_to_float_mode(self):
        """Quantization changes values, never the schedule."""
        rng = np.random.default_rng(4)
        matrix = BlockPermutedDiagonalMatrix.random((64, 64), 8, rng=rng)
        x = rng.normal(size=64)
        engine = _small_engine()
        assert (
            engine.run_fc_layer(matrix, x).cycles
            == engine.run_fc_layer(matrix, x, bit_accurate=True).cycles
        )


class TestPerformanceReports:
    def test_peak_gops_reachable(self):
        engine = PermDNNEngine()
        matrix, x = make_workload_instance(TABLE_VII_WORKLOADS[3], rng=0)
        result = engine.run_fc_layer(matrix, x)
        perf = engine.performance(result, (2048, 1024))
        # fully utilized layer approaches the 614.4 GOPS peak
        assert perf.gops > 0.9 * engine.config.peak_gops

    def test_equivalent_gops_exceeds_compressed(self):
        engine = PermDNNEngine()
        matrix, x = make_workload_instance(TABLE_VII_WORKLOADS[0], rng=0)
        result = engine.run_fc_layer(matrix, x)
        perf = engine.performance(result, (4096, 9216))
        assert perf.equivalent_gops > perf.gops

    def test_speedup_requires_same_workload(self):
        engine = PermDNNEngine()
        m1, x1 = make_workload_instance(TABLE_VII_WORKLOADS[0], rng=0)
        m2, x2 = make_workload_instance(TABLE_VII_WORKLOADS[1], rng=0)
        p1 = engine.performance(engine.run_fc_layer(m1, x1), (4096, 9216))
        p2 = engine.performance(engine.run_fc_layer(m2, x2), (4096, 4096))
        with pytest.raises(ValueError):
            p1.speedup_over(p2)

    def test_power_and_area_from_calibrated_model(self):
        engine = PermDNNEngine()
        assert engine.power_w == pytest.approx(0.7034, rel=0.001)
        assert engine.area_mm2 == pytest.approx(8.85, rel=0.002)
