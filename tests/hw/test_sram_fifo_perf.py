"""Tests for SRAM models, performance reports and workloads."""

import numpy as np
import pytest

from repro.hw import TABLE_VII_WORKLOADS, Workload, make_workload_instance
from repro.hw.perf import PerformanceReport, equivalent_dense_ops
from repro.hw.sram import SRAMBank


class TestSRAMBank:
    def test_capacity_math(self):
        bank = SRAMBank("w", banks=16, width=32, depth=2048)
        assert bank.total_bits == 16 * 32 * 2048
        assert bank.total_kilobytes == pytest.approx(128.0)
        assert bank.capacity_words(4) == 16 * 32 * 2048 // 4

    def test_check_fits(self):
        bank = SRAMBank("w", 1, 32, 4)
        bank.check_fits(4, 32)
        with pytest.raises(ValueError):
            bank.check_fits(5, 32)

    def test_access_counting(self):
        bank = SRAMBank("a", 1, 64, 16)
        bank.read(3)
        bank.write(2)
        assert bank.stats.reads == 3
        assert bank.stats.writes == 2
        assert bank.stats.total == 5
        bank.reset_stats()
        assert bank.stats.total == 0

    def test_invalid_word_bits(self):
        with pytest.raises(ValueError):
            SRAMBank("w", 1, 32, 4).capacity_words(0)


class TestPerformanceReport:
    def _report(self, cycles=1000, clock=1.2, power=0.7, area=8.85):
        return PerformanceReport(
            name="x",
            cycles=cycles,
            clock_ghz=clock,
            compressed_ops=2_000_000,
            dense_ops=20_000_000,
            power_w=power,
            area_mm2=area,
        )

    def test_time_and_gops(self):
        report = self._report()
        assert report.time_s == pytest.approx(1000 / 1.2e9)
        assert report.gops == pytest.approx(2_000_000 / report.time_s / 1e9)

    def test_equivalent_gops_uses_dense_ops(self):
        report = self._report()
        assert report.equivalent_gops == pytest.approx(10 * report.gops)

    def test_efficiencies(self):
        report = self._report()
        assert report.gops_per_watt == pytest.approx(report.equivalent_gops / 0.7)
        assert report.gops_per_mm2 == pytest.approx(report.equivalent_gops / 8.85)

    def test_area_unknown_raises(self):
        report = PerformanceReport("x", 10, 1.0, 10, 10, 1.0, None)
        with pytest.raises(ValueError):
            __ = report.gops_per_mm2

    def test_speedup_is_time_ratio(self):
        fast = self._report(cycles=500)
        slow = self._report(cycles=1000)
        assert fast.speedup_over(slow) == pytest.approx(2.0)

    def test_energy(self):
        report = self._report()
        assert report.energy_j == pytest.approx(0.7 * report.time_s)

    def test_equivalent_dense_ops(self):
        assert equivalent_dense_ops(4096, 9216) == 2 * 4096 * 9216


class TestWorkloads:
    def test_table7_has_six_layers(self):
        assert len(TABLE_VII_WORKLOADS) == 6
        names = [w.name for w in TABLE_VII_WORKLOADS]
        assert names == [
            "Alex-FC6", "Alex-FC7", "Alex-FC8", "NMT-1", "NMT-2", "NMT-3",
        ]

    def test_table7_shapes_and_densities(self):
        fc6 = TABLE_VII_WORKLOADS[0]
        assert (fc6.m, fc6.n, fc6.p) == (4096, 9216, 10)
        assert fc6.weight_density == pytest.approx(0.10)
        assert fc6.activation_density == pytest.approx(0.358)
        nmt1 = TABLE_VII_WORKLOADS[3]
        assert (nmt1.m, nmt1.n, nmt1.p) == (2048, 1024, 8)
        assert nmt1.activation_density == 1.0

    def test_instance_matches_spec(self):
        workload = Workload("t", 64, 128, 4, 0.5)
        matrix, x = make_workload_instance(workload, rng=0)
        assert matrix.shape == (64, 128)
        assert matrix.p == 4
        assert int(np.count_nonzero(x)) == 64  # 128 * 0.5

    def test_compressed_macs_accounting(self):
        workload = Workload("t", 100, 200, 4, 0.5)
        assert workload.compressed_macs == 100 * (100 // 4)
        assert workload.dense_ops == 2 * 100 * 200
