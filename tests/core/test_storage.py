"""Tests for storage accounting (Fig. 4 model) and paper Table II numbers."""

import pytest

from repro.core import (
    StorageReport,
    dense_storage_bits,
    pd_storage_bits,
    unstructured_sparse_storage_bits,
)


class TestStorageModels:
    def test_dense_bits(self):
        assert dense_storage_bits(10, 10, 32) == 3200

    def test_pd_bits_value_term(self):
        # 8x8, p=4: 16 values * 32 bits + 4 blocks * 2 bits
        assert pd_storage_bits(8, 8, 4, 32) == 16 * 32 + 4 * 2

    def test_pd_bits_without_permutation_overhead(self):
        assert pd_storage_bits(8, 8, 4, 32, include_permutation=False) == 512

    def test_p1_has_no_permutation_overhead(self):
        assert pd_storage_bits(4, 4, 1, 32) == dense_storage_bits(4, 4, 32)

    def test_eie_style_unstructured(self):
        # EIE: 4-bit weight + 4-bit index -> 8 bits per nnz
        assert unstructured_sparse_storage_bits(100) == 800

    def test_unstructured_with_pointers(self):
        assert (
            unstructured_sparse_storage_bits(100, num_columns=10)
            == 800 + 320
        )

    def test_pd_wins_at_same_sparsity(self):
        # At 10% density (p=10 vs 10% unstructured nnz), PD stores no index.
        m = n = 1000
        pd = pd_storage_bits(m, n, 10, weight_bits=4)
        unstructured = unstructured_sparse_storage_bits(
            m * n // 10, weight_bits=4, index_bits=4
        )
        assert pd < unstructured


class TestStorageReport:
    def test_alexnet_fc_table2_float32(self):
        """Table II row 2: PD p=10/10/4 gives ~25.9 MB, 9.0x overall."""
        layers = [(4096, 9216, 10), (4096, 4096, 10), (1000, 4096, 4)]
        dense_mb = sum(
            StorageReport.for_pd_layer(m, n, p).dense_megabytes
            for m, n, p in layers
        )
        compressed_mb = sum(
            StorageReport.for_pd_layer(m, n, p).compressed_megabytes
            for m, n, p in layers
        )
        # Paper: 234.5 MB dense, 25.9 MB compressed (9.0x)
        assert dense_mb == pytest.approx(234.5, rel=0.02)
        assert compressed_mb == pytest.approx(25.9, rel=0.03)
        assert dense_mb / compressed_mb == pytest.approx(9.0, rel=0.03)

    def test_alexnet_fc_table2_fixed16(self):
        """Table II row 3: 16-bit fixed PD gives ~12.9 MB, 18.1x."""
        layers = [(4096, 9216, 10), (4096, 4096, 10), (1000, 4096, 4)]
        compressed_mb = sum(
            StorageReport.for_pd_layer(m, n, p, weight_bits=16).compressed_megabytes
            for m, n, p in layers
        )
        dense_mb = 234.5
        assert compressed_mb == pytest.approx(12.9, rel=0.04)
        assert dense_mb / compressed_mb == pytest.approx(18.1, rel=0.04)

    def test_nmt_table3(self):
        """Table III: 32 LSTM FC matrices, p=8 -> 419.4 MB dense, 52.4 MB PD."""
        # Stanford NMT: 4-layer stacked LSTM, hidden 1024: the dominant
        # weight shapes per paper Table VII are 2048x1024, 2048x1536,
        # 2048x2048 variants; total dense size is reported as 419.4MB.
        # We verify the *ratio* exactly: p=8 with 32-bit floats -> 8x.
        # The k_l parameters add ~1% overhead that the paper's "8x" ignores.
        report = StorageReport.for_pd_layer(2048, 1024, 8)
        assert report.compression_ratio == pytest.approx(8.0, rel=0.02)
        report16 = StorageReport.for_pd_layer(2048, 1024, 8, weight_bits=16)
        assert report16.compression_ratio == pytest.approx(16.0, rel=0.03)

    def test_compression_ratio_tracks_p(self):
        for p in (2, 4, 8, 16):
            report = StorageReport.for_pd_layer(256, 256, p)
            assert report.compression_ratio == pytest.approx(p, rel=0.02)
