"""Tests for accuracy, BLEU, compression and sparsity metrics."""

import numpy as np
import pytest

from repro.metrics import (
    activation_sparsity,
    corpus_bleu,
    model_storage_report,
    sentence_bleu,
    top_k_accuracy,
    weight_sparsity,
)
from repro.nn import Linear, MaskedLinear, PermDiagLinear, ReLU, Sequential


class TestTopKAccuracy:
    def test_top1(self):
        logits = np.array([[0.1, 0.9], [0.8, 0.2]])
        assert top_k_accuracy(logits, np.array([1, 0])) == 1.0
        assert top_k_accuracy(logits, np.array([0, 0])) == 0.5

    def test_top5_always_hits_with_five_classes(self):
        logits = np.random.default_rng(0).normal(size=(20, 5))
        labels = np.random.default_rng(1).integers(0, 5, size=20)
        assert top_k_accuracy(logits, labels, k=5) == 1.0

    def test_topk_monotone_in_k(self):
        logits = np.random.default_rng(2).normal(size=(50, 10))
        labels = np.random.default_rng(3).integers(0, 10, size=50)
        accs = [top_k_accuracy(logits, labels, k) for k in (1, 3, 5)]
        assert accs == sorted(accs)

    def test_validates_shapes(self):
        with pytest.raises(ValueError):
            top_k_accuracy(np.zeros((2, 3)), np.zeros(3, dtype=int))
        with pytest.raises(ValueError):
            top_k_accuracy(np.zeros((2, 3)), np.zeros(2, dtype=int), k=4)


class TestBleu:
    def test_perfect_match_scores_100(self):
        refs = [[1, 2, 3, 4, 5], [6, 7, 8, 9]]
        assert corpus_bleu(refs, refs, smooth=False) == pytest.approx(100.0)

    def test_disjoint_scores_0(self):
        refs = [[1, 2, 3, 4, 5]]
        hyps = [[6, 7, 8, 9, 10]]
        assert corpus_bleu(refs, hyps, smooth=False) == 0.0

    def test_partial_overlap_between_0_and_100(self):
        refs = [[1, 2, 3, 4, 5, 6]]
        hyps = [[1, 2, 3, 9, 10, 11]]
        score = corpus_bleu(refs, hyps)
        assert 0.0 < score < 100.0

    def test_brevity_penalty(self):
        refs = [[1, 2, 3, 4, 5, 6, 7, 8]]
        full = corpus_bleu(refs, [[1, 2, 3, 4, 5, 6, 7, 8]], smooth=False)
        short = corpus_bleu(refs, [[1, 2, 3, 4]], smooth=False)
        assert short < full

    def test_word_order_matters(self):
        refs = [[1, 2, 3, 4, 5]]
        ordered = corpus_bleu(refs, [[1, 2, 3, 4, 5]])
        shuffled = corpus_bleu(refs, [[5, 3, 1, 4, 2]])
        assert shuffled < ordered

    def test_length_mismatch_raises(self):
        with pytest.raises(ValueError):
            corpus_bleu([[1]], [])

    def test_empty_corpus_raises(self):
        with pytest.raises(ValueError):
            corpus_bleu([], [])

    def test_sentence_bleu_wrapper(self):
        assert sentence_bleu([1, 2, 3, 4], [1, 2, 3, 4]) > 90.0

    def test_empty_hypothesis(self):
        assert corpus_bleu([[1, 2, 3]], [[]]) == 0.0

    def test_string_tokens_supported(self):
        refs = [["the", "cat", "sat", "on", "the", "mat"]]
        hyps = [["the", "cat", "sat", "on", "the", "mat"]]
        assert corpus_bleu(refs, hyps, smooth=False) == pytest.approx(100.0)

    def test_sentence_shorter_than_max_order_needs_smoothing(self):
        # A 3-token sentence has no 4-grams: unsmoothed BLEU is 0 by
        # definition, smoothed BLEU is positive.
        refs = hyps = [["the", "cat", "sat"]]
        assert corpus_bleu(refs, hyps, smooth=False) == 0.0
        assert corpus_bleu(refs, hyps, smooth=True) > 50.0


class TestCompressionReport:
    def test_dense_model_ratio_is_one(self):
        model = Sequential(Linear(16, 16, rng=0), ReLU(), Linear(16, 4, rng=1))
        report = model_storage_report(model)
        assert report.compression_ratio == pytest.approx(1.0)

    def test_pd_model_ratio_tracks_p(self):
        model = Sequential(
            PermDiagLinear(64, 64, p=8, rng=0),
            ReLU(),
            PermDiagLinear(64, 64, p=8, rng=1),
        )
        report = model_storage_report(model)
        assert report.compression_ratio == pytest.approx(8.0)

    def test_mixed_model(self):
        model = Sequential(PermDiagLinear(64, 64, p=8, rng=0), Linear(64, 8, rng=1))
        report = model_storage_report(model)
        dense = 64 * 64 + 64 * 8
        stored = 64 * 64 // 8 + 64 * 8
        assert report.compression_ratio == pytest.approx(dense / stored)

    def test_pruned_layer_charged_index_bits(self):
        mask = np.zeros((32, 32), dtype=bool)
        mask[:, :8] = True
        model = Sequential(MaskedLinear(32, 32, mask, rng=0))
        report = model_storage_report(model, eie_index_bits=4.0)
        # 256 stored weights at (32+4) bits vs PD storing at 32 bits flat
        assert report.megabytes(32) == pytest.approx(256 * 36 / 8 / 1e6)

    def test_sixteen_bit_doubles_size_ratio(self):
        model = Sequential(PermDiagLinear(64, 64, p=8, rng=0))
        report = model_storage_report(model)
        assert report.size_ratio(32, 16) == pytest.approx(
            2 * report.size_ratio(32, 32)
        )

    def test_lstm_counted(self):
        from repro.nn import LSTM

        class Wrapper(Sequential):
            pass

        model = Wrapper()
        model.lstm = LSTM(16, 16, p=4, rng=0)
        report = model_storage_report(model)
        assert len(report.layers) == 2  # stacked W and U: 4 gates each
        assert report.compression_ratio == pytest.approx(4.0)


class TestSparsity:
    def test_weight_sparsity_of_pd_matrix(self):
        from repro.core import BlockPermutedDiagonalMatrix

        pd = BlockPermutedDiagonalMatrix.random((40, 40), 10, rng=0)
        assert weight_sparsity(pd.to_dense()) == pytest.approx(0.1)

    def test_activation_sparsity_after_relu(self):
        model = Sequential(Linear(32, 64, rng=0), ReLU(), Linear(64, 8, rng=1))
        x = np.random.default_rng(2).normal(size=(128, 32))
        sparsity = activation_sparsity(model, x, layer_index=2)
        assert 0.3 < sparsity < 0.7  # ~half the ReLU outputs are zero

    def test_layer_zero_measures_raw_input(self):
        model = Sequential(Linear(8, 4, rng=0))
        x = np.zeros((4, 8))
        x[:, 0] = 1.0
        assert activation_sparsity(model, x, 0) == pytest.approx(1 / 8)

    def test_rejects_non_sequential(self):
        with pytest.raises(TypeError):
            activation_sparsity(Linear(4, 4), np.zeros((1, 4)), 0)

    def test_layer_index_bounds(self):
        model = Sequential(Linear(4, 4))
        with pytest.raises(ValueError):
            activation_sparsity(model, np.zeros((1, 4)), 5)

    def test_restores_training_mode(self):
        model = Sequential(Linear(4, 4, rng=0))
        model.train()
        activation_sparsity(model, np.ones((2, 4)), 0)
        assert model.training
