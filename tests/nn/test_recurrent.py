"""Tests for the LSTM with dense and permuted-diagonal weights."""

import numpy as np
import pytest

from repro.core import PermutationSpec
from repro.nn import LSTM, LSTMCell


rng = np.random.default_rng(2024)


def _numeric_input_grad(lstm, x, seed, eps=1e-6):
    num = np.zeros_like(x)
    for idx in np.ndindex(*x.shape):
        orig = x[idx]
        x[idx] = orig + eps
        plus = (lstm.forward(x) * seed).sum()
        x[idx] = orig - eps
        minus = (lstm.forward(x) * seed).sum()
        x[idx] = orig
        num[idx] = (plus - minus) / (2 * eps)
    return num


class TestLSTMCell:
    def test_has_two_stacked_gate_matrices(self):
        """Paper Table III's '8 FC weight matrices for each LSTM', stored
        as Table VII's two stacked matrices: four gates each."""
        cell = LSTMCell(6, 8, rng=0)
        assert [op.weight.shape for op in cell.weight_matrices] == [
            (32, 6),
            (32, 8),
        ]

    def test_pd_block_must_divide_hidden_size(self):
        with pytest.raises(ValueError, match="not a multiple of p=3"):
            LSTMCell(10, 20, p=3, rng=0)

    def test_pd_cell_stores_one_pth_of_dense(self):
        dense = LSTMCell(16, 16, rng=1)
        compressed = LSTMCell(16, 16, p=8, rng=2)
        assert compressed.stored_weights * 8 == dense.stored_weights

    def test_step_shapes(self):
        cell = LSTMCell(6, 10, rng=3)
        h, c, cache = cell.step(
            np.zeros((4, 6)), np.zeros((4, 10)), np.zeros((4, 10))
        )
        assert h.shape == (4, 10) and c.shape == (4, 10)

    def test_forget_bias_initialized(self):
        cell = LSTMCell(4, 4, forget_bias=1.0, rng=4)
        gates = cell.bias.value.reshape(-1, 4, cell.block)
        np.testing.assert_allclose(gates[:, 1], 1.0)
        np.testing.assert_allclose(gates[:, 0], 0.0)

    def test_gate_ranges(self):
        cell = LSTMCell(4, 6, rng=5)
        x = rng.normal(size=(3, 4)) * 5
        h, c, cache = cell.step(x, rng.normal(size=(3, 6)), rng.normal(size=(3, 6)))
        for gate in ("i", "f", "o"):
            assert np.all((cache[gate] >= 0) & (cache[gate] <= 1))
        assert np.all(np.abs(cache["g"]) <= 1)


class TestLSTMGradients:
    @pytest.mark.parametrize("p", [None, 2, 4])
    def test_input_gradcheck(self, p):
        lstm = LSTM(4, 8, p=p, rng=6)
        x = rng.normal(size=(2, 4, 4))
        y = lstm.forward(x)
        seed = np.random.default_rng(7).normal(size=y.shape)
        lstm.zero_grad()
        dx = lstm.backward(seed)
        num = _numeric_input_grad(lstm, x.copy(), seed)
        err = np.max(np.abs(dx - num) / (np.abs(dx) + np.abs(num) + 1e-8))
        assert err < 1e-5

    def test_parameter_gradcheck_spot(self):
        lstm = LSTM(3, 5, p=None, rng=8)
        x = rng.normal(size=(2, 3, 3))
        y = lstm.forward(x)
        seed = np.random.default_rng(9).normal(size=y.shape)
        lstm.zero_grad()
        lstm.backward(seed)
        param = lstm.parameters()[0]
        analytic = param.grad.copy()
        eps = 1e-6
        numeric = np.zeros_like(param.value)
        flat_v, flat_n = param.value.reshape(-1), numeric.reshape(-1)
        for idx in range(flat_v.size):
            orig = flat_v[idx]
            flat_v[idx] = orig + eps
            plus = (lstm.forward(x) * seed).sum()
            flat_v[idx] = orig - eps
            minus = (lstm.forward(x) * seed).sum()
            flat_v[idx] = orig
            flat_n[idx] = (plus - minus) / (2 * eps)
        err = np.max(
            np.abs(analytic - numeric) / (np.abs(analytic) + np.abs(numeric) + 1e-8)
        )
        assert err < 1e-5

    def test_pd_structure_preserved_through_training(self):
        from repro.nn import Adam
        from repro.nn.layers.recurrent import _PDOp

        lstm = LSTM(8, 8, p=4, spec=PermutationSpec("natural"), rng=10)
        opt = Adam(lstm.parameters(), lr=0.01)
        for _ in range(5):
            x = rng.normal(size=(2, 3, 8))
            y = lstm.forward(x)
            lstm.zero_grad()
            lstm.backward(y)
            opt.step()
        for op in lstm.cell.weight_matrices:
            assert isinstance(op, _PDOp)
            dense = op.matrix.to_dense()
            assert np.all(dense[~op.matrix.dense_mask()] == 0)


class TestLSTMSequence:
    def test_output_shape(self):
        lstm = LSTM(5, 7, rng=11)
        out = lstm.forward(rng.normal(size=(3, 6, 5)))
        assert out.shape == (3, 6, 7)

    def test_rejects_2d_input(self):
        with pytest.raises(ValueError):
            LSTM(5, 7).forward(np.zeros((3, 5)))

    def test_initial_state_passthrough(self):
        lstm = LSTM(4, 4, rng=12)
        x = rng.normal(size=(2, 3, 4))
        h0 = rng.normal(size=(2, 4))
        c0 = rng.normal(size=(2, 4))
        out_with = lstm.forward(x, h0=h0, c0=c0)
        out_without = lstm.forward(x)
        assert not np.allclose(out_with, out_without)

    def test_final_state_exposed(self):
        lstm = LSTM(4, 6, rng=13)
        out = lstm.forward(rng.normal(size=(2, 5, 4)))
        h, c = lstm.final_state
        np.testing.assert_allclose(h, out[:, -1])

    def test_state_grad_exposed_after_backward(self):
        lstm = LSTM(4, 6, rng=14)
        x = rng.normal(size=(2, 5, 4))
        y = lstm.forward(x)
        lstm.zero_grad()
        lstm.backward(np.ones_like(y))
        dh0, dc0 = lstm.state_grad
        assert dh0.shape == (2, 6) and dc0.shape == (2, 6)

    def test_learns_to_remember_first_token(self):
        """End-to-end sanity: the LSTM can carry information across time."""
        from repro.nn import Adam, CrossEntropyLoss, Linear

        steps, width = 5, 8
        gen = np.random.default_rng(0)
        lstm = LSTM(2, width, rng=15)
        head = Linear(width, 2, rng=16)
        loss_fn = CrossEntropyLoss()
        opt = Adam(lstm.parameters() + head.parameters(), lr=0.02)
        final_loss = None
        for _ in range(120):
            labels = gen.integers(0, 2, size=16)
            x = np.zeros((16, steps, 2))
            x[np.arange(16), 0, labels] = 1.0  # class shown only at t=0
            out = lstm.forward(x)
            logits = head.forward(out[:, -1])
            final_loss = loss_fn.forward(logits, labels)
            opt.zero_grad()
            dlast = head.backward(loss_fn.backward())
            dy = np.zeros_like(out)
            dy[:, -1] = dlast
            lstm.backward(dy)
            opt.step()
        assert final_loss < 0.2


class TestFromMatrices:
    """``LSTMCell.from_matrices``: the cell's counterpart of
    ``PermDiagLinear.from_matrix``."""

    def _source(self, seed=0):
        cell = LSTMCell(
            6, 16, p=4, spec=PermutationSpec(scheme="random", seed=seed),
            rng=seed,
        )
        cell.bias.value[...] = np.random.default_rng(seed).normal(size=64)
        return cell

    def _clone(self, source):
        """A cell around copies of ``source``'s matrices and bias."""
        return LSTMCell.from_matrices(
            *(op.matrix.like(op.matrix.data.copy()) for op in source.weight_matrices),
            source.bias.value,
        )

    def test_adopts_matrices_with_their_ks(self):
        source = self._source()
        w, u = (op.matrix for op in source.weight_matrices)
        cell = LSTMCell.from_matrices(w, u, source.bias.value)
        for op, matrix in zip(cell.weight_matrices, (w, u)):
            assert op.matrix is matrix
            np.testing.assert_array_equal(op.matrix.ks, matrix.ks)
        assert (cell.input_size, cell.hidden_size, cell.p) == (6, 16, 4)

    def test_parameters_alias_the_matrices(self):
        source = self._source()
        w, u = (op.matrix for op in source.weight_matrices)
        cell = LSTMCell.from_matrices(w, u, source.bias.value)
        for op, matrix in zip(cell.weight_matrices, (w, u)):
            assert np.shares_memory(op.weight.value, matrix.data)
            op.weight.value *= 2.0  # an in-place optimizer step
            np.testing.assert_array_equal(matrix.data, op.weight.value)
        assert not np.shares_memory(cell.bias.value, source.bias.value)

    def test_step_equals_a_cell_holding_the_same_values(self):
        source = self._source(seed=3)
        cell = self._clone(source)
        gen = np.random.default_rng(4)
        x, h, c = (gen.normal(size=(5, n)) for n in (6, 16, 16))
        for got, want in zip(cell.step(x, h, c)[:2], source.step(x, h, c)[:2]):
            np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("value_dtype", ["float32", "int16"])
    def test_reduced_precision_storage_rejected(self, value_dtype):
        source = self._source()
        w, u = (op.matrix for op in source.weight_matrices)
        with pytest.raises(TypeError, match=value_dtype):
            LSTMCell.from_matrices(
                w.with_value_dtype(value_dtype), u, source.bias.value
            )
        with pytest.raises(TypeError, match=value_dtype):
            LSTMCell.from_matrices(
                w, u.with_value_dtype(value_dtype), source.bias.value
            )

    def test_mismatched_matrices_rejected(self):
        source = self._source()
        w, u = (op.matrix for op in source.weight_matrices)
        other_p = LSTMCell(6, 16, p=2, rng=0).weight_matrices[0].matrix
        other_h = LSTMCell(6, 8, p=4, rng=0).weight_matrices[0].matrix
        for bad_w in (other_p, other_h):
            with pytest.raises(ValueError, match="stacked gate matrices"):
                LSTMCell.from_matrices(bad_w, u, source.bias.value)
        with pytest.raises(ValueError):
            LSTMCell.from_matrices(w, u, np.zeros(63))
