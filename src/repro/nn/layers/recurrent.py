"""LSTM with pluggable dense or permuted-diagonal weight matrices.

The paper's NMT benchmark (Table III) is a stacked LSTM where "one FC in
LSTM means one component weight matrix": each LSTM owns 8 weight matrices
(four gates x {input projection W, recurrent projection U}), and PermDNN
imposes the PD structure on all of them with ``p = 8``.  The cell stores
them as Table VII's two stacked matrices, ``W`` (``4h x input``) and ``U``
(``4h x h``): block row ``4*b + k`` is gate ``k``'s block row ``b`` (gates
``i, f, g, o``; bias and pre-activations likewise, in blocks of ``p``, or
of ``h`` for dense cells), so whole hidden blocks of rows hold every gate
of a range of hidden units -- one shard of the recurrent serving stage.

Weights are abstracted as *ops* so the same cell runs dense (baseline) or
block-permuted diagonal (compressed): an op exposes a stateless
``matmat(x)`` and a ``grad(x, dy) -> dx`` that accumulates its weight
gradient, which is what backpropagation-through-time needs (per-timestep
inputs are supplied by the caller).
"""

from __future__ import annotations

import numpy as np

from repro.core import BlockPermutedDiagonalMatrix, PermutationSpec
from repro.nn.module import Module
from repro.nn.parameter import Parameter

__all__ = [
    "LSTM",
    "LSTMCell",
    "join_gates",
    "lstm_update",
    "split_gates",
    "stack_gates",
]


class _DenseOp(Module):
    """Dense ``(out, in)`` matrix op."""

    def __init__(self, weight: np.ndarray) -> None:
        super().__init__()
        self.weight = Parameter(weight)

    @property
    def stored_weights(self) -> int:
        return self.weight.size

    def matmat(self, x: np.ndarray) -> np.ndarray:
        return x @ self.weight.value.T

    def grad(self, x: np.ndarray, dy: np.ndarray) -> np.ndarray:
        self.weight.grad += dy.T @ x
        return dy @ self.weight.value


class _PDOp(Module):
    """Block-permuted diagonal matrix op (the paper's compressed FC)."""

    def __init__(self, matrix: BlockPermutedDiagonalMatrix) -> None:
        super().__init__()
        if matrix.value_dtype != "float64":
            raise TypeError(
                f"{matrix.value_dtype!r} storage cannot alias a PD cell's float64 "
                f"Parameters; convert with matrix.with_value_dtype('float64') first"
            )
        self._matrix = matrix
        # Aliasing contract: Parameter and matrix share one buffer, so
        # in-place optimizer updates reach the structured matrix directly.
        self.weight = Parameter(matrix.data)
        matrix.data = self.weight.value

    @property
    def matrix(self) -> BlockPermutedDiagonalMatrix:
        return self._matrix

    @property
    def stored_weights(self) -> int:
        return self._matrix.nnz

    def matmat(self, x: np.ndarray) -> np.ndarray:
        return self._matrix.matmat(x)

    def grad(self, x: np.ndarray, dy: np.ndarray) -> np.ndarray:
        self.weight.grad += self._matrix.grad_data(x, dy)
        return self._matrix.rmatmat(dy)


def sigmoid(x: np.ndarray) -> np.ndarray:
    """The cell's gate nonlinearity (clipped for exp overflow)."""
    return 1.0 / (1.0 + np.exp(-np.clip(x, -60.0, 60.0)))


def split_gates(stacked: np.ndarray, block: int) -> np.ndarray:
    """The gates of a stacked last axis as a ``(4, ..., h)`` copy (each
    gate a contiguous array, whatever ``block``)."""
    lead = stacked.shape[:-1]
    gates = np.moveaxis(stacked.reshape(*lead, -1, 4, block), -2, 0)
    return gates.reshape(4, *lead, -1)


def join_gates(gates, block: int) -> np.ndarray:
    """Interleave four per-gate arrays per ``block`` (the stacked layout)."""
    lead = gates[0].shape[:-1]
    blocks = [np.reshape(gate, (*lead, -1, block)) for gate in gates]
    return np.stack(blocks, axis=-2).reshape(*lead, -1)


def stack_gates(gates) -> BlockPermutedDiagonalMatrix:
    """Four ``(h, n)`` PD gate matrices as the stacked ``(4h, n)`` one
    (block rows interleaved; value dtype and fixed-point format kept)."""
    first = gates[0]
    data = np.stack([gate.data for gate in gates], axis=1)
    ks = np.stack([gate.ks for gate in gates], axis=1)
    return BlockPermutedDiagonalMatrix(
        data.reshape(-1, first.p, first.nb),
        ks.reshape(-1, first.nb),
        shape=(4 * first.shape[0], first.shape[1]),
        value_dtype=first.value_dtype,
        fixed_point=first.fixed_point,
    )


def lstm_update(
    pre: np.ndarray, c_prev: np.ndarray, block: int
) -> tuple[np.ndarray, np.ndarray, dict]:
    """The cell math on stacked ``(B, 4h)`` pre-activations, shared by
    :meth:`LSTMCell.step` and the recurrent serving stage.  Returns ``h``,
    ``c`` and the activations (gates and ``tanh_c``) backpropagation needs.
    """
    pre_i, pre_f, pre_g, pre_o = split_gates(pre, block)
    i, f, g, o = sigmoid(pre_i), sigmoid(pre_f), np.tanh(pre_g), sigmoid(pre_o)
    c = f * c_prev + i * g
    tanh_c = np.tanh(c)
    return o * tanh_c, c, {"i": i, "f": f, "g": g, "o": o, "tanh_c": tanh_c}


class LSTMCell(Module):
    """One LSTM step over the stacked ``W``, ``U`` and bias (module docstring).

    Args:
        input_size: width of ``x_t``.
        hidden_size: width of ``h_t`` / ``c_t``; a multiple of ``p``.
        p: PD block size for both matrices, or ``None`` for dense weights.
        spec: permutation selection for PD weights.
        rng: generator or seed.
        forget_bias: initial forget-gate bias (1.0 helps gradient flow).
    """

    def __init__(
        self,
        input_size: int,
        hidden_size: int,
        p: int | None = None,
        spec: PermutationSpec | None = None,
        rng: np.random.Generator | int | None = None,
        forget_bias: float = 1.0,
    ) -> None:
        super().__init__()
        if p is not None and hidden_size % p:
            raise ValueError(
                f"hidden_size {hidden_size} is not a multiple of p={p}"
            )
        if not isinstance(rng, np.random.Generator):
            rng = np.random.default_rng(rng)
        self.input_size = input_size
        self.hidden_size = hidden_size
        self.p = p
        self.block = hidden_size if p is None else p

        def make_op(n_in: int) -> Module:
            if p is None:
                scale = 1.0 / np.sqrt(max(n_in, 1))
                return _DenseOp(
                    rng.uniform(-scale, scale, size=(4 * hidden_size, n_in))
                )
            return _PDOp(stack_gates([
                BlockPermutedDiagonalMatrix.random(
                    (hidden_size, n_in), p, spec=spec, rng=rng
                )
                for _ in range(4)
            ]))

        self.w_op = make_op(input_size)
        self.u_op = make_op(hidden_size)
        bias = np.zeros((4, hidden_size))
        bias[1] = forget_bias  # gates i, f, g, o
        self.bias = Parameter(join_gates(bias, self.block))

    @classmethod
    def from_matrices(
        cls,
        w: BlockPermutedDiagonalMatrix,
        u: BlockPermutedDiagonalMatrix,
        bias: np.ndarray,
    ) -> "LSTMCell":
        """A PD cell around existing stacked ``W`` and ``U`` (e.g. searched
        and projected gates, Sec. III-F): the cell's counterpart of
        :meth:`~repro.nn.PermDiagLinear.from_matrix`.

        The cell adopts both matrices as they are, ``ks`` included, and
        its parameters alias their storage, so the caller's matrices see
        training updates.  ``bias`` is the stacked ``4h`` bias (blocks of
        ``p``), copied.  Non-float64 storage raises ``TypeError``.
        """
        hidden, p = u.shape[1], u.p
        if w.p != p or hidden % p or not w.shape[0] == u.shape[0] == 4 * hidden:
            raise ValueError(
                f"W {w.shape} (p={w.p}) and U {u.shape} (p={p}) are not one "
                f"cell's stacked gate matrices"
            )
        cell = cls.__new__(cls)
        Module.__init__(cell)
        cell.input_size, cell.hidden_size = w.shape[1], hidden
        cell.p = cell.block = p
        cell.w_op, cell.u_op = _PDOp(w), _PDOp(u)
        cell.bias = Parameter(np.array(bias, dtype=np.float64).reshape(4 * hidden))
        return cell

    @property
    def weight_matrices(self) -> list[Module]:
        """The stacked ``W`` and ``U`` ops (Table III's 8 matrices, 4 each)."""
        return [self.w_op, self.u_op]

    @property
    def stored_weights(self) -> int:
        """Scalar weights stored across both matrices (PD counts non-zeros)."""
        return sum(op.stored_weights for op in self.weight_matrices)

    def step(
        self, x: np.ndarray, h_prev: np.ndarray, c_prev: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, dict]:
        """One forward step; returns ``(h, c, cache)`` for BPTT."""
        pre = self.w_op.matmat(x) + self.u_op.matmat(h_prev) + self.bias.value
        h, c, activations = lstm_update(pre, c_prev, self.block)
        cache = {"x": x, "h_prev": h_prev, "c_prev": c_prev, **activations}
        return h, c, cache

    def step_backward(
        self, dh: np.ndarray, dc: np.ndarray, cache: dict
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Backward through one step.

        Args:
            dh: gradient w.r.t. this step's ``h``.
            dc: gradient w.r.t. this step's ``c`` flowing from the future.
            cache: the dict produced by :meth:`step`.

        Returns:
            ``(dx, dh_prev, dc_prev)``; weight/bias grads are accumulated.
        """
        i, f, g, o = cache["i"], cache["f"], cache["g"], cache["o"]
        tanh_c = cache["tanh_c"]
        dc_total = dc + dh * o * (1.0 - tanh_c**2)
        dz = join_gates([
            dc_total * g * i * (1.0 - i),
            dc_total * cache["c_prev"] * f * (1.0 - f),
            dc_total * i * (1.0 - g**2),
            dh * tanh_c * o * (1.0 - o),
        ], self.block)
        dx = self.w_op.grad(cache["x"], dz)
        dh_prev = self.u_op.grad(cache["h_prev"], dz)
        self.bias.grad += dz.sum(axis=0)
        return dx, dh_prev, dc_total * f


class LSTM(Module):
    """Full-sequence LSTM: ``(B, T, input) -> (B, T, hidden)``.

    Args:
        input_size, hidden_size, p, spec, rng: see :class:`LSTMCell`.
    """

    def __init__(
        self,
        input_size: int,
        hidden_size: int,
        p: int | None = None,
        spec: PermutationSpec | None = None,
        rng: np.random.Generator | int | None = None,
    ) -> None:
        super().__init__()
        self.cell = LSTMCell(input_size, hidden_size, p=p, spec=spec, rng=rng)
        self.hidden_size = hidden_size
        self._caches: list[dict] | None = None
        self._h0_external = False

    def forward(
        self,
        x: np.ndarray,
        h0: np.ndarray | None = None,
        c0: np.ndarray | None = None,
    ) -> np.ndarray:
        """Run the whole sequence; caches every step for BPTT."""
        x = np.asarray(x, dtype=np.float64)
        if x.ndim != 3:
            raise ValueError(f"expected (B, T, input), got shape {x.shape}")
        batch, steps, _ = x.shape
        h = np.zeros((batch, self.hidden_size)) if h0 is None else h0
        c = np.zeros((batch, self.hidden_size)) if c0 is None else c0
        self._h0_external = h0 is not None
        outputs = np.empty((batch, steps, self.hidden_size))
        self._caches = []
        for t in range(steps):
            h, c, cache = self.cell.step(x[:, t], h, c)
            outputs[:, t] = h
            self._caches.append(cache)
        self.final_state = (h, c)
        return outputs

    def backward(
        self,
        dy: np.ndarray,
        dh_final: np.ndarray | None = None,
        dc_final: np.ndarray | None = None,
    ) -> np.ndarray:
        """BPTT over the cached sequence.

        Args:
            dy: gradient w.r.t. the full output sequence ``(B, T, hidden)``.
            dh_final / dc_final: extra gradient injected at the final state
                (used when a decoder consumes the encoder's last state).

        Returns:
            Gradient w.r.t. the input sequence ``(B, T, input)``.  The
            gradients w.r.t. ``(h0, c0)`` are stored in ``self.state_grad``.
        """
        if self._caches is None:
            raise RuntimeError("backward called before forward")
        dy = np.asarray(dy, dtype=np.float64)
        batch, steps, _ = dy.shape
        dh = np.zeros((batch, self.hidden_size))
        dc = np.zeros((batch, self.hidden_size))
        if dh_final is not None:
            dh += dh_final
        if dc_final is not None:
            dc += dc_final
        dx_seq = np.empty((batch, steps, self.cell.input_size))
        for t in reversed(range(steps)):
            dh = dh + dy[:, t]
            dx, dh, dc = self.cell.step_backward(dh, dc, self._caches[t])
            dx_seq[:, t] = dx
        self.state_grad = (dh, dc)
        return dx_seq
