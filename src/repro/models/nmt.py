"""Stacked-LSTM seq2seq for the NMT benchmark (Table III).

Mirrors the Stanford NMT structure the paper compresses: a stack of 4 LSTMs
("32-FC-layer LSTMs": 4 LSTMs x 8 component weight matrices), arranged as a
2-layer encoder + 2-layer decoder with greedy decoding.  With ``p = 8`` on
every LSTM weight matrix the model matches the paper's compression setting;
``p = None`` gives the dense baseline.
"""

from __future__ import annotations

import numpy as np

from repro.core import PermutationSpec
from repro.nn import LSTM, CrossEntropyLoss, Embedding, Linear
from repro.nn.module import Module
from repro.nn.optim import Adam, clip_grad_norm

__all__ = ["Seq2SeqNMT"]


class Seq2SeqNMT(Module):
    """Encoder-decoder translation model with optional PD-compressed LSTMs.

    Args:
        vocab_size: shared source/target vocabulary size.
        embed_dim: embedding width.
        hidden: LSTM hidden width.
        p: PD block size applied to all LSTM weight matrices (None = dense).
        num_layers: LSTM layers in the encoder and in the decoder (2 + 2
            gives the paper's 4 LSTMs).
        spec: permutation parameter selection.
        rng: seed for weight init.
    """

    def __init__(
        self,
        vocab_size: int,
        embed_dim: int = 32,
        hidden: int = 64,
        p: int | None = 8,
        num_layers: int = 2,
        spec: PermutationSpec | None = None,
        rng: np.random.Generator | int | None = 0,
    ) -> None:
        super().__init__()
        if not isinstance(rng, np.random.Generator):
            rng = np.random.default_rng(rng)
        self.vocab_size = vocab_size
        self.hidden = hidden
        self.num_layers = num_layers
        self.embedding = Embedding(vocab_size, embed_dim, rng=rng)
        self.encoder = [
            LSTM(embed_dim if idx == 0 else hidden, hidden, p=p, spec=spec, rng=rng)
            for idx in range(num_layers)
        ]
        self.decoder = [
            LSTM(embed_dim if idx == 0 else hidden, hidden, p=p, spec=spec, rng=rng)
            for idx in range(num_layers)
        ]
        self.projection = Linear(hidden, vocab_size, rng=rng)

    @property
    def lstms(self) -> list[LSTM]:
        """All 4 LSTMs (paper: '4 LSTMs with 8 FC weight matrices each')."""
        return self.encoder + self.decoder

    @property
    def num_weight_matrices(self) -> int:
        """Table III's component FC matrices: 8 gate matrices per LSTM."""
        return 8 * len(self.lstms)

    # ------------------------------------------------------------------

    def _encode(self, src: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]]:
        """Run the encoder; returns final (h, c) per layer."""
        h = self.embedding.forward(src)
        states = []
        for lstm in self.encoder:
            h = lstm.forward(h)
            states.append(lstm.final_state)
        return states

    def forward(self, src: np.ndarray, tgt_in: np.ndarray) -> np.ndarray:
        """Teacher-forced forward: logits ``(B, T, vocab)``."""
        states = self._encode(src)
        h = self.embedding.forward(tgt_in)
        self._src_tokens = src
        self._tgt_tokens = tgt_in
        for lstm, (h0, c0) in zip(self.decoder, states):
            h = lstm.forward(h, h0=h0, c0=c0)
        batch, steps, _ = h.shape
        self._dec_shape = h.shape
        logits = self.projection.forward(h.reshape(batch * steps, self.hidden))
        return logits.reshape(batch, steps, self.vocab_size)

    def backward(self, dlogits: np.ndarray) -> None:
        """Backward through decoder, encoder bridge, encoder and embeddings."""
        batch, steps, _ = dlogits.shape
        dh = self.projection.backward(
            dlogits.reshape(batch * steps, self.vocab_size)
        ).reshape(self._dec_shape)
        state_grads = []
        for lstm in reversed(self.decoder):
            dh = lstm.backward(dh)
            state_grads.append(lstm.state_grad)
        state_grads.reverse()
        # decoder input embedding gradient
        self.embedding.accumulate_grad(self._tgt_tokens, dh)
        # encoder: inject the decoder's initial-state gradients at each layer
        denc = np.zeros(
            (batch, self._src_tokens.shape[1], self.encoder[-1].hidden_size)
        )
        for lstm, (dh0, dc0) in zip(reversed(self.encoder), reversed(state_grads)):
            denc = lstm.backward(denc, dh_final=dh0, dc_final=dc0)
        self.embedding.accumulate_grad(self._src_tokens, denc)

    # ------------------------------------------------------------------

    def greedy_decode(self, src: np.ndarray, bos: int, eos: int, max_len: int = 20) -> list[list[int]]:
        """Greedy translation of a batch of source sentences."""
        states = self._encode(src)
        batch = src.shape[0]
        layer_states = [(h0.copy(), c0.copy()) for h0, c0 in states]
        tokens = np.full(batch, bos, dtype=np.int64)
        finished = np.zeros(batch, dtype=bool)
        outputs: list[list[int]] = [[] for _ in range(batch)]
        for _ in range(max_len):
            h = self.embedding.forward(tokens)  # (B, embed)
            for idx, lstm in enumerate(self.decoder):
                h_prev, c_prev = layer_states[idx]
                h, c, _ = lstm.cell.step(h, h_prev, c_prev)
                layer_states[idx] = (h, c)
            logits = self.projection.forward(h)
            tokens = logits.argmax(axis=1)
            for row in range(batch):
                if not finished[row]:
                    if tokens[row] == eos:
                        finished[row] = True
                    else:
                        outputs[row].append(int(tokens[row]))
            if finished.all():
                break
        return outputs

    # ------------------------------------------------------------------

    def train_batch(
        self,
        src: np.ndarray,
        tgt_in: np.ndarray,
        tgt_out: np.ndarray,
        optimizer: Adam,
        loss_fn: CrossEntropyLoss,
        max_grad_norm: float = 5.0,
    ) -> float:
        """One teacher-forced training step; returns the batch loss."""
        logits = self.forward(src, tgt_in)
        batch, steps, vocab = logits.shape
        loss = loss_fn.forward(logits.reshape(batch * steps, vocab), tgt_out.reshape(-1))
        optimizer.zero_grad()
        self.backward(loss_fn.backward().reshape(batch, steps, vocab))
        clip_grad_norm(self.parameters(), max_grad_norm)
        optimizer.step()
        return loss
