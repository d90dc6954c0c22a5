"""The benchmark's four workloads: seeded inputs, set-up, rounds, checks.

Every input array (requests, arrival times, training data) is generated
here from the run's seed; the program only ever receives the arrays.
Model weights come from the program's own builders, seeded the same way.
"""

from __future__ import annotations

import shutil
import tempfile

import numpy as np

from repro.models import build_alexnet_fc
from repro.nn import SGD, CrossEntropyLoss, PermDiagLinear
from repro.serve import ModelServer, build_workload, export_model_bundle

# Table VII activation density of Alex-FC6's input.
FC6_DENSITY = 0.358
# Spacing of successive trickle windows on the simulated clock (us); far
# longer than one 256-arrival window at 20k req/s (~12.8 ms on average).
_WINDOW_SPACING_US = 1 << 20


def sparse_inputs(rng, rows, width, density):
    """``(rows, width)`` Gaussian activations with ``density`` non-zeros."""
    xs = np.zeros((rows, width))
    nnz = max(int(round(width * density)), 1)
    for row in range(rows):
        cols = rng.choice(width, size=nnz, replace=False)
        xs[row, cols] = rng.normal(size=nnz)
    return xs


class ServingWorkload:
    """Closed- or open-loop serving through a 4-shard, 2-thread server.

    ``pool`` holds ``len(pool)`` distinct rounds of inputs; round ``r``
    replays entry ``r % len(pool)``. The first ``len(pool)`` rounds of a
    server define its simulated-clock metrics, which are therefore a
    pure function of the seed.
    """

    kind = "serve"
    server_kwargs: dict = {}
    input_hw = None

    def __init__(self, seed: int, workdir: str) -> None:
        self.seed = seed
        self.workdir = workdir
        self.rng = np.random.default_rng(seed)
        self.pool: list[tuple[np.ndarray, np.ndarray | None]] = []
        self.reference: list[np.ndarray] = []
        self._model = None

    # -- per-workload pieces -------------------------------------------

    def make_model(self):
        raise NotImplementedError

    def make_pool(self, in_features: int) -> None:
        raise NotImplementedError

    # -- shared flow ---------------------------------------------------

    def prepare(self) -> None:
        """Untimed: inputs, and the outputs of a 1-shard, 1-thread server."""
        model = self.make_model()
        reference = ModelServer.from_model(
            model,
            input_hw=self.input_hw,
            num_shards=1,
            num_threads=1,
            **self.server_kwargs,
        )
        self.make_pool(reference.in_features)
        for r in range(len(self.pool)):
            xs, arrivals = self.round_inputs(r)
            reference.submit_many(xs, arrivals)
            self.reference.append(np.stack(reference.drain().outputs))

    def fresh(self) -> None:
        """Untimed before each set-up: new weights with cold caches."""
        self._model = self.make_model()

    def build(self, span):
        with span("setup.build"):
            server = ModelServer.from_model(
                self._model,
                input_hw=self.input_hw,
                num_shards=4,
                num_threads=2,
                **self.server_kwargs,
            )
        self._model = None
        return server

    def round_inputs(self, r: int):
        xs, arrivals = self.pool[r % len(self.pool)]
        if arrivals is not None:
            arrivals = arrivals + r * _WINDOW_SPACING_US
        return xs, arrivals

    def run_round(self, server, r: int, span):
        """One ``submit_many`` + ``drain``; returns ``(report, items, failed)``."""
        xs, arrivals = self.round_inputs(r)
        with span("server.submit"):
            server.submit_many(xs, arrivals)
        with span("server.drain"):
            report = server.drain()
        expected = self.reference[r % len(self.pool)]
        items = expected.shape[0]
        if len(report.outputs) != items:
            return report, items, items
        got = np.stack(report.outputs)
        exact = np.all(got == expected, axis=1)
        return report, items, int(items - exact.sum())

    def cleanup(self) -> None:
        pass


class FcBurst(ServingWorkload):
    name = "fc-burst"
    server_kwargs = {"max_batch_size": 16}

    def make_model(self):
        return build_workload("alexnet-fc", scale=1, rng=self.seed).model

    def make_pool(self, in_features):
        self.pool = [
            (sparse_inputs(self.rng, 16, in_features, FC6_DENSITY), None)
            for _ in range(4)
        ]


class ConvBurst(ServingWorkload):
    name = "conv-burst"
    server_kwargs = {"max_batch_size": 8}
    input_hw = (14, 14)

    def make_model(self):
        return build_workload("lenet", rng=self.seed).model

    def make_pool(self, in_features):
        self.pool = [
            (self.rng.normal(size=(8, in_features)), None) for _ in range(4)
        ]


class LstmTrickle(ServingWorkload):
    """Poisson arrivals at 20k req/s, served from a v3 bundle."""

    name = "lstm-trickle"
    server_kwargs = {"max_batch_size": 8, "flush_deadline_us": 50.0}
    rate_rps = 20_000.0
    window = 256
    bundle_dir = None

    def make_model(self):
        return build_workload("nmt", rng=self.seed).model

    def make_pool(self, in_features):
        mean_gap_us = 1e6 / self.rate_rps
        self.pool = []
        for _ in range(8):
            arrivals = np.cumsum(
                self.rng.exponential(mean_gap_us, size=self.window)
            )
            xs = self.rng.normal(size=(self.window, in_features))
            self.pool.append((xs, arrivals))

    def prepare(self):
        super().prepare()
        self.bundle_dir = tempfile.mkdtemp(prefix="bundle-", dir=self.workdir)
        export_model_bundle(self.bundle_dir, self.make_model(), num_shards=4)

    def fresh(self):
        pass

    def build(self, span):
        with span("setup.build"):
            return ModelServer.from_bundle(
                self.bundle_dir, num_threads=2, **self.server_kwargs
            )

    def cleanup(self):
        if self.bundle_dir is not None:
            shutil.rmtree(self.bundle_dir, ignore_errors=True)


class PdFinetune:
    """SGD steps on the AlexNet FC stack at scale 4 (batch 64)."""

    kind = "train"
    name = "pd-finetune"
    batch = 64
    lr = 0.01

    def __init__(self, seed: int, workdir: str) -> None:
        self.seed = seed
        self.rng = np.random.default_rng(seed)
        self.pool: list[tuple[np.ndarray, np.ndarray]] = []

    def prepare(self) -> None:
        model = self._new_model()
        in_features = model.layers[0].in_features
        classes = model.layers[-1].out_features
        self.pool = [
            (
                sparse_inputs(self.rng, self.batch, in_features, FC6_DENSITY),
                self.rng.integers(0, classes, size=self.batch),
            )
            for _ in range(8)
        ]
        self.probe = self.rng.normal(size=(8, max(
            layer.in_features for layer in self._pd_layers(model)
        )))

    def _new_model(self):
        return build_alexnet_fc(scale=4, dropout=0.0, rng=self.seed)

    @staticmethod
    def _pd_layers(model):
        return [layer for layer in model.layers if isinstance(layer, PermDiagLinear)]

    def fresh(self) -> None:
        pass

    def build(self, span):
        with span("setup.build"):
            model = self._new_model()
            optimizer = SGD(model.parameters(), lr=self.lr)
        return model, optimizer, CrossEntropyLoss()

    def run_round(self, state, r: int, span):
        """One training step, the calls ``Trainer.train_epoch`` makes."""
        model, optimizer, loss_fn = state
        xb, yb = self.pool[r % len(self.pool)]
        with span("nn.forward"):
            logits = model.forward(xb)
        with span("nn.loss"):
            loss = loss_fn.forward(logits, yb)
        with span("nn.zero_grad"):
            optimizer.zero_grad()
        with span("nn.backward"):
            model.backward(loss_fn.backward())
        with span("nn.optim"):
            optimizer.step()
        return None, self.batch, 0 if np.isfinite(loss) else self.batch

    def verify(self, state) -> bool:
        """Each trained layer's kernel still matches its dense product."""
        model = state[0]
        for layer in self._pd_layers(model):
            probe = self.probe[:, : layer.in_features]
            sparse = layer.matrix.matmat(probe)
            dense = probe @ layer.matrix.to_dense().T
            if not np.max(np.abs(sparse - dense)) <= 1e-10:
                return False
        return True

    def cleanup(self) -> None:
        pass


WORKLOADS = {
    cls.name: cls for cls in (FcBurst, ConvBurst, LstmTrickle, PdFinetune)
}
