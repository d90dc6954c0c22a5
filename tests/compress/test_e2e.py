"""End-to-end factory contract: dense LeNet -> staged bundle -> serving.

The acceptance path of the compression factory, seeded end to end: a
dense LeNet-style network is searched, converted, fine-tuned, and
exported as a v3 staged bundle; ``ModelServer.from_bundle`` must then
cold-start building each slot matrix's index plan once and rebuilding
none (asserted in-test under ``sanitize()``) and serve bit-identically
to serving the compressed model live -- which itself must match the
model's own ``forward``.
"""

import numpy as np
import pytest

from repro.compress import compress_model
from repro.datasets import make_digits
from repro.debug import sanitize
from repro.nn import Flatten, Linear, MaxPool2D, ReLU, Sequential
from repro.nn.layers.conv2d import Conv2D
from repro.serve import ModelServer


def _dense_lenet(seed=0):
    rng = np.random.default_rng(seed)
    return Sequential(
        Conv2D(1, 6, 5, padding=2, bias=False, rng=rng),
        ReLU(),
        MaxPool2D(2),
        Flatten(),
        Linear(6 * 14 * 14, 32, bias=False, rng=rng),
        ReLU(),
        Linear(32, 10, bias=False, rng=rng),
    )


@pytest.fixture(scope="module")
def factory_run(tmp_path_factory):
    x_train, y_train = make_digits(200, noise=0.12, seed=0)
    x_test, y_test = make_digits(80, noise=0.12, seed=1)
    bundle_dir = str(tmp_path_factory.mktemp("e2e") / "bundle")
    result = compress_model(
        _dense_lenet(),
        (x_train, y_train, x_test, y_test),
        name="lenet-e2e",
        fc_p=8,
        conv_p=2,
        head_p=2,
        finetune_epochs=1,
        seed=0,
        num_shards=2,
        input_hw=(28, 28),
        bundle_dir=bundle_dir,
        verify=True,
    )
    probe = np.asarray(x_test[:6], dtype=np.float64)
    return result, probe


class TestEndToEnd:
    def test_report_is_complete_and_verified(self, factory_run):
        report = factory_run[0].report
        assert report.verified
        assert report.compression_ratio >= 2.0
        assert report.metric_name == "top1_accuracy"
        assert len(report.layers) == 3  # conv + 2 FC
        assert report.timings.total_s > 0.0

    def test_bundle_serves_bit_identically_building_each_plan_once(
        self, factory_run
    ):
        result, probe = factory_run
        flat = probe.reshape(probe.shape[0], -1)

        live = ModelServer.from_model(
            result.model, input_hw=(28, 28), num_shards=2, num_threads=1
        )
        live.submit_many(flat)
        expected = np.stack(live.drain().outputs)

        with sanitize() as guard:
            server = ModelServer.from_bundle(result.bundle_dir, num_threads=1)
            server.submit_many(flat)
            served = np.stack(server.drain().outputs)
            slot_matrices = sum(
                len(slots)
                for stage in server.layers
                for slots in stage.shard_slots
            )
            assert guard.stats.plan_builds == slot_matrices
            assert guard.stats.plan_rebuilds == 0
            assert guard.stats.skeleton_builds == slot_matrices

        np.testing.assert_array_equal(served, expected)

    def test_bundle_matches_model_forward(self, factory_run):
        result, probe = factory_run
        flat = probe.reshape(probe.shape[0], -1)
        server = ModelServer.from_bundle(result.bundle_dir, num_threads=1)
        server.submit_many(flat)
        served = np.stack(server.drain().outputs)
        np.testing.assert_allclose(
            served, result.model.forward(probe), atol=1e-10
        )
