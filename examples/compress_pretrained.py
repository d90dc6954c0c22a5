"""Compress a pre-trained dense model: the Sec. III-F two-step flow.

1. Train a dense LeNet-5-style network on procedural digit images.
2. Project every weight matrix onto the optimal permuted-diagonal
   support (L2-optimal approximation, searched per layer).
3. Fine-tune with the structure-preserving update rules.
4. Export the result as a staged serving bundle and verify it serves
   bit-identically with zero index-plan rebuilds.

The paper reports this flow reaching 99.06% on MNIST at 40x compression;
here we reproduce the *shape*: a large accuracy drop right after
projection that fine-tuning recovers toward the dense baseline.

Since the ``repro.compress`` factory landed, this example is a thin
wrapper over :func:`repro.compress.compress_model` -- the same pipeline
behind ``repro compress`` / ``repro compress-zoo``.

Run:  python examples/compress_pretrained.py
"""

import tempfile

import numpy as np

from repro.compress import compress_model
from repro.datasets import make_digits
from repro.nn import (
    Adam,
    CrossEntropyLoss,
    Flatten,
    Linear,
    MaxPool2D,
    ReLU,
    Sequential,
    Trainer,
)
from repro.nn.layers.conv2d import Conv2D


def build_dense(seed: int = 0) -> Sequential:
    rng = np.random.default_rng(seed)
    return Sequential(
        Conv2D(1, 6, 5, padding=2, bias=False, rng=rng),
        ReLU(),
        MaxPool2D(2),
        Flatten(),
        Linear(6 * 14 * 14, 120, bias=False, rng=rng),
        ReLU(),
        Linear(120, 84, bias=False, rng=rng),
        ReLU(),
        Linear(84, 10, bias=False, rng=rng),
    )


def main() -> None:
    x_train, y_train = make_digits(3000, noise=0.12, seed=0)
    x_test, y_test = make_digits(800, noise=0.12, seed=1)

    print("=== Sec. III-F: dense pre-train -> PD approximation -> fine-tune ===\n")
    dense = build_dense()
    Trainer(
        dense, Adam(dense.parameters(), lr=2e-3), CrossEntropyLoss(),
        batch_size=64, rng=0,
    ).fit(x_train, y_train, epochs=4)

    with tempfile.TemporaryDirectory() as bundle_dir:
        result = compress_model(
            dense,
            (x_train, y_train, x_test, y_test),
            name="lenet-pretrained",
            fc_p=8,
            conv_p=2,
            head_p=2,
            finetune_epochs=4,
            lr=1e-3,
            seed=1,
            input_hw=(28, 28),
            bundle_dir=bundle_dir,
        )
    report = result.report

    print(f"dense pre-trained accuracy:        {report.dense_metric:6.2%}")
    print(f"right after PD projection (p=8):   {report.projected_metric:6.2%}")
    print(f"after structure-preserving tuning: {report.finetuned_metric:6.2%}")
    print(f"bundle serving verified:           {report.verified}")
    print(
        f"\ncompression {report.compression_ratio:.1f}x; accuracy gap vs "
        f"dense {-report.metric_delta:+.2%} (paper: 99.06% at 40x on MNIST)"
    )


if __name__ == "__main__":
    main()
