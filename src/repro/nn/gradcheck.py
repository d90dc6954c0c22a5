"""Numerical gradient checking for layers (central differences).

Used throughout the test suite to verify every hand-derived backward pass,
including the paper's PD training rules (Eqns. (2)-(6)).
"""

from __future__ import annotations

import numpy as np

from repro.nn.module import Module

__all__ = ["check_input_gradient", "check_parameter_gradients", "max_relative_error"]


def max_relative_error(a: np.ndarray, b: np.ndarray) -> float:
    """``max |a - b| / (|a| + |b| + floor)`` -- scale-free gradient distance.

    The ``1e-4`` floor keeps finite-difference noise (~1e-10) on exactly-zero
    gradients from registering as relative error.
    """
    denom = np.abs(a) + np.abs(b) + 1e-4
    return float((np.abs(a - b) / denom).max())


def _loss(module: Module, x: np.ndarray, seed_dy: np.ndarray) -> float:
    """Scalar probe loss ``sum(forward(x) * seed_dy)``."""
    return float((module.forward(x) * seed_dy).sum())


def check_input_gradient(
    module: Module,
    x: np.ndarray,
    eps: float = 1e-6,
    rng: np.random.Generator | int | None = 0,
) -> float:
    """Compare analytic ``dL/dx`` against central differences.

    Returns the max relative error (should be ``< ~1e-5`` for smooth layers).
    """
    if not isinstance(rng, np.random.Generator):
        rng = np.random.default_rng(rng)
    x = np.asarray(x, dtype=np.float64)
    y = module.forward(x)
    seed_dy = rng.normal(size=y.shape)
    module.zero_grad()
    analytic = module.backward(seed_dy)
    numeric = np.zeros_like(x)
    # Index through .flat: it writes through regardless of memory layout,
    # whereas reshape(-1) silently copies non-contiguous arrays (e.g. a
    # weight that is a sliced view of a padded buffer) and the probe
    # perturbations would never reach the module.
    for idx in range(x.size):
        orig = x.flat[idx]
        x.flat[idx] = orig + eps
        plus = _loss(module, x, seed_dy)
        x.flat[idx] = orig - eps
        minus = _loss(module, x, seed_dy)
        x.flat[idx] = orig
        numeric.flat[idx] = (plus - minus) / (2 * eps)
    # restore the cache for the original input
    module.forward(x)
    return max_relative_error(analytic, numeric)


def check_parameter_gradients(
    module: Module,
    x: np.ndarray,
    eps: float = 1e-6,
    rng: np.random.Generator | int | None = 0,
) -> float:
    """Compare analytic parameter grads against central differences.

    Returns the worst max relative error across all parameters.
    """
    if not isinstance(rng, np.random.Generator):
        rng = np.random.default_rng(rng)
    x = np.asarray(x, dtype=np.float64)
    y = module.forward(x)
    seed_dy = rng.normal(size=y.shape)
    module.zero_grad()
    module.backward(seed_dy)
    worst = 0.0
    for param in module.parameters():
        analytic = param.grad.copy()
        numeric = np.zeros_like(param.value)
        value = param.value
        # .flat (not reshape(-1)): parameter values may be non-contiguous
        # views, and a reshaped copy would swallow the probe perturbations.
        for idx in range(value.size):
            orig = value.flat[idx]
            value.flat[idx] = orig + eps
            plus = _loss(module, x, seed_dy)
            value.flat[idx] = orig - eps
            minus = _loss(module, x, seed_dy)
            value.flat[idx] = orig
            numeric.flat[idx] = (plus - minus) / (2 * eps)
        worst = max(worst, max_relative_error(analytic, numeric))
    module.forward(x)
    return worst
