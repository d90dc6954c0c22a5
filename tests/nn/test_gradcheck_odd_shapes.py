"""Numerical gradient checks for PD layers on odd shapes.

Exercises :mod:`repro.nn.gradcheck` directly (previously only integration
paths touched it) on non-square and non-multiple-of-``p`` configurations,
where the padded support region must receive no gradient and the
structure-preserving backward (Eqns. (2)-(6)) is easiest to get wrong.
"""

import numpy as np
import pytest

from repro.core import PermutationSpec
from repro.nn import PermDiagConv2D, PermDiagLinear
from repro.nn.gradcheck import check_input_gradient, check_parameter_gradients

TOL = 1e-5

# (in_features, out_features, p): non-square, with p dividing neither,
# one, or both dimensions.
LINEAR_CASES = [
    (7, 5, 3),    # p divides neither
    (12, 10, 4),  # p divides in only
    (9, 8, 3),    # p divides in only (other axis)
    (8, 12, 4),   # p divides both, non-square
]


@pytest.mark.parametrize("n_in,n_out,p", LINEAR_CASES)
class TestPermDiagLinearGradcheck:
    def test_input_gradient(self, n_in, n_out, p):
        layer = PermDiagLinear(
            n_in, n_out, p=p,
            spec=PermutationSpec(scheme="random", seed=0), rng=0,
        )
        x = np.random.default_rng(1).normal(size=(3, n_in))
        assert check_input_gradient(layer, x) < TOL

    def test_parameter_gradients(self, n_in, n_out, p):
        layer = PermDiagLinear(
            n_in, n_out, p=p,
            spec=PermutationSpec(scheme="random", seed=0), rng=0,
        )
        x = np.random.default_rng(2).normal(size=(3, n_in))
        assert check_parameter_gradients(layer, x) < TOL

    def test_padded_slots_receive_no_gradient(self, n_in, n_out, p):
        layer = PermDiagLinear(n_in, n_out, p=p, rng=0)
        x = np.random.default_rng(3).normal(size=(4, n_in))
        layer.zero_grad()
        y = layer.forward(x)
        layer.backward(np.ones_like(y))
        support = layer.matrix.support_mask()
        assert not np.any(layer.weight.grad[~support])


# (in_channels, out_channels, kernel, p): non-square channel planes with
# channels not divisible by p.
CONV_CASES = [
    (5, 3, 3, 2),  # p divides neither channel count
    (6, 4, 2, 4),  # p divides neither; kernel 2x2
    (4, 6, 3, 2),  # p divides both, non-square plane
]


@pytest.mark.parametrize("c_in,c_out,k,p", CONV_CASES)
class TestPermDiagConv2DGradcheck:
    def _layer(self, c_in, c_out, k, p):
        return PermDiagConv2D(
            c_in, c_out, k, p=p, padding=1,
            spec=PermutationSpec(scheme="random", seed=0), rng=0,
        )

    def test_input_gradient(self, c_in, c_out, k, p):
        layer = self._layer(c_in, c_out, k, p)
        x = np.random.default_rng(1).normal(size=(2, c_in, 4, 4))
        assert check_input_gradient(layer, x) < TOL

    def test_parameter_gradients(self, c_in, c_out, k, p):
        layer = self._layer(c_in, c_out, k, p)
        x = np.random.default_rng(2).normal(size=(2, c_in, 4, 4))
        assert check_parameter_gradients(layer, x) < TOL

    def test_masked_kernels_receive_no_gradient(self, c_in, c_out, k, p):
        layer = self._layer(c_in, c_out, k, p)
        x = np.random.default_rng(3).normal(size=(2, c_in, 4, 4))
        layer.zero_grad()
        y = layer.forward(x)
        layer.backward(np.ones_like(y))
        support = layer.tensor.matrices[0].support_mask()
        assert not np.any(layer.weight.grad[:, :, ~support])
