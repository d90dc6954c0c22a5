"""A served model's structure aliases its layers', as its values do.

A PD matrix's structure ``(ks, shape, p)`` is fixed when it is built,
and every served shard slot matrix is cut from a layer's matrix, so its
``ks`` is a read-only view of that layer's ``ks`` at every value dtype
and shard count; a conv layer's offset matrices all hold the tensor's
``ks``.  The sanitizer checks the values side (``row_shard`` views).
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nn import LSTMCell, PermDiagConv2D, PermDiagLinear, ReLU, Sequential
from repro.serve import ModelServer

_PD_LAYERS = (PermDiagLinear, PermDiagConv2D, LSTMCell)


@st.composite
def _served_models(draw):
    """``(model, input_hw, num_shards)``: a small FC stack, conv layer or
    LSTM cell whose every stage has at least ``num_shards`` block rows."""
    kind = draw(st.sampled_from(("fc", "conv", "lstm")))
    num_shards = draw(st.integers(1, 4))
    p = draw(st.integers(1, 3))
    seed = draw(st.integers(0, 2**16))

    def rows():  # num_shards to num_shards + 2 block rows, maybe padded
        blocks = draw(st.integers(num_shards, num_shards + 2))
        return blocks * p - draw(st.integers(0, p - 1))

    if kind == "fc":
        width = rows()
        model = Sequential(
            PermDiagLinear(draw(st.integers(1, 12)), width, p, bias=False, rng=seed),
            ReLU(),
            PermDiagLinear(width, rows(), p, bias=False, rng=seed + 1),
        )
        return model, None, num_shards
    if kind == "conv":
        kernel = draw(st.integers(1, 3))
        conv = PermDiagConv2D(
            draw(st.integers(1, 6)), rows(), kernel, p,
            padding=draw(st.integers(0, 1)), bias=False, rng=seed,
        )
        side = kernel + draw(st.integers(0, 2))
        return Sequential(conv, ReLU()), (side, side), num_shards
    hidden = p * draw(st.integers(num_shards, num_shards + 2))
    return LSTMCell(draw(st.integers(1, 8)), hidden, p=p, rng=seed), None, num_shards


def _slot_ks(layer):
    """The ``ks`` each of a PD layer's served slots is cut from."""
    if isinstance(layer, PermDiagLinear):
        return [layer.matrix.ks]
    if isinstance(layer, PermDiagConv2D):
        tensor = layer.tensor
        for matrix in tensor.matrices:
            assert matrix.ks is tensor.ks
        return [tensor.ks] * len(tensor.matrices)
    return [op.matrix.ks for op in layer.weight_matrices]


@settings(max_examples=80, deadline=None)
@given(
    drawn=_served_models(),
    value_dtype=st.sampled_from((None, "float64", "float32", "int16")),
)
def test_served_slot_ks_are_read_only_views_of_the_layers(drawn, value_dtype):
    model, input_hw, num_shards = drawn
    server = ModelServer.from_model(
        model, input_hw=input_hw, value_dtype=value_dtype, num_shards=num_shards
    )
    layers = [m for m in model.modules() if isinstance(m, _PD_LAYERS)]
    assert len(layers) == len(server.layers)
    for layer, stage in zip(layers, server.layers):
        slot_ks = _slot_ks(layer)
        assert len(stage.shard_slots) == num_shards
        for slots in stage.shard_slots:
            assert len(slots) == len(slot_ks)
            for matrix, ks in zip(slots, slot_ks):
                assert not matrix.ks.flags.writeable
                assert np.shares_memory(matrix.ks, ks)
