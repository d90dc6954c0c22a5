"""The value layout, pinned against references that do not go through the
code's own transposes.

``data[bi, c, bj]`` is the non-zero of block ``(bi, bj)`` in its row
``c``, so ``data.reshape(mb*p, nb)`` holds each padded weight row's
``nb`` non-zeros in ascending column; ``to_q()`` is the paper's
block-major ``q`` (Eqn. (1)).  Both are checked against ``to_dense()``
and ``ks`` by index arithmetic written here, on drawn shapes (aligned,
row-, column- and both-padded), ``ks`` (natural, random, non-additive)
and value dtypes.  The committed zoo bundles are decoded with
``from_q`` and checked against the same Eqn. (1) reference built from
their stored ``q`` and ``ks``, so a decoder that agrees with its encoder
but not with the paper fails here.
"""

from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.core import BlockPermDiagTensor4D, BlockPermutedDiagonalMatrix
from repro.core import PermutationSpec
from repro.hw.engine import read_engine_image
from repro.nn.layers.recurrent import stack_gates

_ZOO = Path(__file__).resolve().parents[2] / "benchmarks/results/compress_zoo"


@st.composite
def _matrices(draw):
    """A drawn matrix: padding kind, ``ks`` kind and value dtype."""
    padding = draw(st.sampled_from(["aligned", "rows", "cols", "both"]))
    p = draw(st.integers(1 if padding == "aligned" else 2, 7))
    mb, nb = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    m_pad = draw(st.integers(1, p - 1)) if padding in ("rows", "both") else 0
    n_pad = draw(st.integers(1, p - 1)) if padding in ("cols", "both") else 0
    shape = (mb * p - m_pad, nb * p - n_pad)
    kind = draw(st.sampled_from(["natural", "random", "non-additive"]))
    value_dtype = draw(st.sampled_from(["float64", "float32", "int16"]))
    seed = draw(st.integers(0, 2**16))
    if kind != "non-additive":
        return BlockPermutedDiagonalMatrix.random(
            shape, p, spec=PermutationSpec(scheme=kind, seed=seed),
            rng=seed, value_dtype=value_dtype,
        )
    # ks[-1, -1] breaks ks[bi, bj] == (a[bi] + b[bj]) % p.
    assume(p > 1 and mb > 1 and nb > 1)
    rng = np.random.default_rng(seed)
    ks = rng.integers(0, p, size=(mb, nb))
    ks[-1, -1] = (ks[-1, 0] + ks[0, -1] - ks[0, 0] + 1) % p
    matrix = BlockPermutedDiagonalMatrix.from_dense(
        rng.normal(size=shape), p, ks=ks, value_dtype=value_dtype
    )
    assert matrix._get_plan().pbd_index() is None
    return matrix


def _logical(values, matrix):
    """Stored values (or ``q``) as the float64 weights they encode."""
    if matrix.value_dtype == "int16":
        return values.astype(np.float64) * matrix.fixed_point.resolution
    return values.astype(np.float64)


def _padded_dense(matrix):
    """``to_dense()`` zero-padded to ``(mb*p, nb*p)``."""
    dense = np.zeros((matrix.mb * matrix.p, matrix.nb * matrix.p))
    dense[: matrix.shape[0], : matrix.shape[1]] = matrix.to_dense()
    return dense


def _eqn1_q(dense, ks, p):
    """Eqn. (1) packing: ``q[l*p + c]`` is block ``l = bi*nb + bj``'s
    row-``c`` entry, at column ``bj*p + (c + ks[bi, bj]) % p``."""
    mb, nb = ks.shape
    q = np.zeros(mb * nb * p)
    for bi in range(mb):
        for bj in range(nb):
            for c in range(p):
                col = bj * p + (c + ks[bi, bj]) % p
                q[(bi * nb + bj) * p + c] = dense[bi * p + c, col]
    return q


def _eqn1_dense(q, ks, p, shape):
    """The padded dense matrix Eqn. (1) gives ``q`` and ``ks``, cut to
    ``shape``; whatever ``q`` holds outside ``shape`` is dropped."""
    mb, nb = ks.shape
    dense = np.zeros((mb * p, nb * p))
    for bi in range(mb):
        for bj in range(nb):
            for c in range(p):
                col = bj * p + (c + ks[bi, bj]) % p
                dense[bi * p + c, col] = q[(bi * nb + bj) * p + c]
    return dense[: shape[0], : shape[1]]


@settings(max_examples=80, deadline=None)
@given(_matrices())
def test_each_stored_row_is_a_weight_row_in_ascending_column(matrix):
    p, mb, nb = matrix.p, matrix.mb, matrix.nb
    m, n = matrix.shape
    assert matrix.data.shape == (mb, p, nb)
    rows = _logical(matrix.data, matrix).reshape(mb * p, nb)
    dense = _padded_dense(matrix)
    for r in range(mb * p):
        for bj in range(nb):
            col = bj * p + (r % p + matrix.ks[r // p, bj]) % p
            assert rows[r, bj] == dense[r, col]
            if r >= m or col >= n:
                assert rows[r, bj] == 0


@settings(max_examples=80, deadline=None)
@given(_matrices())
def test_to_q_is_the_eqn1_packing(matrix):
    q = matrix.to_q()
    assert q.dtype == matrix.data.dtype
    np.testing.assert_array_equal(
        _logical(q, matrix),
        _eqn1_q(_padded_dense(matrix), matrix.ks, matrix.p),
    )


@settings(max_examples=40, deadline=None)
@given(_matrices())
def test_every_constructor_stores_c_contiguous_values(matrix):
    p, shape, ks = matrix.p, matrix.shape, matrix.ks
    built = {
        "drawn": matrix,
        "zeros": BlockPermutedDiagonalMatrix.zeros(shape, p, ks=ks),
        "random": BlockPermutedDiagonalMatrix.random(shape, p, rng=0),
        "from_dense": BlockPermutedDiagonalMatrix.from_dense(
            matrix.to_dense(), p, ks=ks
        ),
        "from_q": BlockPermutedDiagonalMatrix.from_q(
            matrix.to_q(), shape, p, ks,
            value_dtype=matrix.value_dtype, fixed_point=matrix.fixed_point,
        ),
        "with_value_dtype": matrix.with_value_dtype("float32"),
        "like": matrix.like(np.zeros_like(matrix.data)),
        "row_shard": matrix.row_shard(0, matrix.mb),
        "transpose": matrix.transpose(),
    }
    if matrix.mb > 1:
        built["row_shard"] = matrix.row_shard(1, matrix.mb)
    for name, built_matrix in built.items():
        assert built_matrix.data.flags.c_contiguous, name


def test_stacked_gates_and_conv_offsets_store_c_contiguous_values():
    gates = [
        BlockPermutedDiagonalMatrix.random((12, 14), 4, rng=seed)
        for seed in range(4)
    ]
    stacked = stack_gates(gates)
    assert stacked.data.flags.c_contiguous
    # Block rows interleave gate by gate: stacked block row 4*bi + g is
    # gate g's block row bi.
    for g, gate in enumerate(gates):
        np.testing.assert_array_equal(stacked.data[g::4], gate.data)
    tensor = BlockPermDiagTensor4D.random(10, 6, (2, 3), p=4, rng=1)
    assert tensor.values.shape == (2, 3, 3, 4, 2)
    for matrix in tensor.matrices:
        assert matrix.data.flags.c_contiguous


@settings(max_examples=40, deadline=None)
@given(_matrices(), st.integers(1, 5))
def test_plan_holds_no_row_index_and_shards_view_its_columns(
    matrix, num_shards
):
    """A slot's row is its position: the plan keeps no per-slot row
    array, and a row shard's columns and support are views of its
    matrix's, copied nowhere."""
    plan = matrix._get_plan()
    per_slot = [
        name for name, value in vars(plan).items()
        if isinstance(value, np.ndarray) and value.shape == matrix.data.shape
    ]
    assert sorted(per_slot) == ["cols", "support"]
    for shard in matrix.row_shards(min(num_shards, matrix.mb)):
        shard_plan = shard._get_plan()
        assert not hasattr(shard_plan, "rows")
        assert np.shares_memory(shard_plan.cols, plan.cols)
        assert np.shares_memory(shard_plan.support, plan.support)


def _zoo_images():
    return sorted(_ZOO.glob("*/bundle/shard*.npz"))


def test_zoo_bundles_are_committed():
    assert {path.parts[-3] for path in _zoo_images()} == {
        "alexnet-fc", "lenet", "nmt", "resnet20",
    }


@pytest.mark.parametrize(
    "path", _zoo_images(), ids=lambda path: "/".join(path.parts[-3::2])
)
def test_zoo_images_decode_to_their_eqn1_matrices(path):
    for entry in read_engine_image(path):
        matrix = BlockPermutedDiagonalMatrix.from_q(
            entry.q, entry.shape, entry.p, entry.ks,
            value_dtype=entry.value_dtype, fixed_point=entry.fixed_point,
        )
        ks = np.asarray(entry.ks).reshape(matrix.mb, matrix.nb)
        want = _eqn1_dense(
            _logical(np.asarray(entry.q), matrix), ks, entry.p, entry.shape
        )
        np.testing.assert_array_equal(matrix.to_dense(), want)
