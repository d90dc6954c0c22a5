"""Row sharding: plan slicing, aliasing, and the bit-exact decomposition."""

import numpy as np
import pytest

import repro.core.block_perm_diag as mod
from repro.core import (
    BlockPermutedDiagonalMatrix,
    PermutationSpec,
    row_shard_bounds,
)

# Aligned, row-padded, and doubly padded structures.
SHAPES = [((24, 16), 4), ((22, 16), 4), ((13, 10), 4)]


def _random_bpd(shape, p, seed=0):
    return BlockPermutedDiagonalMatrix.random(
        shape, p, spec=PermutationSpec(scheme="random", seed=seed), rng=seed
    )


class TestShardBounds:
    def test_balanced_contiguous_partition(self):
        assert row_shard_bounds(10, 3) == [(0, 4), (4, 7), (7, 10)]
        assert row_shard_bounds(8, 4) == [(0, 2), (2, 4), (4, 6), (6, 8)]
        assert row_shard_bounds(5, 5) == [(i, i + 1) for i in range(5)]

    def test_invalid_counts_rejected(self):
        with pytest.raises(ValueError, match="positive"):
            row_shard_bounds(4, 0)
        with pytest.raises(ValueError, match="at least one block row"):
            row_shard_bounds(2, 3)


@pytest.mark.parametrize("shape,p", SHAPES)
class TestRowShard:
    def test_shards_partition_structure(self, shape, p):
        matrix = _random_bpd(shape, p)
        shards = matrix.row_shards(3)
        assert sum(s.shape[0] for s in shards) == shape[0]
        assert all(s.shape[1] == shape[1] for s in shards)
        assert all(s.p == p for s in shards)
        assert sum(s.nnz for s in shards) == matrix.nnz
        for (start, stop), shard in zip(row_shard_bounds(matrix.mb, 3), shards):
            np.testing.assert_array_equal(shard.ks, matrix.ks[start:stop])
            np.testing.assert_array_equal(
                shard.to_dense(),
                matrix.to_dense()[start * p : start * p + shard.shape[0]],
            )

    def test_forward_products_reassemble_bit_for_bit(self, shape, p):
        matrix = _random_bpd(shape, p)
        x = np.random.default_rng(1).normal(size=(5, shape[1]))
        full_mat = matrix.matmat(x)
        full_vec = matrix.matvec(x[0])
        for num_shards in (1, 2, 3):
            shards = matrix.row_shards(num_shards)
            np.testing.assert_array_equal(
                np.concatenate([s.matmat(x) for s in shards], axis=1), full_mat
            )
            np.testing.assert_array_equal(
                np.concatenate([s.matvec(x[0]) for s in shards]), full_vec
            )

    def test_rmatmat_row_slices_sum_to_full(self, shape, p):
        matrix = _random_bpd(shape, p)
        y = np.random.default_rng(2).normal(size=(4, shape[0]))
        full = matrix.rmatmat(y)
        shards = matrix.row_shards(2)
        acc = np.zeros_like(full)
        for (start, _), shard in zip(row_shard_bounds(matrix.mb, 2), shards):
            acc += shard.rmatmat(
                y[:, start * p : start * p + shard.shape[0]]
            )
        np.testing.assert_allclose(acc, full, atol=1e-12)

    def test_shard_data_aliases_parent_storage(self, shape, p):
        matrix = _random_bpd(shape, p)
        shards = matrix.row_shards(2)
        assert shards[0].data.base is matrix.data
        matrix.data[0, 0, 0] = 42.0
        assert shards[0].data[0, 0, 0] == 42.0


class TestPlanSlicing:
    def test_sharding_never_recomputes_index_arithmetic(self, monkeypatch):
        """A warmed parent plan shards by pure slicing: forward, backward
        and the structured products all run without any `_IndexPlan`
        construction."""
        matrix = _random_bpd((24, 16), 4)
        plan = matrix._get_plan()
        plan.support_coords()
        plan.pbd_index()
        matrix._csr(False)
        matrix._csr(True)

        def boom(*args, **kwargs):
            raise AssertionError("row sharding rebuilt an index plan")

        monkeypatch.setattr(mod._IndexPlan, "__init__", boom)
        shards = matrix.row_shards(3)
        x = np.random.default_rng(0).normal(size=(3, 16))
        for shard in shards:
            shard.matmat(x)
            shard.rmatmat(
                np.random.default_rng(1).normal(size=(3, shard.shape[0]))
            )
            shard.grad_data(
                x, np.random.default_rng(2).normal(size=(3, shard.shape[0]))
            )

    def test_sliced_plan_arrays_are_views_where_possible(self):
        matrix = _random_bpd((24, 16), 4)
        parent = matrix._get_plan()
        shard_plan = parent.row_block_slice(1, 3)
        assert shard_plan.cols.base is not None  # shared view, no copy
        assert shard_plan.support.base is not None
        assert shard_plan.mb == 2 and shard_plan.shape == (8, 16)

    def test_last_shard_keeps_row_padding(self):
        matrix = _random_bpd((22, 16), 4)  # mb=6, padded last block row
        shards = matrix.row_shards(3)
        assert [s.shape[0] for s in shards] == [8, 8, 6]
        assert shards[-1].nnz < shards[0].nnz

    def test_invalid_slice_rejected(self):
        plan = _random_bpd((24, 16), 4)._get_plan()
        for start, stop in [(-1, 2), (2, 2), (0, 99)]:
            with pytest.raises(ValueError, match="block-row slice"):
                plan.row_block_slice(start, stop)

    def test_too_many_shards_rejected(self):
        with pytest.raises(ValueError, match="at least one block row"):
            _random_bpd((24, 16), 4).row_shards(7)
