"""Index-plan cache: laziness, sharing, fixed structure, aliasing, and the
transpose-free backward path."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import BlockPermutedDiagonalMatrix, PermutationSpec, nonzero_column


def _random_bpd(shape, p, seed=0, scheme="natural"):
    return BlockPermutedDiagonalMatrix.random(
        shape, p, spec=PermutationSpec(scheme=scheme, seed=seed), rng=seed
    )


class TestPlanCache:
    def test_plan_computed_once_and_reused(self):
        bpd = _random_bpd((10, 14), 4)
        assert bpd._get_plan() is bpd._get_plan()
        assert bpd.support_mask() is bpd.support_mask()
        plan = bpd._get_plan()
        view = bpd._coo(False)
        assert bpd._coo(False) is view
        assert np.shares_memory(view.row, plan.rows)
        assert np.shares_memory(view.col, plan.cols)

    def test_plan_built_lazily_for_aligned_shapes(self):
        bpd = BlockPermutedDiagonalMatrix(np.ones((2, 3, 4)), np.zeros((2, 3)))
        assert bpd._plan is None  # aligned construction needs no indices
        bpd.matvec(np.zeros(12))
        assert bpd._plan is not None

    def test_plan_arrays_are_read_only(self):
        bpd = _random_bpd((10, 14), 4)
        plan = bpd._get_plan()
        for arr in (plan.rows, plan.cols, bpd.support_mask()):
            with pytest.raises(ValueError):
                arr[...] = 0

    def test_like_shares_plan_and_matches_products(self):
        base = _random_bpd((10, 14), 4, seed=3)
        rng = np.random.default_rng(0)
        sibling = base.like(rng.normal(size=base.data.shape) * base.support_mask())
        assert sibling._get_plan() is base._get_plan()
        x = rng.normal(size=(3, 14))
        np.testing.assert_allclose(
            sibling.matmat(x), x @ sibling.to_dense().T, atol=1e-12
        )

    @pytest.mark.parametrize("make", ["like", "with_value_dtype", "row_shard"])
    def test_siblings_get_their_own_value_cache(self, make):
        """The plan-sharing constructors build through one helper: each
        sibling carries its structure and value dtype, and starts with an
        empty COO view cache, so a product the parent ran first never
        serves the parent's values to the sibling."""
        base = _random_bpd((10, 14), 4, seed=5)  # row- and column-padded
        x = np.random.default_rng(1).normal(size=(3, 14))
        base.matmat(x)
        sibling, ks, value_dtype = {
            "like": lambda: (base.like(2.0 * base.data), base.ks, "float64"),
            "with_value_dtype": lambda: (
                base.with_value_dtype("float32"), base.ks, "float32"
            ),
            "row_shard": lambda: (base.row_shard(1, 3), base.ks[1:], "float64"),
        }[make]()
        assert sibling._coo_cache == {}
        assert sibling.value_dtype == value_dtype
        np.testing.assert_array_equal(sibling.ks, ks)
        np.testing.assert_allclose(
            sibling.matmat(x), x @ sibling.to_dense().T, atol=1e-5
        )

    def test_like_rejects_wrong_shape(self):
        base = _random_bpd((8, 8), 4)
        with pytest.raises(ValueError):
            base.like(np.zeros((2, 2, 3)))

    @pytest.mark.parametrize("shape", [(8, 12), (7, 10)])  # aligned + padded
    def test_support_coordinates_are_read_only(self, shape):
        bpd = _random_bpd(shape, 4)
        for arr in bpd.support_coordinates():
            with pytest.raises(ValueError):
                arr[...] = 0
        with pytest.raises(ValueError):
            bpd._get_plan().cols[...] = 0

    def test_support_coordinates_match_dense_mask(self):
        bpd = _random_bpd((11, 7), 3, seed=5, scheme="random")
        rows, cols = bpd.support_coordinates()
        mask = np.zeros(bpd.shape, dtype=bool)
        mask[rows, cols] = True
        np.testing.assert_array_equal(mask, bpd.dense_mask())


class TestStructureMutation:
    def test_ks_is_read_only(self):
        bpd = _random_bpd((8, 8), 4)
        with pytest.raises(ValueError):
            bpd.ks[...] = 0

    def test_shape_not_assignable(self):
        bpd = _random_bpd((8, 8), 4)
        with pytest.raises(AttributeError):
            bpd.shape = (7, 8)


class TestAliasingContract:
    def test_aligned_data_is_aliased_not_copied(self):
        arr = np.random.default_rng(0).normal(size=(2, 3, 4))
        bpd = BlockPermutedDiagonalMatrix(arr, np.zeros((2, 3)))
        assert bpd.data is arr

    def test_padded_but_already_masked_data_is_aliased(self):
        probe = BlockPermutedDiagonalMatrix.zeros((7, 10), 4)
        arr = np.random.default_rng(1).normal(size=probe.data.shape)
        arr *= probe.support_mask()
        bpd = BlockPermutedDiagonalMatrix(arr, probe.ks, shape=(7, 10))
        assert bpd.data is arr

    def test_padding_violation_triggers_masked_copy(self):
        arr = np.ones((2, 3, 4))
        bpd = BlockPermutedDiagonalMatrix(arr, np.zeros((2, 3)), shape=(7, 10))
        assert bpd.data is not arr
        assert np.all(arr == 1.0)  # caller's array untouched
        assert np.all(bpd.data[~bpd.support_mask()] == 0)

    def test_inplace_updates_visible_through_products(self):
        bpd = _random_bpd((8, 8), 4, seed=2)
        buffer = bpd.data
        x = np.random.default_rng(3).normal(size=(2, 8))
        before = bpd.matmat(x)
        buffer *= 2.0
        np.testing.assert_allclose(bpd.matmat(x), 2.0 * before, atol=1e-12)
        np.testing.assert_allclose(
            bpd.rmatmat(before), before @ bpd.to_dense(), atol=1e-12
        )


class TestTransposeFreeBackward:
    def test_rmatmat_does_not_construct_a_matrix(self, monkeypatch):
        bpd = _random_bpd((10, 14), 4, seed=6)
        bpd._get_plan().pbd_index()  # pre-warm so laziness is no excuse

        def boom(*args, **kwargs):
            raise AssertionError("backward must not build matrix objects")

        monkeypatch.setattr(BlockPermutedDiagonalMatrix, "__init__", boom)
        monkeypatch.setattr(BlockPermutedDiagonalMatrix, "transpose", boom)
        rng = np.random.default_rng(7)
        y = rng.normal(size=(3, 10))
        np.testing.assert_allclose(bpd.rmatmat(y), y @ bpd.to_dense(), atol=1e-12)
        np.testing.assert_allclose(
            bpd.rmatvec(y[0]), bpd.to_dense().T @ y[0], atol=1e-12
        )

    def test_rmatmat_consistent_over_forward_backward_cycles(self):
        """Plan-cache correctness under training-style reuse: repeated
        forward/backward with in-place weight updates, random spec and a
        non-multiple-of-p shape."""
        bpd = _random_bpd((13, 10), 4, seed=8, scheme="random")
        rng = np.random.default_rng(9)
        for _ in range(4):
            x = rng.normal(size=(5, 10))
            dy = rng.normal(size=(5, 13))
            dense = bpd.to_dense()
            np.testing.assert_allclose(bpd.matmat(x), x @ dense.T, atol=1e-12)
            np.testing.assert_allclose(bpd.rmatmat(dy), dy @ dense, atol=1e-12)
            grad = bpd.grad_data(x, dy)
            ref = BlockPermutedDiagonalMatrix.from_dense(
                (dy.T @ x) * bpd.dense_mask(), bpd.p, ks=bpd.ks
            )
            np.testing.assert_allclose(grad, ref.data, atol=1e-10)
            bpd.data -= 0.1 * grad  # in-place update, like an optimizer

    def test_grad_data_validates_x_width(self):
        bpd = _random_bpd((8, 8), 4)
        with pytest.raises(ValueError):
            bpd.grad_data(np.zeros((2, 7)), np.zeros((2, 8)))


class TestLastRowCols:
    """The plan's lazy list of the columns the last block row stores
    weights in, which engine MACs read for row-padded matrices."""

    @settings(max_examples=60, deadline=None)
    @given(
        m=st.integers(1, 40),
        n=st.integers(1, 40),
        p=st.integers(1, 6),
        scheme=st.sampled_from(["natural", "random"]),
        seed=st.integers(0, 2**16),
    )
    def test_matches_eqn1_on_the_kept_rows(self, m, n, p, scheme, seed):
        bpd = _random_bpd((m, n), p, seed=seed, scheme=scheme)
        kept = m - (bpd.mb - 1) * p
        offsets = nonzero_column(np.arange(kept), bpd.ks[-1][:, None], p)
        want = (np.arange(bpd.nb)[:, None] * p + offsets).reshape(-1)
        cols = bpd._get_plan().last_row_cols
        np.testing.assert_array_equal(cols, want[want < n])
        assert cols is bpd._get_plan().last_row_cols  # built once
        with pytest.raises(ValueError):
            cols[...] = 0

    def test_row_shard_plan_derives_its_own(self):
        """Each shard's list is its own block row's, the last shard's the
        padded one: what a matrix built with the shard's structure lists."""
        bpd = _random_bpd((37, 23), 4, seed=3, scheme="random")
        bpd._get_plan().last_row_cols
        for shard in bpd.row_shards(3):
            alone = BlockPermutedDiagonalMatrix(
                shard.data, shard.ks, shape=shard.shape
            )
            np.testing.assert_array_equal(
                shard._get_plan().last_row_cols, alone._get_plan().last_row_cols
            )
