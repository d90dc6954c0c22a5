"""The product kernel (:mod:`repro.core.kernel`): products against the
dense reference, cache-blocked gradient paths, int32 CSR skeletons whose
rows keep the sorted order scipy accumulates in, and the index plans a
matrix decoded from its stored form derives from ``ks``."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.core.block_perm_diag as mod
import repro.core.kernel as kernel_mod
from repro.core import BlockPermutedDiagonalMatrix, PermutationSpec

# Shapes covering aligned, row-padded and fully padded structures.
SHAPES = [((16, 16), 4), ((13, 10), 4), ((7, 9), 3)]


def _random_bpd(shape, p, seed=0, scheme="random"):
    return BlockPermutedDiagonalMatrix.random(
        shape,
        p,
        spec=PermutationSpec(scheme=scheme, seed=seed),
        rng=seed,
    )


class TestProductsMatchDense:
    """Every product of one matrix agrees with the dense one to 1e-10."""

    @pytest.mark.parametrize("shape,p", SHAPES)
    def test_products_match_dense(self, shape, p):
        bpd = _random_bpd(shape, p, seed=3)
        dense = bpd.to_dense()
        rng = np.random.default_rng(4)
        x = rng.normal(size=(5, shape[1]))
        y = rng.normal(size=(5, shape[0]))
        np.testing.assert_allclose(bpd.matmat(x), x @ dense.T, atol=1e-10)
        np.testing.assert_allclose(bpd.rmatmat(y), y @ dense, atol=1e-10)
        np.testing.assert_allclose(bpd.matvec(x[0]), dense @ x[0], atol=1e-10)
        np.testing.assert_allclose(
            bpd.rmatvec(y[0]), dense.T @ y[0], atol=1e-10
        )

    @pytest.mark.parametrize("shape,p", SHAPES)
    def test_grad_data_matches_dense_projection(self, shape, p):
        bpd = _random_bpd(shape, p, seed=5)
        rng = np.random.default_rng(6)
        x = rng.normal(size=(4, shape[1]))
        dy = rng.normal(size=(4, shape[0]))
        reference = BlockPermutedDiagonalMatrix.from_dense(
            (dy.T @ x) * bpd.dense_mask(), p, ks=bpd.ks
        ).data
        np.testing.assert_allclose(bpd.grad_data(x, dy), reference, atol=1e-10)

    @pytest.mark.parametrize("shape,p", SHAPES)
    def test_chunked_transposed_paths_match_dense(
        self, shape, p, monkeypatch
    ):
        """Force the cache-blocked path (one block row per slab) of the
        batched weight gradient and re-check every product against the
        dense reference."""
        monkeypatch.setattr(kernel_mod, "_ONESHOT_LIMIT_ELEMENTS", 0)
        monkeypatch.setattr(kernel_mod, "_CHUNK_TARGET_ELEMENTS", 1)
        bpd = _random_bpd(shape, p, seed=7)
        dense = bpd.to_dense()
        rng = np.random.default_rng(8)
        x = rng.normal(size=(3, shape[1]))
        dy = rng.normal(size=(3, shape[0]))
        np.testing.assert_allclose(bpd.matmat(x), x @ dense.T, atol=1e-10)
        np.testing.assert_allclose(bpd.rmatmat(dy), dy @ dense, atol=1e-10)
        reference = BlockPermutedDiagonalMatrix.from_dense(
            (dy.T @ x) * bpd.dense_mask(), p, ks=bpd.ks
        ).data
        np.testing.assert_allclose(bpd.grad_data(x, dy), reference, atol=1e-10)


def test_environment_selects_no_kernel(monkeypatch):
    """``REPRO_BACKEND`` is not read: a value left over from an older
    setup, even one naming no kernel, changes no product."""
    bpd = _random_bpd((13, 10), 4, seed=19)
    x = np.random.default_rng(20).normal(size=(3, 10))
    before = bpd.matmat(x)
    for name in ("numba", "bogus"):
        monkeypatch.setenv("REPRO_BACKEND", name)
        np.testing.assert_array_equal(bpd.matmat(x), before)


class TestInt32Skeletons:
    def test_csr_skeleton_is_int32_for_small_matrices(self):
        bpd = _random_bpd((10, 14), 4)
        for transposed in (False, True):
            indptr, indices, perm = bpd._get_plan().csr_struct(transposed)
            assert indptr.dtype == np.int32
            assert indices.dtype == np.int32
            assert perm.dtype == np.int64  # numpy gather wants intp

    def test_csr_skeleton_arrays_read_only(self):
        bpd = _random_bpd((10, 14), 4)
        for arr in bpd._get_plan().csr_struct(False):
            with pytest.raises(ValueError):
                arr[...] = 0

    def test_int32_spmm_matches_dense(self):
        bpd = _random_bpd((66, 34), 8, seed=11)
        dense = bpd.to_dense()
        rng = np.random.default_rng(12)
        x = rng.normal(size=(3, 34))
        np.testing.assert_allclose(bpd.matmat(x), x @ dense.T, atol=1e-10)


def _decode(matrix):
    """``matrix`` rebuilt from what artifacts store: ``q`` plus ``ks``."""
    return BlockPermutedDiagonalMatrix.from_q(
        matrix.to_q(), matrix.shape, matrix.p, matrix.ks
    )


def _warm(plan):
    """Build every lazy member of ``plan``."""
    plan.support_coords()
    plan.transpose_arrays()
    plan.csr_struct(False)
    plan.csr_struct(True)
    return plan


class TestDecodedPlans:
    """Artifacts store no index state: a decoded matrix derives its plan
    from ``ks``, once, and that plan equals the one it was saved from."""

    def test_decoded_plan_equals_the_original_in_every_array(self):
        bpd = _random_bpd((13, 10), 4, seed=13)
        plan = _warm(bpd._get_plan())
        clone = _warm(_decode(bpd)._get_plan())
        assert clone is not plan
        assert clone.shape == plan.shape
        assert clone.p == plan.p and clone.nnz == plan.nnz
        assert (clone.mb, clone.nb) == (plan.mb, plan.nb)
        assert clone.full_support == plan.full_support
        np.testing.assert_array_equal(clone.ks, plan.ks)
        np.testing.assert_array_equal(clone.rows, plan.rows)
        np.testing.assert_array_equal(clone.cols, plan.cols)
        np.testing.assert_array_equal(clone.support, plan.support)
        for a, b in zip(clone.transpose_arrays(), plan.transpose_arrays()):
            np.testing.assert_array_equal(a, b)
        for a, b in zip(clone.support_coords(), plan.support_coords()):
            np.testing.assert_array_equal(a, b)
        for transposed in (False, True):
            for a, b in zip(
                clone.csr_struct(transposed), plan.csr_struct(transposed)
            ):
                np.testing.assert_array_equal(a, b)
                assert a.dtype == b.dtype

    def test_decoded_plan_arrays_are_read_only(self):
        plan = _warm(_decode(_random_bpd((13, 10), 4, seed=14))._get_plan())
        arrays = [plan.rows, plan.cols, plan.support, plan.ks]
        arrays += [*plan.transpose_arrays(), *plan.support_coords()]
        arrays += [*plan.csr_struct(False), *plan.csr_struct(True)]
        for arr in arrays:
            with pytest.raises(ValueError):
                arr[...] = 0

    def test_decoded_matrix_derives_its_plan_on_first_use(self):
        """Nothing is built at decode time for an unpadded shape, and a
        forward product builds only the forward members."""
        clone = _decode(_random_bpd((16, 12), 4, seed=15))
        assert clone._plan is None
        clone.matmat(np.ones((2, 12)))
        plan = clone._plan
        assert plan is not None
        assert plan._t_arrays is None
        assert set(plan._csr_structs) == {False}

    def test_decoded_matrix_builds_its_plan_once(self, monkeypatch):
        bpd = _random_bpd((13, 10), 4, seed=16)
        dense = bpd.to_dense()
        builds = []
        init = mod._IndexPlan.__init__

        def counting_init(self, *args, **kwargs):
            builds.append(args)
            init(self, *args, **kwargs)

        monkeypatch.setattr(mod._IndexPlan, "__init__", counting_init)
        clone = _decode(bpd)
        rng = np.random.default_rng(17)
        x = rng.normal(size=(3, 10))
        y = rng.normal(size=(3, 13))
        for _ in range(2):
            np.testing.assert_allclose(clone.matmat(x), x @ dense.T, atol=1e-10)
            np.testing.assert_allclose(clone.rmatmat(y), y @ dense, atol=1e-10)
            np.testing.assert_array_equal(
                clone.grad_data(x, y), bpd.grad_data(x, y)
            )
        assert len(builds) == 1

    def test_from_q_rejects_structure_that_does_not_fit(self):
        bpd = _random_bpd((13, 10), 4, seed=18)
        q, ks = bpd.to_q(), bpd.ks
        with pytest.raises(ValueError, match="entries"):
            BlockPermutedDiagonalMatrix.from_q(q, bpd.shape, 2, ks)
        with pytest.raises(ValueError, match="entries"):
            BlockPermutedDiagonalMatrix.from_q(q[:-1], bpd.shape, 4, ks)
        with pytest.raises(ValueError):
            BlockPermutedDiagonalMatrix.from_q(q, bpd.shape, 4, ks[:, :1])


def _lexsort_skeleton(plan, transposed):
    """Reference skeleton: every in-bounds slot, sorted by ``lexsort``
    on (row, column)."""
    flat, rows, cols = plan.support_coords()
    if transposed:
        rows, cols, height = cols, rows, plan.shape[1]
    else:
        height = plan.shape[0]
    order = np.lexsort((cols, rows))
    indptr = np.zeros(height + 1, dtype=np.int32)
    indptr[1:] = np.cumsum(np.bincount(rows, minlength=height))
    return (
        indptr,
        cols[order].astype(np.int32),
        flat[order].astype(np.intp),
    )


class TestSkeletonOrder:
    """scipy accumulates a CSR row in ``indices`` order, so bit-exact
    serving depends on every row listing its non-zeros in ascending
    column order.  Sharded-vs-unsharded suites cannot see an order change
    (both sides share the skeleton code); this pins it to a sort."""

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(1, 9),  # p
        st.integers(1, 6),  # mb
        st.integers(1, 6),  # nb
        st.integers(0, 8),  # m padding (clamped below p)
        st.integers(0, 8),  # n padding (clamped below p)
        st.integers(0, 4),  # row shards (0: unsharded)
        st.booleans(),  # shards slice the parent's transposed arrays
        st.booleans(),  # transposed skeleton
        st.integers(0, 2**16),  # seed
    )
    def test_csr_struct_matches_sorted_reference(
        self, p, mb, nb, m_pad, n_pad, num_shards, sliced, transposed, seed
    ):
        m = mb * p - min(m_pad, p - 1)
        n = nb * p - min(n_pad, p - 1)
        matrix = _random_bpd((m, n), p, seed=seed)
        parts = [matrix]
        if num_shards:
            if sliced:
                matrix._get_plan().transpose_arrays()
            parts = matrix.row_shards(min(num_shards, matrix.mb))
        for part in parts:
            plan = part._get_plan()
            got = plan.csr_struct(transposed)
            for have, want in zip(got, _lexsort_skeleton(plan, transposed)):
                assert have.dtype == want.dtype
                np.testing.assert_array_equal(have, want)
            assert part._csr(transposed).has_canonical_format
