"""The product kernel (:mod:`repro.core.kernel`): products against the
dense reference, cache-blocked gradient paths, CSR views that alias the
plan's int32 columns and the stored values and list every row in the
sorted order scipy accumulates in, and the index plans a matrix decoded
from its stored form derives from ``ks``."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
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
        """Random ``ks`` take the gather path, natural ``ks`` the PBD
        GEMMs; on both, padding slots get exactly zero gradient from the
        zero-padded operands alone."""
        for scheme in ("random", "natural"):
            bpd = _random_bpd(shape, p, seed=5, scheme=scheme)
            rng = np.random.default_rng(6)
            x = rng.normal(size=(4, shape[1]))
            dy = rng.normal(size=(4, shape[0]))
            reference = BlockPermutedDiagonalMatrix.from_dense(
                (dy.T @ x) * bpd.dense_mask(), p, ks=bpd.ks
            ).data
            grad = bpd.grad_data(x, dy)
            np.testing.assert_allclose(grad, reference, atol=1e-10)
            assert not np.any(grad[~bpd.support_mask()])

    @pytest.mark.parametrize("shape,p", SHAPES)
    def test_chunked_transposed_paths_match_dense(
        self, shape, p, monkeypatch
    ):
        """Force one block row per slab in the non-additive weight
        gradient and re-check every product against the dense
        reference."""
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
        grad = bpd.grad_data(x, dy)
        np.testing.assert_allclose(grad, reference, atol=1e-10)
        assert not np.any(grad[~bpd.support_mask()])


@settings(max_examples=60, deadline=None)
@given(
    p=st.integers(2, 9),
    blocks=st.tuples(st.integers(2, 6), st.integers(2, 6)),
    trim=st.tuples(st.integers(0, 8), st.integers(0, 8)),
    batch=st.integers(1, 8),
    value_dtype=st.sampled_from(["float64", "float32", "int16"]),
    seed=st.integers(0, 2**16),
)
def test_slab_size_leaves_non_additive_gradients_bit_identical(
    p, blocks, trim, batch, value_dtype, seed
):
    """The non-additive weight gradient is one gather-and-einsum per
    block-row slab, summing over the batch only: one block row per slab
    gives the bits of the default slabs (one slab for these sizes)."""
    shape = tuple(b * p - min(t, p - 1) for b, t in zip(blocks, trim))
    matrix = BlockPermutedDiagonalMatrix.random(
        shape, p, spec=PermutationSpec(scheme="random", seed=seed),
        rng=seed, value_dtype=value_dtype,
    )
    assume(matrix._get_plan().pbd_index() is None)
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(batch, shape[1])).astype(matrix.compute_dtype)
    dy = rng.normal(size=(batch, shape[0])).astype(matrix.compute_dtype)
    default = matrix.grad_data(x, dy)
    with mock.patch.object(kernel_mod, "_CHUNK_TARGET_ELEMENTS", 1):
        np.testing.assert_array_equal(matrix.grad_data(x, dy), default)


def test_environment_selects_no_kernel(monkeypatch):
    """``REPRO_BACKEND`` is not read: a value left over from an older
    setup, even one naming no kernel, changes no product."""
    bpd = _random_bpd((13, 10), 4, seed=19)
    x = np.random.default_rng(20).normal(size=(3, 10))
    before = bpd.matmat(x)
    for name in ("numba", "bogus"):
        monkeypatch.setenv("REPRO_BACKEND", name)
        np.testing.assert_array_equal(bpd.matmat(x), before)


@st.composite
def _drawn_matrix(draw):
    """A drawn matrix -- padded shapes, both ``ks`` schemes, every value
    dtype -- and the parts its products run on: itself, or its row
    shards."""
    p = draw(st.integers(1, 9))
    m = draw(st.integers(1, 6)) * p - draw(st.integers(0, p - 1))
    n = draw(st.integers(1, 6)) * p - draw(st.integers(0, p - 1))
    seed = draw(st.integers(0, 2**16))
    matrix = BlockPermutedDiagonalMatrix.random(
        (m, n), p,
        spec=PermutationSpec(
            scheme=draw(st.sampled_from(["natural", "random"])), seed=seed
        ),
        rng=seed,
        value_dtype=draw(st.sampled_from(["float64", "float32", "int16"])),
    )
    num_shards = draw(st.integers(0, 4))  # 0: unsharded
    if num_shards:
        return matrix, matrix.row_shards(min(num_shards, matrix.mb))
    return matrix, [matrix]


def _view_coordinates(view):
    """``(rows, cols)`` of a CSR or CSC view's slots, in the storage
    order scipy accumulates them in."""
    major = np.repeat(np.arange(view.indptr.size - 1), np.diff(view.indptr))
    if view.format == "csr":
        return major, view.indices
    return view.indices, major


class TestCSRViews:
    """The products' only index structure is the plan's own columns: the
    CSR views (and their CSC transposes) alias them (and float storage)
    under a constant-stride ``indptr``, keep every row and column in the
    sorted order scipy accumulates in, and read the values current at
    each call."""

    @settings(max_examples=60, deadline=None)
    @given(_drawn_matrix())
    def test_storage_order_sorts_every_row_and_column(self, drawn):
        """scipy accumulates a CSR (CSC) product in storage order, so
        bit-exact serving depends on each row's in-bounds columns, and
        each column's rows (the ``W.T`` view), appearing strictly
        ascending."""
        for part in drawn[1]:
            m, n = part.shape
            for transposed in (False, True):
                view = part._csr(transposed)
                assert view.format == ("csc" if transposed else "csr")
                np.testing.assert_array_equal(
                    view.indptr,
                    np.arange(0, part.data.size + 1, part.nb),
                )
                rows, cols = _view_coordinates(view)
                height, width = (n, m) if transposed else (m, n)
                keep = (rows < height) & (cols < width)
                assert keep.sum() == part.nnz
                rows, cols = rows[keep], cols[keep]
                order = np.lexsort((np.arange(rows.size), rows))
                same_row = rows[order][1:] == rows[order][:-1]
                assert np.all(np.diff(cols[order])[same_row] > 0)

    @settings(max_examples=60, deadline=None)
    @given(_drawn_matrix())
    def test_views_alias_the_plan_columns_and_float_values(self, drawn):
        for part in drawn[1]:
            plan = part._get_plan()
            assert not hasattr(plan, "rows")
            assert plan.cols.dtype == np.int32
            for transposed in (False, True):
                view = part._csr(transposed)
                assert np.shares_memory(view.indices, plan.cols)
                assert view.indptr.dtype == plan.cols.dtype
                with pytest.raises(ValueError):
                    view.indices[...] = 0
                if part.value_dtype != "int16":
                    assert np.shares_memory(view.data, part.data)

    @settings(max_examples=60, deadline=None)
    @given(_drawn_matrix())
    def test_value_writes_reach_the_next_product_without_a_new_view(
        self, drawn
    ):
        """After an in-place write (through the matrix that owns the
        buffer), and after a part's ``data`` is reassigned, the next
        ``matmat`` / ``rmatmat`` -- and the ``W.T`` view, which additive
        ``ks`` leave to the PBD backward -- are the dense products of the
        new values, and no view is rebuilt."""
        from repro.debug import sanitize

        matrix, parts = drawn
        rng = np.random.default_rng(matrix.nnz)
        tol = 1e-4 if matrix.value_dtype == "float32" else 1e-10

        def new_values(data, support):
            # int16 codes are halved so the shift stays in range.
            scaled = data // 2 if data.dtype == np.int16 else data * 2
            return scaled + support.astype(data.dtype)

        def check(part, x, y):
            dense = part.to_dense()
            np.testing.assert_allclose(
                part.matmat(x), x @ dense.T, atol=tol, rtol=tol
            )
            np.testing.assert_allclose(
                part.rmatmat(y), y @ dense, atol=tol, rtol=tol
            )
            y_t = np.zeros((part.mb * part.p, y.shape[0]), dtype=y.dtype)
            y_t[: part.shape[0]] = y.T
            out = part._csr(True) @ y_t
            np.testing.assert_allclose(
                out[: part.shape[1]].T, y @ dense, atol=tol, rtol=tol
            )

        inputs = []
        for part in parts:
            x = rng.normal(size=(3, part.shape[1])).astype(part.compute_dtype)
            y = rng.normal(size=(3, part.shape[0])).astype(part.compute_dtype)
            part.matmat(x), part.rmatmat(y), part._csr(True)
            inputs.append((x, y))
        with sanitize() as s:
            matrix.data[...] = new_values(matrix.data, matrix.support_mask())
            for part, (x, y) in zip(parts, inputs):
                check(part, x, y)
            for part, (x, y) in zip(parts, inputs):
                part.data = new_values(part.data, part.support_mask())
                check(part, x, y)
            assert s.stats.skeleton_builds == 0

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
    plan.pbd_index()
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
        np.testing.assert_array_equal(clone.cols, plan.cols)
        assert clone.cols.dtype == plan.cols.dtype
        np.testing.assert_array_equal(clone.support, plan.support)
        for a, b in zip(clone.support_coords(), plan.support_coords()):
            np.testing.assert_array_equal(a, b)
        assert (clone.pbd_index() is None) == (plan.pbd_index() is None)

    def test_decoded_plan_arrays_are_read_only(self):
        clone = _decode(_random_bpd((13, 10), 4, seed=14))
        plan = _warm(clone._get_plan())
        arrays = [plan.cols, plan.support, plan.ks]
        arrays += [*plan.support_coords()]
        for transposed in (False, True):
            arrays.append(clone._csr(transposed).indices)
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
        assert plan._support_coords is None and not plan._pbd_derived
        assert set(clone._csr_cache) == {False}

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
