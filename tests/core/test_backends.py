"""Backend dispatch: registry, process-wide selection, cross-backend
equivalence, cache-blocked paths, int32 CSR skeletons, and plan
serialization round trips."""

import numpy as np
import pytest

import repro.core.backends as backends
import repro.core.backends.csr as csr_mod
import repro.core.block_perm_diag as mod
from repro.core import (
    BackendUnavailableError,
    BlockPermutedDiagonalMatrix,
    PermutationSpec,
    UnknownBackendError,
    available_backends,
    default_backend,
    get_backend,
    set_default_backend,
)

# Shapes covering aligned, row-padded and fully padded structures.
SHAPES = [((16, 16), 4), ((13, 10), 4), ((7, 9), 3)]


def _random_bpd(shape, p, seed=0, scheme="random"):
    return BlockPermutedDiagonalMatrix.random(
        shape,
        p,
        spec=PermutationSpec(scheme=scheme, seed=seed),
        rng=seed,
    )


class TestRegistry:
    def test_csr_always_available_numba_optional(self):
        assert backends.backend_names() == ("csr", "numba")
        assert available_backends()[0] == "csr"

    def test_unknown_backend_rejected(self):
        with pytest.raises(UnknownBackendError):
            get_backend("bogus")
        with pytest.raises(UnknownBackendError):
            set_default_backend("bogus")

    def test_get_backend_is_singleton(self):
        assert get_backend("csr") is get_backend("csr")

    def test_numba_backend_gated_on_import(self):
        from repro.core.backends.numba_backend import NumbaBackend, _numba

        assert NumbaBackend.is_available() == (_numba is not None)
        if _numba is None:
            with pytest.raises(BackendUnavailableError):
                get_backend("numba")


class TestSelection:
    def test_auto_resolves_to_csr(self, monkeypatch):
        monkeypatch.delenv("REPRO_BACKEND", raising=False)
        bpd = _random_bpd((8, 8), 4)
        assert bpd.resolved_backend() == "csr"

    def test_set_default_backend_applies_and_validates(self):
        set_default_backend("csr")
        assert default_backend() == "csr"
        assert _random_bpd((8, 8), 4).resolved_backend() == "csr"
        with pytest.raises(UnknownBackendError):
            set_default_backend("bogus")

    def test_env_var_consulted_until_default_pinned(self, monkeypatch):
        monkeypatch.setenv("REPRO_BACKEND", "csr")
        assert default_backend() == "csr"
        assert _random_bpd((8, 8), 4).resolved_backend() == "csr"
        set_default_backend("auto")
        assert default_backend() == "auto"

    def test_bad_env_var_fails_with_clear_error(self, monkeypatch):
        monkeypatch.setenv("REPRO_BACKEND", "bogus")
        with pytest.raises(UnknownBackendError, match="REPRO_BACKEND|bogus"):
            _random_bpd((8, 8), 4).matvec(np.zeros(8))

    @pytest.mark.skipif(
        "numba" in available_backends(), reason="numba is installed"
    )
    def test_unavailable_env_backend_fails_at_use(self, monkeypatch):
        monkeypatch.setenv("REPRO_BACKEND", "numba")
        with pytest.raises(BackendUnavailableError):
            _random_bpd((8, 8), 4).matvec(np.zeros(8))


class TestCrossBackendEquivalence:
    """Same matrix, every available backend: products agree to 1e-10."""

    @pytest.mark.parametrize("shape,p", SHAPES)
    def test_products_match_dense_on_every_backend(self, shape, p):
        bpd = _random_bpd(shape, p, seed=3)
        dense = bpd.to_dense()
        rng = np.random.default_rng(4)
        x = rng.normal(size=(5, shape[1]))
        y = rng.normal(size=(5, shape[0]))
        for name in available_backends():
            set_default_backend(name)
            np.testing.assert_allclose(
                bpd.matmat(x), x @ dense.T, atol=1e-10, err_msg=name
            )
            np.testing.assert_allclose(
                bpd.rmatmat(y), y @ dense, atol=1e-10, err_msg=name
            )
            np.testing.assert_allclose(
                bpd.matvec(x[0]), dense @ x[0], atol=1e-10, err_msg=name
            )
            np.testing.assert_allclose(
                bpd.rmatvec(y[0]), dense.T @ y[0], atol=1e-10, err_msg=name
            )

    @pytest.mark.parametrize("shape,p", SHAPES)
    def test_grad_data_agrees_across_backends(self, shape, p):
        bpd = _random_bpd(shape, p, seed=5)
        rng = np.random.default_rng(6)
        x = rng.normal(size=(4, shape[1]))
        dy = rng.normal(size=(4, shape[0]))
        reference = BlockPermutedDiagonalMatrix.from_dense(
            (dy.T @ x) * bpd.dense_mask(), p, ks=bpd.ks
        ).data
        for name in available_backends():
            set_default_backend(name)
            np.testing.assert_allclose(
                bpd.grad_data(x, dy), reference, atol=1e-10, err_msg=name
            )

    @pytest.mark.parametrize("shape,p", SHAPES)
    def test_chunked_transposed_paths_match_dense(
        self, shape, p, monkeypatch
    ):
        """Force the cache-blocked path (one block row per slab) of the
        batched weight gradient and re-check every product against the
        dense reference."""
        monkeypatch.setattr(csr_mod, "_ONESHOT_LIMIT_ELEMENTS", 0)
        monkeypatch.setattr(csr_mod, "_CHUNK_TARGET_ELEMENTS", 1)
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

    def test_backend_switch_keeps_plan_and_values(self):
        bpd = _random_bpd((12, 8), 4, seed=9)
        plan = bpd._get_plan()
        x = np.random.default_rng(10).normal(size=(2, 8))
        set_default_backend("csr")
        before = bpd.matmat(x)
        set_default_backend(available_backends()[-1])
        after = bpd.matmat(x)
        np.testing.assert_allclose(after, before, atol=1e-12)
        assert bpd._get_plan() is plan


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


class TestPlanSerialization:
    def test_round_trip_restores_every_array(self):
        bpd = _random_bpd((13, 10), 4, seed=13)
        plan = bpd._get_plan().warm()
        clone = mod._IndexPlan.from_bytes(plan.to_bytes())
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

    def test_restored_arrays_are_read_only(self):
        bpd = _random_bpd((13, 10), 4, seed=14)
        clone = mod._IndexPlan.from_bytes(bpd.plan_bytes())
        for arr in (clone.rows, clone.cols, clone.support, clone.ks):
            with pytest.raises(ValueError):
                arr[...] = 0

    def test_cold_plan_serializes_without_lazy_members(self):
        bpd = _random_bpd((13, 10), 4, seed=15)
        blob = bpd.plan_bytes(warm=False)
        clone = mod._IndexPlan.from_bytes(blob)
        assert clone._t_arrays is None
        assert clone._csr_structs == {}
        assert len(blob) < len(bpd.plan_bytes(warm=True))

    def test_from_plan_runs_products_without_rebuild(self, monkeypatch):
        bpd = _random_bpd((13, 10), 4, seed=16)
        dense = bpd.to_dense()
        blob = bpd.plan_bytes()
        values = bpd.data.copy()

        def boom(*args, **kwargs):
            raise AssertionError("index plan was rebuilt")

        monkeypatch.setattr(mod._IndexPlan, "__init__", boom)
        clone = BlockPermutedDiagonalMatrix.from_plan(blob, values)
        rng = np.random.default_rng(17)
        x = rng.normal(size=(3, 10))
        y = rng.normal(size=(3, 13))
        np.testing.assert_allclose(clone.matmat(x), x @ dense.T, atol=1e-10)
        np.testing.assert_allclose(clone.rmatmat(y), y @ dense, atol=1e-10)
        np.testing.assert_allclose(
            clone.grad_data(x, y),
            bpd.grad_data(x, y),
            atol=1e-10,
        )

    def test_adopt_plan_accepts_matching_structure(self):
        bpd = _random_bpd((13, 10), 4, seed=18)
        blob = bpd.plan_bytes()
        other = BlockPermutedDiagonalMatrix(bpd.data, bpd.ks, shape=bpd.shape)
        old_plan = other._get_plan()
        other.adopt_plan(blob)
        assert other._get_plan() is not old_plan
        x = np.random.default_rng(19).normal(size=(2, 10))
        np.testing.assert_allclose(
            other.matmat(x), x @ bpd.to_dense().T, atol=1e-10
        )

    def test_adopt_plan_rejects_structure_mismatch(self):
        bpd = _random_bpd((13, 10), 4, seed=20)
        blob = bpd.plan_bytes()
        other = _random_bpd((13, 10), 4, seed=21)  # different random ks
        if np.array_equal(other.ks, bpd.ks):  # pragma: no cover - seed guard
            pytest.skip("seeds produced identical structure")
        with pytest.raises(ValueError):
            other.adopt_plan(blob)
        wrong_p = _random_bpd((13, 10), 2, seed=20)
        with pytest.raises(ValueError):
            wrong_p.adopt_plan(blob)

    def test_from_bytes_rejects_unknown_version(self):
        bpd = _random_bpd((8, 8), 4, seed=22)
        blob = bpd.plan_bytes()
        import io

        with np.load(io.BytesIO(blob)) as archive:
            payload = {key: archive[key] for key in archive.files}
        payload["version"] = np.int64(999)
        buffer = io.BytesIO()
        np.savez(buffer, **payload)
        with pytest.raises(ValueError, match="version"):
            mod._IndexPlan.from_bytes(buffer.getvalue())

    def test_storage_save_bpd_round_trips_plan(self, tmp_path):
        from repro.core import load_bpd, save_bpd

        bpd = _random_bpd((13, 10), 4, seed=23)
        path = str(tmp_path / "matrix.npz")
        save_bpd(path, bpd, include_plan=True)
        loaded = load_bpd(path)
        np.testing.assert_allclose(loaded.to_dense(), bpd.to_dense())
        assert loaded._plan is not None  # plan attached, not recomputed lazily
