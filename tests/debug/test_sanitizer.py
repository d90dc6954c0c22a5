"""Tests for the runtime aliasing/plan-cache sanitizer."""

import numpy as np
import pytest

from repro.core.block_perm_diag import BlockPermutedDiagonalMatrix, _IndexPlan
from repro.debug import (
    AliasingViolationError,
    PlanRebuildError,
    current_sanitizer,
    sanitize,
    sanitize_enabled,
)


def _matrix(seed=0, blocks=(4, 3), p=4):
    rng = np.random.default_rng(seed)
    ks = rng.integers(0, p, size=blocks)
    data = rng.standard_normal((blocks[0], p, blocks[1]))
    return BlockPermutedDiagonalMatrix(data, ks)


class TestPlanCounting:
    def test_first_build_is_not_a_rebuild(self):
        m = _matrix()
        with sanitize() as s:
            m.matmat(np.zeros((2, m.shape[1])))
            assert s.stats.plan_builds == 1
            assert s.stats.plan_rebuilds == 0
            s.assert_no_plan_rebuild()

    def test_repeat_products_hit_the_cache(self):
        m = _matrix()
        x = np.zeros((2, m.shape[1]))
        with sanitize() as s:
            for _ in range(5):
                m.matmat(x)
            assert s.stats.plan_builds == 1

    def test_clobbered_plan_counts_as_rebuild(self):
        m = _matrix()
        with sanitize() as s:
            m.matmat(np.zeros((2, m.shape[1])))
            m._plan = None  # what RPR001 forbids outside core/
            m.matmat(np.zeros((2, m.shape[1])))
            assert s.stats.plan_rebuilds == 1
            with pytest.raises(PlanRebuildError, match="rebuild"):
                s.assert_no_plan_rebuild()

    def test_build_before_sanitizer_still_counts_as_rebuild(self):
        m = _matrix()
        m.matmat(np.zeros((2, m.shape[1])))  # plan built unwatched
        with sanitize() as s:
            m.matmat(np.zeros((2, m.shape[1])))  # marks "has built"
            m._plan = None
            m.matmat(np.zeros((2, m.shape[1])))
            assert s.stats.plan_rebuilds == 1

    def test_decoded_matrix_counts_one_plan_build(self):
        """A matrix decoded from its stored form (``q`` plus ``ks``)
        derives its plan once -- at decode time for a padded shape, whose
        padding check needs the support -- and every product reuses it."""
        full = _matrix()
        m = BlockPermutedDiagonalMatrix(full.data, full.ks, shape=(15, 10))
        with sanitize() as s:
            clone = BlockPermutedDiagonalMatrix.from_q(
                m.to_q(), m.shape, m.p, m.ks
            )
            clone.matmat(np.zeros((2, clone.shape[1])))
            clone.rmatmat(np.zeros((2, clone.shape[0])))
            assert s.stats.plan_builds == 1
            assert s.stats.plan_rebuilds == 0

    def test_shared_plans_count_once_per_family(self):
        m = _matrix()
        with sanitize() as s:
            siblings = [m.like(m.data * i) for i in range(1, 4)]
            x = np.zeros((2, m.shape[1]))
            for sib in siblings:
                sib.matmat(x)
            assert s.stats.plan_builds == 1


class TestSkeletonCounting:
    def test_fc_server_builds_skeletons_on_first_drain_only(self):
        """Two PD FC layers at two shards: each shard builds its forward
        CSR view on the first drain (4 builds) and reuses it after."""
        from repro.nn import PermDiagLinear, ReLU, Sequential
        from repro.serve import ModelServer

        model = Sequential(
            PermDiagLinear(48, 64, p=4, rng=0),
            ReLU(),
            PermDiagLinear(64, 32, p=4, rng=1),
        )
        xs = np.random.default_rng(2).normal(size=(4, 48))
        with sanitize() as s:
            server = ModelServer.from_model(model, num_shards=2)
            server.submit_many(xs)
            server.drain()
            assert s.stats.skeleton_builds == 4
            server.submit_many(xs)
            server.drain()
            assert s.stats.skeleton_builds == 4

    def test_decoded_matrix_builds_each_skeleton_once(self):
        m = _matrix()
        clone = BlockPermutedDiagonalMatrix.from_q(
            m.to_q(), m.shape, m.p, m.ks
        )
        with sanitize() as s:
            for _ in range(2):
                clone.matmat(np.zeros((2, clone.shape[1])))
                clone.rmatmat(np.zeros((2, clone.shape[0])))
            assert s.stats.skeleton_builds == 2

    def test_csr_patch_undone_on_exit(self):
        before = BlockPermutedDiagonalMatrix._csr
        with sanitize():
            assert BlockPermutedDiagonalMatrix._csr is not before
        assert BlockPermutedDiagonalMatrix._csr is before


def _slot_matrices(server):
    return [
        matrix
        for stage in server.layers
        for slots in stage.shard_slots
        for matrix in slots
    ]


class TestPBDCounting:
    """PBD index builds: at most one per whole matrix.  The forward asks
    for one only at or above the kernel's width crossover, so a drain of
    test-sized matrices stays on CSR unless ``force_pbd`` lowers it."""

    def test_backward_builds_one_pbd_index_and_no_transposed_skeleton(self):
        m = BlockPermutedDiagonalMatrix.random((13, 10), 4, rng=0)
        rng = np.random.default_rng(1)
        x, dy = rng.normal(size=(3, 10)), rng.normal(size=(3, 13))
        with sanitize() as s:
            for _ in range(2):
                m.rmatmat(dy)
                m.rmatvec(dy[0])
                m.grad_data(x, dy)
            assert s.stats.pbd_builds == 1
            assert s.stats.skeleton_builds == 0
            m.matmat(x)
            assert s.stats.skeleton_builds == 1

    def test_non_additive_check_counts_once(self):
        m = _matrix()  # random ks on 4x3 blocks: not additive
        with sanitize() as s:
            for _ in range(2):
                m.rmatmat(np.zeros((2, m.shape[0])))
            assert m._get_plan().pbd_index() is None
            assert s.stats.pbd_builds == 1
            assert s.stats.skeleton_builds == 1

    def test_shards_slice_their_parents_pbd_index(self):
        """A shard's index is its whole matrix's, sliced: one build,
        whichever of them asks first."""
        for parent_first in (True, False):
            m = BlockPermutedDiagonalMatrix.random((16, 12), 4, rng=0)
            with sanitize() as s:
                shards = m.row_shards(2)
                if parent_first:
                    m.rmatmat(np.zeros((2, 16)))
                for shard in shards:
                    shard.rmatmat(np.zeros((2, shard.shape[0])))
                assert s.stats.pbd_builds == 1

    def test_from_model_drain_stays_on_csr(self):
        from repro.nn import LSTMCell, PermDiagLinear, ReLU, Sequential
        from repro.serve import ModelServer

        fc = Sequential(
            PermDiagLinear(48, 64, p=4, rng=0),
            ReLU(),
            PermDiagLinear(64, 32, p=4, rng=1),
        )
        cell = LSTMCell(6, 16, p=2, rng=0)
        rng = np.random.default_rng(2)
        for model, width in ((fc, 48), (cell, 6 + 32)):
            with sanitize() as s:
                server = ModelServer.from_model(model, num_shards=2)
                server.submit_many(rng.normal(size=(4, width)))
                server.drain()
                matrices = _slot_matrices(server)
                assert s.stats.pbd_builds == 0
                assert s.stats.skeleton_builds == len(matrices)
                assert all(set(m._csr_cache) == {False} for m in matrices)

    def test_from_bundle_drain_stays_on_csr(self, tmp_path):
        from repro.nn import PermDiagLinear, ReLU, Sequential
        from repro.serve import ModelServer, export_model_bundle

        model = Sequential(
            PermDiagLinear(48, 64, p=4, rng=0),
            ReLU(),
            PermDiagLinear(64, 32, p=4, rng=1),
        )
        export_model_bundle(tmp_path, model, num_shards=2)
        with sanitize() as s:
            server = ModelServer.from_bundle(tmp_path, max_batch_size=4)
            server.submit_many(np.random.default_rng(3).normal(size=(4, 48)))
            server.drain()
            matrices = _slot_matrices(server)
            assert s.stats.pbd_builds == 0
            assert s.stats.skeleton_builds == len(matrices)
            assert all(set(m._csr_cache) == {False} for m in matrices)

    @pytest.mark.usefixtures("force_pbd")
    def test_drain_above_the_crossover_leaves_csr(self, tmp_path):
        """Each slot's whole matrix builds one PBD index, which its
        shards slice; no shard builds a CSR view."""
        from repro.nn import PermDiagLinear, ReLU, Sequential
        from repro.serve import ModelServer, export_model_bundle

        model = Sequential(
            PermDiagLinear(48, 64, p=4, rng=0),
            ReLU(),
            PermDiagLinear(64, 32, p=4, rng=1),
        )
        export_model_bundle(tmp_path, model, num_shards=2)
        xs = np.random.default_rng(3).normal(size=(4, 48))
        for boot in (
            lambda: ModelServer.from_model(model, num_shards=2),
            lambda: ModelServer.from_bundle(tmp_path),
        ):
            with sanitize() as s:
                server = boot()
                server.submit_many(xs)
                server.drain()
                assert s.stats.pbd_builds == 2
                assert s.stats.skeleton_builds == 0

    def test_pbd_index_patch_undone_on_exit(self):
        before = _IndexPlan.pbd_index
        with sanitize():
            assert _IndexPlan.pbd_index is not before
        assert _IndexPlan.pbd_index is before


class TestShardAliasing:
    def test_shards_verified_and_frozen(self):
        m = _matrix()
        with sanitize() as s:
            shards = m.row_shards(2)
            assert s.stats.shard_checks == 2
            assert s.stats.frozen_buffers == 2
            for shard in shards:
                assert np.shares_memory(shard.data, m.data)
                with pytest.raises(ValueError):
                    shard.data[0, 0, 0] = 1.0
            # writes through the parent stay visible in every shard
            m.data[0, 0, 0] = 42.0
            assert shards[0].data[0, 0, 0] == 42.0
        # This scope's freeze is undone on exit.  Under REPRO_SANITIZE=1
        # the autouse fixture holds an *outer* sanitizer whose own freeze
        # (applied when the inner wrapper chained to it) stays until
        # teardown -- so "restored" means writable only with no outer scope.
        expect_writable = current_sanitizer() is None
        for shard in shards:
            assert shard.data.flags.writeable == expect_writable

    def test_copying_row_shard_raises(self, monkeypatch):
        m = _matrix()
        orig = BlockPermutedDiagonalMatrix.row_shard

        def copying_row_shard(self, start, stop):
            out = orig(self, start, stop)
            out.data = np.array(out.data)  # decouple: breaks the contract
            return out

        monkeypatch.setattr(
            BlockPermutedDiagonalMatrix, "row_shard", copying_row_shard
        )
        with sanitize():
            with pytest.raises(AliasingViolationError, match="copy"):
                m.row_shard(0, 2)

    def test_assert_aliases_helper(self):
        a = np.zeros(4)
        with sanitize() as s:
            s.assert_aliases(a, a[1:], "slice of a")
            with pytest.raises(AliasingViolationError, match="widget"):
                s.assert_aliases(a, np.zeros(4), "widget")

    def test_products_unaffected_by_freezing(self):
        m = _matrix(seed=3)
        x = np.random.default_rng(4).standard_normal((5, m.shape[1]))
        expected = m.matmat(x)
        with sanitize():
            shards = m.row_shards(2)
            stacked = np.hstack([shard.matmat(x) for shard in shards])
        np.testing.assert_array_equal(stacked, expected)


class TestScopes:
    def test_patches_undone_on_exit(self):
        before_plan = BlockPermutedDiagonalMatrix._get_plan
        before_shard = BlockPermutedDiagonalMatrix.row_shard
        with sanitize():
            assert BlockPermutedDiagonalMatrix._get_plan is not before_plan
            assert BlockPermutedDiagonalMatrix.row_shard is not before_shard
        assert BlockPermutedDiagonalMatrix._get_plan is before_plan
        assert BlockPermutedDiagonalMatrix.row_shard is before_shard

    def test_patches_undone_on_exception(self):
        before = BlockPermutedDiagonalMatrix._get_plan
        with pytest.raises(RuntimeError, match="boom"):
            with sanitize():
                raise RuntimeError("boom")
        assert BlockPermutedDiagonalMatrix._get_plan is before

    def test_nested_scopes_both_count(self):
        m = _matrix()
        with sanitize() as outer:
            with sanitize() as inner:
                assert current_sanitizer() is inner
                m.row_shards(2)
                assert inner.stats.shard_checks == 2
            assert current_sanitizer() is outer
            assert outer.stats.shard_checks == 2

    def test_current_sanitizer_outside_any_scope(self):
        # The REPRO_SANITIZE=1 autouse fixture may hold an outer scope;
        # relative depth is what this asserts.
        baseline = current_sanitizer()
        with sanitize() as s:
            assert current_sanitizer() is s
        assert current_sanitizer() is baseline

    def test_env_flag(self, monkeypatch):
        monkeypatch.setenv("REPRO_SANITIZE", "1")
        assert sanitize_enabled()
        monkeypatch.setenv("REPRO_SANITIZE", "0")
        assert not sanitize_enabled()
        monkeypatch.delenv("REPRO_SANITIZE")
        assert not sanitize_enabled()
