"""Tests for model checkpointing."""

import numpy as np
import pytest

from repro.core import PermutationSpec
from repro.nn import Linear, PermDiagLinear, ReLU, Sequential
from repro.nn.serialization import load_model, save_model


class TestCheckpointing:
    def _model(self, seed=0):
        return Sequential(
            PermDiagLinear(16, 32, p=4, rng=seed),
            ReLU(),
            Linear(32, 4, rng=seed + 1),
        )

    def test_round_trip_preserves_outputs(self, tmp_path):
        model = self._model(seed=0)
        path = str(tmp_path / "ckpt.npz")
        save_model(path, model)
        clone = self._model(seed=99)  # different init
        load_model(path, clone)
        x = np.random.default_rng(3).normal(size=(4, 16))
        clone.eval()
        model.eval()
        np.testing.assert_allclose(clone.forward(x), model.forward(x))

    def test_pd_checkpoint_is_compact(self, tmp_path):
        import os

        pd_path = str(tmp_path / "pd.npz")
        dense_path = str(tmp_path / "dense.npz")
        rng = np.random.default_rng(0)
        pd = Sequential(PermDiagLinear(256, 256, p=8, bias=False, rng=rng))
        # defeat compression with incompressible random values
        dense = Sequential(Linear(256, 256, bias=False, rng=rng))
        save_model(pd_path, pd)
        save_model(dense_path, dense)
        assert os.path.getsize(pd_path) < os.path.getsize(dense_path) / 4

    def test_shape_mismatch_rejected(self, tmp_path):
        path = str(tmp_path / "ckpt.npz")
        save_model(path, self._model())
        wrong = Sequential(PermDiagLinear(16, 32, p=2, rng=0))
        with pytest.raises(ValueError):
            load_model(path, wrong)

    def test_structure_survives_checkpoint(self, tmp_path):
        model = self._model(seed=1)
        path = str(tmp_path / "ckpt.npz")
        save_model(path, model)
        clone = self._model(seed=2)
        load_model(path, clone)
        pd = clone[0]
        dense = pd.to_dense_weight()
        assert np.all(dense[~pd.matrix.dense_mask()] == 0)


class TestPlanCheckpointing:
    def _model(self, seed=0):
        return Sequential(
            PermDiagLinear(16, 32, p=4, rng=seed),
            ReLU(),
            PermDiagLinear(32, 8, p=2, rng=seed + 1),
        )

    def test_include_plans_round_trip_preserves_outputs(self, tmp_path):
        model = self._model(seed=0)
        path = str(tmp_path / "ckpt.npz")
        save_model(path, model, include_plans=True)
        clone = self._model(seed=9)
        load_model(path, clone)
        x = np.random.default_rng(1).normal(size=(4, 16))
        np.testing.assert_allclose(
            clone.eval().forward(x), model.eval().forward(x)
        )

    def test_plans_reattach_without_recompute(self, tmp_path, monkeypatch):
        import repro.core.block_perm_diag as mod

        model = self._model(seed=2)
        path = str(tmp_path / "ckpt.npz")
        save_model(path, model, include_plans=True)
        clone = self._model(seed=3)
        old_plans = [clone[0].matrix._get_plan(), clone[2].matrix._get_plan()]

        def boom(*args, **kwargs):
            raise AssertionError("checkpoint load rebuilt an index plan")

        monkeypatch.setattr(mod._IndexPlan, "__init__", boom)
        load_model(path, clone)
        for layer, old_plan in zip((clone[0], clone[2]), old_plans):
            assert layer.matrix._get_plan() is not old_plan
        x = np.random.default_rng(4).normal(size=(4, 16))
        np.testing.assert_allclose(
            clone.eval().forward(x), model.eval().forward(x)
        )

    def test_plan_free_checkpoints_still_load(self, tmp_path):
        model = self._model(seed=5)
        path = str(tmp_path / "ckpt.npz")
        save_model(path, model)  # no plans embedded
        clone = self._model(seed=6)
        load_model(path, clone)
        x = np.random.default_rng(7).normal(size=(2, 16))
        np.testing.assert_allclose(
            clone.eval().forward(x), model.eval().forward(x)
        )

    def test_conv_channel_plane_plans_included(self, tmp_path, monkeypatch):
        """PD convolutions embed their channel-plane plan too -- loading a
        mixed FC+CONV model must not rebuild any plan."""
        import repro.core.block_perm_diag as mod
        from repro.nn import PermDiagConv2D

        def build(seed):
            return Sequential(
                PermDiagConv2D(8, 8, 3, p=4, rng=seed),
                PermDiagLinear(16, 8, p=2, rng=seed + 1),
            )

        model = build(0)
        path = str(tmp_path / "ckpt.npz")
        save_model(path, model, include_plans=True)
        clone = build(5)

        def boom(*args, **kwargs):
            raise AssertionError("checkpoint load rebuilt an index plan")

        monkeypatch.setattr(mod._IndexPlan, "__init__", boom)
        load_model(path, clone)
        np.testing.assert_array_equal(
            clone[0].channel_mask, model[0].channel_mask
        )

    def test_plan_structure_mismatch_rejected(self, tmp_path):
        model = Sequential(PermDiagLinear(16, 16, p=4, rng=0, bias=False))
        path = str(tmp_path / "ckpt.npz")
        save_model(path, model, include_plans=True)
        wrong = Sequential(
            PermDiagLinear(
                16, 16, p=4, rng=1, bias=False,
                spec=PermutationSpec(scheme="random", seed=3),
            )
        )
        with pytest.raises(ValueError):
            load_model(path, wrong)


class TestUnsupportedLayerError:
    def test_is_a_value_error(self):
        """Existing ``except ValueError`` call sites keep catching it."""
        from repro.nn.serialization import UnsupportedLayerError

        assert issubclass(UnsupportedLayerError, ValueError)
