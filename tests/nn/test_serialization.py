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

    @staticmethod
    def _conv_model(seed=0):
        """PD conv + PD FC: the conv layer's channel-plane ``ks`` is
        checkpointed too."""
        from repro.nn import Flatten, PermDiagConv2D

        return Sequential(
            PermDiagConv2D(8, 8, 3, p=4, rng=seed),
            Flatten(),
            PermDiagLinear(16, 8, p=2, rng=seed + 1),
        )

    def test_plan_free_checkpoints_still_load(self, tmp_path):
        for build, in_shape in (
            (self._model, (16,)),
            (self._conv_model, (8, 3, 4)),
        ):
            model = build(seed=5)
            path = str(tmp_path / "ckpt.npz")
            save_model(path, model)  # no plans embedded
            clone = build(seed=6)
            load_model(path, clone)
            x = np.random.default_rng(7).normal(size=(2, *in_shape))
            np.testing.assert_allclose(
                clone.eval().forward(x), model.eval().forward(x)
            )

    def test_plan_structure_mismatch_rejected(self, tmp_path):
        model = Sequential(PermDiagLinear(16, 16, p=4, rng=0, bias=False))
        path = str(tmp_path / "ckpt.npz")
        save_model(path, model)
        wrong = Sequential(
            PermDiagLinear(
                16, 16, p=4, rng=1, bias=False,
                spec=PermutationSpec(scheme="random", seed=3),
            )
        )
        with pytest.raises(ValueError):
            load_model(path, wrong)

    @staticmethod
    def _random_spec_layer():
        return Sequential(
            PermDiagLinear(
                16, 16, p=4, rng=1, bias=False,
                spec=PermutationSpec(scheme="random", seed=3),
            )
        )

    def test_rejected_load_leaves_parameters_untouched(self, tmp_path):
        model = Sequential(PermDiagLinear(16, 16, p=4, rng=0, bias=False))
        path = str(tmp_path / "ckpt.npz")
        save_model(path, model)
        wrong = self._random_spec_layer()
        before = [param.value.copy() for param in wrong.parameters()]
        with pytest.raises(ValueError, match="PD matrix 0"):
            load_model(path, wrong)
        for param, value in zip(wrong.parameters(), before):
            np.testing.assert_array_equal(param.value, value)

    def test_legacy_plan_entry_is_rejected(self, tmp_path):
        """The oldest checkpoints embedded a serialized plan per PD matrix
        as ``pd_plan_<i>``; all of them predate the format version, so
        their values are block-major and they are rejected."""
        import io

        model = Sequential(PermDiagLinear(16, 16, p=4, rng=0, bias=False))
        blob = io.BytesIO()
        np.savez(blob, ks=np.asarray(model[0].matrix.ks))
        path = str(tmp_path / "legacy.npz")
        np.savez_compressed(
            path,
            **model.state_dict(),
            pd_plan_0=np.frombuffer(blob.getvalue(), dtype=np.uint8),
        )
        clone = Sequential(PermDiagLinear(16, 16, p=4, rng=5, bias=False))
        before = clone[0].matrix.data.copy()
        with pytest.raises(ValueError, match="value layout"):
            load_model(path, clone)
        np.testing.assert_array_equal(clone[0].matrix.data, before)


class TestCheckpointVersion:
    """PD values are saved in their storage order, row by row; the format
    version names it, so a checkpoint from before it (block-major values,
    no version) fails to load instead of loading permuted weights."""

    @staticmethod
    def _model(seed):
        return Sequential(
            PermDiagLinear(16, 16, p=4, rng=seed),
            PermDiagLinear(16, 24, p=4, rng=seed + 1),
        )

    @staticmethod
    def _unversioned(path, model):
        """The checkpoint the writer before the version made of
        ``model``: each PD value array block-major, ``(mb, nb, p)``, and
        no version entry."""
        state = {
            key: value.transpose(0, 2, 1) if value.ndim == 3 else value
            for key, value in model.state_dict().items()
        }
        for idx, layer in enumerate((model[0], model[1])):
            state[f"pd_ks_{idx}"] = np.asarray(layer.matrix.ks)
        np.savez_compressed(path, **state)

    def test_save_writes_the_version(self, tmp_path):
        path = str(tmp_path / "ckpt.npz")
        save_model(path, self._model(0))
        with np.load(path) as archive:
            assert int(archive["checkpoint_version"]) == 2

    def test_unversioned_pd_checkpoint_is_rejected_untouched(self, tmp_path):
        path = str(tmp_path / "old.npz")
        self._unversioned(path, self._model(0))
        clone = self._model(7)
        before = [param.value.copy() for param in clone.parameters()]
        with pytest.raises(ValueError, match="value layout"):
            load_model(path, clone)
        for param, value in zip(clone.parameters(), before):
            np.testing.assert_array_equal(param.value, value)

    def test_other_versions_are_rejected(self, tmp_path):
        path = str(tmp_path / "future.npz")
        save_model(path, self._model(0))
        with np.load(path) as archive:
            state = {key: archive[key] for key in archive.files}
        state["checkpoint_version"] = np.asarray(3)
        np.savez(path, **state)
        with pytest.raises(ValueError, match="format version 3"):
            load_model(path, self._model(7))

    def test_unversioned_dense_checkpoint_still_loads(self, tmp_path):
        model = Sequential(Linear(16, 8, rng=0), ReLU(), Linear(8, 4, rng=1))
        path = str(tmp_path / "dense.npz")
        np.savez_compressed(path, **model.state_dict())
        clone = Sequential(Linear(16, 8, rng=2), ReLU(), Linear(8, 4, rng=3))
        load_model(path, clone)
        x = np.random.default_rng(4).normal(size=(3, 16))
        np.testing.assert_array_equal(clone.forward(x), model.forward(x))


class TestLSTMCheckpointing:
    def test_pd_cell_checkpoint_checks_its_ks(self, tmp_path):
        """A PD cell's stacked W and U carry their ks: a searched
        structure never loads into a cell with other permutations, and a
        matching cell round-trips bit for bit."""
        from repro.compress import convert_cell
        from repro.nn import LSTMCell

        pd, _ = convert_cell(LSTMCell(16, 32, p=None, rng=0), p=8)
        path = str(tmp_path / "cell.npz")
        save_model(path, pd)
        with np.load(path) as archive:
            assert {"pd_ks_0", "pd_ks_1"} <= set(archive.files)
        with pytest.raises(ValueError, match="PD matrix 0"):
            load_model(path, LSTMCell(16, 32, p=8, rng=1))

        fresh = LSTMCell(16, 32, p=8, rng=1)
        clone = LSTMCell.from_matrices(
            *(
                source.matrix.like(op.matrix.data)
                for op, source in zip(fresh.weight_matrices, pd.weight_matrices)
            ),
            fresh.bias.value,
        )
        load_model(path, clone)
        rng = np.random.default_rng(2)
        x, h, c = (rng.normal(size=(3, n)) for n in (16, 32, 32))
        for got, want in zip(clone.step(x, h, c)[:2], pd.step(x, h, c)[:2]):
            np.testing.assert_array_equal(got, want)


class TestUnsupportedLayerError:
    def test_is_a_value_error(self):
        """Existing ``except ValueError`` call sites keep catching it."""
        from repro.nn.serialization import UnsupportedLayerError

        assert issubclass(UnsupportedLayerError, ValueError)
