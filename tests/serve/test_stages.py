"""Generalized served stages: conv and recurrent pipelines.

The serving contract extends beyond FC: every stage kind must satisfy
sharded === unsharded and threaded === sequential **bit for bit**, at
every value-storage mode, and cold-start from a v3 bundle deriving each
slot matrix's plan once.  (This directory runs under the strict
no-*re*build teardown; conv stage construction serves the layer's own
offset matrices, which share one plan, and nothing may ever rebuild
one.)
"""

import json
import tempfile

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro.core.block_perm_diag as mod
from repro.nn import (
    Flatten,
    MaxPool2D,
    PermDiagConv2D,
    PermDiagLinear,
    ReLU,
    Sequential,
    Tanh,
)
from repro.nn.layers.recurrent import LSTM, LSTMCell
from repro.nn.serialization import (
    ConvStageSpec,
    FCStageSpec,
    RecurrentStageSpec,
    UnsupportedLayerError,
    model_stage_specs,
)
from repro.serve import (
    LoweredConvStage,
    ModelServer,
    RecurrentStage,
    ServedStage,
    ShardedLayer,
    export_model_bundle,
    load_staged_bundle,
)


def _conv_model(seed=0):
    """A LeNet-shaped fully-PD pipeline: conv + pool + FC tail."""
    rng = np.random.default_rng(seed)
    model = Sequential(
        PermDiagConv2D(4, 8, 3, p=2, bias=False, padding=1, rng=rng),
        ReLU(),
        MaxPool2D(2),
        Flatten(),
        PermDiagLinear(8 * 4 * 4, 12, p=2, bias=False, rng=rng),
        Tanh(),
    )
    model.eval()
    return model, (8, 8)


# Conv geometry that a caller or a damaged manifest can hand the conv
# stage of ``_conv_model``.  Each must fail fast with ``ValueError``:
# truncating a non-integer would serve another convolution, a zero stride
# divides by zero, and a negative padding only fails at the first drain.
_BAD_CONV_GEOMETRY = [
    ("stride", 0, "invalid conv geometry"),
    ("stride", 1.5, "stride must be an integer"),
    ("padding", -1, "invalid conv geometry"),
    ("pool", 2.5, "pool must be an integer"),
    ("input_hw", [8.5, 8], "input_hw must be an integer"),
]


def _requests(num, n, seed=1):
    return np.random.default_rng(seed).normal(size=(num, n))


def _drain(server, xs):
    server.submit_many(xs)
    return np.stack(server.drain().outputs)


def _served(model, input_hw=None, **kwargs):
    kwargs.setdefault("max_batch_size", 4)
    return ModelServer.from_model(model, input_hw=input_hw, **kwargs)


class TestServedConvPipeline:
    def test_matches_model_forward(self):
        model, (h, w) = _conv_model()
        xs = _requests(5, 4 * h * w)
        served = _drain(_served(model, (h, w), num_shards=2), xs)
        expected = model.forward(xs.reshape(5, 4, h, w))
        np.testing.assert_allclose(served, expected, atol=1e-10)

    @pytest.mark.parametrize("num_shards", [2, 4])
    @pytest.mark.parametrize("num_threads", [1, 2])
    def test_sharded_threaded_bit_identical(self, num_shards, num_threads):
        model, (h, w) = _conv_model()
        xs = _requests(6, 4 * h * w)
        reference = _drain(
            _served(model, (h, w), num_shards=1, num_threads=1), xs
        )
        contender = _drain(
            _served(
                model, (h, w),
                num_shards=num_shards, num_threads=num_threads,
            ),
            xs,
        )
        np.testing.assert_array_equal(contender, reference)

    @pytest.mark.parametrize("value_dtype", ["float32", "int16"])
    def test_value_dtypes_bit_identical(self, value_dtype):
        model, (h, w) = _conv_model()
        xs = _requests(4, 4 * h * w)
        reference = _drain(
            _served(
                model, (h, w),
                num_shards=1, num_threads=1, value_dtype=value_dtype,
            ),
            xs,
        )
        sharded = _drain(
            _served(
                model, (h, w),
                num_shards=2, num_threads=2, value_dtype=value_dtype,
            ),
            xs,
        )
        np.testing.assert_array_equal(sharded, reference)

    def test_strided_backbone_bit_identical(self):
        """Stride-2 downsampling chains geometry across conv stages."""
        from repro.serve import build_workload

        spec = build_workload("resnet20", rng=0)
        xs = _requests(4, spec.in_features)
        reference = _drain(
            ModelServer.from_model(
                spec.model, input_hw=spec.input_hw,
                num_shards=1, num_threads=1, max_batch_size=4,
            ),
            xs,
        )
        sharded = _drain(
            ModelServer.from_model(
                spec.model, input_hw=spec.input_hw,
                num_shards=4, num_threads=2, max_batch_size=4,
            ),
            xs,
        )
        np.testing.assert_array_equal(sharded, reference)

    def test_conv_model_requires_input_hw(self):
        model, _ = _conv_model()
        with pytest.raises(ValueError, match="input_hw"):
            ModelServer.from_model(model, num_shards=2)

    def test_pool_must_tile_the_output(self):
        model, _ = _conv_model()
        tensor = model.layers[0].tensor
        with pytest.raises(ValueError, match="pool"):
            LoweredConvStage(
                tensor, "relu", 2, input_hw=(8, 8), padding=1, pool=3
            )

    @pytest.mark.parametrize("name,value,message", _BAD_CONV_GEOMETRY)
    def test_bad_geometry_rejected(self, name, value, message):
        model, _ = _conv_model()
        geometry = dict(input_hw=(8, 8), padding=1, pool=2)
        geometry[name] = value
        with pytest.raises(ValueError, match=message):
            LoweredConvStage(model.layers[0].tensor, "relu", 2, **geometry)


class TestServedRecurrentStage:
    def test_single_step_matches_cell_bitwise(self):
        cell = LSTMCell(6, 16, p=2, rng=0)
        rng = np.random.default_rng(1)
        x = rng.normal(size=(5, 6))
        h_prev = rng.normal(size=(5, 16))
        c_prev = rng.normal(size=(5, 16))
        h, c, _ = cell.step(x, h_prev, c_prev)
        server = _served(cell, num_shards=2, max_batch_size=8)
        out = _drain(server, np.concatenate([x, h_prev, c_prev], axis=1))
        np.testing.assert_array_equal(out[:, :16], h)
        np.testing.assert_array_equal(out[:, 16:], c)

    @pytest.mark.parametrize("num_shards", [2, 4])
    @pytest.mark.parametrize("num_threads", [1, 2])
    def test_sharded_threaded_bit_identical(self, num_shards, num_threads):
        cell = LSTMCell(8, 16, p=4, rng=2)
        xs = _requests(6, 8 + 32, seed=3)
        reference = _drain(
            _served(cell, num_shards=1, num_threads=1, max_batch_size=8), xs
        )
        contender = _drain(
            _served(
                cell,
                num_shards=num_shards,
                num_threads=num_threads,
                max_batch_size=8,
            ),
            xs,
        )
        np.testing.assert_array_equal(contender, reference)

    @pytest.mark.parametrize("value_dtype", ["float32", "int16"])
    def test_value_dtypes_bit_identical(self, value_dtype):
        cell = LSTMCell(8, 16, p=4, rng=2)
        xs = _requests(4, 8 + 32, seed=3)
        reference = _drain(
            _served(
                cell, num_shards=1, num_threads=1,
                value_dtype=value_dtype, max_batch_size=8,
            ),
            xs,
        )
        sharded = _drain(
            _served(
                cell, num_shards=2, num_threads=2,
                value_dtype=value_dtype, max_batch_size=8,
            ),
            xs,
        )
        np.testing.assert_array_equal(sharded, reference)

    def test_sequence_matches_lstm_forward_bitwise(self):
        """Feeding each step's ``[h | c]`` back reproduces the full
        sequence the training-side LSTM computes, bit for bit."""
        lstm = LSTM(6, 12, p=2, rng=4)
        batch, steps = 3, 5
        seq = np.random.default_rng(5).normal(size=(batch, steps, 6))
        expected = lstm.forward(seq)
        server = _served(lstm, num_shards=2, num_threads=2, max_batch_size=4)
        state = np.zeros((batch, 24))
        for t in range(steps):
            out = _drain(
                server, np.concatenate([seq[:, t], state], axis=1)
            )
            np.testing.assert_array_equal(out[:, :12], expected[:, t])
            state = out
        np.testing.assert_array_equal(state[:, :12], lstm.final_state[0])
        np.testing.assert_array_equal(state[:, 12:], lstm.final_state[1])

    def test_encoder_decoder_step_bit_identical(self):
        """The NMT shape: the encoder's final state seeds the decoder."""
        encoder = LSTMCell(6, 16, p=2, rng=6)
        decoder = LSTMCell(4, 16, p=2, rng=7)
        rng = np.random.default_rng(8)
        src = rng.normal(size=(3, 2, 6))
        tgt = rng.normal(size=(3, 4))

        h = c = np.zeros((3, 16))
        for t in range(src.shape[1]):
            h, c, _ = encoder.step(src[:, t], h, c)
        dec_h, dec_c, _ = decoder.step(tgt, h, c)

        enc_server = _served(
            encoder, num_shards=2, num_threads=2, max_batch_size=4
        )
        dec_server = _served(
            decoder, num_shards=2, num_threads=2, max_batch_size=4
        )
        state = np.zeros((3, 32))
        for t in range(src.shape[1]):
            state = _drain(
                enc_server, np.concatenate([src[:, t], state], axis=1)
            )
        out = _drain(dec_server, np.concatenate([tgt, state], axis=1))
        np.testing.assert_array_equal(out[:, :16], dec_h)
        np.testing.assert_array_equal(out[:, 16:], dec_c)

    def test_dense_cell_rejected(self):
        with pytest.raises(UnsupportedLayerError, match="dense weight ops"):
            model_stage_specs(LSTMCell(6, 16, rng=0))

    def test_weight_aliasing_survives_serving(self):
        """Gate matrices alias the cell's parameters: in-place training
        updates reach the shard engines with no re-export."""
        cell = LSTMCell(6, 16, p=2, rng=9)
        server = _served(cell, num_shards=2, max_batch_size=8)
        xs = _requests(2, 6 + 32, seed=10)
        before = _drain(server, xs)
        for op in cell.weight_matrices:
            op.weight.value *= 1.5
        after = _drain(server, xs)
        assert not np.array_equal(before, after)


class TestModelStageSpecs:
    def test_conv_pipeline_spec_kinds(self):
        model, _ = _conv_model()
        specs = model_stage_specs(model)
        assert [type(s) for s in specs] == [ConvStageSpec, FCStageSpec]
        assert specs[0].activation == "relu" and specs[0].pool == 2
        assert specs[1].activation == "tanh"

    def test_lstm_consumed_as_one_stage(self):
        specs = model_stage_specs(LSTM(6, 12, p=2, rng=0))
        assert [type(s) for s in specs] == [RecurrentStageSpec]

    def test_orphan_pool_rejected(self):
        model = Sequential(
            PermDiagLinear(16, 8, p=2, bias=False, rng=0), MaxPool2D(2)
        )
        with pytest.raises(UnsupportedLayerError, match="conv stage"):
            model_stage_specs(model)

    def test_overlapping_pool_rejected(self):
        model = Sequential(
            PermDiagConv2D(4, 8, 3, p=2, bias=False, padding=1, rng=0),
            MaxPool2D(4, stride=2),
        )
        with pytest.raises(UnsupportedLayerError, match="non-overlapping"):
            model_stage_specs(model)

    def test_conv_bias_rejected(self):
        model = Sequential(
            PermDiagConv2D(4, 8, 3, p=2, bias=True, rng=0)
        )
        model.layers[0].bias.value[:] = 1.0
        with pytest.raises(UnsupportedLayerError, match="bias"):
            model_stage_specs(model)

    def test_fc_bias_rejected_with_index(self):
        model = Sequential(PermDiagLinear(16, 16, p=4, bias=True, rng=0))
        model.layers[0].bias.value[:] = 1.0
        with pytest.raises(
            UnsupportedLayerError,
            match=r"^module 1 \(PermDiagLinear\) carries a non-zero bias",
        ) as excinfo:
            model_stage_specs(model)
        assert excinfo.value.index == 1
        assert excinfo.value.layer_type == "PermDiagLinear"

    def test_orphan_activation_rejected_with_index(self):
        with pytest.raises(
            UnsupportedLayerError,
            match=r"^module 1 \(Tanh\) is an activation that does not "
            r"follow a PD FC or conv layer$",
        ):
            model_stage_specs(Sequential(Tanh()))


def _slot_matrices(server):
    """Slot matrices a server holds: one forward CSR view each below the
    PBD width crossover, built on first use."""
    return sum(
        len(slots) for stage in server.layers for slots in stage.shard_slots
    )


def _whole_matrices(server):
    """Whole matrices behind a bundle's slots: one index plan each, built
    when the loader decodes a slot's shards as one matrix, or when the
    stage cuts it."""
    return sum(stage.num_slots for stage in server.layers)


def _check_cold_start(model, input_hw, num_shards, xs):
    """Bundle ``model`` and cold-start it under the sanitizer: one plan
    per stage slot, none rebuilt, and the live model's served bits."""
    from repro.debug import sanitize

    reference = _drain(
        _served(model, input_hw, num_shards=num_shards), xs
    )
    with tempfile.TemporaryDirectory() as directory:
        export_model_bundle(
            directory, model, num_shards=num_shards, input_hw=input_hw
        )
        with sanitize() as s:
            server = ModelServer.from_bundle(directory, max_batch_size=4)
            out = _drain(server, xs)
            assert s.stats.plan_builds == _whole_matrices(server)
            assert s.stats.plan_rebuilds == 0
    np.testing.assert_array_equal(out, reference)


class TestStagedBundles:
    def test_conv_bundle_cold_start_builds_each_plan_once(self, tmp_path):
        from repro.debug import sanitize

        model, (h, w) = _conv_model()
        xs = _requests(4, 4 * h * w)
        reference = _drain(_served(model, (h, w), num_shards=2), xs)
        export_model_bundle(tmp_path, model, num_shards=2, input_hw=(h, w))
        with sanitize() as s:
            server = ModelServer.from_bundle(tmp_path, max_batch_size=4)
            out = _drain(server, xs)
            slot_matrices = _slot_matrices(server)
            assert s.stats.plan_builds == _whole_matrices(server)
            assert s.stats.plan_rebuilds == 0
            assert s.stats.skeleton_builds == slot_matrices
        np.testing.assert_array_equal(out, reference)

    def test_recurrent_bundle_cold_start_builds_each_plan_once(self, tmp_path):
        from repro.debug import sanitize

        cell = LSTMCell(6, 16, p=2, rng=0)
        xs = _requests(4, 6 + 32)
        reference = _drain(_served(cell, num_shards=2, max_batch_size=8), xs)
        export_model_bundle(tmp_path, cell, num_shards=2)
        with sanitize() as s:
            server = ModelServer.from_bundle(tmp_path, max_batch_size=8)
            out = _drain(server, xs)
            slot_matrices = _slot_matrices(server)
            assert s.stats.plan_builds == _whole_matrices(server)
            assert s.stats.plan_rebuilds == 0
            assert s.stats.skeleton_builds == slot_matrices
        np.testing.assert_array_equal(out, reference)

    # Drawn stages of every padding kind at 1-4 shards: a cold start
    # decodes one whole matrix per slot, so it builds one plan per slot
    # and none per shard, rebuilds nothing and serves the live bits.
    # ``sanitize`` nests inside the suite's own sanitizer scope.
    @pytest.mark.parametrize("padding", ["aligned", "rows", "cols", "both"])
    @settings(
        max_examples=8,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(
        st.integers(2, 4),
        st.integers(4, 5),
        st.integers(1, 3),
        st.integers(1, 4),
        st.integers(0, 2**16),
    )
    def test_conv_cold_start_builds_one_plan_per_slot(
        self, padding, p, mb, nb, num_shards, seed
    ):
        rng = np.random.default_rng(seed)
        c_out = mb * p - (
            rng.integers(1, p) if padding in ("rows", "both") else 0
        )
        c_in = nb * p - (
            rng.integers(1, p) if padding in ("cols", "both") else 0
        )
        model = Sequential(
            PermDiagConv2D(
                int(c_in), int(c_out), 2, p=p, bias=False, rng=rng
            ),
            ReLU(),
        )
        _check_cold_start(
            model, (3, 3), num_shards, _requests(4, int(c_in) * 9, seed)
        )

    @pytest.mark.parametrize("padding", ["aligned", "cols"])
    @settings(
        max_examples=8,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(
        st.integers(2, 4),
        st.integers(4, 5),
        st.integers(1, 3),
        st.integers(1, 4),
        st.integers(0, 2**16),
    )
    def test_recurrent_cold_start_builds_one_plan_per_slot(
        self, padding, p, hidden_blocks, nb, num_shards, seed
    ):
        """A cell's hidden size is whole blocks, so only its ``W`` can be
        padded, in columns."""
        rng = np.random.default_rng(seed)
        hidden = hidden_blocks * p
        n_in = nb * p - (rng.integers(1, p) if padding == "cols" else 0)
        cell = LSTMCell(int(n_in), hidden, p=p, rng=rng)
        _check_cold_start(
            cell, None, num_shards,
            _requests(4, int(n_in) + 2 * hidden, seed),
        )

    def test_v2_manifest_still_loads_as_fc(self, tmp_path):
        """Pre-v3 bundles carry no stage tags; they must keep loading as
        single-slot FC stages with the cold-start property intact: a
        load builds one index plan per layer, the one its joined shards
        slice, and none per shard."""
        model = Sequential(
            PermDiagLinear(24, 16, p=2, bias=False, rng=0), ReLU(),
            PermDiagLinear(16, 8, p=2, bias=False, rng=1),
        )
        model.eval()
        export_model_bundle(tmp_path, model, num_shards=2)
        manifest_path = tmp_path / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        manifest["bundle_version"] = 2
        for entry in manifest["layers"]:
            del entry["stage_kind"]
            del entry["slots"]
        manifest_path.write_text(json.dumps(manifest))

        builds = []
        orig = mod._IndexPlan.__init__

        def counting(self, *args, **kwargs):
            builds.append(args)
            orig(self, *args, **kwargs)

        mod._IndexPlan.__init__ = counting
        try:
            stages, loaded = load_staged_bundle(tmp_path)
            assert len(builds) == len(stages) == 2
            layers = [
                (stage.shard_slots, stage.activation)
                for stage in load_staged_bundle(tmp_path)[0]
            ]
        finally:
            mod._IndexPlan.__init__ = orig
        assert all(isinstance(stage, ShardedLayer) for stage in stages)
        assert int(loaded["bundle_version"]) == 2
        assert [act for _, act in layers] == ["relu", None]
        xs = _requests(3, 24)
        served = _drain(ModelServer(stages, max_batch_size=4), xs)
        np.testing.assert_allclose(served, model.forward(xs), atol=1e-10)

    @pytest.mark.parametrize("name,value,message", _BAD_CONV_GEOMETRY)
    def test_tampered_conv_geometry_fails_at_load(
        self, tmp_path, name, value, message
    ):
        model, (h, w) = _conv_model()
        export_model_bundle(tmp_path, model, num_shards=2, input_hw=(h, w))
        manifest_path = tmp_path / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        manifest["layers"][0][name] = value
        manifest_path.write_text(json.dumps(manifest))
        with pytest.raises(ValueError, match=message):
            load_staged_bundle(tmp_path)

    def test_unknown_stage_kind_rejected(self, tmp_path):
        model, (h, w) = _conv_model()
        export_model_bundle(tmp_path, model, num_shards=2, input_hw=(h, w))
        manifest_path = tmp_path / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        manifest["layers"][0]["stage_kind"] = "attention"
        manifest_path.write_text(json.dumps(manifest))
        with pytest.raises(ValueError, match="stage_kind"):
            load_staged_bundle(tmp_path)

    def test_reduced_precision_bundle_round_trip(self, tmp_path):
        model, (h, w) = _conv_model()
        xs = _requests(3, 4 * h * w)
        reference = _drain(
            _served(model, (h, w), num_shards=2, value_dtype="float32"), xs
        )
        export_model_bundle(
            tmp_path, model, num_shards=2, input_hw=(h, w),
            value_dtype="float32",
        )
        server = ModelServer.from_bundle(tmp_path, max_batch_size=4)
        np.testing.assert_array_equal(_drain(server, xs), reference)

    @pytest.mark.parametrize("kind", ["recurrent", "conv"])
    def test_int16_multi_slot_bundle_shares_one_format(self, tmp_path, kind):
        """A stage's slots share one int16 format -- the one its manifest
        records -- even when one slot's values dwarf the others'."""
        if kind == "recurrent":
            from repro.serve.bench import build_workload

            model, input_hw = build_workload("nmt", rng=0).model, None
            in_features = model.input_size + 2 * model.hidden_size
        else:
            model, input_hw = _conv_model()
            model.layers[0].weight.value[1, 1] *= 8.0  # the centre tap
            in_features = 4 * input_hw[0] * input_hw[1]
        xs = _requests(4, in_features)
        reference = _drain(
            _served(model, input_hw, num_shards=2, value_dtype="int16"), xs
        )
        export_model_bundle(
            tmp_path, model, num_shards=2, input_hw=input_hw,
            value_dtype="int16",
        )
        server = ModelServer.from_bundle(tmp_path, max_batch_size=4)
        formats = {
            matrix.fixed_point
            for slots in server.layers[0].shard_slots
            for matrix in slots
        }
        assert len(formats) == 1
        np.testing.assert_array_equal(_drain(server, xs), reference)


class TestStageProtocol:
    def test_every_stage_kind_is_a_served_stage(self):
        model, (h, w) = _conv_model()
        server = _served(model, (h, w), num_shards=2)
        assert all(isinstance(layer, ServedStage) for layer in server.layers)
        assert [layer.stage_kind for layer in server.layers] == [
            "conv", "fc",
        ]
        cell_server = _served(LSTMCell(6, 16, p=2, rng=0), num_shards=2)
        assert cell_server.layers[0].stage_kind == "recurrent"

    def test_unsupported_model_raises_typed_error(self):
        from repro.nn import Linear

        with pytest.raises(UnsupportedLayerError, match="not servable"):
            ModelServer.from_model(Sequential(Linear(8, 4, rng=0)))
