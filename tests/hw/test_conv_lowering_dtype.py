"""Conv-lowering dtype regressions (the silent float32->float64 upcast).

Warm the plan outside the observation window, then spy on
``np.zeros``/``np.empty`` and assert that a float32 lowered conv stage
never materializes a float64 temporary.
"""

import numpy as np
import pytest

from repro.core import BlockPermDiagTensor4D
from repro.core.block_perm_diag import convert_values
from repro.hw import EngineConfig, PEConfig, PermDNNEngine
from repro.serve import LoweredConvStage


def _small_engine(n_pe=4, n_mul=2, n_acc=8):
    return PermDNNEngine(
        EngineConfig(n_pe=n_pe, pe=PEConfig(n_mul=n_mul, n_acc=n_acc))
    )


def _case(seed=0):
    rng = np.random.default_rng(seed)
    tensor = BlockPermDiagTensor4D.random(8, 4, (3, 3), p=2, rng=rng)
    x = rng.normal(size=(4, 6, 6))
    return tensor, x


def _run(tensor, x, padding=0, value_dtype=None):
    """``x`` through a 1-shard stage: ``(flat output, cycles, macs)``."""
    stage = LoweredConvStage(
        tensor, None, 1, input_hw=x.shape[1:], padding=padding,
        value_dtype=value_dtype,
    )
    out, (cycles,), (macs,) = stage.run_batch(
        [_small_engine()], x.reshape(1, -1)
    )
    return out[0], cycles, macs


class TestLoweringHonorsValueDtype:
    def test_no_float64_materializes_for_float32_lowering(self, monkeypatch):
        tensor, x = _case()
        engine = _small_engine()
        stage = LoweredConvStage(
            tensor, None, 1, input_hw=(6, 6), padding=1, value_dtype="float32"
        )
        # Warm the channel-plane index plan (int64 arrays) outside the
        # observation window: only steady-state allocations count.
        stage.run_batch([engine], x.reshape(1, -1))
        allocated: list[np.dtype] = []
        real_zeros, real_empty = np.zeros, np.empty

        def spy(real):
            def wrapper(*args, **kwargs):
                out = real(*args, **kwargs)
                allocated.append(out.dtype)
                return out

            return wrapper

        monkeypatch.setattr(np, "zeros", spy(real_zeros))
        monkeypatch.setattr(np, "empty", spy(real_empty))
        output, _, _ = stage.run_batch([engine], x.reshape(1, -1))
        assert output.dtype == np.float32
        floats = [dt for dt in allocated if np.issubdtype(dt, np.floating)]
        assert floats, "expected the wrappers to observe float allocations"
        assert all(dt == np.float32 for dt in floats), floats

    def test_float32_output_matches_float64_reference(self):
        tensor, x = _case(1)
        ref, ref_cycles, ref_macs = _run(tensor, x, padding=1)
        assert ref.dtype == np.float64
        f32, cycles, macs = _run(tensor, x, padding=1, value_dtype="float32")
        np.testing.assert_allclose(f32, ref, rtol=1e-5, atol=1e-5)
        # cycle accounting is dtype-independent (same zero pattern)
        assert cycles == ref_cycles
        assert macs == ref_macs

    def test_int16_lowering_accumulates_in_float64(self):
        tensor, x = _case(2)
        ref, _, _ = _run(tensor, x)
        q, _, _ = _run(tensor, x, value_dtype="int16")
        # int16 storage dequantizes to float64 accumulation
        assert q.dtype == np.float64
        np.testing.assert_allclose(q, ref, rtol=1e-3, atol=1e-3)

    def test_offset_family_shares_one_plan(self):
        from repro.debug import sanitize

        tensor, x = _case(3)
        _run(tensor, x)  # warm the plane's plan
        with sanitize() as s:
            matrices = convert_values(tensor.matrices, "float32")
            for matrix in matrices:
                matrix.matvec(np.zeros(matrix.shape[1], dtype=np.float32))
            assert s.stats.plan_builds == 0, (
                "reduced-precision offset family must ride the already-"
                "built channel-plane plan"
            )
        assert len(matrices) == 9
        assert all(m.value_dtype == "float32" for m in matrices)
