"""The tiled permuted block-diagonal (PBD) forward: which matrices take
it, and the bit identities it keeps.

An additive matrix at least ``_PBD_MIN_WIDTH`` padded columns wide runs
its forward as ``(T x nb) . (nb x R)`` GEMMs, one per class, batch tile
and row tile (:mod:`repro.core.kernel`); everything else runs the CSR
product.  Test-sized matrices are far narrower, so the pins below run
under ``force_pbd`` and check, on drawn shapes (padded included) at
every value dtype, that an output's bits depend on nothing but its
request and its weights:

- not on the batch the request arrives in, nor on its position in a
  batch tile;
- not on the row shard that computes it;
- not on the host threads the shards run on.

A BLAS on which a GEMM's bits depend on the position of a row or column
inside it fails these pins instead of serving wrong bits.
"""

from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import BlockPermutedDiagonalMatrix, PermutationSpec, kernel

_VALUE_DTYPES = ("float64", "float32", "int16")

# ``force_pbd`` only patches a module constant, which holds for every
# drawn example.
_PINS = settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)


@st.composite
def _matrices(draw):
    """A drawn natural-indexed PD matrix (``p`` up to 11, either axis
    possibly padded)."""
    p = draw(st.integers(1, 11))
    mb = draw(st.integers(1, 8))
    nb = draw(st.integers(1, 8))
    m = mb * p - draw(st.integers(0, p - 1))
    n = nb * p - draw(st.integers(0, p - 1))
    value_dtype = draw(st.sampled_from(_VALUE_DTYPES))
    seed = draw(st.integers(0, 2**16))
    return BlockPermutedDiagonalMatrix.random(
        (m, n), p, rng=seed, value_dtype=value_dtype
    )


def _requests(matrix, rows, seed):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(rows, matrix.shape[1]))
    x[rng.random(size=x.shape) < 0.3] = 0.0
    return x.astype(matrix.compute_dtype)


class TestPathChoice:
    """The choice reads the padded width and ``ks``, never the batch."""

    @pytest.mark.parametrize("below,pbd", [(0, True), (10, False)])
    def test_width_crossover(self, below, pbd):
        """At ``p=10`` a logical width ``W`` pads to at least ``W`` and
        ``W - 10`` to at most ``W - 1``."""
        n = kernel._PBD_MIN_WIDTH - below
        matrix = BlockPermutedDiagonalMatrix.random((40, n), 10, rng=0)
        for batch in (1, 2, 17):
            matrix.matmat(np.ones((batch, n)))
        assert (False in matrix._csr_cache) != pbd

    def test_non_additive_ks_stay_on_csr(self):
        spec = PermutationSpec(scheme="random", seed=0)
        matrix = BlockPermutedDiagonalMatrix.random((40, 2048), 8, spec=spec)
        assert matrix._get_plan().pbd_index() is None
        matrix.matmat(np.ones((16, 2048)))
        assert False in matrix._csr_cache

    @pytest.mark.usefixtures("force_pbd")
    def test_shards_of_a_non_additive_matrix_stay_on_csr(self):
        """A one-block-row shard's own ``ks`` are always additive; it
        takes its whole matrix's path all the same."""
        ks = np.array([[1, 1], [1, 0]])
        data = np.random.default_rng(0).normal(size=(2, 2, 2))
        matrix = BlockPermutedDiagonalMatrix(data, ks)
        assert matrix._get_plan().pbd_index() is None
        x = np.random.default_rng(1).normal(size=(3, 4))
        for shard in matrix.row_shards(2):
            assert shard._get_plan().pbd_index() is None
            shard.matmat(x)
            assert False in shard._csr_cache

    def test_shard_index_is_its_matrix_index_sliced(self):
        matrix = BlockPermutedDiagonalMatrix.random((45, 30), 4, rng=7)
        whole = matrix._get_plan().pbd_index()
        start = 0
        for shard in matrix.row_shards(3):
            index = shard._get_plan().pbd_index()
            stop = start + shard.mb
            np.testing.assert_array_equal(
                index.rows, whole.rows[:, start:stop] - start * matrix.p
            )
            # Whole stored rows are taken: no per-block row offsets.
            assert index._fields == ("rows", "cols")
            np.testing.assert_array_equal(index.cols, whole.cols)
            start = stop


@pytest.mark.usefixtures("force_pbd")
class TestBitIdentity:
    @_PINS
    @given(
        _matrices(),
        st.integers(1, 39),
        st.integers(0, 38),
        st.integers(1, 39),
        st.integers(0, 2**16),
    )
    def test_request_bits_do_not_depend_on_batch_or_tile_position(
        self, matrix, batch, row, other, seed
    ):
        """A request alone, inside its batch, and at another position of
        another batch gets the same output bits."""
        x = _requests(matrix, batch, seed)
        row %= batch
        full = matrix.matmat(x)
        alone = matrix.matmat(x[row : row + 1])[0]
        np.testing.assert_array_equal(alone, full[row])
        np.testing.assert_array_equal(matrix.matvec(x[row]), full[row])
        moved = _requests(matrix, other, seed + 1)
        slot = (row + seed) % other
        moved[slot] = x[row]
        np.testing.assert_array_equal(matrix.matmat(moved)[slot], full[row])

    @_PINS
    @given(
        _matrices(), st.integers(1, 8), st.integers(1, 39),
        st.integers(0, 2**16),
    )
    def test_row_shards_reassemble_the_product(
        self, matrix, num_shards, batch, seed
    ):
        x = _requests(matrix, batch, seed)
        shards = matrix.row_shards(min(num_shards, matrix.mb))
        np.testing.assert_array_equal(
            np.concatenate([shard.matmat(x) for shard in shards], axis=1),
            matrix.matmat(x),
        )

    @_PINS
    @given(
        _matrices(), st.integers(2, 4), st.integers(1, 39),
        st.integers(0, 2**16),
    )
    def test_shards_on_two_threads_give_the_same_bytes(
        self, matrix, num_shards, batch, seed
    ):
        x = _requests(matrix, batch, seed)
        shards = matrix.row_shards(min(num_shards, matrix.mb))
        sequential = [shard.matmat(x).tobytes() for shard in shards]
        with ThreadPoolExecutor(max_workers=2) as pool:
            for _ in range(3):
                threaded = pool.map(lambda s: s.matmat(x).tobytes(), shards)
                assert list(threaded) == sequential
