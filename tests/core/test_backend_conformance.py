"""Property-based conformance suite for the product kernel.

A seeded random sweep over ~50 ``(m, n, p, batch)`` configurations --
including non-multiple-of-``p`` shapes -- asserting that the kernel
(:mod:`repro.core.kernel`) agrees with a dense numpy reference to 1e-10
on all three hot-path products, and that decoding the stored form
(``to_q()`` plus ``ks``) through ``from_q`` preserves results exactly.

The dense reference is ``to_dense()``, which reads the same index plan as
the kernels.  An executable spec (:func:`_spec_products`) therefore checks
the products against ``(data, ks, shape)`` alone, so a wrong plan cannot
pass.

A couple of hypothesis properties drive the same invariants (plus the
row-shard decomposition the serving runtime relies on) over a wider,
shrinkable input space.

The first sweeps draw random ``ks``, which are additive only when
``mb == 1`` or ``nb == 1``.  Natural-indexed ``ks`` are always additive,
so their backward products run as permuted block-diagonal (PBD) GEMMs;
the natural-indexing sweep and properties check those against the spec
at every value dtype, against the sparse (COO) path, and anchor the relabelling
identity ``P_rows . W . P_cols = blockdiag(D_0 ... D_{p-1})``.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import BlockPermutedDiagonalMatrix, PermutationSpec
from repro.core.block_perm_diag import _IndexPlan

ATOL = 1e-10
SWEEP_SIZE = 50
SWEEP_SEED = 20260729


def _sweep_configs(num: int, seed: int) -> list[tuple[int, int, int, int, int]]:
    """``num`` seeded random ``(m, n, p, batch, case_seed)`` configurations.

    Roughly half the shapes are non-multiples of ``p`` on one or both
    axes, so the padded-support paths stay inside the sweep.
    """
    rng = np.random.default_rng(seed)
    configs = []
    for idx in range(num):
        p = int(rng.integers(1, 9))
        mb = int(rng.integers(1, 7))
        nb = int(rng.integers(1, 7))
        m_pad = int(rng.integers(0, p)) if rng.random() < 0.5 else 0
        n_pad = int(rng.integers(0, p)) if rng.random() < 0.5 else 0
        m = mb * p - m_pad
        n = nb * p - n_pad
        batch = int(rng.integers(1, 9))
        configs.append((m, n, p, batch, seed + idx))
    return configs


CONFIGS = _sweep_configs(SWEEP_SIZE, SWEEP_SEED)


def _build(m, n, p, case_seed):
    matrix = BlockPermutedDiagonalMatrix.random(
        (m, n),
        p,
        spec=PermutationSpec(scheme="random", seed=case_seed),
        rng=case_seed,
    )
    rng = np.random.default_rng(case_seed + 1)
    return matrix, rng


def _spec_products(data, ks, shape, x, dy):
    """Eqns. (1)-(3) from ``(data, ks, shape)`` alone, sharing no plan code.

    Block ``(bi, bj)`` scales a ``k``-permuted input block by its diagonal
    (the SNIPPETS ``Permute`` + ``DiagLinear`` form): row ``c`` of the
    block is global row ``bi*p + c`` and reads column
    ``bj*p + (c + k) mod p``.  Slots past the logical shape are padding
    and masked out.  Returns ``(W x, W.T dy, dQ)`` for the batch.
    """
    mb, nb, p = data.shape
    m, n = shape
    x_pad = np.zeros((x.shape[0], nb * p))
    x_pad[:, :n] = x
    dy_pad = np.zeros((dy.shape[0], mb * p))
    dy_pad[:, :m] = dy
    forward = np.zeros_like(dy_pad)
    backward = np.zeros_like(x_pad)
    grad = np.zeros(data.shape)
    c = np.arange(p)
    for bi in range(mb):
        rows = bi * p + c
        for bj in range(nb):
            cols = bj * p + (c + ks[bi, bj]) % p
            mask = (rows < m) & (cols < n)
            diag = data[bi, bj] * mask
            forward[:, rows] += diag * x_pad[:, cols]
            backward[:, cols] += diag * dy_pad[:, rows]
            grad[bi, bj] = (dy_pad[:, rows] * x_pad[:, cols]).sum(0) * mask
    return forward[:, :m], backward[:, :n], grad


def _dense_grad_reference(matrix, x, dy):
    """Eqn. (2) off the dense product, projected onto the PD support."""
    dense_grad = dy.T @ x  # (m, n)
    flat, rows, cols = matrix._get_plan().support_coords()
    expected = np.zeros(matrix.data.shape)
    expected.reshape(-1)[flat] = dense_grad[rows, cols]
    return expected


@pytest.mark.parametrize(
    "m,n,p,batch,case_seed",
    CONFIGS,
    ids=[f"m{m}n{n}p{p}b{b}" for m, n, p, b, _ in CONFIGS],
)
class TestBackendConformance:
    def test_products_agree_with_dense_reference(
        self, m, n, p, batch, case_seed
    ):
        matrix, rng = _build(m, n, p, case_seed)
        dense = matrix.to_dense()
        x = rng.normal(size=(batch, n))
        dy = rng.normal(size=(batch, m))
        ref_forward = x @ dense.T
        ref_backward = dy @ dense
        ref_grad = _dense_grad_reference(matrix, x, dy)
        np.testing.assert_allclose(
            matrix.matmat(x), ref_forward, atol=ATOL, err_msg="matmat"
        )
        np.testing.assert_allclose(
            matrix.rmatmat(dy), ref_backward, atol=ATOL, err_msg="rmatmat"
        )
        np.testing.assert_allclose(
            matrix.grad_data(x, dy), ref_grad, atol=ATOL, err_msg="grad_data"
        )
        np.testing.assert_allclose(
            matrix.matvec(x[0]), ref_forward[0], atol=ATOL, err_msg="matvec"
        )
        np.testing.assert_allclose(
            matrix.rmatvec(dy[0]), ref_backward[0], atol=ATOL,
            err_msg="rmatvec",
        )

    def test_products_match_executable_spec(
        self, m, n, p, batch, case_seed
    ):
        matrix, rng = _build(m, n, p, case_seed)
        x = rng.normal(size=(batch, n))
        dy = rng.normal(size=(batch, m))
        forward, backward, grad = _spec_products(
            matrix.data, matrix.ks, matrix.shape, x, dy
        )
        for name, got, want in (
            ("matmat", matrix.matmat(x), forward),
            ("rmatmat", matrix.rmatmat(dy), backward),
            ("grad_data", matrix.grad_data(x, dy), grad),
            ("matvec", matrix.matvec(x[0]), forward[0]),
            ("rmatvec", matrix.rmatvec(dy[0]), backward[0]),
        ):
            np.testing.assert_allclose(
                got, want, atol=ATOL, err_msg=f"{name} diverges from the spec"
            )

    def test_stored_q_round_trip_preserves_results(
        self, m, n, p, batch, case_seed
    ):
        matrix, rng = _build(m, n, p, case_seed)
        x = rng.normal(size=(batch, n))
        dy = rng.normal(size=(batch, m))
        restored = BlockPermutedDiagonalMatrix.from_q(
            matrix.to_q(), matrix.shape, matrix.p, matrix.ks
        )
        np.testing.assert_array_equal(restored.matmat(x), matrix.matmat(x))
        np.testing.assert_array_equal(restored.rmatmat(dy), matrix.rmatmat(dy))
        np.testing.assert_array_equal(
            restored.grad_data(x, dy), matrix.grad_data(x, dy)
        )


# ---------------------------------------------------------------------------
# Value-dtype sweep: the same seeded configurations at reduced precision.
# ---------------------------------------------------------------------------

# float32 runs the whole product in float32; against the float64 dense
# reference the error is rounding noise, orders below this tolerance on
# these unit-scale configurations.
FLOAT32_ATOL = 1e-5


@pytest.mark.parametrize(
    "m,n,p,batch,case_seed",
    CONFIGS,
    ids=[f"m{m}n{n}p{p}b{b}" for m, n, p, b, _ in CONFIGS],
)
class TestValueDtypeConformance:
    def test_float32_tracks_float64_reference(self, m, n, p, batch, case_seed):
        matrix, rng = _build(m, n, p, case_seed)
        f32 = matrix.with_value_dtype("float32")
        dense = matrix.to_dense()
        x = rng.normal(size=(batch, n))
        dy = rng.normal(size=(batch, m))
        forward = f32.matmat(x)
        backward = f32.rmatmat(dy)
        grad = f32.grad_data(x, dy)
        assert forward.dtype == np.float32
        assert backward.dtype == np.float32
        assert grad.dtype == np.float32
        np.testing.assert_allclose(
            forward, x @ dense.T, atol=FLOAT32_ATOL,
            err_msg="float32 matmat diverges",
        )
        np.testing.assert_allclose(
            backward, dy @ dense, atol=FLOAT32_ATOL,
            err_msg="float32 rmatmat diverges",
        )
        np.testing.assert_allclose(
            grad, _dense_grad_reference(matrix, x, dy), atol=FLOAT32_ATOL,
            err_msg="float32 grad_data diverges",
        )

    def test_int16_exact_vs_dequantized_bounded_vs_original(
        self, m, n, p, batch, case_seed
    ):
        matrix, rng = _build(m, n, p, case_seed)
        i16 = matrix.with_value_dtype("int16")
        # (a) Accumulation policy: dequantize-to-float64 makes an int16
        # matrix bit-compatible with a float64 matrix of the dequantized
        # weights -- the dense reference holds at the float64 tolerance.
        dense_deq = i16.with_value_dtype("float64").to_dense()
        x = rng.normal(size=(batch, n))
        out = i16.matmat(x)
        assert out.dtype == np.float64
        np.testing.assert_allclose(
            out, x @ dense_deq.T, atol=ATOL, err_msg="int16 matmat diverges"
        )
        # (b) Per-format bound vs the *original* float64 weights: every
        # stored weight moved by at most resolution/2, so each output is
        # off by at most sum|x| * resolution/2.
        bound = (
            0.5 * i16.fixed_point.resolution
            * float(np.abs(x).sum(axis=1).max())
            + 1e-12
        )
        err = np.max(np.abs(out - x @ matrix.to_dense().T))
        assert err <= bound, (err, bound)


# ---------------------------------------------------------------------------
# Hypothesis properties: same invariants over a shrinkable space.
# ---------------------------------------------------------------------------

_structure = st.tuples(
    st.integers(min_value=1, max_value=6),   # p
    st.integers(min_value=1, max_value=5),   # mb
    st.integers(min_value=1, max_value=5),   # nb
    st.integers(min_value=0, max_value=5),   # m padding (clamped below p)
    st.integers(min_value=0, max_value=5),   # n padding (clamped below p)
    st.integers(min_value=1, max_value=4),   # batch
    st.integers(min_value=0, max_value=2**16),  # seed
)


@settings(max_examples=25, deadline=None)
@given(_structure)
def test_products_agree_with_dense_hypothesis(structure):
    p, mb, nb, m_pad, n_pad, batch, seed = structure
    m = mb * p - min(m_pad, p - 1)
    n = nb * p - min(n_pad, p - 1)
    matrix, rng = _build(m, n, p, seed)
    dense = matrix.to_dense()
    x = rng.normal(size=(batch, n))
    dy = rng.normal(size=(batch, m))
    np.testing.assert_allclose(matrix.matmat(x), x @ dense.T, atol=ATOL)
    np.testing.assert_allclose(matrix.rmatmat(dy), dy @ dense, atol=ATOL)
    np.testing.assert_allclose(
        matrix.grad_data(x, dy),
        _dense_grad_reference(matrix, x, dy),
        atol=ATOL,
    )


@settings(max_examples=25, deadline=None)
@given(_structure, st.integers(min_value=1, max_value=5))
def test_row_shards_reassemble_forward_hypothesis(structure, num_shards):
    """Stacked row-shard outputs reproduce the full product bit for bit --
    the decomposition the sharded serving runtime is built on."""
    p, mb, nb, m_pad, n_pad, batch, seed = structure
    m = mb * p - min(m_pad, p - 1)
    n = nb * p - min(n_pad, p - 1)
    matrix, rng = _build(m, n, p, seed)
    num_shards = min(num_shards, matrix.mb)
    x = rng.normal(size=(batch, n))
    full = matrix.matmat(x)
    shards = matrix.row_shards(num_shards)
    stacked = np.concatenate([shard.matmat(x) for shard in shards], axis=1)
    np.testing.assert_array_equal(stacked, full)


# ---------------------------------------------------------------------------
# Natural indexing: additive ks, so the backward products run as permuted
# block-diagonal (PBD) GEMMs.  The sweeps above draw random ks, which are
# additive only when mb == 1 or nb == 1.
# ---------------------------------------------------------------------------


def _build_natural(m, n, p, case_seed):
    matrix = BlockPermutedDiagonalMatrix.random(
        (m, n), p, spec=PermutationSpec(scheme="natural"), rng=case_seed
    )
    return matrix, np.random.default_rng(case_seed + 1)


def _check_against_spec(matrix, x, dy, atol):
    """All five products of ``matrix`` against the executable spec of its
    logical (dequantized) values."""
    forward, backward, grad = _spec_products(
        np.asarray(matrix._kernel_data(), dtype=np.float64),
        matrix.ks, matrix.shape, x, dy,
    )
    for name, got, want in (
        ("matmat", matrix.matmat(x), forward),
        ("rmatmat", matrix.rmatmat(dy), backward),
        ("grad_data", matrix.grad_data(x, dy), grad),
        ("matvec", matrix.matvec(x[0]), forward[0]),
        ("rmatvec", matrix.rmatvec(dy[0]), backward[0]),
    ):
        assert got.dtype == matrix.compute_dtype, name
        np.testing.assert_allclose(
            got, want, atol=atol, err_msg=f"{name} diverges from the spec"
        )


@pytest.mark.parametrize(
    "m,n,p,batch,case_seed",
    CONFIGS,
    ids=[f"m{m}n{n}p{p}b{b}" for m, n, p, b, _ in CONFIGS],
)
class TestNaturalIndexingConformance:
    def test_float64_matches_executable_spec(self, m, n, p, batch, case_seed):
        matrix, rng = _build_natural(m, n, p, case_seed)
        assert matrix._get_plan().pbd_index() is not None
        x = rng.normal(size=(batch, n))
        dy = rng.normal(size=(batch, m))
        _check_against_spec(matrix, x, dy, ATOL)

    def test_float32_matches_executable_spec(self, m, n, p, batch, case_seed):
        matrix, rng = _build_natural(m, n, p, case_seed)
        x = rng.normal(size=(batch, n))
        dy = rng.normal(size=(batch, m))
        _check_against_spec(
            matrix.with_value_dtype("float32"), x, dy, FLOAT32_ATOL
        )

    def test_int16_matches_executable_spec(self, m, n, p, batch, case_seed):
        """int16 codes decode into float64 arithmetic: the dequantized
        weights' spec holds at the float64 bar."""
        matrix, rng = _build_natural(m, n, p, case_seed)
        x = rng.normal(size=(batch, n))
        dy = rng.normal(size=(batch, m))
        _check_against_spec(matrix.with_value_dtype("int16"), x, dy, ATOL)

    def test_pbd_agrees_with_the_csr_path(
        self, m, n, p, batch, case_seed, monkeypatch
    ):
        """On one additive matrix the PBD backward and the CSR/gather
        backward (forced by hiding the PBD index) agree to 1e-10; the
        forward is CSR either way and stays bit-identical."""
        matrix, rng = _build_natural(m, n, p, case_seed)
        x = rng.normal(size=(batch, n))
        dy = rng.normal(size=(batch, m))
        pbd = (matrix.matmat(x), matrix.rmatmat(dy), matrix.grad_data(x, dy))
        monkeypatch.setattr(_IndexPlan, "pbd_index", lambda plan: None)
        csr = (matrix.matmat(x), matrix.rmatmat(dy), matrix.grad_data(x, dy))
        np.testing.assert_array_equal(pbd[0], csr[0])
        for name, got, want in zip(("rmatmat", "grad_data"), pbd[1:], csr[1:]):
            np.testing.assert_allclose(got, want, atol=ATOL, err_msg=name)


_value_dtype = st.sampled_from(["float64", "float32", "int16"])


@settings(max_examples=25, deadline=None)
@given(_structure, _value_dtype)
def test_natural_products_match_spec_hypothesis(structure, value_dtype):
    p, mb, nb, m_pad, n_pad, batch, seed = structure
    m = mb * p - min(m_pad, p - 1)
    n = nb * p - min(n_pad, p - 1)
    matrix, rng = _build_natural(m, n, p, seed)
    x = rng.normal(size=(batch, n))
    dy = rng.normal(size=(batch, m))
    atol = FLOAT32_ATOL if value_dtype == "float32" else ATOL
    _check_against_spec(matrix.with_value_dtype(value_dtype), x, dy, atol)


def _spec_dense_padded(data, ks, shape):
    """``W`` zero-padded to ``(mb*p, nb*p)`` from ``(data, ks, shape)``
    alone, by Eqn. (1); slots past the logical shape stay zero."""
    mb, nb, p = data.shape
    m, n = shape
    dense = np.zeros((mb * p, nb * p))
    c = np.arange(p)
    for bi in range(mb):
        for bj in range(nb):
            rows = bi * p + c
            cols = bj * p + (c + ks[bi, bj]) % p
            dense[rows, cols] = data[bi, bj] * ((rows < m) & (cols < n))
    return dense


@settings(max_examples=25, deadline=None)
@given(_structure)
def test_pbd_relabelling_is_block_diagonal_hypothesis(structure):
    """For additive ``ks``, ``P_rows . W . P_cols = blockdiag(D_0 ...
    D_{p-1})``: the index's class orders are permutations, every entry
    off the class blocks is zero, and the blocks are exactly the
    ``(p, mb, nb)`` relayout the kernel multiplies (padded shapes
    included)."""
    from scipy.linalg import block_diag

    from repro.core import kernel

    p, mb, nb, m_pad, n_pad, _, seed = structure
    m = mb * p - min(m_pad, p - 1)
    n = nb * p - min(n_pad, p - 1)
    matrix, _ = _build_natural(m, n, p, seed)
    index = matrix._get_plan().pbd_index()
    rows, cols = index.rows.reshape(-1), index.cols.reshape(-1)
    np.testing.assert_array_equal(np.sort(rows), np.arange(mb * p))
    np.testing.assert_array_equal(np.sort(cols), np.arange(nb * p))
    dense = _spec_dense_padded(matrix.data, matrix.ks, matrix.shape)
    blocks = kernel._pbd_blocks(matrix, index)
    assert blocks.shape == (p, mb, nb)
    np.testing.assert_array_equal(
        dense[np.ix_(rows, cols)], block_diag(*blocks)
    )


class TestPBDDispatch:
    """Which matrices are additive, and which backward path they take."""

    @pytest.mark.parametrize("shape,p", [
        ((16, 16), 4), ((13, 10), 4), ((7, 9), 3), ((30, 50), 10),
        ((5, 40), 8), ((40, 5), 8), ((6, 6), 1),
    ])
    def test_natural_ks_are_additive(self, shape, p):
        matrix = BlockPermutedDiagonalMatrix.random(shape, p, rng=0)
        assert matrix._get_plan().pbd_index() is not None

    def test_lstm_stacked_matrices_are_additive(self):
        from repro.nn import LSTMCell

        cell = LSTMCell(24, 16, p=4, rng=0)
        for op in (cell.w_op, cell.u_op):
            assert op.matrix._get_plan().pbd_index() is not None

    @pytest.mark.parametrize("num_shards", [2, 3])
    def test_row_shards_of_additive_matrices_are_additive(self, num_shards):
        """A shard plan derives its own index from its own ``ks`` and its
        backward products meet the spec."""
        matrix, rng = _build_natural(45, 30, 4, 7)
        matrix._get_plan().pbd_index()
        for shard in matrix.row_shards(num_shards):
            plan = shard._get_plan()
            assert not plan._pbd_derived
            assert plan.pbd_index() is not None
            x = rng.normal(size=(3, shard.shape[1]))
            dy = rng.normal(size=(3, shard.shape[0]))
            _check_against_spec(shard, x, dy, ATOL)

    def test_non_additive_ks_take_the_coo_path(self):
        # ks[1, 1] would have to be ks[1, 0] + ks[0, 1] - ks[0, 0] = 0.
        ks = np.array([[0, 0], [0, 1]])
        data = np.random.default_rng(0).normal(size=(2, 2, 2))
        matrix = BlockPermutedDiagonalMatrix(data, ks)
        plan = matrix._get_plan()
        assert plan.pbd_index() is None
        x = np.random.default_rng(1).normal(size=(3, 4))
        dy = np.random.default_rng(2).normal(size=(3, 4))
        _check_against_spec(matrix, x, dy, ATOL)
        assert set(matrix._coo_cache) == {False, True}

    @pytest.mark.parametrize("value_dtype", ["float64", "float32", "int16"])
    def test_backward_is_deterministic(self, value_dtype):
        """Two backward calls on the same inputs return identical bits."""
        base, rng = _build_natural(130, 96, 8, 5)
        matrix = base.with_value_dtype(value_dtype)
        x = rng.normal(size=(16, 96))
        dy = rng.normal(size=(16, 130))
        np.testing.assert_array_equal(matrix.rmatmat(dy), matrix.rmatmat(dy))
        np.testing.assert_array_equal(
            matrix.grad_data(x, dy), matrix.grad_data(x, dy)
        )
        np.testing.assert_array_equal(
            matrix.rmatvec(dy[0]), matrix.rmatvec(dy[0])
        )


@pytest.mark.parametrize("scheme", ["natural", "random"])
@pytest.mark.parametrize("value_dtype", ["float64", "float32", "int16"])
def test_one_row_products_equal_the_vector_products(scheme, value_dtype):
    """``matvec`` is the one-row ``matmat``, bit for bit the same as
    scipy's single-vector COO product over the padded view (the engine's
    bit-accurate path and ``hw/verify.py`` read it); off the PBD path
    ``rmatvec`` is likewise the single-vector product over ``W.T``."""

    def coo_vector_product(matrix, v, transposed):
        view = matrix._coo(transposed)
        padded = np.zeros(view.shape[1], dtype=v.dtype)
        padded[: v.size] = v
        return (view @ padded)[: matrix.shape[0 if not transposed else 1]]

    rng = np.random.default_rng(11)
    for m, n, p in [(13, 10, 4), (64, 48, 8), (130, 96, 8), (9, 9, 1)]:
        matrix = BlockPermutedDiagonalMatrix.random(
            (m, n), p, spec=PermutationSpec(scheme=scheme, seed=3),
            rng=rng, value_dtype=value_dtype,
        )
        x = rng.normal(size=n).astype(matrix.compute_dtype)
        y = rng.normal(size=m).astype(matrix.compute_dtype)
        np.testing.assert_array_equal(
            matrix.matvec(x), coo_vector_product(matrix, x, False)
        )
        np.testing.assert_array_equal(
            matrix.rmatvec(y), matrix.rmatmat(y[None])[0]
        )
        if matrix._get_plan().pbd_index() is None:
            np.testing.assert_array_equal(
                matrix.rmatvec(y), coo_vector_product(matrix, y, True)
            )
