"""Hot-path throughput of the block-PD kernel across (m, n, p, batch) grids.

Measures the three products every training step pays --

- forward: ``Y = matmat(X)``;
- backward: ``dX = rmatmat(dY)`` plus ``dQ = grad_data(X, dY)``;

-- through the cached index plan and the product kernel
(:mod:`repro.core.kernel`), and compares against two frozen baselines:

- **naive** (pre-PR 1): a fresh structured matrix per call (indices and
  support recomputed from scratch) whose input gradient goes through a
  materialized ``transpose()`` object.  ``bwd_speedup`` against it is the
  tracked regression metric for the kernel cache.
- **pr1**: the first cached-plan kernel -- transpose-free CSR backward
  over its own int64 CSR skeleton of ``W.T`` (built once, values
  re-gathered per call, so it stays CSR on natural ``ks``) and the
  one-shot gather ``grad_data``.  ``grad_vs_pr1`` (and ``bwd_ms`` vs
  ``pr1_bwd_ms``) track what the kernel gained on top of the plan cache;
  the acceptance bar is ``grad_vs_pr1 >= 1.0`` at (m=n=4096, p=64,
  batch=128).

Every grid point runs twice: with natural-indexed ``ks`` (the paper's
setting), whose backward products run as permuted block-diagonal GEMMs,
and with random ``ks``, whose backward products are the CSC product over
``W.T`` and the gather.  The forward runs as tiled PBD GEMMs on natural
``ks`` at least ``repro.core.kernel._PBD_MIN_WIDTH`` padded columns wide
and as the CSR product otherwise.  The table's ``fwd_path`` and
``bwd_path`` columns name the path each row took (``pbd`` or ``csr``),
and ``dense_fwd_ms`` times the dense-BLAS ``x @ W.T`` of the same shape,
so it shows where PD structure wins on a CPU.

Usage::

    python benchmarks/bench_kernel_hotpath.py                     # full grid
    python benchmarks/bench_kernel_hotpath.py --smoke             # CI canary
    python benchmarks/bench_kernel_hotpath.py --dtype float32     # reduced precision
    python benchmarks/bench_kernel_hotpath.py --dtype all         # dtype sweep table

Tables land in ``benchmarks/results/``: ``bench_kernel_hotpath.txt`` for
one dtype, ``bench_kernel_dtypes.txt`` for ``--dtype all``.  ``--smoke``
runs write ``*_smoke.txt`` beside them, so the committed full-grid tables
are never overwritten by the smoke grid.

The ``--dtype`` axis times the value-storage modes (float64 default,
float32 storage+compute, int16 fixed-point codes decoded into float64
accumulation).  The naive/pr1 baselines always run at float64 -- they
replicate pre-dtype-storage code, which *was* float64 -- so the speedup
columns fold in whatever the reduced-precision storage buys.
"""

from __future__ import annotations

import argparse
import time

from typing import NamedTuple

import numpy as np
from scipy import sparse

from _common import emit, format_table
from repro.core import BlockPermutedDiagonalMatrix, PermutationSpec, kernel

# (m, n, p, batch); the (4096, 4096, 64, 128) point is the acceptance grid.
FULL_GRID = [
    (512, 512, 16, 32),
    (1024, 1024, 32, 64),
    (2048, 1024, 32, 128),
    (4096, 4096, 64, 128),
]
SMOKE_GRID = [
    (128, 128, 8, 16),
    (130, 96, 8, 16),  # non-multiple-of-p shapes keep the padded path honest
    (64, 1024, 8, 16),  # at the width crossover: natural ks run PBD forward
]
# Natural ks take the PBD backward, random ks the CSR one.
SCHEMES = ("natural", "random")


def _time(fn, reps: int, warmup: int = 1) -> float:
    """Best-of-``reps`` wall time of ``fn`` in seconds."""
    for _ in range(warmup):
        fn()
    best = float("inf")
    for _ in range(reps):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def _naive_backward(matrix: BlockPermutedDiagonalMatrix, x, dy) -> None:
    """Faithful replica of the pre-plan (PR 0) backward step.

    Before the index-plan cache the backward pass (a) materialized a brand
    new ``transpose()`` matrix object whose indices were recomputed from
    scratch, (b) ran the input gradient as a batch-major gather + einsum,
    and (c) zero-padded ``x``/``dy`` unconditionally in ``grad_data`` and
    re-derived the gather columns and support mask per call.  Reproduced
    here verbatim so ``bwd_speedup`` measures the kernel-cache win.
    """
    # (a) + (b): dx = W.T @ dy through a freshly-built transpose object
    fresh = BlockPermutedDiagonalMatrix(matrix.data, matrix.ks, shape=matrix.shape)
    transposed = fresh.transpose()
    t_plan = transposed._get_plan()
    batch = dy.shape[0]
    dy_pad = np.zeros((batch, transposed.nb * transposed.p))
    dy_pad[:, : dy.shape[1]] = dy
    gathered = dy_pad[:, t_plan.cols.reshape(-1)].reshape(
        batch, transposed.mb, transposed.p, transposed.nb
    )
    np.einsum("icj,bicj->bic", transposed.data, gathered)
    # (c): dq with unconditional pads, batch-major gather, per-call masking
    plan = fresh._get_plan()
    x_pad = np.zeros((batch, fresh.nb * fresh.p))
    x_pad[:, : x.shape[1]] = x
    dy_pad = np.zeros((batch, fresh.mb * fresh.p))
    dy_pad[:, : dy.shape[1]] = dy
    dy_blocks = dy_pad.reshape(batch, fresh.mb, fresh.p)
    gathered = x_pad[:, plan.cols.reshape(-1)].reshape(
        batch, fresh.mb, fresh.p, fresh.nb
    )
    np.einsum("bic,bicj->icj", dy_blocks, gathered) * plan.support


class _PR1(NamedTuple):
    """The ``pr1`` baseline: its own matrix, and the int64 CSR skeleton
    of ``W.T`` with the gather that refreshes its values."""

    matrix: BlockPermutedDiagonalMatrix
    csr_t: sparse.csr_matrix
    perm: np.ndarray


def _pr1_style_matrix(matrix: BlockPermutedDiagonalMatrix) -> _PR1:
    """An independent copy of ``matrix`` frozen at PR 1 behaviour.

    The first cached-plan kernel ran the backward transpose-free, over
    CSR skeletons that stored int64 ``indptr``/``indices`` and refreshed
    their values with one ``nnz``-sized gather per call.  The copy gets
    its own plan and its own skeleton of ``W.T``, built once from
    ``support_coordinates()``: each row (an original column) lists its
    slots in ascending original row, so spmm against it pays exactly
    that kernel's index traffic.
    """
    pr1 = BlockPermutedDiagonalMatrix(matrix.data, matrix.ks, shape=matrix.shape)
    rows, cols = pr1.support_coordinates()
    order = np.lexsort((rows, cols))
    perm = np.flatnonzero(pr1.support_mask())[order]
    indptr = np.zeros(pr1.shape[1] + 1, dtype=np.int64)
    indptr[1:] = np.cumsum(np.bincount(cols, minlength=pr1.shape[1]))
    csr_t = sparse.csr_matrix(
        (pr1.data.ravel()[perm], rows[order], indptr),
        shape=(pr1.shape[1], pr1.shape[0]),
    )
    # The constructor narrows indices that fit to int32; the baseline's
    # were int64.
    csr_t.indptr = indptr
    csr_t.indices = rows[order].astype(np.int64)
    return _PR1(pr1, csr_t, perm)


def _pr1_rmatmat(pr1: _PR1, dy) -> np.ndarray:
    """The ``pr1`` baseline's input gradient: refresh the ``W.T`` values
    with the gather, then the CSR product, whatever path the matrix's own
    ``rmatmat`` takes."""
    pr1.csr_t.data[:] = pr1.matrix.data.ravel()[pr1.perm]
    return np.ascontiguousarray(pr1.csr_t.dot(dy.T).T)


def _pr1_grad(matrix: BlockPermutedDiagonalMatrix, x, dy) -> np.ndarray:
    """Verbatim replica of the PR 1 ``grad_data`` (transposed gather)."""
    plan = matrix._get_plan()
    batch = x.shape[0]
    x_t = np.ascontiguousarray(x.T)
    dy_t = np.ascontiguousarray(dy.T)
    if not plan.aligned_n:
        x_pad = np.zeros((matrix.nb * matrix.p, batch))
        x_pad[: x_t.shape[0]] = x_t
        x_t = x_pad
    if not plan.aligned_m:
        dy_pad = np.zeros((matrix.mb * matrix.p, batch))
        dy_pad[: dy_t.shape[0]] = dy_t
        dy_t = dy_pad
    dy_blocks = dy_t.reshape(matrix.mb, matrix.p, batch)
    gathered = x_t[plan.cols.reshape(-1)].reshape(
        matrix.mb, matrix.p, matrix.nb, batch
    )
    grad = np.einsum("icb,icjb->icj", dy_blocks, gathered)
    if plan.full_support:
        return grad
    return grad * plan.support


def bench_point(
    m: int,
    n: int,
    p: int,
    batch: int,
    reps: int,
    value_dtype: str = "float64",
    scheme: str = "natural",
) -> tuple:
    rng = np.random.default_rng(0)
    base = BlockPermutedDiagonalMatrix.random(
        (m, n), p, spec=PermutationSpec(scheme=scheme, seed=0), rng=rng
    )
    matrix = (
        base if value_dtype == "float64" else base.with_value_dtype(value_dtype)
    )
    pr1 = _pr1_style_matrix(base)
    # Inputs arrive in the kernel's compute dtype (the serving path hands
    # float32 activations to a float32 layer); baselines stay float64.
    x64 = rng.normal(size=(batch, n))
    dy64 = rng.normal(size=(batch, m))
    x = x64.astype(matrix.compute_dtype)
    dy = dy64.astype(matrix.compute_dtype)

    fwd_s = _time(lambda: matrix.matmat(x), reps)
    dense = matrix.to_dense().astype(matrix.compute_dtype)
    dense_s = _time(lambda: x @ dense.T, reps)
    bwd_s = _time(
        lambda: (matrix.rmatmat(dy), matrix.grad_data(x, dy)), reps
    )
    grad_s = _time(lambda: matrix.grad_data(x, dy), reps)
    pr1_bwd_s = _time(
        lambda: (_pr1_rmatmat(pr1, dy64), _pr1_grad(pr1.matrix, x64, dy64)),
        reps,
    )
    pr1_grad_s = _time(lambda: _pr1_grad(pr1.matrix, x64, dy64), reps)
    naive_s = _time(lambda: _naive_backward(base, x64, dy64), reps)

    # A forward touches batch * nnz multiply-accumulates; the backward pair
    # touches twice that.  Report effective GMAC/s on the stored weights.
    macs = batch * matrix.nnz
    fwd_gmacs = macs / fwd_s / 1e9
    bwd_gmacs = 2 * macs / bwd_s / 1e9
    pbd = matrix._get_plan().pbd_index() is not None
    wide = matrix.nb * matrix.p >= kernel._PBD_MIN_WIDTH
    return (
        m,
        n,
        p,
        batch,
        "pbd" if pbd and wide else "csr",
        "pbd" if pbd else "csr",
        value_dtype,
        f"{fwd_s * 1e3:.2f}",
        f"{dense_s * 1e3:.2f}",
        f"{fwd_gmacs:.2f}",
        f"{bwd_s * 1e3:.2f}",
        f"{bwd_gmacs:.2f}",
        f"{grad_s * 1e3:.2f}",
        f"{pr1_bwd_s * 1e3:.2f}",
        f"{pr1_grad_s * 1e3:.2f}",
        f"{naive_s * 1e3:.2f}",
        f"{pr1_grad_s / grad_s:.2f}x",
        f"{naive_s / bwd_s:.2f}x",
    )


HEADERS = [
    "m",
    "n",
    "p",
    "batch",
    "fwd_path",
    "bwd_path",
    "dtype",
    "fwd_ms",
    "dense_fwd_ms",
    "fwd_GMAC/s",
    "bwd_ms",
    "bwd_GMAC/s",
    "grad_ms",
    "pr1_bwd_ms",
    "pr1_grad_ms",
    "naive_bwd_ms",
    "grad_vs_pr1",
    "bwd_speedup",
]


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="tiny grid + few reps: a fast CI regression canary",
    )
    parser.add_argument(
        "--reps", type=int, default=None, help="timing repetitions per point"
    )
    parser.add_argument(
        "--dtype",
        default="float64",
        choices=("float64", "float32", "int16", "all"),
        help="value-storage dtype under test; 'all' sweeps every mode per "
        "grid point and emits bench_kernel_dtypes.txt",
    )
    args = parser.parse_args()
    grid = SMOKE_GRID if args.smoke else FULL_GRID
    reps = args.reps if args.reps is not None else (2 if args.smoke else 5)
    if reps < 1:
        parser.error("--reps must be >= 1")
    suffix = "_smoke" if args.smoke else ""
    dtypes = (
        ("float64", "float32", "int16") if args.dtype == "all" else (args.dtype,)
    )
    rows = [
        bench_point(*point, reps, value_dtype, scheme)
        for point in grid
        for scheme in SCHEMES
        for value_dtype in dtypes
    ]
    name = "bench_kernel_dtypes" if args.dtype == "all" else "bench_kernel_hotpath"
    emit(name + suffix, format_table(HEADERS, rows))


if __name__ == "__main__":
    main()
