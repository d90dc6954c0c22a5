"""Block-permuted diagonal matrices: the paper's weight representation.

An ``m x n`` weight matrix is tiled with ``p x p`` permuted diagonal blocks
(Eqn. (1)).  Only the ``m*n/p`` diagonal values (the ``q`` vector) and one
small integer per block (``k_l``) are stored; non-zero *positions* are
recomputed arithmetically, which is the property the PermDNN hardware
exploits to eliminate index storage.

When ``m`` or ``n`` is not a multiple of ``p`` the matrix is zero-padded
(footnote 3 of the paper); padded positions are forced to zero and excluded
from storage accounting.

Index-plan cache
----------------
Because non-zero positions are arithmetically derivable, every index
artifact -- the global row/column of each stored slot, the support mask,
and the class gather vectors of the permuted block-diagonal backward --
is a pure function of the *structure* ``(ks, shape, p)`` and never of
the values.  All of it is computed at most once, lazily, in an
:class:`_IndexPlan` cached on the matrix, and none of it is ever stored
(see "What artifacts store").  The slot coordinates are the only index
structure the sparse products use: they read them as they are, in
storage order, as the coordinates of a scipy COO view, so no CSR or
transposed index layout is derived and no value is re-gathered per call.
Every product (:meth:`~BlockPermutedDiagonalMatrix.matmat`,
:meth:`~BlockPermutedDiagonalMatrix.rmatmat`,
:meth:`~BlockPermutedDiagonalMatrix.grad_data`, ...) reads the plan
instead of rebuilding indices, and the backward path is transpose-free:
no intermediate :meth:`~BlockPermutedDiagonalMatrix.transpose` object
is materialized per call.

The structure is fixed for a matrix's whole life: ``ks`` is exposed
read-only, ``shape`` is a plain property, and no method swaps either, so
a plan, once built, is never invalidated.  A different structure is a
different matrix (and, for a layer, a different layer built around it).
Matrices sharing one structure (e.g. the per-offset channel matrices of
a lowered convolution) can share a single plan via
:meth:`~BlockPermutedDiagonalMatrix.like`.

Value storage
-------------
Orthogonally to the index structure, the stored values live in one of
three ``value_dtype`` modes (see :mod:`repro.core.value_types`):
``"float64"`` (default, the conformance reference), ``"float32"`` (half
the hot-path memory traffic; products run end to end in float32), and
``"int16"`` (fixed-point codes in a
:class:`~repro.nn.quantization.FixedPointFormat`).  Kernels read values
through :meth:`~BlockPermutedDiagonalMatrix._kernel_data`, which hands
them the storage array for the float modes and the codes dequantized to
float64 for ``int16`` -- the power-of-two scale makes dequantize-then-
accumulate bitwise equal to accumulate-then-scale, so the kernel carries
no scaling logic.  Accumulation policy: float64 and int16 products
accumulate in float64 (int16 is the software analogue of the paper's
16-bit weights feeding wide accumulators); float32 accumulates in
float32, which is where its speedup comes from.
:meth:`~BlockPermutedDiagonalMatrix.with_value_dtype` converts between
modes while sharing the cached index plan.

Aliasing contract
-----------------
Assigning ``data`` (including at construction) **aliases** the supplied
array -- no copy -- whenever it is already in the storage dtype with a
zeroed padding region, which is always true for shapes divisible by
``p``.  A masked copy is made only when padding actually zeroes
something (and a cast copy when the dtype differs).  Consumers rely on
the alias:
:class:`~repro.nn.layers.perm_diag_linear.PermDiagLinear` points its
trainable parameter at the same buffer, so in-place optimizer updates are
visible to the matrix with zero copies.  In-place writes to ``data`` are
fine for *values*; writing non-zeros into the padding region of an aliased
buffer is unsupported (products ignore those slots, but storage accounting
assumes they stay zero and :meth:`~BlockPermutedDiagonalMatrix.from_q`
rejects a ``q`` that holds them).

Product kernel
--------------
Every product calls the one kernel in :mod:`repro.core.kernel` directly.
The forward is a scipy COO product over the plan's int32 slot
coordinates on every matrix, reading the stored values in place.  The
backward products follow the structure: when ``ks`` are additive
(``ks[bi, bj] == (a[bi] + b[bj]) % p``, as natural indexing's are) rows
and columns relabel into ``p`` dense blocks and each backward product is
one stacked GEMM (:meth:`_IndexPlan.pbd_index`); otherwise they are the
COO product over the same coordinates swapped and a batched
gather-and-contract.  Nothing is chosen by setting, so matrices, layers
and artifacts carry no kernel name.

What artifacts store
--------------------
Index state is never stored.  Engine images (and so bundles) keep only
the values ``q`` (:meth:`~BlockPermutedDiagonalMatrix.to_q`), the
per-block ``ks``, ``p``, the logical shape and the value-dtype tags;
checkpoints keep parameter values plus each PD matrix's ``ks``.  This
is the paper's storage model (Sec. III, Fig. 4): positions are
recomputed from ``k_l`` with a modulo, so a PD layer costs its values
plus ``ceil(log2 p)`` bits per block.
:meth:`~BlockPermutedDiagonalMatrix.from_q` is the one decoder; a loaded
matrix derives its plan from ``(ks, shape, p)`` lazily, at most once,
exactly like a freshly built one.
"""

from __future__ import annotations

import numbers
from functools import cached_property
from typing import NamedTuple

import numpy as np

from scipy import sparse as _scipy_sparse

from repro.core import kernel as _kernel
from repro.core import value_types as _value_types
from repro.core.permutation import PermutationSpec

__all__ = ["BlockPermutedDiagonalMatrix", "convert_values", "row_shard_bounds"]


def _resolve_value_dtype(value_dtype, fixed_point):
    """Canonical ``(name, format)`` for a constructor's value-dtype args.

    ``None`` is ``"float64"``.  ``int16`` requires an explicit format
    here -- only :meth:`BlockPermutedDiagonalMatrix.with_value_dtype`
    derives one, because deriving needs the values.
    """
    name = _value_types.validate_value_dtype(value_dtype)
    if name == "int16":
        if fixed_point is None:
            raise ValueError(
                "int16 value storage needs an explicit FixedPointFormat "
                "(fixed_point=...); use with_value_dtype() to derive one "
                "from existing values"
            )
        if fixed_point.total_bits > 16:
            raise ValueError(
                f"int16 storage holds at most 16-bit codes, got "
                f"total_bits={fixed_point.total_bits}"
            )
    elif fixed_point is not None:
        raise ValueError(
            f"fixed_point only applies to int16 value storage, not {name!r}"
        )
    return name, fixed_point


def row_shard_bounds(num_block_rows: int, num_shards: int) -> list[tuple[int, int]]:
    """Contiguous, balanced partition of ``num_block_rows`` into shards.

    Returns ``(start_block, stop_block)`` per shard; the first
    ``num_block_rows % num_shards`` shards carry one extra block row.  Row
    sharding happens at block-row granularity so every shard stays a valid
    block-PD matrix (used by :meth:`BlockPermutedDiagonalMatrix.row_shards`
    and the serving runtime in :mod:`repro.serve`).  ``num_shards`` is
    checked, not truncated: a ``bool`` or a non-integer raises
    ``ValueError``, as ``repro.nn.functional.checked_int`` does.
    """
    if isinstance(num_shards, bool) or not isinstance(num_shards, numbers.Integral):
        raise ValueError(f"num_shards must be an integer, got {num_shards!r}")
    if num_shards <= 0:
        raise ValueError(f"num_shards must be positive, got {num_shards}")
    if num_shards > num_block_rows:
        raise ValueError(
            f"cannot cut {num_block_rows} block row(s) into {num_shards} "
            f"shards (each shard needs at least one block row)"
        )
    base, extra = divmod(num_block_rows, num_shards)
    bounds = []
    start = 0
    for idx in range(num_shards):
        stop = start + base + (1 if idx < extra else 0)
        bounds.append((start, stop))
        start = stop
    return bounds


class _PBDIndex(NamedTuple):
    """Gather vectors of the permuted block-diagonal form, O(m + n) in all.

    Class ``s`` holds, in block row ``bi``, in-block row
    ``row_offsets[s, bi]`` (global row ``rows[s, bi]``) and, in block
    column ``bj``, global column ``cols[s, bj]``.  Its dense block is
    ``D_s[bi, bj] = data[bi, bj, row_offsets[s, bi]]``, read as
    ``data[block_rows, :, row_offsets]``.
    """

    block_rows: np.ndarray  # (1, mb): arange(mb), broadcast against row_offsets
    row_offsets: np.ndarray  # (p, mb)
    rows: np.ndarray  # (p, mb)
    cols: np.ndarray  # (p, nb)


def _pbd_index(ks: np.ndarray, p: int) -> _PBDIndex | None:
    """The :class:`_PBDIndex` of ``ks`` (reduced mod ``p``), or ``None``
    when no ``a``, ``b`` give ``ks[bi, bj] == (a[bi] + b[bj]) % p``."""
    mb, nb = ks.shape
    b = ks[0]
    a = (ks[:, 0] - ks[0, 0]) % p
    if not np.array_equal((a[:, None] + b[None, :]) % p, ks):
        return None
    s = np.arange(p, dtype=np.intp)[:, None]
    block_rows = np.arange(mb, dtype=np.intp)[None, :]
    row_offsets = (s - a[None, :]) % p
    rows = block_rows * p + row_offsets
    cols = np.arange(nb, dtype=np.intp)[None, :] * p + (s + b[None, :]) % p
    index = _PBDIndex(block_rows, row_offsets, rows, cols)
    for arr in index:
        arr.setflags(write=False)
    return index


class _IndexPlan:
    """Cached index arithmetic for one ``(ks, shape, p)`` structure.

    Built lazily, once, and shared by every matrix that uses the structure
    (see :meth:`BlockPermutedDiagonalMatrix.like`).  The eager members are
    the slot coordinates and the support mask; the sparse products read
    the coordinates as they are, as the ``(row, col)`` arrays of scipy COO
    views (:meth:`BlockPermutedDiagonalMatrix._coo`), so no other index
    layout is ever derived for them.  The support coordinates, the last
    block row's columns (engine MACs) and the backward products' PBD
    index are built lazily on first use so consumers that never ask for
    them never pay for them.  All exposed arrays are read-only.

    Attributes:
        rows / cols: global ``(row, col)`` of every stored slot,
            ``(mb, nb, p)``; int32 whenever the padded dimensions fit
            (scipy's native index type, so the COO views alias them).
        support: boolean ``(mb, nb, p)`` mask of slots inside the logical shape.
        nnz: number of in-bounds stored slots.
        aligned_m / aligned_n / full_support: padding-free flags per axis.
    """

    def __init__(self, ks: np.ndarray, shape: tuple[int, int], p: int) -> None:
        mb, nb = ks.shape
        m, n = shape
        self.p = p
        self.mb = mb
        self.nb = nb
        self.shape = shape
        self.ks = ks
        self.aligned_m = m == mb * p
        self.aligned_n = n == nb * p
        self.full_support = self.aligned_m and self.aligned_n
        idx = np.int32 if max(mb, nb) * p < 2**31 else np.int64
        c = np.arange(p, dtype=idx)
        rows = np.ascontiguousarray(
            np.broadcast_to(
                np.arange(mb, dtype=idx)[:, None, None] * p + c, (mb, nb, p)
            )
        )
        cols = (
            np.arange(nb, dtype=idx)[None, :, None] * p
            + (c[None, None, :] + ks.astype(idx)[:, :, None]) % p
        )
        if self.full_support:
            support = np.ones((mb, nb, p), dtype=bool)
        else:
            support = (rows < m) & (cols < n)
        self.nnz = int(support.sum())
        for arr in (rows, cols, support):
            arr.setflags(write=False)
        self.rows, self.cols, self.support = rows, cols, support
        self._support_coords: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None
        self._pbd_derived = False
        self._pbd: _PBDIndex | None = None

    def support_coords(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(flat, rows, cols)`` of every in-bounds slot, each 1-D.

        ``flat`` indexes ``data.ravel()``; ``rows``/``cols`` are the global
        dense coordinates (always inside the logical shape).
        """
        if self._support_coords is None:
            if self.full_support:
                flat = np.arange(self.rows.size, dtype=np.int64)
                rows, cols = self.rows.reshape(-1), self.cols.reshape(-1)
            else:
                flat = np.flatnonzero(self.support)
                rows = self.rows.reshape(-1)[flat]
                cols = self.cols.reshape(-1)[flat]
            for arr in (flat, rows, cols):
                arr.setflags(write=False)
            self._support_coords = (flat, rows, cols)
        return self._support_coords

    @cached_property
    def last_row_cols(self) -> np.ndarray:
        """Columns holding the last block row's in-bounds weights, 1-D.

        A row-padded matrix's last block row keeps only its first rows,
        so it stores weights in fewer columns than a full one; the
        engine's MAC count reads them here
        (:func:`repro.hw.engine._stored_macs`).  Sliced off ``cols`` and
        ``support`` lazily, at most once; a row-shard plan derives its own.
        """
        cols = self.cols[-1][self.support[-1]]
        cols.setflags(write=False)
        return cols

    def pbd_index(self) -> _PBDIndex | None:
        """Class gather vectors for additive ``ks``; ``None`` otherwise.

        ``ks`` are *additive* when ``ks[bi, bj] == (a[bi] + b[bj]) % p``,
        as natural indexing's are (``k = (bi*nb + bj) % p``).  Then row
        ``bi*p + c`` and column ``bj*p + d`` meet at a stored slot exactly
        when ``(c + a[bi]) % p == (d - b[bj]) % p``: both lie in the same
        *class* ``s``.  Each class holds one row per block row and one
        column per block column, so relabelling rows and columns by class
        turns ``W`` into ``p`` dense ``mb x nb`` blocks -- the permuted
        block-diagonal (PBD) form the backward products run on (see
        :mod:`repro.core.kernel`).  Derived lazily, at most once (the
        check costs O(mb*nb)); a row-shard plan derives its own.
        """
        if not self._pbd_derived:
            self._pbd = _pbd_index(self.ks, self.p)
            self._pbd_derived = True
        return self._pbd

    # ------------------------------------------------------------------
    # Row sharding
    # ------------------------------------------------------------------

    def row_block_slice(self, start: int, stop: int) -> "_IndexPlan":
        """Derived plan covering block rows ``[start, stop)`` only.

        Everything is obtained by **slicing this plan's cached arrays** --
        no modulo index arithmetic runs, which is what lets the serving
        runtime shard a layer across engines without paying the structure
        computation per shard.  ``cols`` and ``support`` are shared views;
        ``rows`` is a re-based copy.  Members this plan has not built stay
        lazy on the shard too.
        """
        if not (0 <= start < stop <= self.mb):
            raise ValueError(
                f"invalid block-row slice [{start}, {stop}) for {self.mb} "
                f"block rows"
            )
        p = self.p
        shard = _IndexPlan.__new__(_IndexPlan)
        shard.p = p
        shard.mb = stop - start
        shard.nb = self.nb
        # The last shard of a row-padded matrix keeps the padding.
        shard.shape = (min(shard.mb * p, self.shape[0] - start * p), self.shape[1])
        shard.ks = self.ks[start:stop]
        shard.aligned_m = shard.shape[0] == shard.mb * p
        shard.aligned_n = self.aligned_n
        shard.full_support = shard.aligned_m and shard.aligned_n
        rows = np.ascontiguousarray(self.rows[start:stop] - start * p)
        rows.setflags(write=False)
        shard.rows = rows
        shard.cols = self.cols[start:stop]
        shard.support = self.support[start:stop]
        shard.nnz = int(shard.support.sum())
        shard._support_coords = None
        shard._pbd_derived = False
        shard._pbd = None
        return shard


class BlockPermutedDiagonalMatrix:
    """An ``m x n`` matrix made of ``p x p`` permuted diagonal blocks.

    Storage layout: ``data[bi, bj, c]`` is the non-zero of block
    ``(bi, bj)`` in its row ``c``, located at global position
    ``(bi*p + c, bj*p + (c + ks[bi, bj]) % p)``.

    The structure ``(ks, shape, p)`` is fixed at construction -- ``ks`` is
    exposed read-only and ``shape`` is a property -- and all index
    arithmetic is derived from it lazily, cached, and never stored or
    invalidated (see the module docstring).  Use :meth:`like` to create
    siblings that share the cached plan.

    Args:
        data: array of shape ``(mb, nb, p)`` with the non-zero values.
            Aliased, not copied, when already in the storage dtype with a
            zeroed padding region (the aliasing contract -- see the module
            docstring).  For ``int16`` storage this must hold integer
            fixed-point *codes*, not float values.
        ks: integer array of shape ``(mb, nb)`` with per-block permutation
            parameters (reduced modulo ``p``).
        shape: logical ``(m, n)``; defaults to the padded ``(mb*p, nb*p)``.
        value_dtype: value-storage mode (``"float64"``, ``"float32"``,
            ``"int16"``); ``None`` is ``"float64"``.
        fixed_point: the :class:`~repro.nn.quantization.FixedPointFormat`
            the stored codes are in; required for (and exclusive to)
            ``int16`` storage.
    """

    def __init__(
        self,
        data: np.ndarray,
        ks: np.ndarray,
        shape: tuple[int, int] | None = None,
        value_dtype: str | None = None,
        fixed_point=None,
    ) -> None:
        self._value_dtype, self._fixed_point = _resolve_value_dtype(
            value_dtype, fixed_point
        )
        data = self._coerce_values(data)
        ks = np.asarray(ks, dtype=np.int64)
        if data.ndim != 3:
            raise ValueError(f"data must have shape (mb, nb, p), got {data.shape}")
        mb, nb, p = data.shape
        if ks.shape != (mb, nb):
            raise ValueError(
                f"ks shape {ks.shape} does not match data blocks ({mb}, {nb})"
            )
        if p <= 0:
            raise ValueError("block size p must be positive")
        self.p = p
        ks = ks % p
        ks.setflags(write=False)
        self._ks = ks
        if shape is None:
            shape = (mb * p, nb * p)
        m, n = shape
        if not (mb * p - p < m <= mb * p and nb * p - p < n <= nb * p):
            raise ValueError(
                f"logical shape {shape} inconsistent with {mb}x{nb} blocks of p={p}"
            )
        self._shape = (int(m), int(n))
        self._plan: _IndexPlan | None = None
        self._coo_cache: dict[bool, _scipy_sparse.coo_matrix] = {}
        self.data = data  # through the property: masks padding only if needed

    # ------------------------------------------------------------------
    # Structure and value access
    # ------------------------------------------------------------------

    @property
    def shape(self) -> tuple[int, int]:
        """Logical ``(m, n)``, fixed at construction."""
        return self._shape

    @property
    def ks(self) -> np.ndarray:
        """Per-block permutation parameters (read-only array)."""
        return self._ks

    @property
    def data(self) -> np.ndarray:
        """Stored values, shape ``(mb, nb, p)``.

        Assignment validates the shape and enforces the padding rule under
        the aliasing contract: the array is aliased when its padding region
        is already zero, and replaced by a masked copy only otherwise.
        """
        return self._data

    def _coerce_values(self, value: np.ndarray) -> np.ndarray:
        """``value`` in the storage dtype, aliasing whenever possible.

        The float modes cast (``np.asarray`` aliases when the dtype
        already matches).  ``int16`` storage holds fixed-point *codes*:
        float input is rejected rather than silently quantized -- encode
        through :meth:`with_value_dtype` -- and wider integer input is
        range-checked before narrowing.
        """
        if self._value_dtype == "int16":
            value = np.asarray(value)
            if value.dtype == np.int16:
                return value
            if value.dtype.kind not in "iu":
                raise TypeError(
                    f"int16 value storage holds fixed-point codes; got "
                    f"{value.dtype} values (encode via with_value_dtype)"
                )
            info = np.iinfo(np.int16)
            if value.size and (
                value.min() < info.min or value.max() > info.max
            ):
                raise ValueError(
                    f"integer codes outside the int16 range "
                    f"[{info.min}, {info.max}]"
                )
            return value.astype(np.int16)
        return np.asarray(
            value, dtype=_value_types.storage_dtype(self._value_dtype)
        )

    @data.setter
    def data(self, value: np.ndarray) -> None:
        value = self._coerce_values(value)
        mb, nb = self._ks.shape
        if value.shape != (mb, nb, self.p):
            raise ValueError(
                f"data must have shape ({mb}, {nb}, {self.p}), got {value.shape}"
            )
        if self._shape != (mb * self.p, nb * self.p):
            support = self._get_plan().support
            if np.any(value[~support]):
                value = value * support  # force padding region to zero
        self._data = value

    # ------------------------------------------------------------------
    # Value storage
    # ------------------------------------------------------------------

    @property
    def value_dtype(self) -> str:
        """Value-storage mode: ``"float64"``, ``"float32"`` or ``"int16"``."""
        return self._value_dtype

    @property
    def fixed_point(self):
        """The codes' :class:`~repro.nn.quantization.FixedPointFormat`
        (``int16`` storage only; ``None`` for the float modes)."""
        return self._fixed_point

    @property
    def compute_dtype(self) -> np.dtype:
        """The dtype products cast inputs to and accumulate in.

        ``float32`` storage computes in float32 (the speedup); everything
        else -- including ``int16``, whose codes are dequantized -- runs
        the float64 reference arithmetic.
        """
        if self._value_dtype == "float32":
            return np.dtype(np.float32)
        return np.dtype(np.float64)

    def _kernel_data(self) -> np.ndarray:
        """Values as the kernel consumes them.

        The storage array itself for the float modes (zero-copy); for
        ``int16``, the codes dequantized to float64 in one fused multiply
        (exact: the scale is a power of two).  The kernel reads values
        through this, never :attr:`data`, so it stays dtype-agnostic.
        """
        if self._value_dtype == "int16":
            from repro.nn.quantization import decode_fixed_point

            return decode_fixed_point(self._data, self._fixed_point)
        return self._data

    def with_value_dtype(
        self, value_dtype: str, fixed_point=None
    ) -> "BlockPermutedDiagonalMatrix":
        """Sibling holding the same logical weights at another value dtype.

        Shares this matrix's cached index plan (like :meth:`like`).
        Converting *to* ``int16`` encodes the logical (dequantized, for an
        int16 source) float64 values into fixed-point codes, deriving a
        covering :class:`~repro.nn.quantization.FixedPointFormat` when
        ``fixed_point`` is omitted; converting to a float mode decodes.
        A no-op conversion (same dtype, no new format) aliases storage.
        """
        name = _value_types.validate_value_dtype(value_dtype)
        logical = np.asarray(self._kernel_data(), dtype=np.float64)
        if name == "int16":
            from repro.nn.quantization import (
                choose_fixed_point_format,
                encode_fixed_point,
            )

            fmt = fixed_point or choose_fixed_point_format(logical)
            data = encode_fixed_point(logical, fmt)
        else:
            if fixed_point is not None:
                raise ValueError(
                    f"fixed_point only applies to int16 value storage, "
                    f"not {name!r}"
                )
            fmt = None
            data = logical.astype(
                _value_types.storage_dtype(name), copy=False
            )
        return self._sibling(self._get_plan(), data, name, fmt)

    # ------------------------------------------------------------------
    # Plan-sharing siblings
    # ------------------------------------------------------------------

    def like(self, data: np.ndarray) -> "BlockPermutedDiagonalMatrix":
        """New matrix with this structure, **sharing** the cached index plan.

        Use when many value sets ride one structure (per-offset channel
        matrices of a lowered convolution, weight-shared codebook copies):
        the index arithmetic is computed once for the whole family.
        ``data`` follows the aliasing contract.
        """
        return self._sibling(
            self._get_plan(), data, self._value_dtype, self._fixed_point
        )

    def row_shard(
        self, start_block: int, stop_block: int
    ) -> "BlockPermutedDiagonalMatrix":
        """Shard covering block rows ``[start_block, stop_block)``.

        The shard **aliases** this matrix's value storage (its ``data`` is
        a view of the corresponding block-row slice, so in-place weight
        updates stay visible) and its index plan is derived from this
        matrix's cached plan by pure slicing
        (:meth:`_IndexPlan.row_block_slice`) -- no index arithmetic is
        recomputed per shard.  Row shards partition the output dimension:
        stacking every shard's product output reproduces the full product
        bit for bit, which is the contract the sharded serving runtime
        (:mod:`repro.serve`) is built on.
        """
        return self._sibling(
            self._get_plan().row_block_slice(start_block, stop_block),
            self._data[start_block:stop_block],
            self._value_dtype,
            self._fixed_point,
        )

    def row_shards(self, num_shards: int) -> list["BlockPermutedDiagonalMatrix"]:
        """Partition into ``num_shards`` contiguous row shards.

        Block rows are split as evenly as possible
        (:func:`row_shard_bounds`); see :meth:`row_shard` for the aliasing
        and plan-sharing guarantees.
        """
        return [
            self.row_shard(start, stop)
            for start, stop in row_shard_bounds(self.mb, num_shards)
        ]

    def _sibling(
        self, plan: _IndexPlan, data: np.ndarray, value_dtype: str, fixed_point
    ) -> "BlockPermutedDiagonalMatrix":
        """New matrix over ``plan``'s structure holding ``data``.

        The one place a matrix is built around an existing plan (see
        :meth:`like`, :meth:`with_value_dtype` and :meth:`row_shard`): the
        structure ``(ks, shape, p)`` is read off the plan, and ``data``
        follows the aliasing contract at ``value_dtype`` /
        ``fixed_point``.
        """
        out = self.__class__.__new__(self.__class__)
        out.p = plan.p
        out._ks = plan.ks
        out._shape = plan.shape
        out._plan = plan
        out._coo_cache = {}
        out._value_dtype = value_dtype
        out._fixed_point = fixed_point
        out.data = data
        return out

    def _get_plan(self) -> _IndexPlan:
        plan = self._plan
        if plan is None:
            plan = self._plan = _IndexPlan(self._ks, self._shape, self.p)
        return plan

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------

    @classmethod
    def zeros(
        cls,
        shape: tuple[int, int],
        p: int,
        spec: PermutationSpec | None = None,
        ks: np.ndarray | None = None,
        value_dtype: str | None = None,
        fixed_point=None,
    ) -> "BlockPermutedDiagonalMatrix":
        """All-zero matrix of logical ``shape`` with block size ``p``."""
        m, n = shape
        mb, nb = -(-m // p), -(-n // p)
        if ks is None:
            spec = spec or PermutationSpec()
            ks = spec.generate(mb * nb, p).reshape(mb, nb)
        name, fmt = _resolve_value_dtype(value_dtype, fixed_point)
        return cls(
            np.zeros((mb, nb, p), dtype=_value_types.storage_dtype(name)),
            ks,
            shape=shape,
            value_dtype=name,
            fixed_point=fmt,
        )

    @classmethod
    def random(
        cls,
        shape: tuple[int, int],
        p: int,
        spec: PermutationSpec | None = None,
        scale: float | None = None,
        rng: np.random.Generator | int | None = None,
        value_dtype: str | None = None,
        fixed_point=None,
    ) -> "BlockPermutedDiagonalMatrix":
        """Gaussian-initialized PD matrix.

        ``scale`` defaults to ``sqrt(p / n)``: each output unit receives
        ``n / p`` non-zero inputs, so this matches He/Glorot-style fan-in
        scaling on the *effective* (sparse) fan-in.

        For ``value_dtype="int16"`` the samples are drawn at float64 and
        then encoded (deriving a covering format when ``fixed_point`` is
        omitted), so the same seed yields the same underlying weights at
        every precision.
        """
        requested = _value_types.validate_value_dtype(value_dtype)
        out = cls.zeros(
            shape,
            p,
            spec=spec,
            value_dtype="float64" if requested == "int16" else requested,
        )
        if not isinstance(rng, np.random.Generator):
            rng = np.random.default_rng(rng)
        if scale is None:
            scale = float(np.sqrt(p / max(shape[1], 1)))
        out.data = rng.normal(0.0, scale, size=out.data.shape)
        if requested == "int16":
            return out.with_value_dtype("int16", fixed_point=fixed_point)
        if fixed_point is not None:
            raise ValueError(
                f"fixed_point only applies to int16 value storage, "
                f"not {requested!r}"
            )
        return out

    @classmethod
    def from_dense(
        cls,
        dense: np.ndarray,
        p: int,
        ks: np.ndarray | None = None,
        spec: PermutationSpec | None = None,
        value_dtype: str | None = None,
        fixed_point=None,
    ) -> "BlockPermutedDiagonalMatrix":
        """Project a dense matrix onto the PD support (keep on-diagonal entries).

        For fixed ``ks`` this is the optimal approximation in the L2 sense
        (Sec. III-F): the kept entries are untouched and everything off the
        support contributes its full energy to the error no matter what.
        The projection runs at float64; a reduced-precision ``value_dtype``
        is applied to the result (via :meth:`with_value_dtype`).
        """
        dense = np.asarray(dense, dtype=np.float64)
        if dense.ndim != 2:
            raise ValueError(f"expected 2-D matrix, got shape {dense.shape}")
        requested = _value_types.validate_value_dtype(value_dtype)
        out = cls.zeros(dense.shape, p, spec=spec, ks=ks)
        flat, rows, cols = out._get_plan().support_coords()
        data = np.zeros(out.data.shape)
        data.reshape(-1)[flat] = dense[rows, cols]
        out.data = data
        if requested != "float64" or fixed_point is not None:
            return out.with_value_dtype(requested, fixed_point=fixed_point)
        return out

    # ------------------------------------------------------------------
    # Structure
    # ------------------------------------------------------------------

    @property
    def mb(self) -> int:
        """Number of block rows."""
        return self._data.shape[0]

    @property
    def nb(self) -> int:
        """Number of block columns."""
        return self._data.shape[1]

    @property
    def num_blocks(self) -> int:
        return self.mb * self.nb

    @property
    def nnz(self) -> int:
        """Number of stored (non-padding) entries: ``~ m*n/p``."""
        return self._get_plan().nnz

    @property
    def compression_ratio(self) -> float:
        """Dense element count over stored element count (== ``p`` unpadded)."""
        return self.shape[0] * self.shape[1] / self.nnz

    def support_mask(self) -> np.ndarray:
        """Boolean ``(mb, nb, p)`` mask of entries inside the logical shape.

        Read-only view of the cached index plan; copy before mutating.
        """
        return self._get_plan().support

    def support_coordinates(self) -> tuple[np.ndarray, np.ndarray]:
        """``(rows, cols)`` 1-D global coordinates of every in-bounds slot.

        The cheap way to enumerate the support (e.g. for connectivity
        analysis) without materializing ``dense_mask``.
        """
        _, rows, cols = self._get_plan().support_coords()
        return rows, cols

    def dense_mask(self) -> np.ndarray:
        """Boolean ``(m, n)`` mask of the PD support in dense coordinates."""
        mask = np.zeros(self.shape, dtype=bool)
        _, rows, cols = self._get_plan().support_coords()
        mask[rows, cols] = True
        return mask

    def to_dense(self) -> np.ndarray:
        """Materialize the full ``m x n`` dense array.

        Always float64, holding the *logical* weights (fixed-point codes
        come out dequantized) -- the reference the conformance tolerances
        are stated against.
        """
        dense = np.zeros(self.shape)
        flat, rows, cols = self._get_plan().support_coords()
        dense[rows, cols] = self._kernel_data().reshape(-1)[flat]
        return dense

    def to_q(self) -> np.ndarray:
        """Packed non-zero vector ``q`` (block-major, length ``mb*nb*p``).

        ``q[l*p + c]`` is the row-``c`` non-zero of block ``l = bi*nb + bj``,
        matching the paper's storage of "only the mn/p-length vector q".
        Returned in the storage dtype (fixed-point codes for ``int16``),
        so persisting ``q`` keeps the compressed footprint.
        """
        return self._data.reshape(-1).copy()

    @classmethod
    def from_q(
        cls,
        q: np.ndarray,
        shape: tuple[int, int],
        p: int,
        ks: np.ndarray,
        value_dtype: str | None = None,
        fixed_point=None,
    ) -> "BlockPermutedDiagonalMatrix":
        """Rebuild from a packed ``q`` vector (inverse of :meth:`to_q`).

        The one decoder for stored matrices (engine images, bundles): the
        index plan is derived from ``ks`` lazily, as for any other matrix.
        :meth:`to_q` always writes zero padding, so a non-zero value
        outside the logical ``shape`` means the stored values and metadata
        disagree; that raises ``ValueError`` instead of silently dropping
        the value.
        """
        m, n = shape
        mb, nb = -(-m // p), -(-n // p)
        q = np.asarray(q)
        if q.size != mb * nb * p:
            raise ValueError(
                f"q has {q.size} entries, expected {mb * nb * p} for "
                f"shape {shape} with p={p}"
            )
        values = q.reshape(mb, nb, p)
        matrix = cls(
            values,
            np.asarray(ks).reshape(mb, nb),
            shape=shape,
            value_dtype=value_dtype,
            fixed_point=fixed_point,
        )
        padded = (m, n) != (mb * p, nb * p)
        if padded and np.any(values[~matrix.support_mask()]):
            raise ValueError(
                f"q does not match shape {shape} with p={p}: it holds "
                f"non-zero values outside the logical shape"
            )
        return matrix

    def transpose(self) -> "BlockPermutedDiagonalMatrix":
        """Transpose; also block-PD, with ``k_t = (p - k) mod p`` per block.

        Transposed row ``d`` of block ``(bj, bi)`` carries the original
        entry whose column offset was ``d``, i.e. original row
        ``(d - k) mod p``: one gather along the value axis.  The backward
        pass never calls this -- :meth:`rmatmat` and :meth:`rmatvec` run
        transpose-free -- but the structured transpose remains part of the
        public API.
        """
        src = (np.arange(self.p) - self._ks[:, :, None]) % self.p
        data_t = np.take_along_axis(self._data, src, axis=2)
        ks_t = (-self._ks.T) % self.p
        return BlockPermutedDiagonalMatrix(
            np.ascontiguousarray(data_t.transpose(1, 0, 2)),
            ks_t,
            shape=(self.shape[1], self.shape[0]),
            value_dtype=self._value_dtype,
            fixed_point=self._fixed_point,
        )

    # ------------------------------------------------------------------
    # Arithmetic
    # ------------------------------------------------------------------

    def _coo(self, transposed: bool):
        """Cached ``scipy.sparse.coo_matrix`` view of ``W`` (or ``W.T``).

        Its coordinates are the plan's own ``rows``/``cols`` (swapped for
        ``W.T``) and its shape the padded ``(mb*p, nb*p)`` (or its
        transpose), so padding slots stay in: their zero weights meet the
        kernel's zero-padded operand rows, or land in output rows it
        slices off.  Storage order ``(bi, bj, c)`` lists every row's
        non-zeros in ascending column, and every ``W.T`` row's in
        ascending original row -- the order scipy accumulates them in.
        A view is built once per matrix and orientation, paying only
        scipy's O(nnz) bounds check; its ``data`` is re-pointed at
        :meth:`_kernel_data` on every call, so in-place writes and a
        reassigned :attr:`data` are always current.  Float storage is
        read in place; ``int16`` codes are decoded per call.
        """
        key = bool(transposed)
        # Looked up on every call, cached view or not, so a clobbered
        # ``_plan`` shows up as a rebuild on the next product.
        plan = self._get_plan()
        values = self._kernel_data().reshape(-1)
        view = self._coo_cache.get(key)
        if view is None:
            coords = (plan.rows.reshape(-1), plan.cols.reshape(-1))
            shape = (self.mb * self.p, self.nb * self.p)
            if key:
                coords, shape = coords[::-1], shape[::-1]
            view = _scipy_sparse.coo_matrix((values, coords), shape=shape)
            self._coo_cache[key] = view
        view.data = values
        return view

    def matvec(self, x: np.ndarray) -> np.ndarray:
        """``y = W @ x`` touching only the ``m*n/p`` stored weights: the
        one-row :meth:`matmat`."""
        x = np.asarray(x, dtype=self.compute_dtype)
        if x.shape != (self.shape[1],):
            raise ValueError(f"expected x of shape ({self.shape[1]},), got {x.shape}")
        return _kernel.matmat(self, x[None])[0]

    def matmat(self, x: np.ndarray) -> np.ndarray:
        """Batched forward product ``Y[b] = W @ X[b]`` for ``X`` of shape ``(B, n)``.

        In dense terms ``Y = X @ W.T`` (row-major batch against the logical
        ``(m, n)`` weight): the forward pass of an FC layer (``a = W x`` per
        sample, Sec. III-B) vectorized over the batch.  Returns ``(B, m)``,
        in :attr:`compute_dtype`.
        """
        x = np.asarray(x, dtype=self.compute_dtype)
        if x.ndim != 2 or x.shape[1] != self.shape[1]:
            raise ValueError(
                f"expected X of shape (B, {self.shape[1]}), got {x.shape}"
            )
        return _kernel.matmat(self, x)

    def rmatvec(self, y: np.ndarray) -> np.ndarray:
        """``W.T @ y`` (gradient propagation, Eqn. (3)): the one-row
        :meth:`rmatmat`."""
        y = np.asarray(y, dtype=self.compute_dtype)
        if y.shape != (self.shape[0],):
            raise ValueError(f"expected y of shape ({self.shape[0]},), got {y.shape}")
        return _kernel.rmatmat(self, y[None])[0]

    def rmatmat(self, y: np.ndarray) -> np.ndarray:
        """Batched ``W.T`` product for ``Y`` of shape ``(B, m)`` -> ``(B, n)``.

        The backward input gradient ``dx = W.T @ dy`` (Eqn. (3)).  Runs
        off the cached plan -- the permuted block-diagonal GEMMs for
        additive ``ks``, the transposed COO view otherwise (see
        :func:`repro.core.kernel.rmatmat`) -- and never constructs a
        ``transpose()`` matrix object.
        """
        y = np.asarray(y, dtype=self.compute_dtype)
        if y.ndim != 2 or y.shape[1] != self.shape[0]:
            raise ValueError(
                f"expected Y of shape (B, {self.shape[0]}), got {y.shape}"
            )
        return _kernel.rmatmat(self, y)

    def grad_data(self, x: np.ndarray, dy: np.ndarray) -> np.ndarray:
        """Gradient of a batch loss w.r.t. :attr:`data` (Eqn. (2)).

        ``dq[bi, bj, c] = sum_b dy[b, bi*p+c] * x[b, col(bi, bj, c)]`` --
        only the stored (non-zero) weights receive gradient, which is what
        keeps the trained network block-permuted diagonal.  The kernel
        batches this as permuted block-diagonal GEMMs for additive ``ks``
        and as gathers against the plan's columns otherwise (see
        :func:`repro.core.kernel.batched_grad_data`).

        Args:
            x: layer input, shape ``(B, n)``.
            dy: upstream gradient, shape ``(B, m)``.

        The result is the gradient w.r.t. the *logical* weights, in
        :attr:`compute_dtype` -- it never depends on the stored values, so
        for ``int16`` storage it carries no code scale.
        """
        x = np.asarray(x, dtype=self.compute_dtype)
        dy = np.asarray(dy, dtype=self.compute_dtype)
        if x.ndim != 2 or x.shape[1] != self.shape[1]:
            raise ValueError(
                f"expected x of shape (B, {self.shape[1]}), got {x.shape}"
            )
        batch = x.shape[0]
        if dy.shape != (batch, self.shape[0]):
            raise ValueError(
                f"dy shape {dy.shape} does not match (B={batch}, m={self.shape[0]})"
            )
        return _kernel.batched_grad_data(self, x, dy)

    def frobenius_error(self, dense: np.ndarray) -> float:
        """Frobenius-norm distance ``||dense - W||_F`` (approximation error)."""
        return float(np.linalg.norm(np.asarray(dense) - self.to_dense()))

    def __matmul__(self, x):
        if isinstance(x, np.ndarray):
            if x.ndim == 1:
                return self.matvec(x)
            if x.ndim == 2:
                return self.matmat(x.T).T
        return NotImplemented

    def __repr__(self) -> str:
        dtype = (
            "" if self._value_dtype == "float64"
            else f", value_dtype={self._value_dtype}"
        )
        return (
            f"BlockPermutedDiagonalMatrix(shape={self.shape}, p={self.p}, "
            f"blocks={self.mb}x{self.nb}, nnz={self.nnz}{dtype})"
        )


def convert_values(
    matrices: list[BlockPermutedDiagonalMatrix], value_dtype: str | None
) -> list[BlockPermutedDiagonalMatrix]:
    """One served stage's slot matrices at ``value_dtype``.

    ``None`` keeps the live matrices.  Otherwise each converts through
    :meth:`BlockPermutedDiagonalMatrix.with_value_dtype`; at ``int16`` one
    format covers every slot, the one a bundle manifest records.
    """
    if value_dtype is None:
        return list(matrices)
    fixed_point = None
    if _value_types.validate_value_dtype(value_dtype) == "int16":
        from repro.nn.quantization import choose_fixed_point_format

        fixed_point = choose_fixed_point_format(
            [np.max(np.abs(m._kernel_data()), initial=0.0) for m in matrices]
        )
    return [
        m.with_value_dtype(value_dtype, fixed_point=fixed_point)
        for m in matrices
    ]
