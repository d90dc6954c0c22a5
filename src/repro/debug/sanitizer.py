"""Runtime aliasing/plan-cache sanitizer.

The PD matrix core promises two things its consumers silently rely on
(see the "Aliasing contract" and "Index-plan cache" sections of
:mod:`repro.core.block_perm_diag`):

1. **Aliasing** -- ``row_shard`` hands out *views* of the parent's value
   storage, and ``data`` assignment aliases the supplied buffer whenever
   padding allows, so in-place weight updates propagate with zero copies.
2. **Plan caching** -- index arithmetic (an :class:`_IndexPlan`) is built
   at most once per matrix and never invalidated: a matrix's structure
   is fixed when it is built.  A *rebuild* of the same matrix's plan
   means somebody clobbered ``_plan`` behind the cache's back, silently
   re-running all index arithmetic.

``tools/repro_lint`` rejects the code *shapes* that break these
contracts; this module catches the breakage the linter cannot see, at
runtime.  Inside :func:`sanitize`:

* ``row_shard`` results are verified with :func:`numpy.shares_memory`
  against the parent's storage (an :class:`AliasingViolationError` means
  the view contract broke) and the shard's value buffer is **frozen**
  (``flags.writeable = False``) so any code that writes weights through
  a shard instead of the parent trips a ``ValueError`` at the offending
  line.  No library path lifts the freeze.
* ``_get_plan`` calls are counted, distinguishing first builds from
  rebuilds; :meth:`Sanitizer.assert_no_plan_rebuild` turns rebuilds into
  a :class:`PlanRebuildError`.  No plan is ever stored, so a matrix
  loaded from an engine image or bundle counts one build on first use,
  like any other: a cold start builds one plan per loaded slot matrix
  and rebuilds none.
* ``BlockPermutedDiagonalMatrix._coo`` cache misses are counted as
  COO-view builds (``skeleton_builds``), at most one per matrix and
  orientation; a view wraps the plan's own coordinates, so building one
  runs no index arithmetic.  ``_IndexPlan.pbd_index`` cache misses are
  counted as PBD index builds (the additivity check plus, for additive
  ``ks``, the class gather vectors of the backward products), at most
  one per plan.  The serving forward never leaves COO, so a drain builds
  no PBD index.

Activation: ``with sanitize() as s: ...`` in code/tests, or export
``REPRO_SANITIZE=1`` and the test suite's root conftest wraps every test
automatically.  All patches are process-global (class-level) and fully
undone on context exit, including every writeable flag it touched.
"""

from __future__ import annotations

import os
import weakref
from dataclasses import dataclass, field

import numpy as np

from repro.core.block_perm_diag import BlockPermutedDiagonalMatrix, _IndexPlan

__all__ = [
    "AliasingViolationError",
    "PlanRebuildError",
    "Sanitizer",
    "SanitizerStats",
    "current_sanitizer",
    "sanitize",
    "sanitize_enabled",
]

_ENV_FLAG = "REPRO_SANITIZE"


class AliasingViolationError(AssertionError):
    """A buffer that must alias (share memory) does not."""


class PlanRebuildError(AssertionError):
    """A cached index plan was rebuilt for the same matrix."""


def sanitize_enabled() -> bool:
    """True when ``REPRO_SANITIZE=1`` is exported (test-suite opt-in)."""
    return os.environ.get(_ENV_FLAG) == "1"


@dataclass
class SanitizerStats:
    """Counters accumulated while a :class:`Sanitizer` is active."""

    plan_builds: int = 0
    plan_rebuilds: int = 0
    skeleton_builds: int = 0
    pbd_builds: int = 0
    shard_checks: int = 0
    frozen_buffers: int = 0
    rebuild_sites: list[str] = field(default_factory=list)


class Sanitizer:
    """Context manager installing the runtime contract checks.

    Nestable: an inner scope wraps the outer's patches and unwinds them
    on exit, so events inside the inner scope are counted by both (the
    ``REPRO_SANITIZE=1`` autouse fixture plus an explicit ``sanitize()``
    in a test compose cleanly).  Scopes must exit LIFO, which context
    managers guarantee.
    """

    _stack: "list[Sanitizer]" = []

    def __init__(self) -> None:
        self.stats = SanitizerStats()
        # Matrices that have already built a plan while we watched; a
        # second build for the same matrix is a rebuild.  Weak so the
        # sanitizer never extends matrix lifetimes.
        self._built: "weakref.WeakSet[BlockPermutedDiagonalMatrix]" = (
            weakref.WeakSet()
        )
        # (array, original_writeable) for every flag we flipped.
        self._frozen: list[tuple[np.ndarray, bool]] = []
        self._orig_get_plan = None
        self._orig_row_shard = None
        self._orig_coo = None
        self._orig_pbd_index = None

    # -- lifecycle -----------------------------------------------------

    def __enter__(self) -> "Sanitizer":
        Sanitizer._stack.append(self)
        cls = BlockPermutedDiagonalMatrix
        self._orig_get_plan = cls._get_plan
        self._orig_row_shard = cls.row_shard
        self._orig_coo = cls._coo
        self._orig_pbd_index = _IndexPlan.pbd_index
        sanitizer = self
        orig_get_plan = self._orig_get_plan
        orig_row_shard = self._orig_row_shard
        orig_coo = self._orig_coo
        orig_pbd_index = self._orig_pbd_index

        def _get_plan(matrix):
            if matrix._plan is None:
                if matrix in sanitizer._built:
                    sanitizer.stats.plan_rebuilds += 1
                    sanitizer.stats.rebuild_sites.append(
                        f"shape={matrix.shape} p={matrix.p}"
                    )
                else:
                    sanitizer._built.add(matrix)
                    sanitizer.stats.plan_builds += 1
            else:
                # A cached plan still marks the matrix as "has built":
                # dropping it later must count as a rebuild even if the
                # first build predated the sanitizer.
                sanitizer._built.add(matrix)
            return orig_get_plan(matrix)

        def row_shard(matrix, start_block, stop_block):
            out = orig_row_shard(matrix, start_block, stop_block)
            sanitizer.stats.shard_checks += 1
            if not np.shares_memory(out._data, matrix._data):
                raise AliasingViolationError(
                    f"row_shard([{start_block}, {stop_block})) of a "
                    f"{matrix.shape} matrix returned a copy; the serving "
                    f"contract requires a view of the parent's storage"
                )
            sanitizer.freeze(out._data)
            return out

        def _coo(matrix, transposed):
            if bool(transposed) not in matrix._coo_cache:
                sanitizer.stats.skeleton_builds += 1
            return orig_coo(matrix, transposed)

        def pbd_index(plan):
            if not plan._pbd_derived:
                sanitizer.stats.pbd_builds += 1
            return orig_pbd_index(plan)

        cls._get_plan = _get_plan
        cls.row_shard = row_shard
        cls._coo = _coo
        _IndexPlan.pbd_index = pbd_index
        return self

    def __exit__(self, *exc_info) -> None:
        if not Sanitizer._stack or Sanitizer._stack[-1] is not self:
            raise RuntimeError("sanitizer scopes must exit LIFO")
        cls = BlockPermutedDiagonalMatrix
        cls._get_plan = self._orig_get_plan
        cls.row_shard = self._orig_row_shard
        cls._coo = self._orig_coo
        _IndexPlan.pbd_index = self._orig_pbd_index
        # Restore flags LIFO so re-frozen duplicates unwind correctly.
        while self._frozen:
            arr, original = self._frozen.pop()
            try:
                arr.setflags(write=original)
            except ValueError:  # base became immutable; nothing to restore
                pass
        Sanitizer._stack.pop()

    # -- checks --------------------------------------------------------

    def freeze(self, arr: np.ndarray) -> None:
        """Mark ``arr`` read-only until the sanitizer exits.

        Writes through it then raise ``ValueError`` at the offending
        statement instead of silently diverging from the aliased parent.
        """
        self._frozen.append((arr, bool(arr.flags.writeable)))
        arr.setflags(write=False)
        self.stats.frozen_buffers += 1

    def assert_aliases(self, a: np.ndarray, b: np.ndarray, what: str) -> None:
        """Raise :class:`AliasingViolationError` unless ``a``/``b`` share memory."""
        if not np.shares_memory(a, b):
            raise AliasingViolationError(f"{what}: buffers do not share memory")

    def assert_no_plan_rebuild(self) -> None:
        """Raise :class:`PlanRebuildError` if any plan was rebuilt."""
        if self.stats.plan_rebuilds:
            sites = ", ".join(self.stats.rebuild_sites)
            raise PlanRebuildError(
                f"{self.stats.plan_rebuilds} index-plan rebuild(s) detected "
                f"({sites}); a matrix builds its plan once and never "
                f"invalidates it"
            )


def sanitize() -> Sanitizer:
    """The sanitizer as a context manager::

        with sanitize() as s:
            run_workload()
            s.assert_no_plan_rebuild()
    """
    return Sanitizer()


def current_sanitizer() -> Sanitizer | None:
    """The innermost active :class:`Sanitizer`, or ``None`` outside any."""
    return Sanitizer._stack[-1] if Sanitizer._stack else None
