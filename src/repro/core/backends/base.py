"""Backend interface for the block-PD kernel hot paths.

A :class:`KernelBackend` implements the three products every training step
pays -- ``matmat`` (forward), ``rmatmat`` (input gradient) and ``grad_data``
(weight gradient) -- plus their single-vector variants, against one
:class:`~repro.core.block_perm_diag.BlockPermutedDiagonalMatrix`.

Backends are **stateless singletons**: all per-matrix state (the cached
index plan, the refreshed CSR value buffers) lives on the matrix itself,
so one backend instance serves every matrix in the process.  Input
validation also stays on the matrix -- backends receive arrays of the
correct shape, pre-cast to the matrix's *compute dtype*
(:attr:`~repro.core.block_perm_diag.BlockPermutedDiagonalMatrix.compute_dtype`),
and may index them without re-checking.

Dtype contract: backends read weight values through
``matrix._kernel_data()`` (never ``matrix.data``, which may hold int16
fixed-point codes) and allocate every temporary/output buffer with an
explicit dtype derived from the operands -- dtype-less ``np.zeros`` /
``np.empty`` silently upcast float32 products to float64 and are banned
in ``core/backends/`` by repro-lint rule RPR009.
"""

from __future__ import annotations

import numpy as np

__all__ = ["BackendUnavailableError", "KernelBackend", "UnknownBackendError"]


class UnknownBackendError(ValueError):
    """A backend name that is not registered (check ``REPRO_BACKEND``)."""


class BackendUnavailableError(RuntimeError):
    """A registered backend whose runtime dependency is missing."""


class KernelBackend:
    """One implementation of the block-PD products.

    Subclasses set :attr:`name`, may override :meth:`is_available`, and
    implement the batched products.  The single-vector products default to
    the batched ones with a singleton batch; override when a backend has a
    cheaper direct path (e.g. CSR mat-vec).
    """

    #: Registry key; also the value accepted by
    #: :func:`~repro.core.backends.set_default_backend` and ``REPRO_BACKEND``.
    name: str = "?"

    @classmethod
    def is_available(cls) -> bool:
        """Whether the backend's runtime dependencies are importable."""
        return True

    # -- batched products (must be implemented) -------------------------

    def matmat(self, matrix, x: np.ndarray) -> np.ndarray:
        """Forward ``Y[b] = W @ X[b]`` for ``X`` of shape ``(B, n)``."""
        raise NotImplementedError

    def rmatmat(self, matrix, y: np.ndarray) -> np.ndarray:
        """Transposed ``X[b] = W.T @ Y[b]`` for ``Y`` of shape ``(B, m)``."""
        raise NotImplementedError

    def grad_data(self, matrix, x: np.ndarray, dy: np.ndarray) -> np.ndarray:
        """Weight gradient ``dQ`` of shape ``(mb, nb, p)`` for a batch."""
        raise NotImplementedError

    # -- single-vector products (overridable) ---------------------------

    def matvec(self, matrix, x: np.ndarray) -> np.ndarray:
        return self.matmat(matrix, x[None, :])[0]

    def rmatvec(self, matrix, y: np.ndarray) -> np.ndarray:
        return self.rmatmat(matrix, y[None, :])[0]

    def __repr__(self) -> str:
        return f"<{type(self).__name__} name={self.name!r}>"
