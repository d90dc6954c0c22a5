"""Core permuted-diagonal linear algebra (the paper's primary contribution).

A *permuted diagonal* (PD) matrix is a ``p x p`` matrix whose only non-zero
entries lie on a cyclically shifted diagonal: row ``c`` holds its single
non-zero at column ``(c + k) mod p`` where ``k`` is the block's *permutation
parameter*.  A *block-permuted diagonal* matrix tiles an ``m x n`` weight
matrix with such blocks (Eqn. (1) of the paper), storing only ``m*n/p``
values and **no indices** -- positions are recomputed with a modulo, which is
what makes the representation hardware friendly.

Public API
----------
- :class:`PermutedDiagonalMatrix` -- a single ``p x p`` PD block.
- :class:`BlockPermutedDiagonalMatrix` -- the full ``m x n`` structured matrix.
- :class:`BlockPermDiagTensor4D` -- PD structure over the channel plane of a
  4-D convolution weight tensor (Fig. 2).
- :func:`natural_permutation`, :func:`random_permutation` -- ``k_l`` selection.
- :func:`approximate_pd` / :func:`approximate_pd_tensor` -- optimal
  L2 projection of a dense matrix/tensor onto the PD support (Sec. III-F).
- :mod:`repro.core.kernel` -- the one product kernel (scipy COO products
  over the index plan's slot coordinates, and permuted block-diagonal
  GEMMs for the backward of additive ``ks``), which every product calls
  directly; :func:`default_backend` / :func:`available_backends` name its
  forward (``coo``) for host reports and choose nothing.
- Value storage (float64 / float32 / int16 fixed-point; see
  :mod:`repro.core.value_types`): each matrix takes ``value_dtype=`` /
  ``fixed_point=`` arguments, stores float64 without them, and converts
  via :meth:`BlockPermutedDiagonalMatrix.with_value_dtype`;
  :func:`default_value_dtype` names that float64 for host reports.
"""

from repro.core.value_types import (
    VALUE_DTYPES,
    UnknownValueDtypeError,
    default_value_dtype,
    validate_value_dtype,
)
from repro.core.permutation import (
    PermutationSpec,
    block_index,
    natural_permutation,
    nonzero_column,
    nonzero_row,
    random_permutation,
)
from repro.core.perm_diag import PermutedDiagonalMatrix
from repro.core.block_perm_diag import BlockPermutedDiagonalMatrix, row_shard_bounds
from repro.core.conv_tensor import BlockPermDiagTensor4D
from repro.core.approximation import (
    approximate_pd,
    approximate_pd_tensor,
    best_permutation_parameters,
    diagonal_energies,
)
from repro.core.storage import (
    StorageReport,
    dense_storage_bits,
    pd_storage_bits,
    unstructured_sparse_storage_bits,
)


def default_backend() -> str:
    """Name of the product kernel: always ``"coo"``."""
    return "coo"


def available_backends() -> tuple[str, ...]:
    """Names of the product kernels: only ``("coo",)``."""
    return ("coo",)


__all__ = [
    "PermutationSpec",
    "PermutedDiagonalMatrix",
    "BlockPermutedDiagonalMatrix",
    "BlockPermDiagTensor4D",
    "StorageReport",
    "UnknownValueDtypeError",
    "VALUE_DTYPES",
    "approximate_pd",
    "approximate_pd_tensor",
    "available_backends",
    "best_permutation_parameters",
    "diagonal_energies",
    "block_index",
    "default_backend",
    "default_value_dtype",
    "dense_storage_bits",
    "natural_permutation",
    "nonzero_column",
    "nonzero_row",
    "pd_storage_bits",
    "random_permutation",
    "row_shard_bounds",
    "unstructured_sparse_storage_bits",
    "validate_value_dtype",
]
