"""Value-storage dtypes for :class:`~repro.core.BlockPermutedDiagonalMatrix`.

The matrix stores only the packed non-zero values ``q``; *how* those
values are stored is independent of the index structure and is described
by a ``value_dtype`` name:

``"float64"``
    The default: what every matrix built without a ``value_dtype``
    stores.  Bit-compatible with every pre-existing artifact and the
    reference for all conformance tolerances.
``"float32"``
    Half the memory traffic on the hot path.  Products run end to end in
    float32 (inputs are cast, the sparse products read the float32
    values in place), which is where the speedup comes from.
``"int16"``
    Fixed-point codes in the paper's 16-bit weight format
    (:class:`repro.nn.quantization.FixedPointFormat`).  Kernels see the
    codes *dequantized to float64* and accumulate in float64 -- the
    software analogue of the paper's wide accumulators -- so results are
    bit-identical to a float64 matrix holding the dequantized weights.

Because the fixed-point scale is a power of two, dequantize-then-
accumulate equals accumulate-then-scale bit for bit; the kernel
therefore carries no scaling logic at all (it reads
``BlockPermutedDiagonalMatrix._kernel_data()``).

There is no process-wide setting: a matrix stores what its constructor
is asked for, else float64.  ``int16`` also needs a per-matrix
:class:`~repro.nn.quantization.FixedPointFormat`.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "UnknownValueDtypeError",
    "VALUE_DTYPES",
    "default_value_dtype",
    "storage_dtype",
    "validate_value_dtype",
]

#: Every supported value-storage mode, in documentation order.
VALUE_DTYPES = ("float64", "float32", "int16")

_STORAGE_DTYPES = {
    "float64": np.dtype(np.float64),
    "float32": np.dtype(np.float32),
    "int16": np.dtype(np.int16),
}


class UnknownValueDtypeError(ValueError):
    """Raised for a value-dtype name outside :data:`VALUE_DTYPES`."""


def validate_value_dtype(name) -> str:
    """Canonical name for ``name`` (str or numpy dtype-like), or raise.

    Accepts the canonical strings plus anything ``np.dtype`` resolves to
    one of the three storage dtypes (``np.float32``, ``"f4"``, ...).
    ``None`` is ``"float64"``, as ``np.dtype(None)`` is.
    """
    if isinstance(name, str) and name in VALUE_DTYPES:
        return name
    try:
        resolved = np.dtype(name)
    except TypeError:
        resolved = None
    if resolved is not None:
        for canonical, dtype in _STORAGE_DTYPES.items():
            if resolved == dtype:
                return canonical
    raise UnknownValueDtypeError(
        f"unknown value_dtype {name!r}; expected one of {VALUE_DTYPES}"
    )


def storage_dtype(name: str) -> np.dtype:
    """The numpy dtype backing storage for a canonical value-dtype name."""
    return _STORAGE_DTYPES[validate_value_dtype(name)]


def default_value_dtype() -> str:
    """The value dtype a constructor uses when none is requested:
    always ``"float64"``."""
    return "float64"
