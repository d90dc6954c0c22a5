"""Execution backends for the block-PD kernel.

Every matmul path in the repo dispatches through this module instead of
hard-coding an implementation:

- ``csr``   -- scipy CSR spmm with int32-indexed skeletons; the default.
- ``numba`` -- JIT-compiled parallel loops; optional, available only where
  numba imports.

One backend serves the whole process, chosen in this order:

1. the name set by :func:`set_default_backend`;
2. the ``REPRO_BACKEND`` environment variable;
3. ``auto``, which is ``csr``.

Backend objects are stateless singletons (see
:class:`~repro.core.backends.base.KernelBackend`); per-matrix caches stay
on the matrix, so the process backend can be switched at any time without
invalidating plans.
"""

from __future__ import annotations

import os

from repro.core.backends.base import (
    BackendUnavailableError,
    KernelBackend,
    UnknownBackendError,
)
from repro.core.backends.csr import CsrBackend
from repro.core.backends.numba_backend import NumbaBackend

__all__ = [
    "AUTO",
    "BackendUnavailableError",
    "KernelBackend",
    "UnknownBackendError",
    "available_backends",
    "backend_names",
    "current_backend",
    "default_backend",
    "get_backend",
    "set_default_backend",
    "validate_backend_name",
]

#: Sentinel name meaning "pick the best available backend" (``csr``).
AUTO = "auto"

_REGISTRY: dict[str, KernelBackend] = {
    "csr": CsrBackend(),
    "numba": NumbaBackend(),
}

# Process-wide default; ``None`` defers to ``REPRO_BACKEND`` / AUTO so the
# environment variable is re-read until someone pins a default explicitly.
_default: str | None = None


def backend_names() -> tuple[str, ...]:
    """All registered backend names, available or not."""
    return tuple(_REGISTRY)


def available_backends() -> tuple[str, ...]:
    """Registered backends whose dependencies import on this machine."""
    return tuple(n for n, b in _REGISTRY.items() if b.is_available())


def validate_backend_name(name: str) -> str:
    """Normalize ``name`` and reject unknown backends (``auto`` allowed)."""
    normalized = str(name).strip().lower()
    if normalized != AUTO and normalized not in _REGISTRY:
        known = ", ".join((AUTO,) + backend_names())
        raise UnknownBackendError(
            f"unknown kernel backend {name!r}; choose from: {known}"
        )
    return normalized


def get_backend(name: str) -> KernelBackend:
    """The singleton backend registered under ``name`` (``auto`` is csr).

    Raises:
        UnknownBackendError: ``name`` is not registered.
        BackendUnavailableError: registered, but its dependency is missing
            (checked on every call, so monkeypatched/changed environments
            take effect immediately).
    """
    normalized = validate_backend_name(name)
    backend = _REGISTRY["csr" if normalized == AUTO else normalized]
    if not backend.is_available():
        raise BackendUnavailableError(
            f"kernel backend {normalized!r} is not available on this system "
            f"(available: {', '.join(available_backends()) or 'none'})"
        )
    return backend


def set_default_backend(name: str | None) -> None:
    """Set the process-wide default backend.

    ``None`` restores the startup behaviour (``REPRO_BACKEND`` env var,
    else ``auto``).  A name is validated and checked for availability
    immediately so misconfiguration fails loudly here, not inside some
    later product call.
    """
    global _default
    if name is not None:
        name = validate_backend_name(name)
        get_backend(name)  # availability check, raises if missing
    _default = name


def default_backend() -> str:
    """The current default backend name (possibly ``"auto"``)."""
    if _default is not None:
        return _default
    env = os.environ.get("REPRO_BACKEND", "").strip().lower()
    return env or AUTO


def current_backend() -> KernelBackend:
    """The backend every product in the process runs on right now."""
    return get_backend(default_backend())
