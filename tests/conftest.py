"""Suite-wide wiring for the runtime aliasing sanitizer.

Exporting ``REPRO_SANITIZE=1`` runs every test inside
:func:`repro.debug.sanitize`: row shards are verified to alias their
parent storage and frozen against stray writes, and index-plan activity
is counted.  For the suites built on the "plans are computed once"
contract -- the serving runtime and the kernel conformance suite --
teardown additionally asserts that no plan was *rebuilt* during the
test.  Suites that exercise ``set_structure`` (whose documented job is
to invalidate the plan) are deliberately outside that strict set.

CI runs the whole tier-1 suite once in this mode (see
``docs/STATIC_ANALYSIS.md``); without the env var this conftest is a
no-op and the suite runs exactly as before.
"""

from __future__ import annotations

import pytest

from repro.core import set_default_value_dtype
from repro.debug import sanitize, sanitize_enabled

# Test files where a plan rebuild is a contract violation, not a detail.
_STRICT_NO_REBUILD = (
    "tests/serve/",
    "tests/core/test_backend_conformance.py",
)


@pytest.fixture(autouse=True)
def _pin_value_dtype(request):
    """Pin float64 value storage unless a test module opts out.

    CI runs the suite once with ``REPRO_VALUE_DTYPE=float32`` exported.
    Most tests assert float64 reference numerics (1e-10 tolerances,
    bit-exact comparisons), so by default this fixture pins the process
    value-dtype to float64 for the duration of each test -- the env leg
    proves nothing *leaks* through the default.  A module that declares
    ``REPRO_DTYPE_POLYMORPHIC = True`` at top level runs unpinned and
    genuinely follows the environment's value dtype (its assertions must
    be dtype-agnostic, e.g. internal-consistency checks).
    """
    module = getattr(request.node, "module", None)
    if module is not None and getattr(module, "REPRO_DTYPE_POLYMORPHIC", False):
        yield
        return
    set_default_value_dtype("float64")
    try:
        yield
    finally:
        set_default_value_dtype(None)


@pytest.fixture(autouse=True)
def _repro_sanitizer(request):
    if not sanitize_enabled():
        yield None
        return
    with sanitize() as sanitizer:
        yield sanitizer
        nodeid = request.node.nodeid.replace("\\", "/")
        if any(nodeid.startswith(prefix) for prefix in _STRICT_NO_REBUILD):
            sanitizer.assert_no_plan_rebuild()
