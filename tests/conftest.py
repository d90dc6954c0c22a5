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

from repro.debug import sanitize, sanitize_enabled

# Test files where a plan rebuild is a contract violation, not a detail.
_STRICT_NO_REBUILD = (
    "tests/serve/",
    "tests/core/test_backend_conformance.py",
)


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
