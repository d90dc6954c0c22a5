"""Suite-wide wiring for the runtime aliasing sanitizer.

Exporting ``REPRO_SANITIZE=1`` runs every test inside
:func:`repro.debug.sanitize`: row shards are verified to alias their
parent storage and frozen against stray writes, and index-plan activity
is counted.  A matrix's structure is fixed when it is built, so no API
may drop its plan: teardown asserts that no plan was *rebuilt* during
any test outside ``tests/debug/``.  The sanitizer's own suite clobbers
plans on purpose to check that the rebuild is caught, so it stays
outside.

CI runs the whole tier-1 suite once in this mode (see
``docs/STATIC_ANALYSIS.md``); without the env var this conftest is a
no-op and the suite runs exactly as before.

It also provides ``force_pbd`` and ``forward_path``: test-sized matrices
are far narrower than ``repro.core.kernel._PBD_MIN_WIDTH``, the padded
input width from which an additive matrix's forward runs as permuted
block-diagonal GEMMs, so a test of that path must set the crossover to 0
or it silently runs the CSR product.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.core import kernel
from repro.debug import sanitize, sanitize_enabled

# The one suite whose tests rebuild plans on purpose.
_SANITIZER_SUITE = Path(__file__).parent / "debug"


@pytest.fixture
def force_pbd(monkeypatch):
    """Every additive matrix's forward runs as PBD GEMMs, whatever its
    width."""
    monkeypatch.setattr(kernel, "_PBD_MIN_WIDTH", 0)


@pytest.fixture(params=["csr", "pbd"])
def forward_path(request):
    """Run a test twice: at the default crossover, where every
    test-sized matrix takes the CSR forward, and under ``force_pbd``,
    where every additive one takes the PBD GEMMs."""
    if request.param == "pbd":
        request.getfixturevalue("force_pbd")
    return request.param


@pytest.fixture(autouse=True)
def _repro_sanitizer(request):
    if not sanitize_enabled():
        yield None
        return
    with sanitize() as sanitizer:
        yield sanitizer
        if _SANITIZER_SUITE not in Path(request.node.path).parents:
            sanitizer.assert_no_plan_rebuild()
