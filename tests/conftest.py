"""Shared test fixtures.

The suite runs in a hermetic environment: every ``REPRO_*`` variable a
developer has set is cleared for the session (the same prefix scrub
``bench/run.py`` does), so none of them — a service address, strict
mode — leaks into a test.  Two are then
pinned: the persistent trace cache (``repro.trace.cache``), which
defaults to the user's ``~/.cache``, points at a throwaway per-session
directory, and the result store is off.  Individual tests still set any
variable freely (``monkeypatch.setenv`` takes precedence and is undone
per test).
"""

from __future__ import annotations

import os

import pytest


@pytest.fixture(scope="session", autouse=True)
def _hermetic_environment(tmp_path_factory):
    """Clear every ``REPRO_*`` variable, then pin the trace cache to a
    per-session directory and the result store off.

    A developer's ``REPRO_RESULT_STORE`` in particular must not leak in:
    ``run_jobs`` would silently serve warm results and mask execution
    bugs.  Tests that exercise the store opt in per-test with
    ``monkeypatch.setenv`` or by passing explicit directories.
    """
    previous = {
        name: os.environ.pop(name)
        for name in list(os.environ)
        if name.startswith("REPRO_")
    }
    os.environ["REPRO_TRACE_CACHE"] = str(tmp_path_factory.mktemp("trace-cache"))
    os.environ["REPRO_RESULT_STORE"] = "off"
    yield
    for name in [name for name in os.environ if name.startswith("REPRO_")]:
        del os.environ[name]
    os.environ.update(previous)


@pytest.fixture
def pool_service():
    """A running simulation service on a two-process pool, with no
    result store."""
    from repro.service.server import ServiceConfig, SimulationService

    config = ServiceConfig(store=None, backend="pool", jobs=2)
    with SimulationService(config) as service:
        yield service
