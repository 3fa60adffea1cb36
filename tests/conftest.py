"""Shared fixtures and helpers for the test suite.

The whole suite runs with the kernel sanitizers armed:
``pytest_configure`` sets ``REPRO_SANITIZE=1``, so every environment a
test builds sanitizes unless the test says otherwise, and each existing
integration/chaos test doubles as a sanitizer test.
Spontaneous findings — resource leaks and shared-dict races, which are
recorded the instant they happen — fail the test that produced them
unless it opts in with ``@pytest.mark.allow_sanitizer_findings`` (the
fixtures that deliberately trigger sanitizers use that marker).
"""

from __future__ import annotations

import os

import pytest

from repro.sim import Environment
from repro.sim.sanitizer import drain_spontaneous_findings


def pytest_configure(config) -> None:
    os.environ["REPRO_SANITIZE"] = "1"


@pytest.fixture(autouse=True)
def _sanitizer_guard(request):
    """Fail any test whose simulated runs leak resources or race."""
    drain_spontaneous_findings()
    yield
    findings = drain_spontaneous_findings()
    if request.node.get_closest_marker("allow_sanitizer_findings"):
        return
    if findings:
        report = "\n".join(f"  - {f.format()}" for f in findings)
        pytest.fail(
            f"kernel sanitizer recorded {len(findings)} finding(s) during "
            f"this test:\n{report}",
            pytrace=False,
        )


@pytest.fixture
def env() -> Environment:
    return Environment()


def run(env: Environment, generator, until=None):
    """Run a generator as a process and return its value."""
    proc = env.process(generator)
    return env.run(proc if until is None else until)
