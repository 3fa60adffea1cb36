"""The observability scope: one switch for the runs built inside it.

Outside any scope the ``REPRO_*`` variables decide.  An environment and
a telemetry hub read the switches once, when built, and only a scope
keeps the hubs built inside it.
"""

from __future__ import annotations

import gc
import weakref

import pytest

from repro.sim import Environment, observability, switches
from repro.telemetry import Telemetry


def test_nested_scopes_override_and_restore():
    outer = switches()
    with observability(telemetry=True):
        assert switches() == (True, outer.provenance, outer.sanitize)
        with observability(provenance=True, sanitize=False):
            assert switches() == (True, True, False)
        assert switches() == (True, outer.provenance, outer.sanitize)
    assert switches() == outer
    with pytest.raises(RuntimeError):
        with observability(telemetry=True, provenance=True, sanitize=False):
            with observability(sanitize=True):
                raise RuntimeError("mid-run")
    assert switches() == outer


def test_env_vars_decide_outside_any_scope(monkeypatch):
    monkeypatch.setenv("REPRO_TELEMETRY", "1")
    monkeypatch.setenv("REPRO_PROVENANCE", "on")
    monkeypatch.setenv("REPRO_SANITIZE", "0")
    assert switches() == (True, True, False)
    env = Environment()
    hub = Telemetry(env)
    assert env.sanitizer is None
    assert hub.enabled and hub.provenance is not None
    with observability(telemetry=False, sanitize=True):
        assert switches() == (False, True, True)
        env = Environment()
    assert env.sanitizer is not None  # read once, when built
    monkeypatch.delenv("REPRO_PROVENANCE")
    assert switches() == (True, False, False)


def test_scope_keeps_the_hubs_built_inside_it():
    with observability(telemetry=True) as outer:
        first = Telemetry(Environment())
        with observability(telemetry=False) as inner:
            assert not Telemetry(Environment()).enabled
            explicit = Telemetry(Environment(), enabled=True)
        assert inner == [explicit]
    Telemetry(Environment(), enabled=True)
    assert outer == [first, explicit]


def test_finished_run_is_freed_outside_a_scope(monkeypatch):
    from repro.experiments import TUNING, run_openfoam_experiment

    monkeypatch.setenv("REPRO_TELEMETRY", "1")
    result = run_openfoam_experiment(TUNING, seed=3)
    hub = weakref.ref(result.session.telemetry)
    env = weakref.ref(result.session.env)
    assert hub().enabled
    del result
    gc.collect()
    assert hub() is None and env() is None
