"""Regression battery for the tracer's ``enabled`` flag.

Turning recording off (before or during a run) is how very large runs
stay cheap: nothing is stored while it is off, but emission counts keep
the full story.
"""

from __future__ import annotations

from repro.sim.trace import Tracer


def test_mid_run_disable_suppresses_storage_not_counts(env):
    tracer = Tracer(env)
    tracer.record("chatty", "a")
    tracer.enabled = False
    tracer.record("chatty", "b")
    tracer.record("quiet", "c")
    assert [r.name for r in tracer.records] == ["a"]
    assert tracer.count("chatty") == 2  # emission is still counted
    assert tracer.count("quiet") == 1


def test_mid_run_reenable_resumes_storage(env):
    tracer = Tracer(env, enabled=False)
    tracer.record("x", "dropped")
    tracer.enabled = True
    tracer.record("x", "kept")
    assert [r.name for r in tracer.records] == ["kept"]
    assert tracer.count("x") == 2


def test_globally_disabled_tracer_still_counts(env):
    tracer = Tracer(env, enabled=False)
    tracer.record("x", "a")
    assert len(tracer) == 0
    assert tracer.count("x") == 1
    assert tracer.categories() == set()


def test_clear_resets_counts_and_records(env):
    tracer = Tracer(env)
    tracer.record("x", "a")
    tracer.clear()
    assert len(tracer) == 0
    assert tracer.count("x") == 0
