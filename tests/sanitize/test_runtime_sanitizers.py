"""Runtime kernel sanitizers: each detector fires on a deliberately
broken fixture process and names both the process and the source line
that created the hazard.

Line numbers are derived from ``inspect`` at runtime so the assertions
survive edits to this file.
"""

from __future__ import annotations

import inspect

import pytest

from repro.sim import (
    Environment,
    Resource,
    SanitizerError,
    SharedDict,
    drain_spontaneous_findings,
)

def source_span(func) -> range:
    """Inclusive line range of ``func``'s source in this file."""
    lines, start = inspect.getsourcelines(func)
    return range(start, start + len(lines))


def assert_site_in(finding, func) -> None:
    assert finding.site is not None, finding.format()
    path, _, lineno = finding.site.rpartition(":")
    assert path.endswith("test_runtime_sanitizers.py"), finding.site
    assert int(lineno) in source_span(func), (
        f"{finding.site} not within {func.__name__} "
        f"(lines {source_span(func)})"
    )


# -- event leak -------------------------------------------------------------


def test_event_leak_names_process_and_line():
    env = Environment(sanitize=True)

    def leaky(env):
        env.timeout(1000)  # simlint: disable=SL010(deliberate leak fixture the runtime sanitizer must catch)
        yield env.timeout(1)

    env.process(leaky(env), name="leaky")
    env.run(until=10)

    findings = env.sanitize_check(strict=False)
    leaks = [f for f in findings if f.kind == "event-leak"]
    assert len(leaks) == 1
    assert leaks[0].process == "leaky"
    assert "Timeout" in leaks[0].detail
    assert_site_in(leaks[0], test_event_leak_names_process_and_line)


def test_clean_run_has_no_findings():
    env = Environment(sanitize=True)

    def fine(env):
        yield env.timeout(5)

    env.process(fine(env), name="fine")
    env.run()
    assert env.sanitize_check(strict=True) == []


def test_strict_check_raises():
    env = Environment(sanitize=True)

    def leaky(env):
        env.timeout(1000)  # simlint: disable=SL010(deliberate leak fixture the runtime sanitizer must catch)
        yield env.timeout(1)

    env.process(leaky(env), name="leaky")
    env.run(until=10)
    with pytest.raises(SanitizerError) as err:
        env.sanitize_check()
    assert "event-leak" in str(err.value)
    assert "leaky" in str(err.value)


def test_cancelled_event_is_not_a_leak():
    env = Environment(sanitize=True)

    def careful(env):
        timer = env.timeout(1000)
        timer.cancel_scheduled()
        yield env.timeout(1)

    env.process(careful(env), name="careful")
    env.run(until=10)
    assert env.sanitize_check(strict=True) == []


# -- deadlock ---------------------------------------------------------------


def test_two_process_deadlock_reports_both_await_sites():
    env = Environment(sanitize=True)
    ev_a = env.event()
    ev_b = env.event()

    def alice(env):
        yield ev_a  # waits for bob, who waits for alice
        ev_b.succeed()

    def bob(env):
        yield ev_b
        ev_a.succeed()

    env.process(alice(env), name="alice")
    env.process(bob(env), name="bob")
    env.run()

    findings = env.sanitize_check(strict=False)
    deadlocks = {f.process: f for f in findings if f.kind == "deadlock"}
    assert set(deadlocks) == {"alice", "bob"}
    assert_site_in(
        deadlocks["alice"], test_two_process_deadlock_reports_both_await_sites
    )
    assert_site_in(
        deadlocks["bob"], test_two_process_deadlock_reports_both_await_sites
    )
    for finding in deadlocks.values():
        assert "nothing can ever wake it" in finding.detail


def test_early_stop_is_not_reported_as_deadlock():
    """A run stopped with events still pending is just unfinished:
    parked processes must not be misdiagnosed as deadlocked."""
    env = Environment(sanitize=True)

    def slow(env):
        yield env.timeout(1000)

    env.process(slow(env), name="slow")
    env.run(until=10)
    findings = env.sanitize_check(strict=False)
    assert [f.kind for f in findings] == ["event-leak"]


# -- resource leak ----------------------------------------------------------


@pytest.mark.allow_sanitizer_findings
def test_resource_leak_names_process_and_request_line():
    env = Environment(sanitize=True)
    res = Resource(env, capacity=2)

    def hog(env, res):
        req = res.request()  # simlint: disable=SL101(deliberate leak fixture the runtime sanitizer must catch)
        yield req
        yield env.timeout(1)

    env.process(hog(env, res), name="hog")
    env.run()

    leaks = [f for f in env.sanitize_check(strict=False) if f.kind == "resource-leak"]
    assert len(leaks) == 1
    assert leaks[0].process == "hog"
    assert "Resource" in leaks[0].detail
    assert_site_in(leaks[0], test_resource_leak_names_process_and_request_line)
    # Spontaneous: recorded the moment the process exited, mirrored to
    # the module registry the conftest guard drains.
    assert any(f.kind == "resource-leak" for f in drain_spontaneous_findings())


def test_with_statement_release_is_clean():
    env = Environment(sanitize=True)
    res = Resource(env, capacity=1)

    def polite(env, res):
        with res.request() as req:
            yield req
            yield env.timeout(1)

    env.process(polite(env, res), name="polite")
    env.run()
    assert env.sanitize_check(strict=True) == []


# -- shared-dict race -------------------------------------------------------


@pytest.mark.allow_sanitizer_findings
def test_shared_dict_lost_update_names_writer_and_line():
    env = Environment(sanitize=True)
    counters = env.shared_dict("test.counters")
    assert isinstance(counters, SharedDict)
    counters["hits"] = 0

    def racer(env, counters, name):
        value = counters["hits"]  # read ...
        yield env.timeout(1)  # ... lose atomicity ...
        counters["hits"] = value + 1  # simlint: disable=SL102(deliberate lost-update fixture the runtime sanitizer must catch)

    env.process(racer(env, counters, "r1"), name="r1")
    env.process(racer(env, counters, "r2"), name="r2")
    env.run()

    races = [f for f in env.sanitize_check(strict=False) if f.kind == "shared-dict-race"]
    assert len(races) == 1  # the second writer loses the first's update
    assert races[0].process in {"r1", "r2"}
    assert "test.counters" in races[0].detail
    assert "lost update" in races[0].detail
    assert_site_in(races[0], test_shared_dict_lost_update_names_writer_and_line)
    assert counters["hits"] == 1  # the update really was lost
    drain_spontaneous_findings()


def test_shared_dict_serialized_writers_are_clean():
    env = Environment(sanitize=True)
    counters = env.shared_dict("test.counters")
    counters["hits"] = 0

    def writer(env, counters):
        yield env.timeout(1)
        counters["hits"] = counters["hits"] + 1  # re-read after the yield

    env.process(writer(env, counters), name="w1")
    env.process(writer(env, counters), name="w2")
    env.run()
    assert env.sanitize_check(strict=True) == []
    assert counters["hits"] == 2


def test_shared_dict_is_plain_dict_when_sanitizer_off():
    env = Environment(sanitize=False)
    assert type(env.shared_dict("anything")) is dict


# -- enablement plumbing ----------------------------------------------------


def test_env_var_enables_sanitizer(monkeypatch):
    monkeypatch.setenv("REPRO_SANITIZE", "1")
    assert Environment().sanitizer is not None
    monkeypatch.setenv("REPRO_SANITIZE", "0")
    assert Environment().sanitizer is None


def test_explicit_flag_beats_default():
    # conftest sets the suite-wide default to True; an explicit False
    # must still win.
    assert Environment(sanitize=False).sanitizer is None
    assert Environment().sanitizer is not None


def test_unsanitized_env_check_is_noop():
    env = Environment(sanitize=False)
    assert env.sanitize_check(strict=True) == []
