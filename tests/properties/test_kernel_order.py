"""Event order of the kernel: ``(time, priority, creation)``.

The environment fires events in the total order of their heap entries
``(time, priority, eid)``, where ``eid`` counts schedulings.  Random
programs are checked against a plain sorted-list model of that order;
the unit tests pin the tie cases one at a time.
"""

from itertools import count

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import Environment
from repro.sim.core import NORMAL, URGENT

INF = float("inf")

# Ties are the point: repeated delays put many events on one instant.
delays = st.sampled_from([0.0, 0.0, 1e-9, 0.5, 1.0, 1.0, 60.0, 1e7, INF])

kernel_programs = st.lists(
    st.one_of(
        st.tuples(st.just("timeout"), delays),  # NORMAL, at now + delay
        st.tuples(st.just("trigger"), st.sampled_from([URGENT, NORMAL])),  # at now
        st.tuples(st.just("cancel"), st.integers(min_value=0, max_value=63)),
        st.tuples(st.just("advance"), st.sampled_from([0.0, 1e-9, 0.5, 1.0, 30.0])),
    ),
    min_size=1,
    max_size=60,
)


@given(kernel_programs)
@settings(max_examples=200, deadline=None)
def test_kernel_fires_live_events_in_time_priority_creation_order(program):
    env = Environment()
    fired = []
    # The model: every live entry as (time, priority, creation, event).
    live = []
    expected = []
    cancelled = 0
    creation = count()

    def note(tag):
        return lambda event: fired.append((tag, env.now))

    def schedule(event, when, priority):
        tag = next(creation)
        event.callbacks.append(note(tag))
        live.append((when, priority, tag, event))

    def model_run(until):
        due = sorted(entry for entry in live if entry[0] <= until)
        expected.extend((tag, when) for when, _prio, tag, _event in due)
        live[:] = [entry for entry in live if entry[0] > until]

    for op, arg in program:
        if op == "timeout":
            schedule(env.timeout(arg), env.now + arg, NORMAL)
        elif op == "trigger":
            event = env.event()
            schedule(event, env.now, arg)
            event.succeed(priority=arg)
        elif op == "cancel" and live:
            _when, _prio, _tag, victim = live.pop(arg % len(live))
            victim.cancel_scheduled()
            cancelled += 1
        elif op == "advance":
            until = env.now + arg
            env.run(until=until)
            model_run(until)
            assert fired == expected
    env.run()
    model_run(INF)

    assert fired == expected
    counters = env.kernel_counters()
    assert counters["tombstones_skipped"] == cancelled
    assert counters["events_executed"] == len(expected)
    assert env.queue_size == 0


@given(
    st.lists(
        st.floats(min_value=0.0, max_value=50.0, allow_nan=False),
        min_size=1,
        max_size=30,
    )
)
@settings(max_examples=100, deadline=None)
def test_same_instant_bursts_preserve_creation_order(delays):
    # All timeouts at the *same* instant fire in creation (eid) order.
    env = Environment()
    fired = []
    for i, _ in enumerate(delays):
        timeout = env.timeout(5.0)
        timeout.callbacks.append(lambda event, i=i: fired.append((i, env.now)))
    env.run()
    assert fired == [(i, 5.0) for i in range(len(delays))]


def test_far_timer_joined_by_later_event_fires_in_order():
    # A long timer scheduled first, and a timer for half a second later
    # scheduled once the clock has moved: each fires at its own time.
    env = Environment()
    fired = []

    def note(tag):
        return lambda event: fired.append((tag, env.now))

    env.timeout(5000.0).callbacks.append(note("far"))

    def join(event):
        env.timeout(4000.5).callbacks.append(note("late"))  # absolute 5000.5

    env.timeout(1000.0).callbacks.append(join)
    env.run()
    assert fired == [("far", 5000.0), ("late", 5000.5)]


def test_urgent_trigger_beats_earlier_normal_timeout_at_same_instant():
    env = Environment()
    fired = []
    env.timeout(0.0).callbacks.append(lambda event: fired.append("normal"))
    urgent = env.event()
    urgent.callbacks.append(lambda event: fired.append("urgent"))
    urgent.succeed(priority=URGENT)
    env.run()
    assert fired == ["urgent", "normal"]
